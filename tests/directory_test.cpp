// Tests for the LDAP-like directory: DN algebra, entries, filter parsing
// and evaluation, the server tree, and the RPC-served client.
#include <gtest/gtest.h>

#include <optional>

#include "common/rng.hpp"
#include "directory/dn.hpp"
#include "directory/entry.hpp"
#include "directory/filter.hpp"
#include "directory/server.hpp"
#include "directory/service.hpp"
#include "sim/simulation.hpp"

namespace ed = esg::directory;
namespace ec = esg::common;
namespace en = esg::net;
namespace es = esg::sim;

namespace {

ed::Dn dn(const std::string& s) {
  auto d = ed::Dn::parse(s);
  EXPECT_TRUE(d.ok()) << s;
  return *d;
}

ed::Filter filter(const std::string& s) {
  auto f = ed::Filter::parse(s);
  EXPECT_TRUE(f.ok()) << s << ": " << (f.ok() ? "" : f.error().message);
  return *f;
}

std::vector<std::string> dns_of(const std::vector<const ed::Entry*>& entries) {
  std::vector<std::string> out;
  for (const auto* e : entries) out.push_back(e->dn().normalized());
  return out;
}

}  // namespace

// ---------- DN ----------

TEST(Dn, ParseAndNormalize) {
  auto d = dn("LC=CO2 measurements 1998, RC=GriPhyN, O=Grid");
  EXPECT_EQ(d.depth(), 3u);
  EXPECT_EQ(d.leaf().first, "LC");
  EXPECT_EQ(d.normalized(), "lc=CO2 measurements 1998,rc=GriPhyN,o=Grid");
}

TEST(Dn, ParseErrors) {
  EXPECT_FALSE(ed::Dn::parse("").ok());
  EXPECT_FALSE(ed::Dn::parse("novalue,o=grid").ok());
  EXPECT_FALSE(ed::Dn::parse("=x,o=grid").ok());
  EXPECT_FALSE(ed::Dn::parse("a=,o=grid").ok());
}

TEST(Dn, ParentAndChild) {
  auto d = dn("lf=f1,lc=co2,o=grid");
  EXPECT_EQ(d.parent().normalized(), "lc=co2,o=grid");
  EXPECT_EQ(dn("o=grid").parent().depth(), 0u);
  EXPECT_EQ(dn("o=grid").child("rc", "esg").normalized(), "rc=esg,o=grid");
}

TEST(Dn, IsWithin) {
  auto base = dn("rc=esg,o=grid");
  EXPECT_TRUE(dn("lc=co2,rc=esg,o=grid").is_within(base));
  EXPECT_TRUE(base.is_within(base));
  EXPECT_FALSE(dn("lc=co2,rc=other,o=grid").is_within(base));
  EXPECT_FALSE(dn("o=grid").is_within(base));
}

TEST(Dn, CaseInsensitiveAttrsCaseSensitiveValues) {
  EXPECT_EQ(dn("O=Grid"), dn("o=Grid"));
  EXPECT_FALSE(dn("o=Grid") == dn("o=grid"));
}

// ---------- Entry ----------

TEST(Entry, MultiValuedAttributes) {
  ed::Entry e(dn("lc=co2,o=grid"));
  e.add("filename", "a.ncx").add("filename", "b.ncx");
  EXPECT_EQ(e.values("FILENAME").size(), 2u);
  e.set("filename", "only.ncx");
  EXPECT_EQ(e.values("filename").size(), 1u);
  e.remove_value("filename", "only.ncx");
  EXPECT_FALSE(e.has("filename"));
}

TEST(Entry, IntAttributes) {
  ed::Entry e(dn("lf=f,o=grid"));
  e.add("size", std::int64_t{1'940'000'000});
  EXPECT_EQ(e.get_int("size"), 1'940'000'000);
  e.set("size", "not a number");
  EXPECT_EQ(e.get_int("size", -1), -1);
}

TEST(Entry, SerializeRoundTrip) {
  ed::Entry e(dn("lc=co2 1998,rc=esg,o=grid"));
  e.add("objectclass", "logicalcollection");
  e.add("filename", "jan.ncx").add("filename", "feb.ncx");
  ec::ByteWriter w;
  e.serialize(w);
  ec::ByteReader r(w.bytes());
  auto back = ed::Entry::deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->dn(), e.dn());
  EXPECT_EQ(back->values("filename"), e.values("filename"));
}

TEST(Entry, DeserializeMergesCaseVariantBlocksInWireOrder) {
  ec::ByteWriter w;
  w.str("lc=co2,o=grid");
  w.u32(3);
  w.str("FileName");
  w.str_vec({"jan.ncx", "feb.ncx"});
  w.str("empty");
  w.str_vec({});
  w.str("filename");
  w.str_vec({"mar.ncx"});
  ec::ByteReader r(w.bytes());
  auto e = ed::Entry::deserialize(r);
  ASSERT_TRUE(e.ok());
  ASSERT_EQ(e->attributes().size(), 1u);  // an empty block adds nothing
  EXPECT_EQ(e->values("filename"),
            (std::vector<std::string>{"jan.ncx", "feb.ncx", "mar.ncx"}));
}

TEST(Entry, TakeValuesMovesThemOutAndDropsTheAttribute) {
  ed::Entry e(dn("loc=x,o=grid"));
  e.add("filename", "a.ncx").add("filename", "b.ncx");
  EXPECT_EQ(e.take_values("FILENAME"),
            (std::vector<std::string>{"a.ncx", "b.ncx"}));
  EXPECT_FALSE(e.has("filename"));
  EXPECT_TRUE(e.take_values("filename").empty());
}

// ---------- Filter ----------

TEST(Filter, SimpleEquality) {
  ed::Entry e(dn("x=1,o=g"));
  e.add("objectclass", "collection");
  EXPECT_TRUE(filter("(objectclass=collection)").matches(e));
  EXPECT_FALSE(filter("(objectclass=location)").matches(e));
}

TEST(Filter, WildcardsAndPresence) {
  ed::Entry e(dn("x=1,o=g"));
  e.add("name", "co2.1998.jan.ncx");
  EXPECT_TRUE(filter("(name=co2*)").matches(e));
  EXPECT_TRUE(filter("(name=*jan*)").matches(e));
  EXPECT_FALSE(filter("(name=co3*)").matches(e));
  EXPECT_TRUE(filter("(name=*)").matches(e));
  EXPECT_FALSE(filter("(missing=*)").matches(e));
}

TEST(Filter, BooleanCombinators) {
  ed::Entry e(dn("x=1,o=g"));
  e.add("a", "1");
  e.add("b", "2");
  EXPECT_TRUE(filter("(&(a=1)(b=2))").matches(e));
  EXPECT_FALSE(filter("(&(a=1)(b=3))").matches(e));
  EXPECT_TRUE(filter("(|(a=9)(b=2))").matches(e));
  EXPECT_FALSE(filter("(|(a=9)(b=9))").matches(e));
  EXPECT_TRUE(filter("(!(a=9))").matches(e));
  EXPECT_FALSE(filter("(!(a=1))").matches(e));
  EXPECT_TRUE(filter("(&(a=1)(|(b=2)(b=3))(!(c=*)))").matches(e));
}

TEST(Filter, NumericComparisons) {
  ed::Entry e(dn("x=1,o=g"));
  e.add("size", "900");  // numerically 900 < 1000 but lexically "900" > "1000"
  EXPECT_TRUE(filter("(size<=1000)").matches(e));
  EXPECT_FALSE(filter("(size>=1000)").matches(e));
  EXPECT_TRUE(filter("(size>=900)").matches(e));
}

TEST(Filter, ParseErrors) {
  EXPECT_FALSE(ed::Filter::parse("no-parens").ok());
  EXPECT_FALSE(ed::Filter::parse("(a=1").ok());
  EXPECT_FALSE(ed::Filter::parse("(=x)").ok());
  EXPECT_FALSE(ed::Filter::parse("(a=1)(b=2)").ok());
}

TEST(Filter, MultiValuedAnyMatch) {
  ed::Entry e(dn("x=1,o=g"));
  e.add("filename", "a.ncx");
  e.add("filename", "b.ncx");
  EXPECT_TRUE(filter("(filename=b.ncx)").matches(e));
}

TEST(Filter, RoundTripToString) {
  auto f = filter("(&(objectclass=collection)(name=co2*))");
  auto f2 = filter(f.to_string());
  ed::Entry e(dn("x=1,o=g"));
  e.add("objectclass", "collection");
  e.add("name", "co2x");
  EXPECT_TRUE(f2.matches(e));
}

TEST(Filter, RequiredClassOnlyForExactObjectclassEquality) {
  const auto required = [](const std::string& text) -> std::string {
    const ed::Filter f = filter(text);  // the result points into it
    const std::string* cls = f.required_class();
    return cls ? *cls : "(none)";
  };
  EXPECT_EQ(required("(objectClass=location)"), "location");
  EXPECT_EQ(required("(&(filename=a)(objectclass=Location))"), "Location");
  EXPECT_EQ(required("(&(objectclass=a)(objectclass=b))"), "a");
  EXPECT_EQ(required("(objectclass=loc*)"), "(none)");
  EXPECT_EQ(required("(objectclass=*)"), "(none)");
  EXPECT_EQ(required("(objectclass=\\2a)"), "*");  // escaped: exact
  EXPECT_EQ(required("(|(objectclass=a)(objectclass=b))"), "(none)");
  EXPECT_EQ(required("(!(objectclass=a))"), "(none)");
  EXPECT_EQ(required("(&(|(objectclass=a)))"), "(none)");  // not a direct child
  EXPECT_EQ(required("(name=location)"), "(none)");
  EXPECT_EQ(ed::Filter::match_all().required_class(), nullptr);
}

TEST(Filter, EscapedStarIsALiteralNotAWildcard) {
  ed::Entry starred(dn("x=1,o=g"));
  starred.add("name", "a*b");
  ed::Entry plain(dn("x=2,o=g"));
  plain.add("name", "axb");
  ed::Entry lone(dn("x=3,o=g"));
  lone.add("name", "*");

  EXPECT_TRUE(filter("(name=a\\2ab)").matches(starred));
  EXPECT_FALSE(filter("(name=a\\2Ab)").matches(plain));
  EXPECT_TRUE(filter("(name=a*b)").matches(plain));  // unescaped: a wildcard
  EXPECT_TRUE(filter("(name=\\2a)").matches(lone));  // a value, not presence
  EXPECT_FALSE(filter("(name=\\2a)").matches(plain));
  EXPECT_EQ(filter("(name=a\\2Ab)").to_string(), "(name=a\\2ab)");

  const auto mixed = ed::Filter::parse("(name=a\\2a*)");  // and a wildcard
  ASSERT_FALSE(mixed.ok());
  EXPECT_EQ(mixed.error().code, ec::Errc::invalid_argument);
  EXPECT_FALSE(ed::Filter::parse("(name=a\\2)").ok());
  EXPECT_FALSE(ed::Filter::parse("(name=\\zz)").ok());
}

TEST(Filter, EscapedValuesMatchOnlyThemselves) {
  const std::vector<std::string> names = {
      "plain.ncx", "*", "*.ncx", "feb*", "a(1).ncx", "back\\slash",
      std::string("nul\0byte", 8)};
  EXPECT_EQ(ed::Filter::escape(std::string("*()\\\0x", 6)),
            "\\2a\\28\\29\\5c\\00x");
  for (const auto& name : names) {
    const ed::Filter f = filter("(filename=" + ed::Filter::escape(name) + ")");
    EXPECT_EQ(filter(f.to_string()).to_string(), f.to_string()) << name;
    for (const auto& other : names) {
      ed::Entry e(dn("x=1,o=g"));
      e.add("filename", other);
      EXPECT_EQ(f.matches(e), other == name) << name << " vs " << other;
    }
  }
}

// ---------- Server ----------

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ed::Entry root(dn("o=grid"));
    root.add("objectclass", "organization");
    ASSERT_TRUE(server_.add(root).ok());
    ed::Entry rc(dn("rc=esg,o=grid"));
    rc.add("objectclass", "replicacatalog");
    ASSERT_TRUE(server_.add(rc).ok());
    for (const char* name : {"co2-1998", "co2-1999"}) {
      ed::Entry c(dn(std::string("lc=") + name + ",rc=esg,o=grid"));
      c.add("objectclass", "logicalcollection");
      c.add("name", name);
      ASSERT_TRUE(server_.add(c).ok());
    }
  }
  ed::DirectoryServer server_;
};

TEST_F(ServerTest, AddRequiresParent) {
  ed::Entry orphan(dn("lf=f,lc=nope,rc=esg,o=grid"));
  auto st = server_.add(orphan);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code, ec::Errc::not_found);
}

TEST_F(ServerTest, AddDuplicateFails) {
  ed::Entry dup(dn("rc=esg,o=grid"));
  EXPECT_EQ(server_.add(dup).error().code, ec::Errc::already_exists);
}

TEST_F(ServerTest, EnsureCreatesAncestors) {
  ed::Entry deep(dn("lf=f,lc=new,rc=esg,o=grid"));
  deep.add("size", "10");
  ASSERT_TRUE(server_.ensure(deep).ok());
  EXPECT_TRUE(server_.exists(dn("lc=new,rc=esg,o=grid")));
  EXPECT_TRUE(server_.exists(dn("lf=f,lc=new,rc=esg,o=grid")));
}

TEST_F(ServerTest, SearchScopes) {
  auto all = server_.search(dn("o=grid"), ed::Scope::sub, ed::Filter::match_all());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->size(), 4u);

  auto one = server_.search(dn("rc=esg,o=grid"), ed::Scope::one,
                            ed::Filter::match_all());
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->size(), 2u);

  auto base = server_.search(dn("rc=esg,o=grid"), ed::Scope::base,
                             ed::Filter::match_all());
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->size(), 1u);
  EXPECT_EQ(base->front()->get("objectclass"), "replicacatalog");
}

TEST_F(ServerTest, SearchWithFilter) {
  auto hits = server_.search(dn("o=grid"), ed::Scope::sub,
                             filter("(name=co2-1998)"));
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ(hits->front()->get("name"), "co2-1998");
}

TEST_F(ServerTest, SearchMissingBaseFails) {
  auto r = server_.search(dn("rc=none,o=grid"), ed::Scope::sub,
                          ed::Filter::match_all());
  EXPECT_FALSE(r.ok());
}

TEST_F(ServerTest, ModifyInPlace) {
  ASSERT_TRUE(server_
                  .modify(dn("lc=co2-1998,rc=esg,o=grid"),
                          [](ed::Entry& e) { e.add("filename", "jan.ncx"); })
                  .ok());
  auto e = server_.lookup(dn("lc=co2-1998,rc=esg,o=grid"));
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->get("filename"), "jan.ncx");
}

TEST_F(ServerTest, RemoveLeafAndSubtree) {
  EXPECT_FALSE(server_.remove(dn("rc=esg,o=grid")).ok());  // has children
  EXPECT_TRUE(server_.remove(dn("lc=co2-1998,rc=esg,o=grid")).ok());
  EXPECT_TRUE(server_.remove(dn("rc=esg,o=grid"), /*recursive=*/true).ok());
  EXPECT_EQ(server_.size(), 1u);  // only o=grid remains
}

TEST_F(ServerTest, ClassIndexFollowsModifyAndRecursiveRemove) {
  const auto classed = [this](const std::string& cls) {
    auto r = server_.search(dn("o=grid"), ed::Scope::sub,
                            filter("(objectclass=" + cls + ")"));
    EXPECT_TRUE(r.ok());
    return r.ok() ? dns_of(*r) : std::vector<std::string>{};
  };
  ASSERT_TRUE(server_
                  .modify(dn("lc=co2-1999,rc=esg,o=grid"),
                          [](ed::Entry& e) { e.set("objectclass", "location"); })
                  .ok());
  EXPECT_EQ(classed("location"),
            std::vector<std::string>{"lc=co2-1999,rc=esg,o=grid"});
  EXPECT_EQ(classed("logicalcollection"),
            std::vector<std::string>{"lc=co2-1998,rc=esg,o=grid"});
  ASSERT_TRUE(server_.remove(dn("rc=esg,o=grid"), /*recursive=*/true).ok());
  EXPECT_TRUE(classed("location").empty());
  EXPECT_TRUE(classed("logicalcollection").empty());
  EXPECT_TRUE(classed("replicacatalog").empty());
  EXPECT_EQ(classed("organization"), std::vector<std::string>{"o=grid"});
}

// A seeded random walk of writes over a small namespace, so that adds
// collide, replaces and modifies move entries between classes, and
// recursive removes drop whole subtrees.  After every step each search must
// return exactly what Filter::matches keeps of a match_all search over the
// same base and scope: the same entries in the same order.
TEST(DirectoryIndex, SearchAgreesWithFullWalkUnderRandomWrites) {
  std::vector<ed::Dn> names = {dn("o=grid")};
  for (const char* rc : {"a", "b"}) {
    const ed::Dn catalog = dn("o=grid").child("rc", rc);
    names.push_back(catalog);
    for (const char* lc : {"c0", "c1"}) {
      const ed::Dn collection = catalog.child("lc", lc);
      names.push_back(collection);
      for (const char* leaf : {"x0", "x1"}) {
        names.push_back(collection.child("loc", leaf));
        names.push_back(collection.child("lf", leaf));
      }
    }
  }
  const std::vector<std::string> classes = {
      "location", "Location", "logicalfile", "logicalcollection",
      "organizationalUnit"};
  const std::vector<std::string> files = {"f0", "f1", "f2"};
  const std::vector<ed::Filter> filters = {
      filter("(objectclass=location)"),
      filter("(objectclass=Location)"),
      filter("(objectclass=organizationalUnit)"),
      filter("(&(objectclass=location)(filename=f1))"),
      filter("(&(filename=f0)(objectclass=logicalfile))"),
      filter("(objectclass=nosuch)"),
      // These walk the whole tree.
      filter("(objectclass=loc*)"),
      filter("(objectclass=*)"),
      filter("(|(objectclass=location)(objectclass=logicalfile))"),
      filter("(!(objectclass=location))"),
      filter("(filename=f2)"),
  };

  ec::Rng rng(20010301);
  const auto pick = [&rng](const auto& v) -> const auto& {
    return v[rng.uniform_int(v.size())];
  };
  const auto random_entry = [&](const ed::Dn& name) {
    ed::Entry e(name);
    // Zero to two classes, possibly the same one twice.
    for (auto n = rng.uniform_int(3); n > 0; --n) {
      e.add("objectClass", pick(classes));
    }
    if (rng.uniform_int(2) == 1) e.add("filename", pick(files));
    return e;
  };
  const auto classes_of = [](const ed::DirectoryServer& server,
                             const ed::Dn& name) {
    auto e = server.lookup(name);
    return e ? e->values("objectclass") : std::vector<std::string>{};
  };

  ed::DirectoryServer server;
  int class_moves = 0;
  for (int step = 0; step < 300; ++step) {
    const ed::Dn& name = pick(names);
    const bool existed = server.exists(name);
    const auto before = classes_of(server, name);
    switch (rng.uniform_int(5)) {
      case 0: (void)server.add(random_entry(name)); break;
      case 1: (void)server.ensure(random_entry(name)); break;
      case 2: (void)server.replace(random_entry(name)); break;
      case 3:
        (void)server.modify(name, [&](ed::Entry& e) {
          switch (rng.uniform_int(4)) {
            case 0: e.set("objectclass", pick(classes)); break;
            case 1: e.add("objectclass", pick(classes)); break;
            case 2: e.remove_attr("objectclass"); break;
            default: e.remove_value("objectclass", pick(classes)); break;
          }
        });
        break;
      default: (void)server.remove(name, /*recursive=*/true); break;
    }
    if (existed && server.exists(name) && classes_of(server, name) != before) {
      ++class_moves;
    }

    auto all = server.search(ed::Dn(), ed::Scope::sub, ed::Filter::match_all());
    ASSERT_TRUE(all.ok());
    std::vector<ed::Dn> bases = {ed::Dn()};
    for (const auto* e : *all) bases.push_back(e->dn());
    for (const auto& base : bases) {
      for (auto scope : {ed::Scope::base, ed::Scope::one, ed::Scope::sub}) {
        auto in_scope = server.search(base, scope, ed::Filter::match_all());
        ASSERT_TRUE(in_scope.ok());
        for (const auto& f : filters) {
          std::vector<const ed::Entry*> expected;
          for (const auto* e : *in_scope) {
            if (f.matches(*e)) expected.push_back(e);
          }
          auto got = server.search(base, scope, f);
          ASSERT_TRUE(got.ok());
          ASSERT_EQ(dns_of(*got), dns_of(expected))
              << "step " << step << ", base '" << base.to_string()
              << "', scope " << ed::scope_name(scope) << ", filter "
              << f.to_string();
          ASSERT_EQ(*got, expected);  // the stored entries themselves
        }
      }
    }
  }
  EXPECT_GT(class_moves, 20);
}

// ---------- RPC-served directory ----------

TEST(DirectoryService, ClientRoundTrip) {
  es::Simulation sim;
  en::Network net(sim);
  net.add_site("a");
  net.add_site("b");
  net.add_link({.name = "l", .site_a = "a", .site_b = "b",
                .capacity = ec::mbps(100), .latency = 5 * ec::kMillisecond});
  auto* client_host = net.add_host({.name = "c", .site = "a"});
  auto* server_host = net.add_host({.name = "s", .site = "b"});
  esg::rpc::Orb orb(net);
  auto server = std::make_shared<ed::DirectoryServer>();
  ed::DirectoryService service(orb, *server_host, server);
  ed::DirectoryClient client(orb, *client_host, *server_host);

  ed::Entry e(dn("lc=co2,rc=esg,o=grid"));
  e.add("objectclass", "logicalcollection");
  bool added = false;
  client.add(e, /*ensure=*/true, [&](ec::Status st) {
    ASSERT_TRUE(st.ok()) << st.error().to_string();
    added = true;
  });
  sim.run();
  ASSERT_TRUE(added);

  bool modified = false;
  client.modify(dn("lc=co2,rc=esg,o=grid"),
                {{ed::ModOp::Kind::add, "filename", "jan.ncx"}},
                [&](ec::Status st) {
                  ASSERT_TRUE(st.ok());
                  modified = true;
                });
  sim.run();
  ASSERT_TRUE(modified);

  bool found = false;
  client.search(dn("o=grid"), ed::Scope::sub, "(filename=jan*)", {},
                [&](ec::Result<std::vector<ed::Entry>> r) {
                  ASSERT_TRUE(r.ok());
                  ASSERT_EQ(r->size(), 1u);
                  EXPECT_EQ(r->front().dn(), dn("lc=co2,rc=esg,o=grid"));
                  found = true;
                });
  sim.run();
  EXPECT_TRUE(found);

  bool looked_up = false;
  client.lookup(dn("lc=co2,rc=esg,o=grid"), [&](ec::Result<ed::Entry> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->get("filename"), "jan.ncx");
    looked_up = true;
  });
  sim.run();
  EXPECT_TRUE(looked_up);

  bool removed = false;
  client.remove(dn("lc=co2,rc=esg,o=grid"), false, [&](ec::Status st) {
    ASSERT_TRUE(st.ok());
    removed = true;
  });
  sim.run();
  EXPECT_TRUE(removed);
  EXPECT_FALSE(server->exists(dn("lc=co2,rc=esg,o=grid")));
}

TEST(DirectoryService, LookupMissingReportsNotFound) {
  es::Simulation sim;
  en::Network net(sim);
  net.add_site("a");
  auto* h = net.add_host({.name = "h", .site = "a"});
  esg::rpc::Orb orb(net);
  auto server = std::make_shared<ed::DirectoryServer>();
  ed::DirectoryService service(orb, *h, server);
  ed::DirectoryClient client(orb, *h, *h);
  bool got = false;
  client.lookup(dn("o=missing"), [&](ec::Result<ed::Entry> r) {
    got = true;
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ec::Errc::not_found);
  });
  sim.run();
  EXPECT_TRUE(got);
}

namespace {

// A client and a directory server on two hosts of a small network.
struct ServiceWorld {
  es::Simulation sim;
  en::Network net{sim};
  en::Host* client_host = nullptr;
  en::Host* server_host = nullptr;
  esg::rpc::Orb orb{net};
  std::shared_ptr<ed::DirectoryServer> server =
      std::make_shared<ed::DirectoryServer>();
  std::unique_ptr<ed::DirectoryService> service;

  ServiceWorld() {
    net.add_site("a");
    net.add_site("b");
    net.add_link({.name = "l", .site_a = "a", .site_b = "b",
                  .capacity = ec::mbps(100),
                  .latency = 5 * ec::kMillisecond});
    client_host = net.add_host({.name = "c", .site = "a"});
    server_host = net.add_host({.name = "s", .site = "b"});
    service = std::make_unique<ed::DirectoryService>(orb, *server_host, server);
  }

  ed::DirectoryClient client() {
    return ed::DirectoryClient(orb, *client_host, *server_host);
  }

  // The reply DirectoryService::dispatch gives a raw request payload.
  ec::Result<esg::rpc::Payload> dispatch(const std::string& method,
                                         esg::rpc::Payload request) {
    std::optional<ec::Result<esg::rpc::Payload>> got;
    EXPECT_NO_THROW(service->dispatch(
        method, std::move(request),
        [&got](ec::Result<esg::rpc::Payload> r) { got = std::move(r); }));
    EXPECT_TRUE(got.has_value()) << method << " never replied";
    return got ? std::move(*got)
               : ec::Result<esg::rpc::Payload>(
                     ec::Error{ec::Errc::internal, "no reply"});
  }
};

// A location entry shaped like the replica catalog's.
ed::Entry location_entry() {
  ed::Entry e(dn("loc=sprite-llnl,lc=co2,rc=esg,o=grid"));
  e.add("objectclass", "location");
  e.add("name", "sprite-llnl");
  e.add("hostname", "llnl.host");
  e.add("path", "pcmdi/co2");
  for (const char* f : {"jan.ncx", "feb.ncx", "mar.ncx"}) e.add("filename", f);
  return e;
}

// A search request's fields before its attribute list, framed as
// DirectoryClient::search frames them.
ec::ByteWriter search_head() {
  ec::ByteWriter w;
  w.str("o=grid");
  w.str(ed::scope_name(ed::Scope::sub));
  w.str("(objectclass=location)");
  return w;
}

esg::rpc::Payload search_request(const std::vector<std::string>& attrs) {
  ec::ByteWriter w = search_head();
  w.str_vec(attrs);
  return w.take();
}

}  // namespace

TEST(DirectoryService, SearchReturnsOnlyTheRequestedAttributes) {
  ServiceWorld w;
  const ed::Entry stored = location_entry();
  ASSERT_TRUE(w.server->ensure(stored).ok());
  auto client = w.client();
  const auto search = [&](const std::vector<std::string>& attrs) {
    std::vector<ed::Entry> out;
    bool done = false;
    client.search(dn("o=grid"), ed::Scope::sub, "(objectclass=location)",
                  attrs, [&](ec::Result<std::vector<ed::Entry>> r) {
                    ASSERT_TRUE(r.ok()) << r.error().to_string();
                    out = std::move(*r);
                    done = true;
                  });
    w.sim.run();
    EXPECT_TRUE(done);
    return out;
  };
  const auto attr_names = [](const ed::Entry& e) {
    std::vector<std::string> out;
    for (const auto& [attr, vals] : e.attributes()) out.push_back(attr);
    return out;
  };

  const auto full = search({});
  ASSERT_EQ(full.size(), 1u);
  EXPECT_EQ(full[0].attributes(), stored.attributes());

  // Case-insensitive names; one the entry lacks is simply absent.
  const auto some = search({"HostName", "FILENAME", "nosuch"});
  ASSERT_EQ(some.size(), 1u);
  EXPECT_EQ(some[0].dn(), stored.dn());
  EXPECT_EQ(attr_names(some[0]),
            (std::vector<std::string>{"filename", "hostname"}));
  for (const auto& [attr, vals] : some[0].attributes()) {
    EXPECT_EQ(vals, full[0].values(attr)) << attr;
  }

  const auto none = search({"nosuch"});
  ASSERT_EQ(none.size(), 1u);
  EXPECT_EQ(none[0].dn(), stored.dn());  // the DN always comes back
  EXPECT_TRUE(none[0].attributes().empty());
}

TEST(DirectoryService, NamingEveryAttributeRepliesAsNamingNone) {
  ServiceWorld w;
  ASSERT_TRUE(w.server->ensure(location_entry()).ok());
  const auto all = w.dispatch("search", search_request({}));
  // Every attribute, in another order and case.
  const auto named = w.dispatch(
      "search", search_request({"PATH", "objectClass", "filename", "name",
                                "hostname"}));
  const auto one = w.dispatch("search", search_request({"name"}));
  ASSERT_TRUE(all.ok() && named.ok() && one.ok());
  EXPECT_EQ(*named, *all);
  EXPECT_LT(one->size(), all->size());
}

TEST(DirectoryService, MalformedSearchAttributeListIsAProtocolError) {
  ServiceWorld w;
  ASSERT_TRUE(w.server->ensure(location_entry()).ok());
  ec::ByteWriter truncated = search_head();
  truncated.u32(2);
  truncated.str("name");
  truncated.u32(8);  // the second name claims 8 bytes, 4 follow
  truncated.raw("host", 4);
  ec::ByteWriter huge = search_head();
  huge.u32(0xFFFFFFFFu);  // 4G names claimed, one empty name's 4 bytes sent
  huge.u32(0);
  for (ec::ByteWriter* request : {&truncated, &huge}) {
    const auto r = w.dispatch("search", request->take());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ec::Errc::protocol_error);
  }
}
