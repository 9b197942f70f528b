#include "mds/mds.hpp"

#include "directory/filter.hpp"

namespace esg::mds {

using common::Result;
using common::Status;
using directory::Dn;
using directory::Entry;
using directory::Scope;

MdsService::MdsService(rpc::Orb& orb, const net::Host& host)
    : host_(host), backing_(std::make_shared<directory::DirectoryServer>()) {
  service_ = std::make_unique<directory::DirectoryService>(orb, host_,
                                                           backing_, "mds");
  // Pre-create the two organizational branches.
  Entry root(Dn::from_rdns({{"o", "mds"}}));
  root.add("objectclass", "organization");
  (void)backing_->ensure(root);
  for (const char* ou : {"network", "hosts"}) {
    Entry branch(Dn::from_rdns({{"ou", ou}, {"o", "mds"}}));
    branch.add("objectclass", "organizationalUnit");
    (void)backing_->ensure(branch);
  }
}

MdsClient::MdsClient(rpc::Orb& orb, const net::Host& from,
                     const net::Host& mds_host)
    : client_(orb, from, mds_host, "mds") {}

Dn MdsClient::network_dn(const std::string& src, const std::string& dst) {
  return Dn::from_rdns({{"nw", src + "--" + dst}, {"ou", "network"},
                        {"o", "mds"}});
}

Dn MdsClient::host_dn(const std::string& name) {
  return Dn::from_rdns({{"host", name}, {"ou", "hosts"}, {"o", "mds"}});
}

NetworkRecord MdsClient::network_from_entry(const Entry& entry) {
  NetworkRecord r;
  r.src_host = entry.get("srchost");
  r.dst_host = entry.get("dsthost");
  r.bandwidth = static_cast<double>(entry.get_int("bandwidth"));
  r.latency = entry.get_int("latency");
  r.updated = entry.get_int("updated");
  r.probe_failed = entry.get("probefailed") == "1";
  return r;
}

void MdsClient::publish_network(const NetworkRecord& record,
                                std::function<void(Status)> done) {
  Entry e(network_dn(record.src_host, record.dst_host));
  e.add("objectclass", "networkperformance");
  e.add("srchost", record.src_host);
  e.add("dsthost", record.dst_host);
  e.add("bandwidth", static_cast<std::int64_t>(record.bandwidth));
  e.add("latency", record.latency);
  e.add("updated", record.updated);
  e.add("probefailed", record.probe_failed ? "1" : "0");
  client_.add(e, /*ensure=*/true, std::move(done));
}

void MdsClient::query_network(
    const std::string& src_host, const std::string& dst_host,
    std::function<void(Result<NetworkRecord>)> done) {
  client_.lookup(network_dn(src_host, dst_host),
                 [done = std::move(done)](Result<Entry> r) {
                   if (!r) return done(r.error());
                   done(network_from_entry(*r));
                 });
}

void MdsClient::query_paths_to(
    const std::string& dst_host,
    std::function<void(Result<std::vector<NetworkRecord>>)> done) {
  client_.search(Dn::from_rdns({{"ou", "network"}, {"o", "mds"}}), Scope::one,
                 "(&(objectclass=networkperformance)(dsthost=" +
                     directory::Filter::escape(dst_host) + "))",
                 {},
                 [done = std::move(done)](Result<std::vector<Entry>> r) {
                   if (!r) return done(r.error());
                   std::vector<NetworkRecord> out;
                   out.reserve(r->size());
                   for (const auto& e : *r) {
                     out.push_back(network_from_entry(e));
                   }
                   done(std::move(out));
                 });
}

void MdsClient::publish_host(const HostRecord& record,
                             std::function<void(Status)> done) {
  Entry e(host_dn(record.name));
  e.add("objectclass", "computeelement");
  e.add("name", record.name);
  e.add("site", record.site);
  e.add("nicrate", static_cast<std::int64_t>(record.nic_rate));
  e.add("diskrate", static_cast<std::int64_t>(record.disk_rate));
  // Permille keeps the directory's integer attribute convention.
  e.add("cpuavailpermille",
        static_cast<std::int64_t>(record.cpu_available * 1000.0));
  e.add("updated", record.updated);
  client_.add(e, /*ensure=*/true, std::move(done));
}

void MdsClient::query_host(const std::string& name,
                           std::function<void(Result<HostRecord>)> done) {
  client_.lookup(host_dn(name), [done = std::move(done)](Result<Entry> r) {
    if (!r) return done(r.error());
    HostRecord h;
    h.name = r->get("name");
    h.site = r->get("site");
    h.nic_rate = static_cast<double>(r->get_int("nicrate"));
    h.disk_rate = static_cast<double>(r->get_int("diskrate"));
    h.cpu_available =
        static_cast<double>(r->get_int("cpuavailpermille", -1000)) / 1000.0;
    h.updated = r->get_int("updated");
    done(std::move(h));
  });
}

}  // namespace esg::mds
