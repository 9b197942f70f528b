#include "directory/service.hpp"

namespace esg::directory {

using common::ByteReader;
using common::ByteWriter;
using common::Errc;
using common::Error;
using common::Result;
using common::Status;
using rpc::Payload;

namespace {

Payload encode_status() { return {}; }

Error decode_error(const std::string& context) {
  return Error{Errc::protocol_error, "malformed " + context + " payload"};
}

}  // namespace

DirectoryService::DirectoryService(rpc::Orb& orb, const net::Host& host,
                                   std::shared_ptr<DirectoryServer> server,
                                   std::string service_name)
    : orb_(orb),
      host_(host),
      server_(std::move(server)),
      service_name_(std::move(service_name)) {
  orb_.register_service(
      host_, service_name_,
      [this](const std::string& method, Payload request, rpc::Reply reply) {
        dispatch(method, std::move(request), std::move(reply));
      });
}

void DirectoryService::dispatch(const std::string& method, Payload request,
                                rpc::Reply reply) {
  ByteReader r(request);
  if (method == "add") {
    auto ensure = r.boolean();
    auto entry = ensure ? Entry::deserialize(r)
                        : Result<Entry>(decode_error("add"));
    if (!ensure || !entry) return reply(decode_error("add"));
    const Status st = *ensure ? server_->ensure(std::move(*entry))
                              : server_->add(std::move(*entry));
    if (!st.ok()) return reply(st.error());
    return reply(encode_status());
  }
  if (method == "replace") {
    auto entry = Entry::deserialize(r);
    if (!entry) return reply(decode_error("replace"));
    const Status st = server_->replace(*entry);
    if (!st.ok()) return reply(st.error());
    return reply(encode_status());
  }
  if (method == "modify") {
    auto dn_text = r.str();
    auto count = dn_text ? r.u32() : Result<std::uint32_t>(decode_error("modify"));
    if (!dn_text || !count) return reply(decode_error("modify"));
    auto dn = Dn::parse(*dn_text);
    if (!dn) return reply(dn.error());
    std::vector<ModOp> ops;
    for (std::uint32_t i = 0; i < *count; ++i) {
      auto kind = r.u8();
      auto attr = r.str();
      auto value = r.str();
      if (!kind || !attr || !value) return reply(decode_error("modify"));
      ops.push_back(ModOp{static_cast<ModOp::Kind>(*kind), std::move(*attr),
                          std::move(*value)});
    }
    const Status st = server_->modify(*dn, [&ops](Entry& e) {
      for (const auto& op : ops) {
        switch (op.kind) {
          case ModOp::Kind::set: e.set(op.attr, op.value); break;
          case ModOp::Kind::add: e.add(op.attr, op.value); break;
          case ModOp::Kind::remove_attr: e.remove_attr(op.attr); break;
          case ModOp::Kind::remove_value: e.remove_value(op.attr, op.value);
            break;
        }
      }
    });
    if (!st.ok()) return reply(st.error());
    return reply(encode_status());
  }
  if (method == "remove") {
    auto dn_text = r.str();
    auto recursive = r.boolean();
    if (!dn_text || !recursive) return reply(decode_error("remove"));
    auto dn = Dn::parse(*dn_text);
    if (!dn) return reply(dn.error());
    const Status st = server_->remove(*dn, *recursive);
    if (!st.ok()) return reply(st.error());
    return reply(encode_status());
  }
  if (method == "lookup") {
    auto dn_text = r.str();
    if (!dn_text) return reply(decode_error("lookup"));
    auto dn = Dn::parse(*dn_text);
    if (!dn) return reply(dn.error());
    auto entry = server_->lookup(*dn);
    if (!entry) return reply(entry.error());
    ByteWriter w;
    entry->serialize(w);
    return reply(w.take());
  }
  if (method == "search") {
    auto base_text = r.str();
    auto scope_text = base_text ? r.str() : Result<std::string>(decode_error("search"));
    auto filter_text = scope_text ? r.str() : Result<std::string>(decode_error("search"));
    auto attrs = filter_text ? r.str_vec()
                             : Result<std::vector<std::string>>(decode_error("search"));
    if (!base_text || !scope_text || !filter_text || !attrs) {
      return reply(decode_error("search"));
    }
    auto base = Dn::parse(*base_text);
    if (!base) return reply(base.error());
    auto scope = scope_from_name(*scope_text);
    if (!scope) return reply(scope.error());
    auto filter = Filter::parse(*filter_text);
    if (!filter) return reply(filter.error());
    auto entries = server_->search(*base, *scope, *filter);
    if (!entries) return reply(entries.error());
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(entries->size()));
    for (const Entry* e : *entries) e->serialize(w, *attrs);
    return reply(w.take());
  }
  reply(Error{Errc::protocol_error, "unknown directory method: " + method});
}

DirectoryClient::DirectoryClient(rpc::Orb& orb, const net::Host& client_host,
                                 const net::Host& server_host,
                                 std::string service_name)
    : orb_(orb),
      client_(client_host),
      server_(server_host),
      service_name_(std::move(service_name)) {}

void DirectoryClient::add(const Entry& entry, bool ensure,
                          std::function<void(Status)> done) {
  ByteWriter w;
  w.boolean(ensure);
  entry.serialize(w);
  orb_.call(client_, server_, service_name_, "add", w.take(),
            [done = std::move(done)](Result<Payload> r) {
              done(r.ok() ? common::ok_status() : Status(r.error()));
            });
}

void DirectoryClient::replace(const Entry& entry,
                              std::function<void(Status)> done) {
  ByteWriter w;
  entry.serialize(w);
  orb_.call(client_, server_, service_name_, "replace", w.take(),
            [done = std::move(done)](Result<Payload> r) {
              done(r.ok() ? common::ok_status() : Status(r.error()));
            });
}

void DirectoryClient::modify(const Dn& dn, const std::vector<ModOp>& ops,
                             std::function<void(Status)> done) {
  ByteWriter w;
  w.str(dn.to_string());
  w.u32(static_cast<std::uint32_t>(ops.size()));
  for (const auto& op : ops) {
    w.u8(static_cast<std::uint8_t>(op.kind));
    w.str(op.attr);
    w.str(op.value);
  }
  orb_.call(client_, server_, service_name_, "modify", w.take(),
            [done = std::move(done)](Result<Payload> r) {
              done(r.ok() ? common::ok_status() : Status(r.error()));
            });
}

void DirectoryClient::remove(const Dn& dn, bool recursive,
                             std::function<void(Status)> done) {
  ByteWriter w;
  w.str(dn.to_string());
  w.boolean(recursive);
  orb_.call(client_, server_, service_name_, "remove", w.take(),
            [done = std::move(done)](Result<Payload> r) {
              done(r.ok() ? common::ok_status() : Status(r.error()));
            });
}

void DirectoryClient::lookup(const Dn& dn,
                             std::function<void(Result<Entry>)> done) {
  ByteWriter w;
  w.str(dn.to_string());
  orb_.call(client_, server_, service_name_, "lookup", w.take(),
            [done = std::move(done)](Result<Payload> r) {
              if (!r) return done(r.error());
              ByteReader reader(*r);
              done(Entry::deserialize(reader));
            });
}

void DirectoryClient::search(
    const Dn& base, Scope scope, const std::string& filter_text,
    const std::vector<std::string>& attrs,
    std::function<void(Result<std::vector<Entry>>)> done) {
  ByteWriter w;
  w.str(base.to_string());
  w.str(scope_name(scope));
  w.str(filter_text);
  w.str_vec(attrs);
  orb_.call(client_, server_, service_name_, "search", w.take(),
            [done = std::move(done)](Result<Payload> r) {
              if (!r) return done(r.error());
              ByteReader reader(*r);
              // An entry is at least its DN's length and its attribute count.
              auto count = reader.count(2 * sizeof(std::uint32_t));
              if (!count) return done(count.error());
              std::vector<Entry> entries;
              entries.reserve(*count);
              for (std::uint32_t i = 0; i < *count; ++i) {
                auto e = Entry::deserialize(reader);
                if (!e) return done(e.error());
                entries.push_back(std::move(*e));
              }
              done(std::move(entries));
            });
}

}  // namespace esg::directory
