#include "directory/replicated.hpp"

namespace esg::directory {

using common::Errc;
using common::Error;
using common::Result;
using common::Status;
using rpc::Payload;

namespace {

bool is_write(const std::string& method) {
  return method == "add" || method == "replace" || method == "modify" ||
         method == "remove";
}

}  // namespace

ReplicatedDirectoryService::ReplicatedDirectoryService(
    rpc::Orb& orb, const net::Host& primary_host,
    std::shared_ptr<DirectoryServer> server,
    std::vector<const net::Host*> replicas, std::string service_name)
    : orb_(orb),
      host_(primary_host),
      server_(std::move(server)),
      replicas_(std::move(replicas)),
      service_name_(std::move(service_name)) {
  local_ = std::make_unique<DirectoryService>(orb_, host_, server_,
                                              service_name_);
  // Re-register with the forwarding wrapper (replaces local_'s handler).
  orb_.register_service(
      host_, service_name_,
      [this](const std::string& method, Payload request, rpc::Reply reply) {
        dispatch(method, std::move(request), std::move(reply));
      });
}

void ReplicatedDirectoryService::dispatch(const std::string& method,
                                          Payload request, rpc::Reply reply) {
  if (!is_write(method)) {
    return local_->dispatch(method, std::move(request), std::move(reply));
  }
  // Apply locally; on success push the identical wire op to every replica
  // (asynchronously — the primary's ack does not wait for them).
  Payload copy = request;
  local_->dispatch(
      method, std::move(request),
      [this, method, copy = std::move(copy),
       reply = std::move(reply)](Result<Payload> r) mutable {
        if (r.ok()) {
          for (const net::Host* replica : replicas_) {
            ++writes_forwarded_;
            orb_.call(host_, *replica, service_name_, method, copy,
                      [](Result<Payload>) { /* eventual consistency */ });
          }
        }
        reply(std::move(r));
      });
}

ReplicatedDirectoryClient::ReplicatedDirectoryClient(
    rpc::Orb& orb, const net::Host& client_host,
    std::vector<const net::Host*> servers, std::string service_name)
    : orb_(orb),
      client_(client_host),
      servers_(std::move(servers)),
      service_name_(std::move(service_name)) {}

void ReplicatedDirectoryClient::add(const Entry& entry, bool ensure,
                                    std::function<void(Status)> done) {
  DirectoryClient primary(orb_, client_, *servers_.front(), service_name_);
  primary.add(entry, ensure, std::move(done));
}

void ReplicatedDirectoryClient::modify(const Dn& dn,
                                       const std::vector<ModOp>& ops,
                                       std::function<void(Status)> done) {
  DirectoryClient primary(orb_, client_, *servers_.front(), service_name_);
  primary.modify(dn, ops, std::move(done));
}

void ReplicatedDirectoryClient::remove(const Dn& dn, bool recursive,
                                       std::function<void(Status)> done) {
  DirectoryClient primary(orb_, client_, *servers_.front(), service_name_);
  primary.remove(dn, recursive, std::move(done));
}

template <typename ResultT>
void ReplicatedDirectoryClient::read_with_failover(
    std::size_t server_index,
    std::function<void(DirectoryClient&,
                       std::function<void(Result<ResultT>)>)>
        issue,
    std::function<void(Result<ResultT>)> done) {
  if (server_index >= servers_.size()) {
    return done(Error{Errc::unavailable, "no directory server reachable"});
  }
  DirectoryClient client(orb_, client_, *servers_[server_index],
                         service_name_);
  issue(client, [this, server_index, issue,
                 done = std::move(done)](Result<ResultT> r) mutable {
    const bool retryable =
        !r.ok() && (r.error().code == Errc::timed_out ||
                    r.error().code == Errc::unavailable);
    if (retryable) {
      return read_with_failover<ResultT>(server_index + 1, std::move(issue),
                                         std::move(done));
    }
    last_read_server_ = server_index;
    done(std::move(r));
  });
}

void ReplicatedDirectoryClient::lookup(
    const Dn& dn, std::function<void(Result<Entry>)> done) {
  read_with_failover<Entry>(
      0,
      [dn](DirectoryClient& c, std::function<void(Result<Entry>)> cb) {
        c.lookup(dn, std::move(cb));
      },
      std::move(done));
}

void ReplicatedDirectoryClient::search(
    const Dn& base, Scope scope, const std::string& filter_text,
    std::function<void(Result<std::vector<Entry>>)> done) {
  read_with_failover<std::vector<Entry>>(
      0,
      [base, scope, filter_text](
          DirectoryClient& c,
          std::function<void(Result<std::vector<Entry>>)> cb) {
        c.search(base, scope, filter_text, {}, std::move(cb));
      },
      std::move(done));
}

}  // namespace esg::directory
