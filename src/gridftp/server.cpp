#include "gridftp/server.hpp"

#include <algorithm>
#include <vector>

namespace esg::gridftp {

using common::ByteReader;
using common::ByteWriter;
using common::Errc;
using common::Error;
using common::Result;
using rpc::Payload;

namespace {

// Serialize a certificate chain shipped in AUTH.
void write_chain(ByteWriter& w,
                 const std::vector<security::Certificate>& chain) {
  w.u32(static_cast<std::uint32_t>(chain.size()));
  for (const auto& c : chain) {
    w.str(c.subject);
    w.str(c.issuer);
    w.i64(c.not_before);
    w.i64(c.not_after);
    w.u64(c.public_tag);
    w.u64(c.signature);
    w.boolean(c.is_proxy);
  }
}

Result<std::vector<security::Certificate>> read_chain(ByteReader& r) {
  // Two string lengths, four 64-bit fields and the proxy flag.
  constexpr std::size_t kMinCertBytes =
      2 * sizeof(std::uint32_t) + 4 * sizeof(std::uint64_t) + 1;
  auto count = r.count(kMinCertBytes);
  if (!count) return count.error();
  std::vector<security::Certificate> chain;
  chain.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    security::Certificate c;
    auto subject = r.str();
    auto issuer = r.str();
    auto nb = r.i64();
    auto na = r.i64();
    auto pub = r.u64();
    auto sig = r.u64();
    auto proxy = r.boolean();
    if (!subject || !issuer || !nb || !na || !pub || !sig || !proxy) {
      return Error{Errc::protocol_error, "bad certificate encoding"};
    }
    c.subject = std::move(*subject);
    c.issuer = std::move(*issuer);
    c.not_before = *nb;
    c.not_after = *na;
    c.public_tag = *pub;
    c.signature = *sig;
    c.is_proxy = *proxy;
    chain.push_back(std::move(c));
  }
  return chain;
}

}  // namespace

// Exposed for the client (same translation unit family).
void gridftp_write_chain(ByteWriter& w,
                         const std::vector<security::Certificate>& chain) {
  write_chain(w, chain);
}

GridFtpServer::GridFtpServer(rpc::Orb& orb, const net::Host& host,
                             std::shared_ptr<storage::HostStorage> storage,
                             const security::CertificateAuthority& ca,
                             security::GridMapFile gridmap)
    : orb_(orb),
      host_(host),
      storage_(std::move(storage)),
      ca_(ca),
      gridmap_(std::move(gridmap)) {
  orb_.register_service(
      host_, "gridftp",
      [this](const std::string& method, Payload request, rpc::Reply reply) {
        dispatch(method, std::move(request), std::move(reply));
      });
  // Partial-file retrieval ships by default (paper §6.1).
  register_eret_module(
      kPartialModule,
      [](const storage::FileObject& file,
         const std::string& params) -> Result<storage::FileObject> {
        // params: "<offset>:<length>"
        const auto colon = params.find(':');
        if (colon == std::string::npos) {
          return Error{Errc::invalid_argument,
                       "partial params must be offset:length"};
        }
        const Bytes offset = std::strtoll(params.c_str(), nullptr, 10);
        const Bytes length =
            std::strtoll(params.c_str() + colon + 1, nullptr, 10);
        if (offset < 0 || length < 0 || offset > file.size) {
          return Error{Errc::invalid_argument, "partial range out of bounds"};
        }
        const Bytes effective = std::min(length, file.size - offset);
        storage::FileObject out;
        out.name = file.name + "#" + params;
        out.size = effective;
        if (file.content) {
          auto slice = std::make_shared<std::vector<std::uint8_t>>(
              file.content->begin() + offset,
              file.content->begin() + offset + effective);
          out.content = std::move(slice);
        }
        return out;
      });
}

GridFtpServer::~GridFtpServer() { orb_.unregister_service(host_, "gridftp"); }

void GridFtpServer::crash() {
  if (crashed_) return;
  crashed_ = true;
  orb_.network().simulation().flight_recorder().record("gridftp",
                                                       "server.crash",
                                                       host_.name());
  // Process state dies with the process: sessions must be re-established
  // and unresolved RETR/STOR tickets are gone (clients holding one see the
  // transfer fail as "ticket lost").
  sessions_.clear();
  tickets_.clear();
  orb_.set_service_down(host_, "gridftp", true);
  // The whole box reboots: take the NIC down too so in-flight data
  // connections stall instead of completing against a dead server.
  orb_.network().apply_outage(host_.name(), true);
}

void GridFtpServer::restart() {
  if (!crashed_) return;
  crashed_ = false;
  orb_.network().simulation().flight_recorder().record("gridftp",
                                                       "server.restart",
                                                       host_.name());
  orb_.network().apply_outage(host_.name(), false);
  orb_.set_service_down(host_, "gridftp", false);
}

void GridFtpServer::register_eret_module(const std::string& name,
                                         EretModule module) {
  eret_modules_[name] = std::move(module);
}

Result<storage::FileObject> GridFtpServer::resolve_ticket(
    std::uint64_t ticket) {
  auto it = tickets_.find(ticket);
  if (it == tickets_.end()) {
    return Error{Errc::not_found, "unknown transfer ticket"};
  }
  storage::FileObject file = it->second;
  tickets_.erase(it);
  return file;
}

bool GridFtpServer::session_valid(std::uint64_t session) const {
  return sessions_.count(session) > 0;
}

void GridFtpServer::dispatch(const std::string& method, Payload request,
                             rpc::Reply reply) {
  ByteReader r(request);
  if (method == "AUTH") return handle_auth(r, std::move(reply));
  if (method == "SIZE") return handle_size(r, std::move(reply));
  if (method == "RETR") return handle_retr(r, std::move(reply));
  if (method == "STOR") return handle_stor(r, std::move(reply));
  reply(Error{Errc::protocol_error, "500 unknown command: " + method});
}

void GridFtpServer::handle_auth(ByteReader& r, rpc::Reply reply) {
  auto delegate = r.boolean();
  if (!delegate) return reply(Error{Errc::protocol_error, "bad AUTH"});
  auto chain = read_chain(r);
  if (!chain) return reply(chain.error());

  const auto now = orb_.network().simulation().now();
  if (auto st = ca_.verify_chain(*chain, now); !st.ok()) {
    return reply(st.error());
  }
  auto user = gridmap_.map(chain->front().subject);
  if (!user) return reply(user.error());

  const std::uint64_t session = next_session_++;
  sessions_[session] = *user;
  ++sessions_established_;

  ByteWriter w;
  w.u64(session);
  w.str(*user);
  reply(w.take());
}

void GridFtpServer::handle_size(ByteReader& r, rpc::Reply reply) {
  auto session = r.u64();
  auto path = r.str();
  if (!session || !path) return reply(Error{Errc::protocol_error, "bad SIZE"});
  if (!session_valid(*session)) {
    return reply(Error{Errc::auth_failed, "530 not logged in"});
  }
  auto size = storage_->size_of(*path);
  if (!size) return reply(size.error());
  ByteWriter w;
  w.i64(*size);
  reply(w.take());
}

void GridFtpServer::handle_retr(ByteReader& r, rpc::Reply reply) {
  auto session = r.u64();
  auto path = r.str();
  auto module = r.str();
  auto params = r.str();
  auto large_ok = r.boolean();
  if (!session || !path || !module || !params || !large_ok) {
    return reply(Error{Errc::protocol_error, "bad RETR"});
  }
  if (!session_valid(*session)) {
    return reply(Error{Errc::auth_failed, "530 not logged in"});
  }
  auto file = storage_->get(*path);
  if (!file) return reply(file.error());

  storage::FileObject effective = std::move(*file);
  if (!module->empty()) {
    auto it = eret_modules_.find(*module);
    if (it == eret_modules_.end()) {
      return reply(Error{Errc::invalid_argument,
                         "501 no such ERET module: " + *module});
    }
    auto processed = it->second(effective, *params);
    if (!processed) return reply(processed.error());
    effective = std::move(*processed);
  }
  // Pre-64-bit servers refuse files beyond 2^31 bytes (the limitation the
  // paper hit at SC'2000).
  if (!*large_ok && effective.size > (common::Bytes{1} << 31)) {
    return reply(Error{Errc::invalid_argument,
                       "552 file exceeds 32-bit size limit"});
  }

  const std::uint64_t ticket = next_ticket_++;
  tickets_[ticket] = effective;
  ByteWriter w;
  w.u64(ticket);
  w.i64(effective.size);
  // Announce the payload checksum so the receiver can verify end to end.
  w.u64(storage::file_checksum(effective));
  reply(w.take());
}

void GridFtpServer::handle_stor(ByteReader& r, rpc::Reply reply) {
  auto session = r.u64();
  auto path = r.str();
  if (!session || !path) return reply(Error{Errc::protocol_error, "bad STOR"});
  if (!session_valid(*session)) {
    return reply(Error{Errc::auth_failed, "530 not logged in"});
  }
  // Make room check is deferred to completion; just acknowledge.
  ByteWriter w;
  w.u64(next_ticket_++);
  reply(w.take());
}

}  // namespace esg::gridftp
