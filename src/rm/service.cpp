#include "rm/service.hpp"

namespace esg::rm {

using common::ByteReader;
using common::ByteWriter;
using common::Errc;
using common::Error;
using common::Result;
using rpc::Payload;

RequestManagerService::RequestManagerService(rpc::Orb& orb, RequestManager& rm)
    : orb_(orb), rm_(rm) {
  orb_.register_service(
      rm_.host(), "rm",
      [this](const std::string& method, Payload request, rpc::Reply reply) {
        handle(method, std::move(request), std::move(reply));
      });
}

RequestManagerService::~RequestManagerService() {
  orb_.unregister_service(rm_.host(), "rm");
}

void RequestManagerService::encode_request(ByteWriter& w,
                                           const std::vector<FileRequest>& files,
                                           const RequestOptions& options) {
  w.u32(static_cast<std::uint32_t>(files.size()));
  for (const auto& f : files) {
    w.str(f.collection);
    w.str(f.filename);
    w.str(f.eret_module);
    w.str(f.eret_params);
  }
  w.str(options.local_path_prefix);
  w.i32(options.transfer.parallelism);
  w.i64(options.transfer.buffer_size);
  w.boolean(options.transfer.use_channel_cache);
  w.i64(options.transfer.stall_timeout);
  w.u32(static_cast<std::uint32_t>(options.max_concurrent));
  w.i64(options.poll_interval);
}

namespace {

void encode_result(ByteWriter& w, const RequestResult& result) {
  w.boolean(result.status.ok());
  w.str(result.status.ok() ? "" : result.status.error().message);
  w.i64(result.total_bytes);
  w.i64(result.started);
  w.i64(result.finished);
  w.u32(static_cast<std::uint32_t>(result.files.size()));
  for (const auto& f : result.files) {
    w.str(f.request.collection);
    w.str(f.request.filename);
    w.boolean(f.status.ok());
    w.str(f.status.ok() ? "" : f.status.error().message);
    w.i64(f.size);
    w.i64(f.bytes);
    w.str(f.local_name);
    w.str(f.chosen_host);
    w.f64(f.forecast_bandwidth);
    w.i32(f.attempts);
    w.i32(f.replica_switches);
    w.boolean(f.staged_from_tape);
  }
}

}  // namespace

Result<RequestResult> RequestManagerService::decode_result(ByteReader& r) {
  RequestResult result;
  auto ok = r.boolean();
  auto msg = r.str();
  auto total = r.i64();
  auto started = r.i64();
  auto finished = r.i64();
  auto count = r.u32();
  if (!ok || !msg || !total || !started || !finished || !count) {
    return Error{Errc::protocol_error, "bad RM result encoding"};
  }
  if (!*ok) result.status = Error{Errc::unavailable, *msg};
  result.total_bytes = *total;
  result.started = *started;
  result.finished = *finished;
  for (std::uint32_t i = 0; i < *count; ++i) {
    FileOutcome f;
    auto collection = r.str();
    auto filename = r.str();
    auto fok = r.boolean();
    auto fmsg = r.str();
    auto size = r.i64();
    auto bytes = r.i64();
    auto local = r.str();
    auto host = r.str();
    auto forecast = r.f64();
    auto attempts = r.i32();
    auto switches = r.i32();
    auto staged = r.boolean();
    if (!collection || !filename || !fok || !fmsg || !size || !bytes ||
        !local || !host || !forecast || !attempts || !switches || !staged) {
      return Error{Errc::protocol_error, "bad RM file outcome encoding"};
    }
    f.request.collection = std::move(*collection);
    f.request.filename = std::move(*filename);
    if (!*fok) f.status = Error{Errc::unavailable, *fmsg};
    f.size = *size;
    f.bytes = *bytes;
    f.local_name = std::move(*local);
    f.chosen_host = std::move(*host);
    f.forecast_bandwidth = *forecast;
    f.attempts = *attempts;
    f.replica_switches = *switches;
    f.staged_from_tape = *staged;
    result.files.push_back(std::move(f));
  }
  return result;
}

void RequestManagerService::handle(const std::string& method, Payload request,
                                   rpc::Reply reply) {
  if (method != "REQUEST") {
    return reply(Error{Errc::protocol_error, "unknown RM method: " + method});
  }
  ByteReader r(request);
  // Each file is four length-prefixed strings.
  auto count = r.count(4 * sizeof(std::uint32_t));
  if (!count) return reply(Error{Errc::protocol_error, "bad RM request"});
  std::vector<FileRequest> files;
  files.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto collection = r.str();
    auto filename = r.str();
    auto module = r.str();
    auto params = r.str();
    if (!collection || !filename || !module || !params) {
      return reply(Error{Errc::protocol_error, "bad RM request file"});
    }
    files.push_back(FileRequest{std::move(*collection), std::move(*filename),
                                std::move(*module), std::move(*params)});
  }
  RequestOptions options;
  auto prefix = r.str();
  auto parallelism = r.i32();
  auto buffer = r.i64();
  auto cache = r.boolean();
  auto stall = r.i64();
  auto max_conc = r.u32();
  auto poll = r.i64();
  if (!prefix || !parallelism || !buffer || !cache || !stall || !max_conc ||
      !poll) {
    return reply(Error{Errc::protocol_error, "bad RM request options"});
  }
  options.local_path_prefix = std::move(*prefix);
  options.transfer.parallelism = *parallelism;
  options.transfer.buffer_size = *buffer;
  options.transfer.use_channel_cache = *cache;
  options.transfer.stall_timeout = *stall;
  options.max_concurrent = *max_conc;
  options.poll_interval = *poll;

  rm_.submit(std::move(files), std::move(options),
             [reply = std::move(reply)](RequestResult result) {
               ByteWriter w;
               encode_result(w, result);
               reply(w.take());
             });
}

RequestManagerClient::RequestManagerClient(rpc::Orb& orb,
                                           const net::Host& from,
                                           const net::Host& rm_host)
    : orb_(orb), from_(from), rm_(rm_host) {}

void RequestManagerClient::submit(
    const std::vector<FileRequest>& files, const RequestOptions& options,
    std::function<void(Result<RequestResult>)> done,
    common::SimDuration timeout) {
  ByteWriter w;
  RequestManagerService::encode_request(w, files, options);
  orb_.call(from_, rm_, "rm", "REQUEST", w.take(),
            [done = std::move(done)](Result<Payload> r) {
              if (!r) return done(r.error());
              ByteReader reader(*r);
              done(RequestManagerService::decode_result(reader));
            },
            timeout);
}

}  // namespace esg::rm
