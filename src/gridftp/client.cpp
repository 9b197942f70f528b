#include "gridftp/client.hpp"

#include <algorithm>
#include <cassert>

#include "gridftp/wire.hpp"

namespace esg::gridftp {

using common::ByteReader;
using common::ByteWriter;
using common::Errc;
using common::Error;
using common::Result;
using common::Status;
using rpc::Payload;

namespace {

// Bytes/second the client hashes while verifying a GET.  The pass walks the
// whole landed payload, so it costs size / kChecksumRate of sim time under
// a `gridftp.checksum` span (the profiler's checksum category).  1 GB/s is
// about a single-core software hash over a fast local disk.
constexpr Rate kChecksumRate = 1e9;

}  // namespace

// Per-operation state machine.  Kept alive by the shared_ptr captured in
// every pending callback; abort() quiesces it.
struct GridFtpClient::Op : TransferHandle,
                           std::enable_shared_from_this<GridFtpClient::Op> {
  enum class Kind { get, put, third_party };

  GridFtpClient* client = nullptr;
  Kind kind = Kind::get;
  const net::Host* src_host = nullptr;
  const net::Host* dst_host = nullptr;
  std::string src_path;    // remote source path (get / third_party)
  std::string local_name;  // local file (get: sink, put: source)
  // get: the local file, held from the data phase on; views local_name.
  storage::HostStorage::Handle landing;
  std::string dst_path;    // remote destination path (put / third_party)
  TransferOptions options;
  ProgressCallback progress;
  CompletionCallback done_cb;

  TransferResult result;
  std::unique_ptr<net::TcpTransfer> tcp;
  std::uint64_t ticket = 0;
  std::uint64_t expected_checksum = 0;
  bool have_checksum = false;
  Bytes effective_size = 0;
  Bytes attempt_bytes = 0;
  bool warm = false;
  bool finished = false;
  bool aborted_ = false;
  bool verify_started = false;   // checksum pass scheduled (one-shot)
  obs::Span span;                              // whole op (RETR -> done)
  obs::SpanId verify_span = 0;                 // gridftp.checksum child
  obs::Counter* channel_bytes = nullptr;       // per-server byte counter

  // ---- TransferHandle ----
  void abort() override {
    if (finished || aborted_) return;
    aborted_ = true;
    if (tcp) attempt_bytes = tcp->cancel();
    finished = true;
    sim().tracer().end(verify_span);  // no-op unless mid-verification
    span.set_attr("status", "aborted");
    span.end();
    // No completion will ever be delivered; drop the callbacks so their
    // captures (typically the retry layer, which in turn holds this op)
    // don't form a reference cycle.
    done_cb = nullptr;
    progress = nullptr;
  }
  Bytes delivered() const override {
    if (tcp && tcp->active()) return tcp->delivered();
    return attempt_bytes;
  }
  bool active() const override { return !finished; }

  sim::Simulation& sim() { return client->orb_.network().simulation(); }

  void fail(Error error) {
    if (finished) return;
    finished = true;
    if (tcp) attempt_bytes = std::max(attempt_bytes, tcp->cancel());
    sim().tracer().end(verify_span);
    result.status = Status(std::move(error));
    result.bytes_transferred = attempt_bytes;
    result.finished = sim().now();
    ++client->stats_.transfers_failed;
    client->metric_failed_->add();
    span.set_attr("status", result.status.error().to_string());
    span.end();
    // A dead server invalidates both the session and the warm channel.  So
    // does one that restarted without this client seeing it fail: it has
    // forgotten the session and answers 530 (auth_failed), and the next
    // attempt must log in afresh.
    const net::Host* peer = kind == Kind::put ? dst_host : src_host;
    if (peer != nullptr) {
      const std::string key = peer->name();
      const Errc code = result.status.error().code;
      if (code == Errc::timed_out || code == Errc::unavailable ||
          code == Errc::auth_failed) {
        client->sessions_.erase(key);
      }
      client->warm_channels_.erase(key);
    }
    // Terminal: move the completion out and drop both callbacks so the op
    // doesn't keep its owner alive through their captures.
    auto done = std::move(done_cb);
    done_cb = nullptr;
    progress = nullptr;
    if (done) done(std::move(result));
  }

  void succeed() {
    if (finished) return;
    // End-to-end integrity: compare the landed payload against the fnv1a64
    // checksum the server announced at RETR time.  Covers the whole data
    // path — injection anywhere between RETR and landing fails the transfer
    // with io_error, so the reliability layer re-fetches from another
    // replica.
    if (kind == Kind::get && have_checksum) {
      // The verification pass walks the landed payload, which is real work:
      // model it as size / kChecksumRate of sim time under its own child
      // span, then re-enter to do the compare.  An abort or failure during
      // the window wins (finished flips and the re-entry returns above).
      if (!verify_started) {
        verify_started = true;
        const common::SimDuration cost = static_cast<common::SimDuration>(
            static_cast<double>(std::max<Bytes>(effective_size, 0)) /
            kChecksumRate * static_cast<double>(common::kSecond));
        if (cost > 0) {
          verify_span = sim().tracer().begin("gridftp.checksum", "gridftp",
                                             options.obs_track, span.id());
          auto self = shared_from_this();
          sim().schedule_after(cost, [self] { self->succeed(); });
          return;
        }
      }
      sim().tracer().end(verify_span);
      verify_span = 0;
      const storage::FileObject* landed = landing.file();
      const std::uint64_t actual = landed != nullptr
                                       ? storage::file_checksum(*landed)
                                       : ~expected_checksum;
      if (actual != expected_checksum) {
        sim().metrics().counter("gridftp_checksum_failures_total").add();
        sim().flight_recorder().record(
            "gridftp", "checksum.mismatch", local_name,
            {{"host", src_host != nullptr ? src_host->name() : std::string()}},
            options.obs_track);
        span.set_attr("checksum", "mismatch");
        return fail(Error{Errc::io_error,
                          "checksum mismatch on " + local_name});
      }
      if (client->metric_checksums_verified_ == nullptr) {
        client->metric_checksums_verified_ =
            &sim().metrics().counter("gridftp_checksums_verified_total");
      }
      client->metric_checksums_verified_->add();
      result.checksum_verified = true;
    }
    finished = true;
    result.status = common::ok_status();
    result.bytes_transferred = attempt_bytes;
    result.file_size = effective_size;
    result.finished = sim().now();
    ++client->stats_.transfers_completed;
    client->stats_.bytes_received += attempt_bytes;
    client->metric_completed_->add();
    span.set_attr("status", "ok");
    span.set_attr("bytes", std::to_string(attempt_bytes));
    span.end();
    client->warm_channels_[server_key()] =
        WarmChannel{sim().now(), options.parallelism};
    auto done = std::move(done_cb);
    done_cb = nullptr;
    progress = nullptr;
    if (done) done(std::move(result));
  }

  /// The host whose control/data channels we cache for this op.
  std::string server_key() const {
    return kind == Kind::put ? dst_host->name() : src_host->name();
  }

  void start() {
    result.started = sim().now();
    ++client->stats_.transfers_started;
    client->metric_started_->add();
    const char* name = kind == Kind::get   ? "gridftp.get"
                       : kind == Kind::put ? "gridftp.put"
                                           : "gridftp.3pc";
    span = sim().tracer().span(name, "gridftp", options.obs_track);
    span.set_attr("server", server_key());
    span.set_attr("path", kind == Kind::put ? dst_path : src_path);
    const net::Host& control_peer =
        kind == Kind::put ? *dst_host : *src_host;
    auto self = shared_from_this();
    client->ensure_session(
        control_peer, options, [self](Result<std::uint64_t> session) {
          if (self->finished) return;
          if (!session) return self->fail(session.error());
          self->after_session(*session);
        });
  }

  void after_session(std::uint64_t session) {
    auto self = shared_from_this();
    switch (kind) {
      case Kind::get:
      case Kind::third_party: {
        // RETR exchange on the source server.
        ByteWriter w;
        w.u64(session);
        w.str(src_path);
        w.str(options.eret_module);
        w.str(options.eret_params);
        w.boolean(options.large_file_support);
        client->orb_.call(
            client->local_, *src_host, "gridftp", "RETR", w.take(),
            [self](Result<Payload> r) {
              if (self->finished) return;
              if (!r) return self->fail(r.error());
              ByteReader reader(*r);
              auto ticket = reader.u64();
              auto size = reader.i64();
              if (!ticket || !size) {
                return self->fail(Error{Errc::protocol_error, "bad RETR reply"});
              }
              self->ticket = *ticket;
              self->effective_size = *size;
              // Checksum announcement (optional: older servers omit it).
              if (auto checksum = reader.u64()) {
                self->expected_checksum = *checksum;
                self->have_checksum = true;
              }
              if (self->kind == Kind::third_party) {
                self->issue_stor();
              } else {
                self->begin_data_phase();
              }
            },
            self->options.stall_timeout);
        break;
      }
      case Kind::put: {
        auto file = client->storage_->get(local_name);
        if (!file) return fail(file.error());
        effective_size = file->size;
        ByteWriter w;
        w.u64(session);
        w.str(dst_path);
        client->orb_.call(
            client->local_, *dst_host, "gridftp", "STOR", w.take(),
            [self](Result<Payload> r) {
              if (self->finished) return;
              if (!r) return self->fail(r.error());
              self->begin_data_phase();
            },
            self->options.stall_timeout);
        break;
      }
    }
  }

  /// Third-party only: after RETR on the source, issue STOR on the sink.
  void issue_stor() {
    auto self = shared_from_this();
    // The destination needs its own authenticated session.
    client->ensure_session(
        *dst_host, options, [self](Result<std::uint64_t> session) {
          if (self->finished) return;
          if (!session) return self->fail(session.error());
          ByteWriter w;
          w.u64(*session);
          w.str(self->dst_path);
          self->client->orb_.call(
              self->client->local_, *self->dst_host, "gridftp", "STOR",
              w.take(),
              [self](Result<Payload> r) {
                if (self->finished) return;
                if (!r) return self->fail(r.error());
                self->begin_data_phase();
              },
              self->options.stall_timeout);
        });
  }

  void begin_data_phase() {
    if (kind == Kind::get) landing = client->storage_->open(local_name);
    const Bytes remaining =
        std::max<Bytes>(0, effective_size - options.restart_offset);
    if (remaining == 0) {
      if (!attach_content()) return fail_lost_ticket();
      return succeed();
    }

    warm = options.use_channel_cache &&
           client->channel_is_warm(server_key(), options.parallelism);
    if (warm) {
      ++client->stats_.channels_reused;
      client->metric_channels_reused_->add();
    } else {
      ++client->stats_.data_channel_setups;
      client->metric_channel_setups_->add();
    }
    span.set_attr("warm_channel", warm ? "true" : "false");
    channel_bytes =
        &client->channel_bytes(kind == Kind::put ? *dst_host : *src_host);

    // For a fresh GET, materialize the growing local file so size polling
    // (the request manager's monitor) observes arrival.
    if (kind == Kind::get) {
      if (landing.file() == nullptr) {
        (void)landing.put(storage::FileObject::synthetic(local_name, 0));
      }
      (void)landing.resize(options.restart_offset);
    }

    // SBUF auto-negotiation: buffer = bandwidth-delay product for the
    // target rate at the observed RTT, clamped to sane socket sizes.
    Bytes buffer = options.buffer_size;
    if (buffer == 0) {
      const SimDuration rtt =
          client->orb_.network().rtt(*src_host, *dst_host);
      buffer = static_cast<Bytes>(options.auto_buffer_target *
                                  common::to_seconds(rtt));
      buffer = std::clamp<Bytes>(buffer, 64 * common::kKiB,
                                 8 * common::kMiB);
    }

    net::TcpOptions tcp_opts;
    tcp_opts.streams = options.parallelism;
    tcp_opts.buffer_size = buffer;
    tcp_opts.slow_start = !warm;
    tcp_opts.dead_interval = options.stall_timeout;
    tcp_opts.connect_delay =
        warm ? 0 : client->orb_.network().rtt(*src_host, *dst_host);
    tcp_opts.obs_track = options.obs_track;

    auto self = shared_from_this();
    net::TcpCallbacks cbs;
    cbs.on_progress = [self](Bytes delta, SimTime now) {
      if (self->finished) return;
      self->attempt_bytes += delta;
      if (self->channel_bytes) self->channel_bytes->add(delta);
      const Bytes total = self->options.restart_offset + self->attempt_bytes;
      if (self->kind == Kind::get) (void)self->landing.resize(total);
      if (self->progress) self->progress(delta, total, now);
    };
    cbs.on_complete = [self](Status st) {
      if (self->finished) return;
      if (!st.ok()) return self->fail(st.error());
      if (!self->attach_content()) return self->fail_lost_ticket();
      self->succeed();
    };
    tcp = std::make_unique<net::TcpTransfer>(client->orb_.network(),
                                             *src_host, *dst_host, remaining,
                                             tcp_opts, std::move(cbs));
  }

  /// The server restarted between RETR and data completion: its ticket
  /// table died with it, so the bytes that arrived are unattributable.
  void fail_lost_ticket() {
    fail(Error{Errc::unavailable, "transfer ticket lost (server restarted)"});
  }

  /// Emulator data plane: materialize the transferred file at the sink.
  /// Returns false when the source server lost the ticket (crash/restart
  /// mid-transfer); true otherwise, including when no emulated server is
  /// wired into the registry (content simply stays synthetic).
  bool attach_content() {
    storage::FileObject file;
    if (kind == Kind::put) {
      auto local = client->storage_->get(local_name);
      if (!local) return true;
      file = std::move(*local);
      file.name = dst_path;
      if (GridFtpServer* dst = client->registry_.find(dst_host->name())) {
        (void)dst->storage().put(std::move(file));
      }
      return true;
    }
    GridFtpServer* src = client->registry_.find(src_host->name());
    if (src == nullptr) return true;
    auto resolved = src->resolve_ticket(ticket);
    if (!resolved) return false;
    file = std::move(*resolved);
    if (kind == Kind::get) {
      file.name = local_name;
      if (client->corrupt_next_gets_ > 0) {
        --client->corrupt_next_gets_;
        storage::corrupt_file(file, ticket);
        sim().metrics().counter("gridftp_corruptions_injected_total").add();
      }
      (void)landing.put(std::move(file));
    } else {  // third_party
      file.name = dst_path;
      if (GridFtpServer* dst = client->registry_.find(dst_host->name())) {
        (void)dst->storage().put(std::move(file));
      }
    }
    return true;
  }
};

GridFtpClient::GridFtpClient(rpc::Orb& orb, const net::Host& local_host,
                             std::shared_ptr<storage::HostStorage> local_storage,
                             security::CredentialWallet wallet,
                             const ServerRegistry& registry)
    : orb_(orb),
      local_(local_host),
      storage_(std::move(local_storage)),
      wallet_(std::move(wallet)),
      registry_(registry) {
  auto& metrics = orb_.network().simulation().metrics();
  metric_started_ = &metrics.counter("gridftp_transfers_started_total");
  metric_completed_ = &metrics.counter("gridftp_transfers_completed_total");
  metric_failed_ = &metrics.counter("gridftp_transfers_failed_total");
  metric_auth_ = &metrics.counter("gridftp_auth_handshakes_total");
  metric_channel_setups_ = &metrics.counter("gridftp_data_channel_setups_total");
  metric_channels_reused_ = &metrics.counter("gridftp_channels_reused_total");
}

obs::Counter& GridFtpClient::channel_bytes(const net::Host& server) {
  obs::Counter*& counter = channel_bytes_[&server];
  if (counter == nullptr) {
    counter = &simulation().metrics().counter("gridftp_channel_bytes_total",
                                              {{"server", server.name()}});
  }
  return *counter;
}

void GridFtpClient::ensure_session(
    const net::Host& server, const TransferOptions& options,
    std::function<void(Result<std::uint64_t>)> done) {
  auto it = sessions_.find(server.name());
  if (it != sessions_.end() && options.use_channel_cache) {
    // Warm control channel: answer on the next event tick.
    const auto id = it->second.id;
    orb_.network().simulation().schedule_after(
        0, [done = std::move(done), id] { done(id); });
    return;
  }
  if (!wallet_.has_identity()) {
    orb_.network().simulation().schedule_after(
        0, [done = std::move(done)] {
          done(Error{Errc::auth_failed, "client has no credential"});
        });
    return;
  }

  ++stats_.auth_handshakes;
  metric_auth_->add();
  const SimDuration rtt = orb_.network().rtt(local_, server);
  // 1 RTT TCP connect, then the AUTH RPC (1 RTT), then the remaining GSI
  // rounds modeled as a post-reply delay.
  const SimDuration extra_rounds =
      security::handshake_cost(rtt, options.delegate_proxy) - rtt;
  ByteWriter w;
  w.boolean(options.delegate_proxy);
  gridftp_write_chain(w, wallet_.chain());
  auto payload = w.take();

  orb_.network().simulation().schedule_after(
      rtt, [this, &server, payload = std::move(payload), extra_rounds,
            done = std::move(done), timeout = options.stall_timeout]() mutable {
        orb_.call(
            local_, server, "gridftp", "AUTH", std::move(payload),
            [this, &server, extra_rounds,
             done = std::move(done)](Result<Payload> r) {
              if (!r) return done(r.error());
              ByteReader reader(*r);
              auto id = reader.u64();
              if (!id) return done(Error{Errc::protocol_error, "bad AUTH reply"});
              const auto session = *id;
              orb_.network().simulation().schedule_after(
                  std::max<SimDuration>(0, extra_rounds),
                  [this, &server, session, done = std::move(done)] {
                    sessions_[server.name()] =
                        Session{session, orb_.network().simulation().now()};
                    done(session);
                  });
            },
            timeout);
      });
}

bool GridFtpClient::channel_is_warm(const std::string& server,
                                    int streams) const {
  auto it = warm_channels_.find(server);
  if (it == warm_channels_.end()) return false;
  const auto now = orb_.network().simulation().now();
  return now - it->second.last_used <= channel_idle_timeout_ &&
         it->second.streams >= streams;
}

void GridFtpClient::invalidate_channels(const std::string& server_host) {
  sessions_.erase(server_host);
  warm_channels_.erase(server_host);
}

std::shared_ptr<TransferHandle> GridFtpClient::get(
    const FtpUrl& src, const std::string& local_name,
    const TransferOptions& options, ProgressCallback progress,
    CompletionCallback done) {
  auto op = std::make_shared<Op>();
  op->client = this;
  op->kind = Op::Kind::get;
  op->src_host = orb_.network().find_host(src.host);
  op->dst_host = &local_;
  op->src_path = src.path;
  op->local_name = local_name;
  op->options = options;
  op->progress = std::move(progress);
  op->done_cb = std::move(done);
  if (op->src_host == nullptr) {
    orb_.network().simulation().schedule_after(0, [op, src] {
      op->fail(Error{Errc::not_found, "unknown host: " + src.host});
    });
    return op;
  }
  op->start();
  return op;
}

std::shared_ptr<TransferHandle> GridFtpClient::put(
    const std::string& local_name, const FtpUrl& dst,
    const TransferOptions& options, CompletionCallback done) {
  auto op = std::make_shared<Op>();
  op->client = this;
  op->kind = Op::Kind::put;
  op->src_host = &local_;
  op->dst_host = orb_.network().find_host(dst.host);
  op->local_name = local_name;
  op->dst_path = dst.path;
  op->options = options;
  op->done_cb = std::move(done);
  if (op->dst_host == nullptr) {
    orb_.network().simulation().schedule_after(0, [op, dst] {
      op->fail(Error{Errc::not_found, "unknown host: " + dst.host});
    });
    return op;
  }
  op->start();
  return op;
}

void GridFtpClient::size_of(const FtpUrl& url, const TransferOptions& options,
                            std::function<void(Result<Bytes>)> done) {
  net::Host* server = orb_.network().find_host(url.host);
  if (server == nullptr) {
    orb_.network().simulation().schedule_after(
        0, [done = std::move(done), url] {
          done(Error{Errc::not_found, "unknown host: " + url.host});
        });
    return;
  }
  ensure_session(
      *server, options,
      [this, server, path = url.path, timeout = options.stall_timeout,
       done = std::move(done)](Result<std::uint64_t> session) mutable {
        if (!session) return done(session.error());
        ByteWriter w;
        w.u64(*session);
        w.str(path);
        orb_.call(local_, *server, "gridftp", "SIZE", w.take(),
                  [done = std::move(done)](Result<Payload> r) {
                    if (!r) return done(r.error());
                    ByteReader reader(*r);
                    auto size = reader.i64();
                    if (!size) return done(size.error());
                    done(*size);
                  },
                  timeout);
      });
}

std::shared_ptr<TransferHandle> GridFtpClient::third_party_copy(
    const FtpUrl& src, const FtpUrl& dst, const TransferOptions& options,
    CompletionCallback done) {
  auto op = std::make_shared<Op>();
  op->client = this;
  op->kind = Op::Kind::third_party;
  op->src_host = orb_.network().find_host(src.host);
  op->dst_host = orb_.network().find_host(dst.host);
  op->src_path = src.path;
  op->dst_path = dst.path;
  op->options = options;
  op->done_cb = std::move(done);
  if (op->src_host == nullptr || op->dst_host == nullptr) {
    orb_.network().simulation().schedule_after(0, [op] {
      op->fail(Error{Errc::not_found, "unknown transfer endpoint"});
    });
    return op;
  }
  op->start();
  return op;
}

}  // namespace esg::gridftp
