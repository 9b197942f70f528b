// GridFTP client: GET / PUT / third-party copy with parallel streams,
// restart markers, GSI sessions, and data-channel caching.
//
// Control-channel cost model per cold GET (matching the paper's account of
// why rebuilding connections between consecutive transfers caused the
// Figure 8 dips):
//
//   TCP connect            1 RTT
//   GSI mutual auth        kAuthRounds RTTs (+1 if delegating)
//   RETR exchange          1 RTT
//   data-channel setup     1 RTT, then TCP slow start from a cold window
//
// With channel caching enabled and a warm channel available, only the RETR
// exchange is paid and the data channel starts at full window — the
// post-SC'2000 improvement the paper describes.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "gridftp/server.hpp"
#include "gridftp/types.hpp"
#include "gridftp/url.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"

namespace esg::gridftp {

/// Process-local data plane: lets the receiving side of an emulated
/// transfer resolve tickets (and thus attach real file content).
class ServerRegistry {
 public:
  void add(GridFtpServer* server) { servers_[server->host().name()] = server; }
  void remove(const std::string& host_name) { servers_.erase(host_name); }
  GridFtpServer* find(const std::string& host_name) const {
    auto it = servers_.find(host_name);
    return it == servers_.end() ? nullptr : it->second;
  }

 private:
  std::map<std::string, GridFtpServer*> servers_;
};

/// Handle to an in-flight operation; aborting is how the reliability plugin
/// abandons a slow replica.
class TransferHandle {
 public:
  virtual ~TransferHandle() = default;
  virtual void abort() = 0;
  virtual Bytes delivered() const = 0;
  virtual bool active() const = 0;
};

class GridFtpClient {
 public:
  GridFtpClient(rpc::Orb& orb, const net::Host& local_host,
                std::shared_ptr<storage::HostStorage> local_storage,
                security::CredentialWallet wallet,
                const ServerRegistry& registry);

  /// Fetch `src` into the local namespace as `local_name`.  The local file
  /// grows as bytes arrive (the request manager's monitor polls its size).
  /// On failure the result carries bytes_transferred so the caller can
  /// restart from a marker.
  std::shared_ptr<TransferHandle> get(const FtpUrl& src,
                                      const std::string& local_name,
                                      const TransferOptions& options,
                                      ProgressCallback progress,
                                      CompletionCallback done);

  /// Store a local file at `dst`.
  std::shared_ptr<TransferHandle> put(const std::string& local_name,
                                      const FtpUrl& dst,
                                      const TransferOptions& options,
                                      CompletionCallback done);

  /// Third-party copy: this client controls a transfer whose data flows
  /// directly between two remote servers (paper §6.1).
  std::shared_ptr<TransferHandle> third_party_copy(
      const FtpUrl& src, const FtpUrl& dst, const TransferOptions& options,
      CompletionCallback done);

  /// SIZE query (establishes a session if needed).
  void size_of(const FtpUrl& url, const TransferOptions& options,
               std::function<void(common::Result<Bytes>)> done);

  /// Drop the cached session + data channel for a server (e.g. after its
  /// credentials rotate).  Harmless if absent.
  void invalidate_channels(const std::string& server_host);

  /// Fault injection: corrupt the payload of the next `transfers` GETs as
  /// they land, so checksum verification (and its recovery path) can be
  /// exercised deterministically.
  void inject_corruption(int transfers = 1) { corrupt_next_gets_ += transfers; }

  const ClientStats& stats() const { return stats_; }
  const net::Host& local_host() const { return local_; }
  storage::HostStorage& local_storage() { return *storage_; }
  sim::Simulation& simulation() { return orb_.network().simulation(); }
  rpc::Orb& orb() { return orb_; }

  /// Warm channels older than this are treated as cold.
  void set_channel_idle_timeout(SimDuration d) { channel_idle_timeout_ = d; }

 private:
  struct Session {
    std::uint64_t id = 0;
    SimTime established = 0;
  };
  struct WarmChannel {
    SimTime last_used = 0;
    int streams = 0;
  };
  struct Op;  // per-operation state machine

  void ensure_session(const net::Host& server, const TransferOptions& options,
                      std::function<void(common::Result<std::uint64_t>)> done);
  bool channel_is_warm(const std::string& server, int streams) const;
  /// `gridftp_channel_bytes_total{server}`, created on first use.
  obs::Counter& channel_bytes(const net::Host& server);

  rpc::Orb& orb_;
  const net::Host& local_;
  std::shared_ptr<storage::HostStorage> storage_;
  security::CredentialWallet wallet_;
  const ServerRegistry& registry_;
  std::map<std::string, Session> sessions_;
  std::map<std::string, WarmChannel> warm_channels_;
  SimDuration channel_idle_timeout_ = 60 * common::kSecond;
  int corrupt_next_gets_ = 0;
  ClientStats stats_;
  // ClientStats mirrored into the simulation's metrics registry so snapshots
  // and the Prometheus dump see the same numbers the ablations read.
  obs::Counter* metric_started_ = nullptr;
  obs::Counter* metric_completed_ = nullptr;
  obs::Counter* metric_failed_ = nullptr;
  obs::Counter* metric_auth_ = nullptr;
  obs::Counter* metric_channel_setups_ = nullptr;
  obs::Counter* metric_channels_reused_ = nullptr;
  // Resolved at first use: cells are created in event order, which fixes
  // their ids and so the order of telemetry series and manifest entries.
  obs::Counter* metric_checksums_verified_ = nullptr;
  std::map<const net::Host*, obs::Counter*> channel_bytes_;  // by server
};

}  // namespace esg::gridftp
