// The Request Manager (paper §4).
//
// "The Request Manager (RM) is a component designed to initiate, control
// and monitor multiple file transfers on behalf of multiple users
// concurrently."  For each logical file of each request the RM runs a
// worker that performs the paper's five steps:
//
//   (1) find all replicas of the file in the replica catalog;
//   (2) for each replica, consult NWS (via MDS) for the current bandwidth
//       and latency from the replica's site to the local site;
//   (3) select the "best" replica — highest forecast bandwidth;
//   (4) initiate a GridFTP get (through HRM staging first when the chosen
//       replica lives on a mass-storage system);
//   (5) monitor progress by polling the local file size every few seconds.
//
// Failures and slow replicas are handled by the GridFTP reliability plugin:
// restart from the byte marker, alternate replica on repeated failure.  In
// the emulator the RM's "threads" are concurrent simulation processes — one
// per file, exactly the paper's concurrency structure.
#pragma once

#include <memory>
#include <vector>

#include "gridftp/reliability.hpp"
#include "hrm/hrm.hpp"
#include "mds/mds.hpp"
#include "replica/catalog.hpp"
#include "rm/health.hpp"
#include "rm/monitor.hpp"

namespace esg::rm {

struct FileRequest {
  std::string collection;
  std::string filename;
  /// Optional per-file server-side processing (overrides the request-wide
  /// TransferOptions): e.g. the ESG-II ncx.subset module with a per-chunk
  /// month window.
  std::string eret_module = {};
  std::string eret_params = {};
};

struct RequestOptions {
  std::string local_path_prefix = "cache";  // where fetched files land
  gridftp::TransferOptions transfer;
  gridftp::ReliabilityOptions reliability;
  common::SimDuration poll_interval = 2 * common::kSecond;  // size polling
  /// Retry policy for HRM stage requests.  attempt_timeout is each stage
  /// RPC's timeout, so it must stay positive.
  common::RetryPolicy stage_retry = {.max_attempts = 3,
                                     .retry_backoff = 15 * common::kSecond,
                                     .attempt_timeout = 30 * common::kMinute};
  std::size_t max_concurrent = 16;  // worker threads, paper-style
};

struct FileOutcome {
  FileRequest request;
  common::Status status = common::ok_status();
  common::Bytes size = 0;   // logical file size
  common::Bytes bytes = 0;  // bytes landed locally
  std::string local_name;
  std::string chosen_location;
  std::string chosen_host;
  common::Rate forecast_bandwidth = 0.0;
  int attempts = 0;
  int replica_switches = 0;
  bool staged_from_tape = false;
  common::SimTime started = 0;
  common::SimTime finished = 0;
};

struct RequestResult {
  common::Status status = common::ok_status();  // first failure, if any
  std::vector<FileOutcome> files;
  common::Bytes total_bytes = 0;
  common::SimTime started = 0;
  common::SimTime finished = 0;

  common::Rate aggregate_rate() const {
    const double secs = common::to_seconds(finished - started);
    return secs > 0 ? static_cast<double>(total_bytes) / secs : 0.0;
  }
};

class RequestManager {
 public:
  /// The RM is co-located with the destination: fetched files land in
  /// `ftp`'s local storage (the visualization system's disk cache).
  RequestManager(rpc::Orb& orb, const net::Host& host,
                 replica::ReplicaCatalog catalog, mds::MdsClient mds,
                 gridftp::GridFtpClient& ftp,
                 TransferMonitor* monitor = nullptr,
                 BreakerConfig breaker = {});
  /// Work still in flight is abandoned, not completed: no file outcome and
  /// no `done` callback fires, and no reference cycle keeps a worker alive.
  ~RequestManager();

  RequestManager(const RequestManager&) = delete;
  RequestManager& operator=(const RequestManager&) = delete;

  /// Fetch a set of logical files concurrently.  `done` fires once every
  /// file reached a terminal state.
  void submit(std::vector<FileRequest> files, RequestOptions options,
              std::function<void(RequestResult)> done);

  const net::Host& host() const { return host_; }
  TransferMonitor* monitor() { return monitor_; }
  /// Per-server circuit breakers consulted by replica ranking and fed by
  /// every transfer attempt's outcome.
  ReplicaHealthRegistry& health() { return health_; }

 private:
  struct Job;     // one submit()
  struct Worker;  // one file

  rpc::Orb& orb_;
  const net::Host& host_;
  replica::ReplicaCatalog catalog_;
  mds::MdsClient mds_;
  gridftp::GridFtpClient& ftp_;
  TransferMonitor* monitor_;
  ReplicaHealthRegistry health_;
  std::vector<std::weak_ptr<Job>> jobs_;  // submitted; expired ones pruned
};

}  // namespace esg::rm
