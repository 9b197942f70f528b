// Shared GridFTP types: transfer options, results, and statistics.
#pragma once

#include <functional>
#include <string>

#include "common/result.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"

namespace esg::gridftp {

using common::Bytes;
using common::Rate;
using common::SimDuration;
using common::SimTime;

/// Options for a single GET/PUT/third-party operation.  These correspond to
/// the protocol features the paper lists in §6.1: OPTS RETR Parallelism=n,
/// SBUF (buffer negotiation), REST (restart markers), ERET (server-side
/// processing with partial-file retrieval as the default module), and the
/// post-SC'2000 data-channel caching and 64-bit extensions.
struct TransferOptions {
  int parallelism = 1;                    // TCP streams per host pair
  /// Socket buffer.  0 requests automatic negotiation (SBUF): the client
  /// sizes the window from the measured control-channel RTT and a target
  /// per-stream rate — the bandwidth-delay rule the paper's §7 derives.
  Bytes buffer_size = common::kMiB;       // the paper chose 1 MB at SC'2000
  /// Target per-stream rate for auto-negotiation (paper: expected
  /// 200-500 Mb/s for the whole pipe).
  Rate auto_buffer_target = common::mbps(300);
  bool use_channel_cache = true;          // reuse warm control+data channels
  Bytes restart_offset = 0;               // REST marker: skip this many bytes
  SimDuration stall_timeout = 30 * common::kSecond;
  bool delegate_proxy = false;            // delegation round during auth
  bool large_file_support = true;         // 64-bit sizes (post-SC'2000)
  std::string eret_module;                // "" = plain RETR
  std::string eret_params;
  /// Trace track the operation's spans land on (see obs/trace.hpp); the
  /// request manager sets this to the per-file worker track so GridFTP and
  /// network spans nest under the worker's in the exported Chrome trace.
  obs::TrackId obs_track = 0;
};

struct TransferResult {
  common::Status status = common::ok_status();
  Bytes bytes_transferred = 0;  // bytes moved by THIS attempt
  Bytes file_size = 0;          // effective size after any ERET processing
  SimTime started = 0;
  SimTime finished = 0;
  /// True when the landed file's checksum matched the server's (a GET
  /// from a checksum-announcing server; every GET verifies).
  bool checksum_verified = false;

  Rate average_rate() const {
    const double secs = common::to_seconds(finished - started);
    return secs > 0 ? static_cast<double>(bytes_transferred) / secs : 0.0;
  }
};

using ProgressCallback =
    std::function<void(Bytes delta, Bytes total_so_far, SimTime now)>;
using CompletionCallback = std::function<void(TransferResult)>;

/// Client-side instrumentation, exercised by the channel-caching ablation.
struct ClientStats {
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t transfers_failed = 0;
  std::uint64_t auth_handshakes = 0;
  std::uint64_t data_channel_setups = 0;
  std::uint64_t channels_reused = 0;
  Bytes bytes_received = 0;
};

}  // namespace esg::gridftp
