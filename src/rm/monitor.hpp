// Transfer-monitoring tool (paper §4, Figure 4).
//
// "Since the transfer of large files can take many minutes, a transfer-
// monitoring tool was developed to show the status of the request transfer
// dynamically.  Each file is monitored every few seconds as to its current
// size.  This information as well as the total bytes transferred for all
// file requests are displayed on the client's screen."
//
// The monitor receives events from the request manager and renders the same
// three-pane display as Figure 4: per-file progress bars on top, the chosen
// replica locations in the middle, and a scrolling message log at the
// bottom.
#pragma once

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace esg::rm {

using common::Bytes;
using common::Rate;
using common::SimTime;

class TransferMonitor {
 public:
  /// Mirror monitor events into `registry` (monitor_events_total{event=...});
  /// also enables the metrics pane of the snapshot render() overload.
  /// Pass nullptr to detach.  The registry must outlive the monitor.
  void bind_registry(obs::MetricsRegistry* registry) { registry_ = registry; }

  // ---- events from the request manager ----
  void file_queued(const std::string& file, Bytes total_size, SimTime now);
  void replica_selected(const std::string& file, const std::string& host,
                        Rate forecast_bandwidth, SimTime now);
  void staging_started(const std::string& file, const std::string& host,
                       SimTime now);
  void transfer_started(const std::string& file, const std::string& host,
                        SimTime now);
  void progress(const std::string& file, Bytes current_size, SimTime now);
  void replica_switched(const std::string& file, const std::string& new_host,
                        SimTime now);
  void transfer_complete(const std::string& file, Bytes size, SimTime now);
  void transfer_failed(const std::string& file, const std::string& reason,
                       SimTime now);

  // ---- display ----
  /// Full Figure 4-style frame.
  std::string render(SimTime now) const;
  /// Same frame plus a metrics pane rendered from a registry snapshot
  /// (queue depth, GridFTP channel bytes, HRM cache hits, retries).
  std::string render(SimTime now, const obs::MetricsSnapshot& snapshot) const;
  /// The scrolling message log (most recent last).  When the log overflows,
  /// the oldest entries are replaced by a "... N earlier lines dropped"
  /// sentinel at the front rather than vanishing silently.
  const std::deque<std::string>& log() const { return log_; }
  /// Lines discarded from the front of log() so far.
  std::size_t dropped_log_lines() const { return dropped_lines_; }

  Bytes total_bytes() const;
  std::size_t files_total() const { return files_.size(); }
  std::size_t files_complete() const;
  bool all_terminal() const;  // every file completed or failed

 private:
  struct FileState {
    Bytes total = 0;
    Bytes current = 0;
    std::string replica_host;
    Rate forecast = 0.0;
    enum class Phase { queued, staging, transferring, complete, failed } phase =
        Phase::queued;
    std::string failure;
    int order = 0;  // stable display order
  };

  void append_log(SimTime now, const std::string& line);
  void count_event(const char* event);

  std::map<std::string, FileState> files_;
  std::deque<std::string> log_;
  int next_order_ = 0;
  std::size_t dropped_lines_ = 0;
  obs::MetricsRegistry* registry_ = nullptr;
  static constexpr std::size_t kMaxLogLines = 200;
};

}  // namespace esg::rm
