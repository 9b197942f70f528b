#include "rm/monitor.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace esg::rm {

namespace {
std::string dropped_sentinel(std::size_t n) {
  return "... " + std::to_string(n) + " earlier lines dropped";
}
}  // namespace

void TransferMonitor::append_log(SimTime now, const std::string& line) {
  log_.push_back("[" + common::format_time(now) + "] " + line);
  if (log_.size() <= kMaxLogLines) return;
  // Overflow: discard the oldest real line but leave a visible count at the
  // front instead of losing history silently.  The sentinel occupies a log
  // slot itself, so the first overflow retires two lines.
  if (dropped_lines_ == 0) {
    log_.pop_front();
    log_.pop_front();
    dropped_lines_ = 2;
    log_.push_front(dropped_sentinel(dropped_lines_));
  } else {
    log_.erase(log_.begin() + 1);
    ++dropped_lines_;
    log_.front() = dropped_sentinel(dropped_lines_);
  }
}

void TransferMonitor::count_event(const char* event) {
  if (registry_ != nullptr) {
    registry_->counter("monitor_events_total", {{"event", event}}).add();
  }
}

void TransferMonitor::file_queued(const std::string& file, Bytes total_size,
                                  SimTime now) {
  count_event("file_queued");
  auto& st = files_[file];
  st.total = total_size;
  st.order = next_order_++;
  append_log(now, "queued " + file + " (" + common::format_bytes(total_size) +
                      ")");
}

void TransferMonitor::replica_selected(const std::string& file,
                                       const std::string& host,
                                       Rate forecast_bandwidth, SimTime now) {
  count_event("replica_selected");
  auto& st = files_[file];
  st.replica_host = host;
  st.forecast = forecast_bandwidth;
  append_log(now, "selected replica at " + host + " for " + file +
                      " (forecast " + common::format_rate(forecast_bandwidth) +
                      ")");
}

void TransferMonitor::staging_started(const std::string& file,
                                      const std::string& host, SimTime now) {
  count_event("staging_started");
  files_[file].phase = FileState::Phase::staging;
  append_log(now, "HRM staging " + file + " from tape at " + host);
}

void TransferMonitor::transfer_started(const std::string& file,
                                       const std::string& host, SimTime now) {
  count_event("transfer_started");
  files_[file].phase = FileState::Phase::transferring;
  append_log(now, "gridftp transfer of " + file + " from " + host +
                      " started");
}

void TransferMonitor::progress(const std::string& file, Bytes current_size,
                               SimTime) {
  auto it = files_.find(file);
  if (it != files_.end()) it->second.current = current_size;
}

void TransferMonitor::replica_switched(const std::string& file,
                                       const std::string& new_host,
                                       SimTime now) {
  count_event("replica_switched");
  files_[file].replica_host = new_host;
  append_log(now, "switched " + file + " to alternate replica at " + new_host);
}

void TransferMonitor::transfer_complete(const std::string& file, Bytes size,
                                        SimTime now) {
  count_event("transfer_complete");
  auto& st = files_[file];
  st.phase = FileState::Phase::complete;
  st.current = size;
  append_log(now, "completed " + file + " (" + common::format_bytes(size) +
                      ")");
}

void TransferMonitor::transfer_failed(const std::string& file,
                                      const std::string& reason, SimTime now) {
  count_event("transfer_failed");
  auto& st = files_[file];
  st.phase = FileState::Phase::failed;
  st.failure = reason;
  append_log(now, "FAILED " + file + ": " + reason);
}

Bytes TransferMonitor::total_bytes() const {
  Bytes sum = 0;
  for (const auto& [name, st] : files_) sum += st.current;
  return sum;
}

std::size_t TransferMonitor::files_complete() const {
  std::size_t n = 0;
  for (const auto& [name, st] : files_) {
    n += st.phase == FileState::Phase::complete;
  }
  return n;
}

bool TransferMonitor::all_terminal() const {
  for (const auto& [name, st] : files_) {
    if (st.phase != FileState::Phase::complete &&
        st.phase != FileState::Phase::failed) {
      return false;
    }
  }
  return !files_.empty();
}

std::string TransferMonitor::render(SimTime now) const {
  std::ostringstream os;
  os << "=== ESG Request Monitor  t=" << common::format_time(now)
     << "  files " << files_complete() << "/" << files_.size() << "  total "
     << common::format_bytes(total_bytes());
  if (now > 0) {
    os << " (" << common::format_rate(static_cast<double>(total_bytes()) /
                                      common::to_seconds(now))
       << " avg)";
  }
  os << " ===\n";

  // Stable ordering by arrival.
  std::vector<std::pair<std::string, const FileState*>> rows;
  rows.reserve(files_.size());
  for (const auto& [name, st] : files_) rows.emplace_back(name, &st);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second->order < b.second->order;
  });

  for (const auto& [name, st] : rows) {
    constexpr int kBar = 20;
    const double frac =
        st->total > 0 ? std::min(1.0, static_cast<double>(st->current) /
                                          static_cast<double>(st->total))
                      : 0.0;
    const int filled = static_cast<int>(frac * kBar + 0.5);
    os << "  " << name << "  [";
    for (int i = 0; i < kBar; ++i) os << (i < filled ? '#' : '.');
    os << "] " << static_cast<int>(frac * 100.0 + 0.5) << "%  "
       << common::format_bytes(st->current) << " / "
       << common::format_bytes(st->total);
    switch (st->phase) {
      case FileState::Phase::queued: os << "  (queued)"; break;
      case FileState::Phase::staging: os << "  (staging from tape)"; break;
      case FileState::Phase::transferring: break;
      case FileState::Phase::complete: os << "  (done)"; break;
      case FileState::Phase::failed: os << "  (FAILED)"; break;
    }
    os << "\n";
  }

  os << "--- replica selections ---\n";
  for (const auto& [name, st] : rows) {
    if (!st->replica_host.empty()) {
      os << "  " << name << " <- " << st->replica_host << " (forecast "
         << common::format_rate(st->forecast) << ")\n";
    }
  }

  os << "--- messages ---\n";
  const std::size_t shown = std::min<std::size_t>(log_.size(), 10);
  for (std::size_t i = log_.size() - shown; i < log_.size(); ++i) {
    os << "  " << log_[i] << "\n";
  }
  return os.str();
}

std::string TransferMonitor::render(
    SimTime now, const obs::MetricsSnapshot& snapshot) const {
  std::ostringstream os;
  os << render(now);
  os << "--- metrics ---\n";
  os << "  rm queue depth " << snapshot.value_or("rm_queue_depth", {})
     << "  active workers " << snapshot.value_or("rm_active_workers", {})
     << "  retries "
     << snapshot.family_total("rm_retries_total") << "\n";
  os << "  hrm cache hits " << snapshot.value_or("hrm_cache_hits_total", {})
     << "  misses " << snapshot.value_or("hrm_cache_misses_total", {}) << "\n";
  for (const auto& e : snapshot.entries) {
    if (e.name != "gridftp_channel_bytes_total") continue;
    std::string server = "?";
    for (const auto& [k, v] : e.labels) {
      if (k == "server") server = v;
    }
    os << "  gridftp bytes from " << server << "  "
       << common::format_bytes(static_cast<Bytes>(e.value)) << "\n";
  }
  return os.str();
}

}  // namespace esg::rm
