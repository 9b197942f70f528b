#include "obs/postmortem.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/strings.hpp"

namespace esg::obs {

namespace {

std::string fmt_seconds(common::SimDuration d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1fs", common::to_seconds(d));
  return buf;
}

std::string fmt_at(common::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "[%8.1fs]", common::to_seconds(t));
  return buf;
}

bool is_anomaly(const FlightEvent& e) {
  // Symptoms: anything that shows the file was not making clean forward
  // progress.  attempt.begin #1 is normal; later attempts arrive via
  // retry.scheduled so they are not double-counted here.
  return e.name == "attempt.timeout" || e.name == "slow_replica" ||
         e.name == "checksum.mismatch" || e.name == "corruption.refetch" ||
         e.name == "retry.scheduled" || e.name == "stage.retry" ||
         e.name == "file.failed";
}

}  // namespace

const FlightEvent* attribute_fault(const std::vector<FlightEvent>& events,
                                   common::SimTime at,
                                   const FlightEvent& symptom) {
  // Anything that stopped acting longer ago than this is noise, not cause:
  // better to report no root cause than a confident wrong one.
  constexpr common::SimDuration kRecentWindow = 120 * common::kSecond;

  // Corruption injections are consumed first in, first out: the k-th
  // checksum.mismatch consumes the k-th fault.corruption.
  std::vector<const FlightEvent*> injections;
  std::vector<const FlightEvent*> mismatches;
  for (const auto& e : events) {
    if (e.category == "chaos" && e.name == "fault.corruption") {
      injections.push_back(&e);
    } else if (e.name == "checksum.mismatch") {
      mismatches.push_back(&e);
    }
  }
  if (symptom.name == "checksum.mismatch" ||
      symptom.name == "corruption.refetch") {
    // The symptom's mismatch: itself, or the one its refetch follows.
    std::size_t k = mismatches.size();  // none in the stream
    for (std::size_t i = 0;
         i < mismatches.size() && mismatches[i]->seq <= symptom.seq; ++i) {
      if (mismatches[i]->target == symptom.target) k = i;
    }
    if (k < mismatches.size() && k < injections.size() &&
        injections[k]->at <= mismatches[k]->at) {
      return injections[k];
    }
  }

  // The latest fault still active wins; failing that, the latest one that
  // stopped acting within the window (aftermath: retries draining,
  // breakers still open).
  const FlightEvent* active = nullptr;
  const FlightEvent* recent = nullptr;
  std::size_t armed = 0;
  for (auto it = events.begin(); it != events.end() && it->at <= at; ++it) {
    const FlightEvent& e = *it;
    if (e.category != "chaos") continue;
    common::SimTime over = e.at;  // when the fault stopped acting
    if (e.name == "fault.corruption") {
      const std::size_t k = armed++;
      if (k < mismatches.size() && mismatches[k]->at >= e.at &&
          mismatches[k]->at <= at) {
        over = mismatches[k]->at;
      }
    } else if (common::ends_with(e.name, ".begin")) {
      const std::string end = e.name.substr(0, e.name.size() - 6) + ".end";
      const auto lifted =
          std::find_if(std::next(it), events.end(), [&](const FlightEvent& x) {
            return x.category == "chaos" && x.target == e.target &&
                   x.name == end;
          });
      if (lifted == events.end() || lifted->at >= at) {
        active = &e;
        continue;
      }
      over = lifted->at;
    } else {
      continue;
    }
    if (at - over <= kRecentWindow) recent = &e;
  }
  return active != nullptr ? active : recent;
}

Postmortem build_postmortem(const std::vector<FlightEvent>& events,
                            const std::string& file) {
  Postmortem pm;
  pm.file = file;

  // ---- locate the file's lifecycle ----
  TrackId track = 0;
  const FlightEvent* queued = nullptr;
  const FlightEvent* terminal = nullptr;
  for (const auto& e : events) {
    if (e.name == "file.queued" && e.target == file) {
      queued = &e;
      track = e.track;
    }
    if ((e.name == "file.complete" || e.name == "file.failed") &&
        e.target == file) {
      terminal = &e;
    }
  }
  if (queued == nullptr) return pm;
  pm.found = true;
  pm.started = queued->at;
  if (terminal != nullptr) {
    pm.finished = terminal->at;
    pm.failed = terminal->name == "file.failed";
    pm.status = pm.failed ? std::string(terminal->attr("status")) : "ok";
    pm.attempts = std::atoi(std::string(terminal->attr("attempts")).c_str());
    pm.replica_switches =
        std::atoi(std::string(terminal->attr("switches")).c_str());
  } else {
    pm.finished = events.back().at;
    pm.status = "in flight";
  }

  // ---- the file's own events: same track (when known) or same target ----
  std::vector<const FlightEvent*> own;
  for (const auto& e : events) {
    const bool mine = (track != 0 && e.track == track) || e.target == file;
    if (!mine) continue;
    if (e.seq < queued->seq) continue;
    if (terminal != nullptr && e.seq > terminal->seq) continue;
    own.push_back(&e);
    if (e.name == "replica.selected" || e.name == "replica.switched") {
      pm.chosen_host = std::string(e.attr("host"));
    }
  }

  // ---- phase attribution: phase.begin events tile the lifetime ----
  const FlightEvent* open_phase = nullptr;
  for (const FlightEvent* e : own) {
    if (e->name != "phase.begin") continue;
    if (open_phase != nullptr) {
      pm.phases.push_back({std::string(open_phase->attr("phase")),
                           open_phase->at, e->at});
    } else if (e->at > pm.started) {
      pm.phases.push_back({"queued", pm.started, e->at});
    }
    open_phase = e;
  }
  if (open_phase != nullptr) {
    pm.phases.push_back(
        {std::string(open_phase->attr("phase")), open_phase->at, pm.finished});
  } else if (pm.finished > pm.started) {
    pm.phases.push_back({"run", pm.started, pm.finished});
  }

  // ---- first anomaly + root cause ----
  for (const FlightEvent* e : own) {
    if (!is_anomaly(*e)) continue;
    pm.degraded = true;
    pm.first_anomaly = *e;
    if (const FlightEvent* cause = attribute_fault(events, e->at, *e)) {
      pm.has_root_cause = true;
      pm.root_cause = *cause;
      pm.anomaly_lag = e->at - cause->at;
    }
    break;
  }
  if (pm.attempts > 1 || pm.replica_switches > 0) pm.degraded = true;

  // ---- correlated timeline: own events + environment events in-window ----
  std::vector<const FlightEvent*> merged = own;
  for (const auto& e : events) {
    if (e.at < pm.started || e.at > pm.finished) continue;
    const bool environment =
        e.category == "chaos" || e.category == "net" ||
        e.name.rfind("breaker.", 0) == 0 || e.name == "server.crash" ||
        e.name == "server.restart" || e.name == "crash" ||
        e.name == "restart";
    if (!environment) continue;
    const bool already = (track != 0 && e.track == track) || e.target == file;
    if (!already) merged.push_back(&e);
  }
  std::sort(merged.begin(), merged.end(),
            [](const FlightEvent* a, const FlightEvent* b) {
              return a->seq < b->seq;
            });
  pm.timeline.reserve(merged.size());
  for (const FlightEvent* e : merged) pm.timeline.push_back(*e);
  return pm;
}

Postmortem build_postmortem(const FlightRecorder& recorder,
                            const std::string& file) {
  std::vector<FlightEvent> events(recorder.events().begin(),
                                  recorder.events().end());
  return build_postmortem(events, file);
}

std::vector<std::string> postmortem_files(
    const std::vector<FlightEvent>& events) {
  std::vector<std::string> out;
  for (const auto& e : events) {
    if (e.name != "file.queued") continue;
    if (std::find(out.begin(), out.end(), e.target) == out.end()) {
      out.push_back(e.target);
    }
  }
  return out;
}

std::vector<std::string> degraded_files(
    const std::vector<FlightEvent>& events) {
  std::vector<std::string> out;
  for (const auto& file : postmortem_files(events)) {
    const Postmortem pm = build_postmortem(events, file);
    if (pm.failed || pm.degraded) out.push_back(file);
  }
  return out;
}

std::string Postmortem::render() const {
  std::string out = "POSTMORTEM " + file;
  if (!found) return out + " — no flight-recorder events for this file\n";
  out += failed ? " — FAILED (" + status + ")"
                : " — " + status + (degraded ? ", degraded" : ", clean");
  out += "  [" + fmt_seconds(started) + " .. " + fmt_seconds(finished) +
         ", total " + fmt_seconds(total()) + "]\n";
  if (!chosen_host.empty()) {
    out += "  final replica: " + chosen_host;
    if (attempts > 0) out += ", " + std::to_string(attempts) + " attempt(s)";
    if (replica_switches > 0) {
      out += ", " + std::to_string(replica_switches) + " replica switch(es)";
    }
    out += "\n";
  }
  if (has_root_cause) {
    out += "  root cause: " + root_cause.name + " " + root_cause.target;
    const std::string_view mag = root_cause.attr("magnitude");
    if (!mag.empty()) out += " magnitude=" + std::string(mag);
    const std::string_view desc = root_cause.attr("description");
    if (!desc.empty()) out += " (\"" + std::string(desc) + "\")";
    out += " at " + fmt_at(root_cause.at) + "\n";
    out += "    first symptom: " + first_anomaly.name;
    if (!first_anomaly.attr("host").empty()) {
      out += " on " + std::string(first_anomaly.attr("host"));
    }
    out += " " + fmt_seconds(anomaly_lag) + " later\n";
  } else if (degraded || failed) {
    out += "  root cause: none recorded (no overlapping fault event)\n";
  }
  out += "  phases:";
  for (const auto& p : phases) {
    out += " " + p.phase + "=" + fmt_seconds(p.duration());
  }
  out += "  (sum " + fmt_seconds(total()) + ")\n";
  out += "  timeline (" + std::to_string(timeline.size()) + " events):\n";
  for (const auto& e : timeline) {
    out += "    " + fmt_at(e.at) + " " + e.category + " " + e.name;
    if (!e.target.empty()) out += " " + e.target;
    for (const auto& [k, v] : e.attrs) {
      out += " " + k + "=" + v;
    }
    out += "\n";
  }
  return out;
}

}  // namespace esg::obs
