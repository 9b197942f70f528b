// Critical-path profiler: per-request "time-where" analysis.
//
// The tracer records *what ran when* and the flight recorder records *what
// happened*; this module joins the two and answers the question every slow
// transfer raises: where did the time actually go?  For each root span
// (an `rm.file` request, or a `campaign.file` task) it decomposes the span's
// wall interval into **exclusive self-time categories**:
//
//   queue-wait     admitted but not yet started (concurrency limit)
//   breaker-wait   idle while every candidate replica's breaker was open
//   backoff        retry / stage-retry sleep windows
//   stage          HRM tape staging (mount, seek, read, stage retries' RPCs)
//   network        data bytes on the wire (net.tcp spans)
//   checksum       client-side verification pass over the landed payload
//   overhead       everything else: catalog lookup, replica ranking,
//                  control-plane RPCs (AUTH/RETR/connect), bookkeeping
//
// The decomposition reuses the postmortem tiling invariant: the seven
// categories *exactly* tile each root span — integer-nanosecond self times
// sum to the span duration, by construction, for every file.  The mechanism
// is an elementary-interval sweep: the root span is partitioned at every
// boundary contributed by a descendant span or a relevant flight event, and
// each elementary interval is attributed to the deepest span covering it
// (or, for uncovered gaps, classified from the event stream: backoff
// windows, breaker-open intervals, pre-first-phase queue wait).
//
// The same sweep yields each request's **critical path** — since a worker
// is a single logical thread, the chain of deepest spans *is* the path that
// bounded completion — and collapsed call stacks for flamegraph rendering
// (see flame.hpp).  Tail exemplars link the 3 slowest files per category
// back to their trace span ids, so a fat tail in the
// `rm_file_duration_seconds` / `campaign_file_seconds` histograms can be
// chased to concrete spans in the Chrome trace.
//
// Everything here is deterministic: same-seed runs produce byte-identical
// profiles (asserted by tests and the manifest differ).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"

namespace esg::obs {

enum class ProfileCategory : int {
  queue_wait = 0,
  breaker_wait,
  backoff,
  stage,
  network,
  checksum,
  overhead,
};

inline constexpr int kProfileCategories = 7;

/// Stable short name ("queue-wait", "stage", ...) used in manifests,
/// bench JSON, and rendered tables.
const char* profile_category_name(ProfileCategory c);
/// Inverse of profile_category_name; returns overhead for unknown names.
ProfileCategory profile_category_from_name(std::string_view name);

/// One step of a request's critical path: a maximal run of elementary
/// intervals attributed to the same deepest span (or the same kind of gap).
struct CriticalStep {
  std::string frame;         // deepest span name, or "(queued)", "(backoff)",
                             // "(breaker-wait)", "(overhead)" for gaps
  ProfileCategory category = ProfileCategory::overhead;
  common::SimTime start = 0;
  common::SimTime end = 0;
  SpanId span = 0;           // deepest covering span (the root itself for
                             // uncovered root-level gaps)

  common::SimDuration duration() const { return end - start; }
};

/// Per-file decomposition.  `self` exactly tiles [start, end].
struct FileProfile {
  std::string file;
  TrackId track = 0;
  SpanId span = 0;           // the root span id
  common::SimTime start = 0;
  common::SimTime end = 0;
  bool failed = false;
  bool staged = false;       // passed through an hrm.stage phase
  bool clamped = false;      // root span still open at capture; end = capture
  std::array<common::SimDuration, kProfileCategories> self{};
  std::vector<CriticalStep> critical_path;  // contiguous; tiles [start, end]

  common::SimDuration total() const { return end - start; }
  common::SimDuration category_sum() const;
  common::SimDuration self_time(ProfileCategory c) const {
    return self[static_cast<int>(c)];
  }
  /// Category with the largest self time (ties break toward the lower
  /// enum value, i.e. the earlier lifecycle stage).
  ProfileCategory dominant() const;
};

/// A collapsed call stack ("rm.file;rm.transfer;net.tcp") with its summed
/// exclusive self time across all files.
struct StackWeight {
  std::string stack;
  common::SimDuration self = 0;
};

/// One of the k slowest files for a category, linked to its trace span.
struct TailExemplar {
  ProfileCategory category = ProfileCategory::overhead;
  std::string file;
  TrackId track = 0;
  SpanId span = 0;
  common::SimDuration self = 0;   // time in `category`
  common::SimDuration total = 0;  // whole-request duration
};

struct ProfileOptions {
  /// Name of the root spans to profile ("rm.file" or "campaign.file").
  std::string root_span = "rm.file";
};

/// Aggregated time-where profile over every root span in a run.
struct TimeWhereProfile {
  std::string root_span;
  common::SimTime at = 0;          // capture time (open spans clamp here)
  std::uint64_t dropped_spans = 0; // tracer drops; > 0 taints the profile
  std::uint64_t clamped_spans = 0; // root spans clamped at capture
  /// Number of root spans decomposed.  Survives manifest condensation,
  /// where `files` keeps only exemplar-referenced rows.
  std::uint64_t files_profiled = 0;
  common::SimDuration total = 0;   // sum of per-file totals
  std::array<common::SimDuration, kProfileCategories> category_self{};
  std::vector<FileProfile> files;        // root-span start order
  std::vector<TailExemplar> exemplars;   // category-major, slowest first
  std::vector<StackWeight> stacks;       // lexicographic stack order

  double share(ProfileCategory c) const;
  const FileProfile* find(std::string_view file) const;
  /// The rendered time-where table (category, self seconds, share,
  /// slowest exemplar).
  std::string render() const;
};

/// Decompose every `options.root_span` span in `spans`, which are in the
/// tracer's order (`spans[i].id == i + 1`, as Tracer::spans() returns
/// them); a span still open is read as ending at `at` (SpanRecord::end_at).
/// `events` is the flight-recorder stream (retained window).
TimeWhereProfile build_profile(const std::vector<SpanRecord>& spans,
                               const std::vector<FlightEvent>& events,
                               common::SimTime at,
                               const ProfileOptions& options = {});

/// Capture from a live tracer + recorder at tracer.now().  The span records
/// are read in place under the tracer's lock and the recorder's ring is
/// iterated where it lies: neither is copied.
TimeWhereProfile build_profile(const Tracer& tracer,
                               const FlightRecorder& recorder,
                               const ProfileOptions& options = {});

/// Render one file's critical path as an indented step table.
std::string render_critical_path(const FileProfile& fp);

}  // namespace esg::obs
