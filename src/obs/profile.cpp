#include "obs/profile.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <unordered_map>

namespace esg::obs {

namespace {

using common::SimDuration;
using common::SimTime;

// Slowest files kept per category as tail exemplars.
constexpr std::size_t kExemplarsPerCategory = 3;

const char* kCategoryNames[kProfileCategories] = {
    "queue-wait", "breaker-wait", "backoff", "stage",
    "network",    "checksum",     "overhead",
};

std::string_view span_attr(const SpanRecord& rec, std::string_view key) {
  for (const auto& [k, v] : rec.attrs) {
    if (k == key) return v;
  }
  return {};
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

/// Category of an interval whose deepest covering span is `name`, when the
/// span itself decides (leaf phases / data movement).  Returns true and
/// sets `out` if decisive; ambiguous containers (the root, `rm.transfer`,
/// `hrm.stage`) fall through to the event-based gap classifier.
bool span_decides(std::string_view name, ProfileCategory& out) {
  if (name == "net.tcp") {
    out = ProfileCategory::network;
    return true;
  }
  if (name == "gridftp.checksum") {
    out = ProfileCategory::checksum;
    return true;
  }
  if (starts_with(name, "hrm.") && name != "hrm.stage") {
    out = ProfileCategory::stage;  // hrm.stage.rpc and friends
    return true;
  }
  if (name == "rm.lookup" || name == "rm.find_replicas" ||
      name == "rm.rank_replicas") {
    out = ProfileCategory::overhead;
    return true;
  }
  if (starts_with(name, "gridftp.")) {
    // Control-plane time inside an op not covered by net.tcp: session
    // AUTH, RETR/STOR round-trips, connect handshakes.
    out = ProfileCategory::overhead;
    return true;
  }
  return false;
}

struct Window {
  SimTime begin = 0;
  SimTime end = 0;
};

/// [from, to] intervals during which a host's breaker refused traffic
/// (open or half-open).
struct BreakerTimeline {
  std::vector<Window> open;

  bool covers(SimTime a, SimTime b) const {
    for (const auto& w : open) {
      if (w.begin <= a && w.end >= b) return true;
    }
    return false;
  }
};

SimDuration backoff_ns_of(const FlightEvent& e) {
  const std::string_view ns = e.attr("backoff_ns");
  if (!ns.empty()) {
    return std::strtoll(std::string(ns).c_str(), nullptr, 10);
  }
  const std::string_view s = e.attr("backoff_s");
  if (!s.empty()) {
    return common::from_seconds(std::strtod(std::string(s).c_str(), nullptr));
  }
  return 0;
}

struct RootContext {
  const SpanRecord* root = nullptr;
  std::vector<const SpanRecord*> descendants;  // same track, under root
  std::vector<Window> backoff;                 // retry/stage-retry sleeps
  std::vector<std::string> hosts;              // candidate replica hosts
  SimTime first_child_start = 0;               // = root end if no children
};

bool in_any(const std::vector<Window>& windows, SimTime a, SimTime b) {
  for (const auto& w : windows) {
    if (w.begin <= a && w.end >= b) return true;
  }
  return false;
}

const char* gap_frame(ProfileCategory c) {
  switch (c) {
    case ProfileCategory::queue_wait: return "(queued)";
    case ProfileCategory::breaker_wait: return "(breaker-wait)";
    case ProfileCategory::backoff: return "(backoff)";
    case ProfileCategory::stage: return "(staging)";
    default: return "(overhead)";
  }
}

}  // namespace

const char* profile_category_name(ProfileCategory c) {
  const int i = static_cast<int>(c);
  if (i < 0 || i >= kProfileCategories) return "?";
  return kCategoryNames[i];
}

ProfileCategory profile_category_from_name(std::string_view name) {
  for (int i = 0; i < kProfileCategories; ++i) {
    if (name == kCategoryNames[i]) return static_cast<ProfileCategory>(i);
  }
  return ProfileCategory::overhead;
}

common::SimDuration FileProfile::category_sum() const {
  SimDuration sum = 0;
  for (const SimDuration d : self) sum += d;
  return sum;
}

ProfileCategory FileProfile::dominant() const {
  int best = 0;
  for (int i = 1; i < kProfileCategories; ++i) {
    if (self[i] > self[best]) best = i;
  }
  return static_cast<ProfileCategory>(best);
}

double TimeWhereProfile::share(ProfileCategory c) const {
  if (total <= 0) return 0.0;
  return static_cast<double>(category_self[static_cast<int>(c)]) /
         static_cast<double>(total);
}

const FileProfile* TimeWhereProfile::find(std::string_view file) const {
  for (const auto& fp : files) {
    if (fp.file == file) return &fp;
  }
  return nullptr;
}

namespace {

// The profile over `spans` and `events` as they lie: a live tracer's
// records and the recorder's ring are read in place, never copied.  A span
// still open is read as ending at `at` (SpanRecord::end_at).
template <typename Events>
TimeWhereProfile profile_of(const std::vector<SpanRecord>& spans,
                            const Events& events, SimTime at,
                            const ProfileOptions& options) {
  TimeWhereProfile profile;
  profile.root_span = options.root_span;
  profile.at = at;

  // A span's id is its 1-based position in the records, as the tracer
  // allots them, so a parent is found by index rather than through a map.
  const auto span_of = [&spans](SpanId id) -> const SpanRecord* {
    if (id == 0 || id > spans.size()) return nullptr;
    const SpanRecord* rec = &spans[id - 1];
    return rec->id == id ? rec : nullptr;
  };

  // Host breaker timelines from the global event stream.  A breaker
  // refuses traffic from `breaker.open` until the next `breaker.closed`
  // (half-open still refuses normal requests).
  std::map<std::string, BreakerTimeline> breakers;
  {
    std::map<std::string, SimTime> opened_at;
    for (const auto& e : events) {
      if (!starts_with(e.name, "breaker.")) continue;
      if (e.name == "breaker.open") {
        opened_at.emplace(e.target, e.at);
      } else if (e.name == "breaker.closed") {
        auto it = opened_at.find(e.target);
        if (it != opened_at.end()) {
          breakers[e.target].open.push_back({it->second, e.at});
          opened_at.erase(it);
        }
      }
    }
    for (const auto& [host, begin] : opened_at) {
      breakers[host].open.push_back({begin, at});  // still open at capture
    }
  }

  // Collect roots and their per-track context.
  std::vector<RootContext> roots;
  roots.reserve(std::count_if(
      spans.begin(), spans.end(),
      [&options](const SpanRecord& rec) {
        return rec.name == options.root_span;
      }));
  for (const auto& rec : spans) {
    if (rec.name != options.root_span) continue;
    RootContext ctx;
    ctx.root = &rec;
    roots.push_back(std::move(ctx));
  }
  std::sort(roots.begin(), roots.end(),
            [](const RootContext& a, const RootContext& b) {
              if (a.root->start != b.root->start) {
                return a.root->start < b.root->start;
              }
              return a.root->id < b.root->id;
            });

  std::unordered_map<TrackId, RootContext*> by_track;
  for (auto& ctx : roots) by_track[ctx.root->track] = &ctx;

  // Attach descendants (walk parent chains; ids increase with creation
  // order, so the walk terminates).
  for (const auto& rec : spans) {
    auto it = by_track.find(rec.track);
    if (it == by_track.end()) continue;
    RootContext& ctx = *it->second;
    if (rec.id == ctx.root->id) continue;
    SpanId p = rec.parent;
    bool under_root = false;
    while (p != 0) {
      if (p == ctx.root->id) {
        under_root = true;
        break;
      }
      const SpanRecord* parent = span_of(p);
      if (parent == nullptr) break;
      p = parent->parent;
    }
    if (under_root) ctx.descendants.push_back(&rec);
  }

  // Attach per-track events: backoff windows and candidate hosts.
  for (const auto& e : events) {
    if (e.track == 0) continue;
    auto it = by_track.find(e.track);
    if (it == by_track.end()) continue;
    RootContext& ctx = *it->second;
    if (e.name == "retry.scheduled" || e.name == "stage.retry") {
      const SimDuration ns = backoff_ns_of(e);
      if (ns > 0) ctx.backoff.push_back({e.at, e.at + ns});
    }
    const std::string_view host = e.attr("host");
    if (!host.empty() &&
        std::find(ctx.hosts.begin(), ctx.hosts.end(), host) ==
            ctx.hosts.end()) {
      ctx.hosts.emplace_back(host);
    }
  }

  std::map<std::string, SimDuration> stack_weights;
  // Buffers reused by every root and interval, so the sweep allocates only
  // when one outgrows them.
  std::vector<SimTime> bounds;
  std::vector<const SpanRecord*> chain;
  std::string stack;
  std::vector<CriticalStep> steps;
  profile.files.reserve(roots.size());

  for (auto& ctx : roots) {
    const SpanRecord& root = *ctx.root;
    FileProfile fp;
    fp.file = std::string(span_attr(root, "file"));
    if (fp.file.empty()) fp.file = root.name + "#" + std::to_string(root.id);
    fp.track = root.track;
    fp.span = root.id;
    fp.start = root.start;
    fp.end = root.end_at(at);
    fp.clamped = root.reads_clamped();
    const std::string_view status = span_attr(root, "status");
    fp.failed = !status.empty() && status != "ok";
    if (fp.clamped) ++profile.clamped_spans;

    // Elementary boundaries: descendant edges, backoff window edges, and
    // candidate-host breaker transitions, all clamped into the root span.
    bounds.clear();
    steps.clear();
    bounds.push_back(fp.start);
    bounds.push_back(fp.end);
    auto add_bound = [&](SimTime t) {
      if (t > fp.start && t < fp.end) bounds.push_back(t);
    };
    ctx.first_child_start = fp.end;
    for (const SpanRecord* d : ctx.descendants) {
      add_bound(d->start);
      add_bound(d->end_at(at));
      if (starts_with(d->name, "hrm.")) fp.staged = true;
      ctx.first_child_start = std::min(ctx.first_child_start, d->start);
    }
    for (const auto& w : ctx.backoff) {
      add_bound(w.begin);
      add_bound(w.end);
    }
    for (const auto& host : ctx.hosts) {
      auto bit = breakers.find(host);
      if (bit == breakers.end()) continue;
      for (const auto& w : bit->second.open) {
        add_bound(w.begin);
        add_bound(w.end);
      }
    }
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

    auto all_breakers_open = [&](SimTime a, SimTime b) {
      if (ctx.hosts.empty()) return false;
      for (const auto& host : ctx.hosts) {
        auto bit = breakers.find(host);
        if (bit == breakers.end() || !bit->second.covers(a, b)) return false;
      }
      return true;
    };

    // Sweep elementary intervals, attributing each to the deepest
    // covering descendant (ties: later start, then higher id).
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      const SimTime a = bounds[i];
      const SimTime b = bounds[i + 1];
      if (b <= a) continue;
      const SpanRecord* deepest = &root;
      int deepest_depth = 0;
      for (const SpanRecord* d : ctx.descendants) {
        if (d->start > a || d->end_at(at) < b) continue;
        int depth = 0;
        for (SpanId p = d->id; p != 0 && p != root.id;) {
          const SpanRecord* s = span_of(p);
          if (s == nullptr) break;
          p = s->parent;
          ++depth;
        }
        if (depth > deepest_depth ||
            (depth == deepest_depth &&
             (d->start > deepest->start ||
              (d->start == deepest->start && d->id > deepest->id)))) {
          deepest = d;
          deepest_depth = depth;
        }
      }

      ProfileCategory cat;
      bool gap = false;
      if (!span_decides(deepest->name, cat)) {
        gap = true;
        if (deepest == &root && b <= ctx.first_child_start) {
          cat = ProfileCategory::queue_wait;
        } else if (deepest->name == "hrm.stage") {
          cat = in_any(ctx.backoff, a, b) ? ProfileCategory::backoff
                                          : ProfileCategory::stage;
        } else if (all_breakers_open(a, b)) {
          cat = ProfileCategory::breaker_wait;
        } else if (in_any(ctx.backoff, a, b)) {
          cat = ProfileCategory::backoff;
        } else {
          cat = ProfileCategory::overhead;
        }
      }

      fp.self[static_cast<int>(cat)] += b - a;

      // Collapsed stack: root → deepest chain, plus a synthetic leaf
      // frame for gap intervals.
      chain.clear();
      for (const SpanRecord* s = deepest; s != nullptr && s->id != root.id;) {
        chain.push_back(s);
        s = span_of(s->parent);
      }
      stack = root.name;
      for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
        stack += ';';
        stack += (*it)->name;
      }
      if (gap) {
        stack += ';';
        stack += gap_frame(cat);
      }
      stack_weights[stack] += b - a;

      // Critical path: extend the previous step when the deepest span and
      // category repeat, else begin a new one.
      if (!steps.empty() && steps.back().span == deepest->id &&
          steps.back().category == cat && steps.back().end == a) {
        steps.back().end = b;
      } else {
        CriticalStep step;
        step.frame = gap ? gap_frame(cat) : deepest->name;
        step.category = cat;
        step.start = a;
        step.end = b;
        step.span = deepest->id;
        steps.push_back(std::move(step));
      }
    }
    fp.critical_path.assign(std::make_move_iterator(steps.begin()),
                            std::make_move_iterator(steps.end()));

    for (int i = 0; i < kProfileCategories; ++i) {
      profile.category_self[i] += fp.self[i];
    }
    profile.total += fp.total();
    profile.files.push_back(std::move(fp));
  }

  // Tail exemplars: the kExemplarsPerCategory slowest files per category.
  profile.exemplars.reserve(kProfileCategories * kExemplarsPerCategory);
  std::vector<const FileProfile*> ranked;
  ranked.reserve(profile.files.size());
  for (int c = 0; c < kProfileCategories; ++c) {
    ranked.clear();
    for (const auto& fp : profile.files) {
      if (fp.self[c] > 0) ranked.push_back(&fp);
    }
    std::sort(ranked.begin(), ranked.end(),
              [c](const FileProfile* a, const FileProfile* b) {
                if (a->self[c] != b->self[c]) return a->self[c] > b->self[c];
                return a->file < b->file;
              });
    const std::size_t k = std::min(ranked.size(), kExemplarsPerCategory);
    for (std::size_t i = 0; i < k; ++i) {
      TailExemplar ex;
      ex.category = static_cast<ProfileCategory>(c);
      ex.file = ranked[i]->file;
      ex.track = ranked[i]->track;
      ex.span = ranked[i]->span;
      ex.self = ranked[i]->self[c];
      ex.total = ranked[i]->total();
      profile.exemplars.push_back(std::move(ex));
    }
  }

  profile.stacks.reserve(stack_weights.size());
  while (!stack_weights.empty()) {
    auto node = stack_weights.extract(stack_weights.begin());
    profile.stacks.push_back(StackWeight{std::move(node.key()), node.mapped()});
  }
  profile.files_profiled = profile.files.size();
  return profile;
}

}  // namespace

TimeWhereProfile build_profile(const std::vector<SpanRecord>& spans,
                               const std::vector<FlightEvent>& events,
                               common::SimTime at,
                               const ProfileOptions& options) {
  return profile_of(spans, events, at, options);
}

TimeWhereProfile build_profile(const Tracer& tracer,
                               const FlightRecorder& recorder,
                               const ProfileOptions& options) {
  TimeWhereProfile profile;
  tracer.read_spans([&](const std::vector<SpanRecord>& spans, SimTime at) {
    profile = profile_of(spans, recorder.events(), at, options);
  });
  // Outside the read: the tracer's lock is held there.
  profile.dropped_spans = tracer.dropped();
  return profile;
}

std::string TimeWhereProfile::render() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "time-where: %s — %llu files, total %.3fs%s\n",
                root_span.c_str(),
                static_cast<unsigned long long>(
                    files_profiled > 0 ? files_profiled : files.size()),
                common::to_seconds(total),
                clamped_spans > 0 ? " (truncated run: open spans clamped)"
                                  : "");
  std::string out = buf;
  std::snprintf(buf, sizeof(buf), "  %-13s %12s %7s  %s\n", "category",
                "self", "share", "slowest exemplar");
  out += buf;
  for (int c = 0; c < kProfileCategories; ++c) {
    const TailExemplar* slowest = nullptr;
    for (const auto& ex : exemplars) {
      if (static_cast<int>(ex.category) == c) {
        slowest = &ex;
        break;  // exemplars are category-major, slowest first
      }
    }
    std::string tail;
    if (slowest != nullptr) {
      std::snprintf(buf, sizeof(buf), "%s (%.3fs, span %llu)",
                    slowest->file.c_str(), common::to_seconds(slowest->self),
                    static_cast<unsigned long long>(slowest->span));
      tail = buf;
    }
    std::snprintf(buf, sizeof(buf), "  %-13s %11.3fs %6.1f%%  %s\n",
                  kCategoryNames[c], common::to_seconds(category_self[c]),
                  100.0 * share(static_cast<ProfileCategory>(c)),
                  tail.c_str());
    out += buf;
  }
  return out;
}

std::string render_critical_path(const FileProfile& fp) {
  char buf[256];
  const ProfileCategory dom = fp.dominant();
  std::snprintf(
      buf, sizeof(buf),
      "critical path: %s — total %.3fs, dominant %s (%.1f%%)%s%s\n",
      fp.file.c_str(), common::to_seconds(fp.total()),
      profile_category_name(dom),
      fp.total() > 0 ? 100.0 * static_cast<double>(fp.self_time(dom)) /
                           static_cast<double>(fp.total())
                     : 0.0,
      fp.failed ? " [failed]" : "", fp.clamped ? " [clamped]" : "");
  std::string out = buf;
  for (const auto& step : fp.critical_path) {
    std::snprintf(buf, sizeof(buf),
                  "  +%10.3fs %10.3fs  %-12s %s  [span %llu]\n",
                  common::to_seconds(step.start - fp.start),
                  common::to_seconds(step.duration()),
                  profile_category_name(step.category), step.frame.c_str(),
                  static_cast<unsigned long long>(step.span));
    out += buf;
  }
  return out;
}

}  // namespace esg::obs
