#include "obs/export.hpp"

#include <cinttypes>
#include <cstdio>

namespace esg::obs {

namespace {

// Fixed-format doubles keep exports deterministic and diff-friendly.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string fmt_micros(common::SimTime t) {
  // Sim time is integer nanoseconds; Chrome wants microseconds.  Three
  // decimals preserve exact nanosecond resolution.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03d", t / 1000,
                static_cast<int>(t % 1000));
  return buf;
}

// Label-value escaping per the Prometheus text exposition format:
// backslash, double-quote, and line-feed are the three characters that
// must be escaped inside a quoted label value.
std::string prom_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string labels_block(const Labels& labels) {
  if (labels.empty()) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + prom_escape(v) + "\"";
  }
  out += "}";
  return out;
}

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
  }
  out += "}";
  return out;
}

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::counter: return "counter";
    case MetricKind::gauge: return "gauge";
    case MetricKind::histogram: return "histogram";
  }
  return "?";
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string to_chrome_trace(const Tracer& tracer,
                            const FlightRecorder& recorder) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&out, &first](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += "\n" + event;
  };

  for (const auto& [track, name] : tracer.tracks()) {
    emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
         std::to_string(track) + ",\"args\":{\"name\":\"" +
         json_escape(name) + "\"}}");
  }

  // Spans are read in place; one still open renders clamped at the clock.
  tracer.read_spans([&emit](const std::vector<SpanRecord>& spans,
                            common::SimTime at) {
    for (const auto& rec : spans) {
      std::string ev = "{\"name\":\"" + json_escape(rec.name) + "\"";
      if (!rec.category.empty()) {
        ev += ",\"cat\":\"" + json_escape(rec.category) + "\"";
      }
      ev += ",\"ph\":\"X\",\"ts\":" + fmt_micros(rec.start) +
            ",\"dur\":" + fmt_micros(rec.end_at(at) - rec.start) +
            ",\"pid\":1,\"tid\":" + std::to_string(rec.track);
      ev += ",\"args\":{\"span_id\":" + std::to_string(rec.id) +
            ",\"parent_id\":" + std::to_string(rec.parent);
      if (rec.reads_clamped()) ev += ",\"clamped\":\"true\"";
      for (const auto& [k, v] : rec.attrs) {
        ev += ",\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
      }
      ev += "}}";
      emit(ev);
    }
  });

  // Flight events are zero-duration markers on the track that emitted
  // them (tid 0, "main", when none did).
  for (const auto& event : recorder.events()) {
    std::string ev = "{\"name\":\"" + json_escape(event.name) +
                     "\",\"cat\":\"" + json_escape(event.category) + "\"";
    ev += ",\"ph\":\"i\",\"s\":\"t\",\"ts\":" + fmt_micros(event.at) +
          ",\"pid\":1,\"tid\":" + std::to_string(event.track);
    ev += ",\"args\":{\"target\":\"" + json_escape(event.target) + "\"";
    for (const auto& [k, v] : event.attrs) {
      ev += ",\"" + json_escape(k) + "\":\"" + json_escape(v) + "\"";
    }
    ev += "}}";
    emit(ev);
  }

  out += "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":" +
         std::to_string(tracer.dropped()) + "}}";
  return out;
}

std::string to_prometheus_text(const MetricsSnapshot& snapshot) {
  std::string out;
  std::string last_family;
  for (const auto& e : snapshot.entries) {
    if (e.name != last_family) {
      out += "# TYPE " + e.name + " " + kind_name(e.kind) + "\n";
      last_family = e.name;
    }
    switch (e.kind) {
      case MetricKind::counter:
      case MetricKind::gauge:
        out += e.name + labels_block(e.labels) + " " + fmt_double(e.value) +
               "\n";
        break;
      case MetricKind::histogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < e.buckets.size(); ++i) {
          cumulative += e.buckets[i];
          Labels with_le = e.labels;
          with_le.emplace_back(
              "le", i < e.boundaries.size() ? fmt_double(e.boundaries[i])
                                            : "+Inf");
          out += e.name + "_bucket" + labels_block(with_le) + " " +
                 std::to_string(cumulative) + "\n";
        }
        out += e.name + "_sum" + labels_block(e.labels) + " " +
               fmt_double(e.sum) + "\n";
        out += e.name + "_count" + labels_block(e.labels) + " " +
               std::to_string(e.count) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::string out =
      "{\"sim_time_ns\":" + std::to_string(snapshot.at) + ",\"metrics\":[";
  bool first = true;
  for (const auto& e : snapshot.entries) {
    if (!first) out += ",";
    first = false;
    out += "\n{\"name\":\"" + json_escape(e.name) + "\",\"kind\":\"" +
           kind_name(e.kind) + "\",\"labels\":" + labels_json(e.labels);
    if (e.kind == MetricKind::histogram) {
      out += ",\"boundaries\":[";
      for (std::size_t i = 0; i < e.boundaries.size(); ++i) {
        if (i > 0) out += ",";
        out += fmt_double(e.boundaries[i]);
      }
      out += "],\"buckets\":[";
      for (std::size_t i = 0; i < e.buckets.size(); ++i) {
        if (i > 0) out += ",";
        out += std::to_string(e.buckets[i]);
      }
      out += "],\"count\":" + std::to_string(e.count) +
             ",\"sum\":" + fmt_double(e.sum);
    } else {
      out += ",\"value\":" + fmt_double(e.value);
    }
    out += "}";
  }
  out += "\n]}";
  return out;
}

}  // namespace esg::obs
