#include "campaign/manifest.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "common/bytebuf.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"

namespace esg::campaign {

using common::Errc;
using common::Error;
using common::Result;

namespace {

// `v` as 16 lowercase hex digits.
void append_hex64(std::string& out, std::uint64_t v) {
  for (int shift = 60; shift >= 0; shift -= 4) {
    out.push_back("0123456789abcdef"[(v >> shift) & 0xf]);
  }
}

std::string hex64(std::uint64_t v) {
  std::string out;
  append_hex64(out, v);
  return out;
}

std::uint64_t parse_hex64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

std::string u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string key_of(const std::string& site, const std::string& file) {
  return site + '\n' + file;
}

}  // namespace

bool CampaignManifest::is_complete(const std::string& file,
                                   const std::string& site) const {
  return index_.count(key_of(site, file)) != 0;
}

void CampaignManifest::record(CompletedTransfer t) {
  auto [it, inserted] = index_.emplace(key_of(t.site, t.file),
                                       completed.size());
  if (!inserted) return;  // already recorded (resume overlap)
  completed.push_back(std::move(t));
}

void CampaignManifest::record_failure(PermanentFailure f) {
  failed.push_back(std::move(f));
}

IntegrityReport CampaignManifest::report(std::uint64_t files_planned,
                                         std::uint64_t files_resumed) const {
  IntegrityReport r;
  r.catalog_fingerprint = catalog_fingerprint;
  r.files_planned = files_planned;
  r.files_resumed = files_resumed;
  r.files_moved = completed.size();
  r.files_failed = failed.size();
  for (const auto& t : completed) {
    r.bytes_moved += t.bytes;
    r.retries += static_cast<std::uint64_t>(std::max(0, t.attempts - 1));
  }
  for (const auto& f : failed) {
    r.retries += static_cast<std::uint64_t>(std::max(0, f.attempts - 1));
  }
  // Content view, sorted so the fold is order-invariant: an interrupted
  // campaign records the same completions in a different order but must
  // produce the same dataset checksums and fingerprint.
  std::vector<const CompletedTransfer*> sorted;
  sorted.reserve(completed.size());
  for (const auto& t : completed) sorted.push_back(&t);
  std::sort(sorted.begin(), sorted.end(),
            [](const CompletedTransfer* a, const CompletedTransfer* b) {
              if (const int c = a->dataset.compare(b->dataset); c != 0) {
                return c < 0;
              }
              if (const int c = a->file.compare(b->file); c != 0) return c < 0;
              return a->site < b->site;
            });
  // Each transfer is one line, "dataset\0file\0site\0bytes\0checksum\n".
  // A dataset's checksum hashes its lines, the fingerprint all of them;
  // each line is folded into both running hashes as it is built.
  std::uint64_t all = common::kFnv1a64Basis;
  std::uint64_t dataset = common::kFnv1a64Basis;
  const std::string* current = nullptr;
  auto flush = [&] {
    if (current != nullptr) {
      r.dataset_checksums.emplace_back(*current, dataset);
    }
    dataset = common::kFnv1a64Basis;
  };
  std::string line;
  for (const CompletedTransfer* t : sorted) {
    if (current == nullptr || t->dataset != *current) {
      flush();
      current = &t->dataset;
    }
    line.clear();
    line.append(t->dataset).append(1, '\0');
    line.append(t->file).append(1, '\0');
    line.append(t->site).append(1, '\0');
    char digits[24];
    char* const end = std::to_chars(digits, std::end(digits), t->bytes).ptr;
    line.append(digits, end).append(1, '\0');
    append_hex64(line, t->checksum);
    line.push_back('\n');
    dataset = common::fnv1a64(line.data(), line.size(), dataset);
    all = common::fnv1a64(line.data(), line.size(), all);
  }
  flush();
  r.fingerprint = all;
  return r;
}

std::string CampaignManifest::to_json() const {
  std::string out = "{\n";
  out += "\"campaign\":\"" + obs::json_escape(campaign) + "\",\n";
  out += "\"seed\":" + u64(seed) + ",\n";
  out += "\"catalog_fingerprint\":\"" + hex64(catalog_fingerprint) + "\",\n";
  out += "\"completed\":[";
  for (std::size_t i = 0; i < completed.size(); ++i) {
    const auto& t = completed[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"dataset\":\"" + obs::json_escape(t.dataset) + "\",\"file\":\"" +
           obs::json_escape(t.file) + "\",\"site\":\"" +
           obs::json_escape(t.site) + "\",\"bytes\":" + u64(t.bytes) +
           ",\"checksum\":\"" + hex64(t.checksum) +
           "\",\"attempts\":" + std::to_string(t.attempts) +
           ",\"finished_at_ns\":" + u64(static_cast<std::uint64_t>(
                                        t.finished_at)) +
           "}";
  }
  out += "\n],\n\"failed\":[";
  for (std::size_t i = 0; i < failed.size(); ++i) {
    const auto& f = failed[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"dataset\":\"" + obs::json_escape(f.dataset) + "\",\"file\":\"" +
           obs::json_escape(f.file) + "\",\"site\":\"" +
           obs::json_escape(f.site) + "\",\"error\":\"" +
           obs::json_escape(f.error) +
           "\",\"attempts\":" + std::to_string(f.attempts) + "}";
  }
  out += "\n]\n}\n";
  return out;
}

Result<CampaignManifest> CampaignManifest::from_json(std::string_view text) {
  auto parsed = obs::json::parse(text);
  if (!parsed.ok()) return parsed.error();
  const obs::json::Value& v = parsed.value();
  if (!v.is_object()) {
    return Error{Errc::invalid_argument, "campaign manifest: not an object"};
  }
  CampaignManifest m;
  m.campaign = v.string_or("campaign", "");
  m.seed = static_cast<std::uint64_t>(v.number_or("seed", 0));
  m.catalog_fingerprint =
      parse_hex64(v.string_or("catalog_fingerprint", "0"));
  if (const auto* arr = v.find("completed"); arr != nullptr) {
    for (const auto& e : arr->as_array()) {
      CompletedTransfer t;
      t.dataset = e.string_or("dataset", "");
      t.file = e.string_or("file", "");
      t.site = e.string_or("site", "");
      t.bytes = static_cast<common::Bytes>(e.number_or("bytes", 0));
      t.checksum = parse_hex64(e.string_or("checksum", "0"));
      t.attempts = static_cast<int>(e.number_or("attempts", 1));
      t.finished_at =
          static_cast<common::SimTime>(e.number_or("finished_at_ns", 0));
      m.record(std::move(t));
    }
  }
  if (const auto* arr = v.find("failed"); arr != nullptr) {
    for (const auto& e : arr->as_array()) {
      PermanentFailure f;
      f.dataset = e.string_or("dataset", "");
      f.file = e.string_or("file", "");
      f.site = e.string_or("site", "");
      f.error = e.string_or("error", "");
      f.attempts = static_cast<int>(e.number_or("attempts", 0));
      m.record_failure(std::move(f));
    }
  }
  return m;
}

}  // namespace esg::campaign
