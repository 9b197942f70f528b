// Campaign manifest: durable record of a replication campaign's progress.
//
// The run manifest (obs/manifest.hpp) pins down what a *simulation run* was;
// the campaign manifest pins down what a *campaign* has accomplished so far
// — which files landed where, with what checksum, at what cost.  It is the
// resume point: a half-finished campaign reloaded from its manifest skips
// every completed (file, site) pair, transfers nothing twice, and converges
// to the same integrity report an uninterrupted run produces.
//
// Determinism contract: two same-seed runs serialize byte-identical
// manifests, and the integrity fingerprint — FNV-1a over the sorted
// completed set (dataset, file, site, bytes, checksum) — is invariant
// under interruption/resume because it excludes timings and attempt counts.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"

namespace esg::campaign {

struct CompletedTransfer {
  std::string dataset;
  std::string file;
  std::string site;  // destination
  common::Bytes bytes = 0;
  std::uint64_t checksum = 0;  // landed payload fnv1a64
  int attempts = 1;
  common::SimTime finished_at = 0;
};

struct PermanentFailure {
  std::string dataset;
  std::string file;
  std::string site;
  std::string error;
  int attempts = 0;
};

/// End-of-run accounting.  `fingerprint()` and `dataset_checksums` are
/// content-only (resume-invariant); the counters tell the operational story
/// of this particular run sequence (retries, resumed files, ...).
struct IntegrityReport {
  std::uint64_t catalog_fingerprint = 0;
  std::uint64_t files_planned = 0;
  std::uint64_t files_moved = 0;    // completed over the campaign's lifetime
  std::uint64_t files_resumed = 0;  // already complete when this run planned
  std::uint64_t files_failed = 0;   // permanent failures
  common::Bytes bytes_moved = 0;
  std::uint64_t retries = 0;  // attempts beyond the first, incl. failures
  /// Dataset-level checksum pipeline: per dataset, fnv1a64 folded over the
  /// (file, site, checksum) triples in sorted order — order-invariant, so
  /// interrupted and uninterrupted campaigns agree.  Sorted by dataset.
  std::vector<std::pair<std::string, std::uint64_t>> dataset_checksums;
  /// Content fingerprint over the sorted completed set.
  std::uint64_t fingerprint = 0;
};

class CampaignManifest {
 public:
  std::string campaign;
  std::uint64_t seed = 0;
  std::uint64_t catalog_fingerprint = 0;
  std::vector<CompletedTransfer> completed;  // completion order
  std::vector<PermanentFailure> failed;

  bool is_complete(const std::string& file, const std::string& site) const;
  /// Record a completion (keeps the lookup index in step).  Duplicate
  /// (file, site) records are ignored — resume safety.
  void record(CompletedTransfer t);
  void record_failure(PermanentFailure f);

  std::size_t completed_count() const { return completed.size(); }

  /// Recompute the report from the records (plus `files_planned` /
  /// `files_resumed` supplied by the driver, which knows the plan).
  IntegrityReport report(std::uint64_t files_planned,
                         std::uint64_t files_resumed) const;

  /// Deterministic serialization: same records ⇒ identical bytes.
  std::string to_json() const;
  static common::Result<CampaignManifest> from_json(std::string_view text);

 private:
  // (site '\n' file) → index into completed.
  std::map<std::string, std::size_t> index_;
};

}  // namespace esg::campaign
