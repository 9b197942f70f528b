// Campaign driver: execute a CampaignPlan against the grid.
//
// One driver owns a whole campaign.  Per destination site it keeps a
// transfer queue (dataset-interleaved by the planner) and a configurable
// number of concurrent worker slots; each slot runs a gridftp::ReliableGet
// against the file's replica list, steered by a shared per-source-host
// circuit-breaker registry (rm::ReplicaHealthRegistry) exactly as the
// request manager wires it.  Completions are verified against the landed
// local copy's checksum, folded into the dataset-level checksum pipeline,
// and recorded in the CampaignManifest — the resume point.  A killed
// campaign's manifest (manifest().to_json(), reloaded with from_json) seeds
// a fresh driver, which skips everything already landed and converges to
// the same integrity report as an uninterrupted run.
//
// Observability: campaign_* metrics (queue depth, active transfers, files /
// bytes / retries / failures) and flight-recorder events (campaign.begin,
// task.failed, campaign.aborted, campaign.end) make fleet-scale runs
// explorable with the same esg-report tooling as single transfers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/catalog.hpp"
#include "campaign/manifest.hpp"
#include "campaign/planner.hpp"
#include "common/retry.hpp"
#include "gridftp/reliability.hpp"
#include "rm/health.hpp"

namespace esg::campaign {

/// A destination site's landing endpoint: a GridFTP client co-located at
/// the site.  Files land in the client's local namespace under
/// `local_prefix + "/" + file`.
struct SiteEndpoint {
  std::string site;
  gridftp::GridFtpClient* client = nullptr;
  std::string local_prefix = "replica";
};

struct CampaignOptions {
  /// Concurrent transfers per destination site.
  int per_site_concurrency = 4;
  gridftp::TransferOptions transfer;
  /// Retry shape for each file (feeds gridftp::ReliabilityOptions).
  common::RetryPolicy retry;
  rm::BreakerConfig breaker;
  /// Open a `campaign.file` trace span per task (queued at run(), ended at
  /// completion) and route each transfer's gridftp/net spans onto a
  /// per-task track, so build_profile() can decompose campaigns exactly
  /// like rm requests.  Off by default: a full 100k-file campaign should
  /// opt in (and raise Tracer::set_capacity) rather than silently drop.
  bool trace_tasks = false;
};

class CampaignDriver {
 public:
  /// `manifest` is empty for a fresh campaign or a killed campaign's, to
  /// resume it; its completed set is excluded from the plan.
  CampaignDriver(sim::Simulation& sim, CampaignCatalog catalog,
                 std::vector<SiteEndpoint> endpoints, CampaignOptions options,
                 CampaignManifest manifest = {});

  CampaignDriver(const CampaignDriver&) = delete;
  CampaignDriver& operator=(const CampaignDriver&) = delete;

  /// Start all site queues; `done` fires once every task has completed or
  /// permanently failed (immediately if the plan is empty).
  void run(std::function<void(const IntegrityReport&)> done);

  /// Kill the campaign mid-run: abort in-flight transfers and freeze the
  /// queues.  The completion callback does NOT fire — this simulates a
  /// crashed driver, which is resumed by constructing a new one from
  /// manifest().
  void abort();

  bool finished() const { return finished_; }
  const CampaignPlan& plan() const { return plan_; }
  const CampaignCatalog& catalog() const { return catalog_; }
  const CampaignManifest& manifest() const { return manifest_; }
  rm::ReplicaHealthRegistry& health() { return health_; }
  IntegrityReport report() const;

 private:
  struct SiteQueue {
    SiteEndpoint endpoint;
    std::vector<std::uint32_t> queue;
    std::size_t next = 0;
    int active = 0;
    obs::Gauge* depth = nullptr;
    obs::Gauge* active_gauge = nullptr;
    // Per-file series, each resolved at its first use: cells are created
    // in event order, which fixes their ids and so the order of telemetry
    // series and manifest entries.
    obs::Counter* tasks_started = nullptr;
    obs::Histogram* file_seconds = nullptr;
    obs::Counter* files_completed = nullptr;
    obs::Counter* bytes_moved = nullptr;
  };

  void pump(SiteQueue& sq);
  void start_task(SiteQueue& sq, std::uint32_t file_index);
  void task_finished(SiteQueue& sq, std::uint32_t file_index,
                     gridftp::ReliableResult result);
  void finish();

  sim::Simulation& sim_;
  CampaignCatalog catalog_;
  CampaignOptions options_;
  CampaignManifest manifest_;
  CampaignPlan plan_;
  rm::ReplicaHealthRegistry health_;
  std::vector<std::unique_ptr<SiteQueue>> sites_;
  std::map<std::uint32_t, std::shared_ptr<gridftp::ReliableGet>> active_;
  struct TaskTrace {
    obs::TrackId track = 0;
    obs::SpanId span = 0;  // the campaign.file root span
  };
  std::map<std::uint32_t, TaskTrace> traces_;  // only when trace_tasks
  std::function<void(const IntegrityReport&)> done_;
  std::size_t outstanding_ = 0;  // tasks not yet completed/failed
  bool started_ = false;
  bool aborted_ = false;
  bool finished_ = false;
};

}  // namespace esg::campaign
