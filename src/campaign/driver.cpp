#include "campaign/driver.hpp"

#include <algorithm>

#include "storage/storage.hpp"

namespace esg::campaign {

using common::Errc;
using common::Error;

CampaignDriver::CampaignDriver(sim::Simulation& sim, CampaignCatalog catalog,
                               std::vector<SiteEndpoint> endpoints,
                               CampaignOptions options,
                               CampaignManifest manifest)
    : sim_(sim),
      catalog_(std::move(catalog)),
      options_(std::move(options)),
      manifest_(std::move(manifest)),
      health_(sim, options_.breaker) {
  if (manifest_.campaign.empty()) manifest_.campaign = catalog_.name;
  manifest_.catalog_fingerprint = catalog_.fingerprint();
  plan_ = plan_campaign(catalog_, &manifest_);
  std::sort(endpoints.begin(), endpoints.end(),
            [](const SiteEndpoint& a, const SiteEndpoint& b) {
              return a.site < b.site;
            });
  for (const SitePlan& sp : plan_.sites) {
    auto it = std::find_if(
        endpoints.begin(), endpoints.end(),
        [&](const SiteEndpoint& e) { return e.site == sp.site; });
    if (it == endpoints.end()) {
      // No landing endpoint for this site: everything queued there is a
      // permanent failure — the planner's report must say so, not hang.
      for (std::uint32_t idx : sp.queue) {
        const CampaignFile& f = catalog_.files[idx];
        manifest_.record_failure(
            {f.dataset, f.name, sp.site, "no endpoint for site", 0});
      }
      continue;
    }
    auto sq = std::make_unique<SiteQueue>();
    sq->endpoint = *it;
    sq->queue = sp.queue;
    sq->depth = &sim_.metrics().gauge("campaign_queue_depth",
                                      {{"site", sp.site}});
    sq->active_gauge = &sim_.metrics().gauge("campaign_active_transfers",
                                             {{"site", sp.site}});
    sq->depth->set(static_cast<double>(sq->queue.size()));
    sq->active_gauge->set(0.0);
    outstanding_ += sq->queue.size();
    sites_.push_back(std::move(sq));
  }
}

IntegrityReport CampaignDriver::report() const {
  return manifest_.report(catalog_.files.size(), plan_.total_resumed());
}

void CampaignDriver::run(std::function<void(const IntegrityReport&)> done) {
  done_ = std::move(done);
  started_ = true;
  sim_.flight_recorder().record(
      "campaign", "campaign.begin", catalog_.name,
      {{"tasks", std::to_string(plan_.total_tasks())},
       {"resumed", std::to_string(plan_.total_resumed())},
       {"bytes", std::to_string(plan_.total_bytes())},
       {"sites", std::to_string(sites_.size())}});
  sim_.metrics()
      .counter("campaign_files_resumed_total")
      .add(plan_.total_resumed());
  if (options_.trace_tasks) {
    // Every queued task opens its root span now, before any transfer is
    // admitted: the stretch between here and the first gridftp span is the
    // task's queue wait, and the profiler bills it as such.
    for (auto& sq : sites_) {
      for (std::size_t i = sq->next; i < sq->queue.size(); ++i) {
        const std::uint32_t idx = sq->queue[i];
        const CampaignFile& f = catalog_.files[idx];
        TaskTrace trace;
        trace.track = sim_.tracer().new_track("campaign " +
                                              sq->endpoint.site + "/" +
                                              f.name);
        trace.span =
            sim_.tracer().begin("campaign.file", "campaign", trace.track);
        sim_.tracer().set_attr(trace.span, "file", f.name);
        sim_.tracer().set_attr(trace.span, "dataset", f.dataset);
        sim_.tracer().set_attr(trace.span, "site", sq->endpoint.site);
        traces_[idx] = trace;
      }
    }
  }
  if (outstanding_ == 0) {
    // Nothing to do (fully resumed or empty): complete asynchronously so
    // callers never see the callback before run() returns.
    sim_.schedule_after(0, [this] { finish(); });
    return;
  }
  for (auto& sq : sites_) pump(*sq);
}

void CampaignDriver::abort() {
  if (finished_ || aborted_) return;
  aborted_ = true;
  sim_.flight_recorder().record(
      "campaign", "campaign.aborted", catalog_.name,
      {{"completed", std::to_string(manifest_.completed_count())},
       {"in_flight", std::to_string(active_.size())}});
  auto active = std::move(active_);
  active_.clear();
  for (auto& [idx, get] : active) get->abort();
}

void CampaignDriver::pump(SiteQueue& sq) {
  if (aborted_ || finished_) return;
  while (sq.active < options_.per_site_concurrency &&
         sq.next < sq.queue.size()) {
    const std::uint32_t idx = sq.queue[sq.next++];
    ++sq.active;
    start_task(sq, idx);
  }
  sq.depth->set(static_cast<double>(sq.queue.size() - sq.next));
  sq.active_gauge->set(static_cast<double>(sq.active));
}

void CampaignDriver::start_task(SiteQueue& sq, std::uint32_t file_index) {
  const CampaignFile& f = catalog_.files[file_index];
  if (sq.tasks_started == nullptr) {
    sq.tasks_started = &sim_.metrics().counter("campaign_tasks_started_total",
                                               {{"site", sq.endpoint.site}});
  }
  sq.tasks_started->add();
  if (f.sources.empty()) {
    // Defer so the completion path never runs inside pump()'s loop.
    sim_.schedule_after(0, [this, &sq, file_index] {
      gridftp::ReliableResult r;
      r.status = Error{Errc::not_found, "no replicas registered"};
      task_finished(sq, file_index, std::move(r));
    });
    return;
  }
  gridftp::ReliabilityOptions rel;
  static_cast<common::RetryPolicy&>(rel) = options_.retry;
  rel.replica_allowed = [this](const std::string& host) {
    return health_.allow(host);
  };
  rel.on_attempt_result = [this](const std::string& host, bool ok) {
    ok ? health_.record_success(host) : health_.record_failure(host);
  };
  const std::string local_name = sq.endpoint.local_prefix + "/" + f.name;
  gridftp::TransferOptions transfer = options_.transfer;
  if (auto it = traces_.find(file_index); it != traces_.end()) {
    transfer.obs_track = it->second.track;
  }
  auto get = gridftp::ReliableGet::start(
      *sq.endpoint.client, f.sources, local_name, transfer, rel,
      nullptr, [this, &sq, file_index](gridftp::ReliableResult r) {
        task_finished(sq, file_index, std::move(r));
      });
  active_[file_index] = std::move(get);
}

void CampaignDriver::task_finished(SiteQueue& sq, std::uint32_t file_index,
                                   gridftp::ReliableResult result) {
  active_.erase(file_index);
  if (auto it = traces_.find(file_index); it != traces_.end()) {
    sim_.tracer().set_attr(it->second.span, "status",
                           result.status.ok()
                               ? "ok"
                               : result.status.error().to_string());
    sim_.tracer().set_attr(it->second.span, "bytes",
                           std::to_string(result.total_bytes));
    sim_.tracer().end(it->second.span);
    traces_.erase(it);
  }
  if (aborted_ || finished_) return;
  --sq.active;
  --outstanding_;
  const CampaignFile& f = catalog_.files[file_index];
  if (result.attempts > 1) {
    sim_.metrics()
        .counter("campaign_retries_total")
        .add(static_cast<std::uint64_t>(result.attempts - 1));
  }
  if (result.status.ok()) {
    CompletedTransfer t;
    t.dataset = f.dataset;
    t.file = f.name;
    t.site = sq.endpoint.site;
    t.bytes = result.total_bytes;
    t.attempts = std::max(1, result.attempts);
    t.finished_at = result.finished;
    // Dataset checksum pipeline: hash the landed copy, not the transfer —
    // what matters is what is actually on disk at the destination.
    const std::string local_name = sq.endpoint.local_prefix + "/" + f.name;
    if (auto file = sq.endpoint.client->local_storage().get(local_name);
        file.ok()) {
      t.checksum = storage::file_checksum(file.value());
    }
    manifest_.record(std::move(t));
    if (sq.file_seconds == nullptr) {
      const obs::Labels site{{"site", sq.endpoint.site}};
      auto& metrics = sim_.metrics();
      sq.file_seconds = &metrics.histogram("campaign_file_seconds",
                                           obs::duration_boundaries(), site);
      sq.files_completed =
          &metrics.counter("campaign_files_completed_total", site);
      sq.bytes_moved = &metrics.counter("campaign_bytes_moved_total", site);
    }
    sq.file_seconds->observe(
        common::to_seconds(result.finished - result.started));
    sq.files_completed->add();
    sq.bytes_moved->add(result.total_bytes);
  } else {
    manifest_.record_failure({f.dataset, f.name, sq.endpoint.site,
                              result.status.error().to_string(),
                              result.attempts});
    sim_.metrics()
        .counter("campaign_failures_total", {{"site", sq.endpoint.site}})
        .add();
    sim_.flight_recorder().record(
        "campaign", "task.failed", f.name,
        {{"site", sq.endpoint.site},
         {"attempts", std::to_string(result.attempts)},
         {"error", result.status.error().to_string()}});
  }
  if (outstanding_ == 0) {
    pump(sq);  // refresh gauges
    finish();
    return;
  }
  pump(sq);
}

void CampaignDriver::finish() {
  if (finished_ || aborted_) return;
  finished_ = true;
  const IntegrityReport r = report();
  sim_.flight_recorder().record(
      "campaign", "campaign.end", catalog_.name,
      {{"moved", std::to_string(r.files_moved)},
       {"resumed", std::to_string(r.files_resumed)},
       {"failed", std::to_string(r.files_failed)},
       {"bytes", std::to_string(r.bytes_moved)},
       {"retries", std::to_string(r.retries)}});
  if (done_) done_(r);
}

}  // namespace esg::campaign
