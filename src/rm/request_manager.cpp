#include "rm/request_manager.hpp"

#include <algorithm>

namespace esg::rm {

using common::Bytes;
using common::Errc;
using common::Error;
using common::Rate;
using common::Result;
using common::Status;

RequestManager::RequestManager(rpc::Orb& orb, const net::Host& host,
                               replica::ReplicaCatalog catalog,
                               mds::MdsClient mds,
                               gridftp::GridFtpClient& ftp,
                               TransferMonitor* monitor,
                               BreakerConfig breaker)
    : orb_(orb),
      host_(host),
      catalog_(std::move(catalog)),
      mds_(std::move(mds)),
      ftp_(ftp),
      monitor_(monitor),
      health_(orb.network().simulation(), breaker) {}

// One submit(): owns the worker list and the completion barrier.
struct RequestManager::Job : std::enable_shared_from_this<Job> {
  RequestManager* rm = nullptr;
  RequestOptions options;
  std::vector<FileRequest> files;
  std::vector<std::shared_ptr<Worker>> workers;  // created at submit time
  std::vector<FileOutcome> outcomes;
  std::function<void(RequestResult)> done;
  std::size_t next_index = 0;
  std::size_t running = 0;
  std::size_t finished = 0;
  common::SimTime started = 0;
  // Resolved once per job; updated from pump()/worker_finished().
  obs::Gauge* queue_depth = nullptr;     // files not yet started
  obs::Gauge* active_workers = nullptr;  // workers in flight

  void pump();
  void worker_finished(std::size_t index, FileOutcome outcome);
  void publish_depth() {
    queue_depth->set(static_cast<double>(files.size() - next_index));
    active_workers->set(static_cast<double>(running));
  }
};

// One file: the paper's per-file thread.
struct RequestManager::Worker : std::enable_shared_from_this<Worker> {
  std::shared_ptr<Job> job;
  std::size_t index = 0;
  FileOutcome outcome;
  std::vector<replica::Replica> replicas;   // sorted best-first
  std::shared_ptr<gridftp::ReliableGet> fetch;
  sim::EventHandle poller;
  std::unique_ptr<hrm::HrmClient> hrm_client;
  int stage_attempts = 0;
  common::SimTime stage_started = 0;
  bool terminal = false;
  obs::TrackId track = 0;  // one trace track per file worker
  obs::Span span;          // whole-file "rm.file" span
  obs::Span phase;         // current step's child span

  RequestManager& rm() { return *job->rm; }
  sim::Simulation& sim() { return rm().orb_.network().simulation(); }
  TransferMonitor* monitor() { return rm().monitor_; }

  /// End the current step's span and open the next one under rm.file.  The
  /// matching flight event is what lets a postmortem tile the file's
  /// lifetime into phase slices that sum exactly to the rm.file span.
  void next_phase(const char* name) {
    phase.end();
    phase = sim().tracer().span(name, "rm", track);
    sim().flight_recorder().record("rm", "phase.begin",
                                   outcome.request.filename,
                                   {{"phase", name}}, track);
  }

  /// Runs at submit time for every file, before any worker is admitted:
  /// the rm.file span opens here, so time spent waiting behind the
  /// max_concurrent limit is inside the span and the profiler can bill it
  /// to queue-wait (the span's uncovered prefix before the first phase).
  void enqueue() {
    outcome.started = sim().now();
    outcome.request = job->files[index];
    track = sim().tracer().new_track("rm " + outcome.request.filename);
    span = sim().tracer().span("rm.file", "rm", track);
    span.set_attr("file", outcome.request.filename);
    sim().metrics().counter("rm_files_submitted_total").add();
    sim().flight_recorder().record("rm", "file.queued",
                                   outcome.request.filename, {}, track);
    outcome.local_name = job->options.local_path_prefix + "/" +
                         outcome.request.filename;
    if (!outcome.request.eret_module.empty()) {
      // Server-side-processed fetches land under a distinct local name so
      // they never alias a whole-file copy.
      outcome.local_name += "#" + outcome.request.eret_module;
    }
    if (monitor()) {
      monitor()->file_queued(outcome.request.filename, 0, sim().now());
    }
  }

  /// Admitted past the concurrency limit: the lifecycle proper begins.
  void activate() {
    next_phase("rm.lookup");
    // Step 0: logical file metadata (size, for the progress display).
    auto self = shared_from_this();
    rm().catalog_.lookup_logical_file(
        outcome.request.collection, outcome.request.filename,
        [self](Result<replica::LogicalFileInfo> info) {
          if (info) {
            self->outcome.size = info->size;
            if (self->monitor()) {
              self->monitor()->file_queued(self->outcome.request.filename,
                                           info->size, self->sim().now());
            }
          }
          self->find_replicas();
        });
  }

  // Step 1: all replicas from the replica catalog.
  void find_replicas() {
    next_phase("rm.find_replicas");
    auto self = shared_from_this();
    rm().catalog_.find_replicas(
        outcome.request.collection, outcome.request.filename,
        [self](Result<std::vector<replica::Replica>> r) {
          if (!r) return self->finish(Status(r.error()));
          self->replicas = std::move(*r);
          self->rank_replicas();
        });
  }

  // Step 2+3: NWS forecasts (via MDS) for every candidate, pick the best.
  void rank_replicas() {
    next_phase("rm.rank_replicas");
    auto self = shared_from_this();
    rm().mds_.query_paths_to(
        rm().host_.name(),
        [self](Result<std::vector<mds::NetworkRecord>> records) {
          // Forecast per source host; unknown paths rank as zero.
          std::map<std::string, const mds::NetworkRecord*> by_src;
          if (records) {
            for (const auto& rec : *records) by_src[rec.src_host] = &rec;
          }
          auto score = [&by_src](const replica::Replica& rep) -> Rate {
            auto it = by_src.find(rep.location.hostname);
            if (it == by_src.end()) return 0.0;
            if (it->second->probe_failed) return -1.0;  // likely down
            return it->second->bandwidth;
          };
          std::stable_sort(self->replicas.begin(), self->replicas.end(),
                           [&score](const auto& a, const auto& b) {
                             return score(a) > score(b);
                           });
          // Circuit-breaker pass: demote hosts whose breaker is open (and
          // still cooling) below every healthy candidate, keeping the NWS
          // order within each group.
          std::stable_partition(
              self->replicas.begin(), self->replicas.end(),
              [self](const replica::Replica& rep) {
                return self->rm().health_.healthy(rep.location.hostname);
              });
          const auto& best = self->replicas.front();
          self->outcome.chosen_location = best.location.name;
          self->outcome.chosen_host = best.location.hostname;
          self->outcome.forecast_bandwidth = std::max(0.0, score(best));
          self->sim()
              .metrics()
              .counter("rm_replica_selected_total",
                       {{"host", best.location.hostname}})
              .add();
          self->span.set_attr("replica", best.location.hostname);
          self->sim().flight_recorder().record(
              "rm", "replica.selected", self->outcome.request.filename,
              {{"host", best.location.hostname}}, self->track);
          if (self->monitor()) {
            self->monitor()->replica_selected(
                self->outcome.request.filename, best.location.hostname,
                self->outcome.forecast_bandwidth, self->sim().now());
          }
          self->maybe_stage();
        });
  }

  // Step 4a: HRM staging when the chosen replica sits on tape.
  void maybe_stage() {
    const auto& best = replicas.front();
    if (best.location.storage_type != "mss") return begin_transfer();
    next_phase("hrm.stage");
    net::Host* hrm_host =
        rm().orb_.network().find_host(best.location.hostname);
    if (hrm_host == nullptr) {
      return finish(Error{Errc::not_found,
                          "unknown HRM host " + best.location.hostname});
    }
    outcome.staged_from_tape = true;
    if (monitor()) {
      monitor()->staging_started(outcome.request.filename,
                                 best.location.hostname, sim().now());
    }
    hrm_client = std::make_unique<hrm::HrmClient>(rm().orb_, rm().host_,
                                                  *hrm_host);
    stage_started = sim().now();
    attempt_stage();
  }

  /// One stage attempt; retries under options.stage_retry (the HRM may be
  /// mid-crash or its tape library stalled — staging is the slowest, most
  /// failure-prone rung of the fetch ladder).
  void attempt_stage() {
    if (terminal) return;
    const auto& policy = job->options.stage_retry;
    if (stage_attempts > 0 &&
        policy.past_deadline(stage_started, sim().now())) {
      // A truncated backoff lands exactly on the deadline; fail here rather
      // than issuing one more stage RPC past the overall budget.
      return finish(Error{Errc::timed_out,
                          "stage deadline exceeded after " +
                              std::to_string(stage_attempts) + " attempts"});
    }
    ++stage_attempts;
    auto self = shared_from_this();
    hrm_client->stage(
        replicas.front().url.path, track,
        [self](Result<Bytes> staged) {
          if (self->terminal) return;
          if (staged) return self->begin_transfer();
          const auto& policy = self->job->options.stage_retry;
          if (policy.out_of_attempts(self->stage_attempts) ||
              policy.past_deadline(self->stage_started, self->sim().now())) {
            return self->finish(Status(staged.error()));
          }
          self->sim().metrics().counter("rm_stage_retries_total").add();
          // Backoff truncated to the remaining deadline budget: the retry
          // fires no later than the deadline itself, where attempt_stage()
          // gives up, instead of sleeping past the overall budget.  The
          // exact sleep goes on the event so the profiler can bill the
          // window to the backoff category.
          const common::SimDuration delay = policy.backoff_within_deadline(
              self->stage_attempts, self->stage_started, self->sim().now(),
              self->sim().rng());
          self->sim().flight_recorder().record(
              "rm", "stage.retry", self->outcome.request.filename,
              {{"attempt", std::to_string(self->stage_attempts)},
               {"error", staged.error().to_string()},
               {"backoff_ns", std::to_string(delay)}},
              self->track);
          self->sim().schedule_after(delay,
                                     [self] { self->attempt_stage(); });
        },
        policy.attempt_timeout);
  }

  // Step 4b: GridFTP get through the reliability plugin, alternates ready.
  void begin_transfer() {
    next_phase("rm.transfer");
    std::vector<gridftp::FtpUrl> urls;
    urls.reserve(replicas.size());
    for (const auto& rep : replicas) urls.push_back(rep.url);
    if (monitor()) {
      monitor()->transfer_started(outcome.request.filename,
                                  outcome.chosen_host, sim().now());
    }
    gridftp::TransferOptions transfer = job->options.transfer;
    transfer.obs_track = track;  // nest gridftp/net spans under this worker
    if (!outcome.request.eret_module.empty()) {
      transfer.eret_module = outcome.request.eret_module;
      transfer.eret_params = outcome.request.eret_params;
    }
    // Wire the per-server circuit breakers into the reliability plugin:
    // attempts consult allow() and every outcome feeds the breaker, unless
    // the caller supplied its own hooks.
    gridftp::ReliabilityOptions reliability = job->options.reliability;
    auto* health = &rm().health_;
    if (!reliability.replica_allowed) {
      reliability.replica_allowed = [health](const std::string& host) {
        return health->allow(host);
      };
    }
    if (!reliability.on_attempt_result) {
      reliability.on_attempt_result = [health](const std::string& host,
                                               bool ok) {
        if (ok) {
          health->record_success(host);
        } else {
          health->record_failure(host);
        }
      };
    }
    auto self = shared_from_this();
    fetch = gridftp::ReliableGet::start(
        rm().ftp_, std::move(urls), outcome.local_name, transfer,
        std::move(reliability), nullptr,
        [self](gridftp::ReliableResult r) {
          self->outcome.bytes = r.total_bytes;
          self->outcome.attempts = r.attempts;
          self->outcome.replica_switches = r.replica_switches;
          self->finish(r.status);
        });
    arm_poller();
  }

  // Step 5: poll the local file size every few seconds (paper behaviour).
  void arm_poller() {
    auto self = shared_from_this();
    poller = sim().schedule_every(job->options.poll_interval, [self] {
      if (self->terminal) return false;
      const Bytes size = self->rm().ftp_.local_storage()
                             .size_of(self->outcome.local_name)
                             .value_or(0);
      if (self->monitor()) {
        self->monitor()->progress(self->outcome.request.filename, size,
                                  self->sim().now());
      }
      if (self->fetch && self->fetch->active()) {
        const std::string current = self->fetch->current_replica().host;
        if (current != self->outcome.chosen_host) {
          self->outcome.chosen_host = current;
          self->sim().flight_recorder().record(
              "rm", "replica.switched", self->outcome.request.filename,
              {{"host", current}}, self->track);
          if (self->monitor()) {
            self->monitor()->replica_switched(self->outcome.request.filename,
                                              current, self->sim().now());
          }
        }
      }
      return true;
    });
  }

  /// The RM is going away: stop without any completion logic, and drop
  /// the fetch, whose callbacks and GridFTP op would otherwise keep this
  /// worker alive in a cycle.  Every worker of the RM is terminal first, so
  /// a completion the abort sets off reaches none of them.  The spans close
  /// here too: pending events may keep the worker until the simulation,
  /// and its tracer, are gone.
  void abandon() {
    poller.cancel();
    if (fetch) fetch->abort();  // its done callback meets a terminal worker
    fetch.reset();
    phase.end();
    span.end();
  }

  void finish(Status status) {
    if (terminal) return;
    terminal = true;
    poller.cancel();
    outcome.status = std::move(status);
    outcome.finished = sim().now();
    auto& metrics = sim().metrics();
    metrics.counter(outcome.status.ok() ? "rm_files_completed_total"
                                        : "rm_files_failed_total")
        .add();
    metrics
        .histogram("rm_file_duration_seconds", obs::duration_boundaries())
        .observe(common::to_seconds(outcome.finished - outcome.started));
    if (outcome.attempts > 1) {
      metrics.counter("rm_retries_total")
          .add(static_cast<std::uint64_t>(outcome.attempts - 1));
    }
    if (outcome.replica_switches > 0) {
      metrics.counter("rm_replica_switches_total")
          .add(static_cast<std::uint64_t>(outcome.replica_switches));
    }
    phase.end();
    span.set_attr("status",
                  outcome.status.ok() ? "ok"
                                      : outcome.status.error().to_string());
    span.set_attr("bytes", std::to_string(outcome.bytes));
    span.end();
    sim().flight_recorder().record(
        "rm", outcome.status.ok() ? "file.complete" : "file.failed",
        outcome.request.filename,
        {{"status", outcome.status.ok()
                        ? std::string("ok")
                        : outcome.status.error().to_string()},
         {"bytes", std::to_string(outcome.bytes)},
         {"attempts", std::to_string(outcome.attempts)},
         {"switches", std::to_string(outcome.replica_switches)}},
        track);
    if (monitor()) {
      if (outcome.status.ok()) {
        monitor()->transfer_complete(outcome.request.filename, outcome.bytes,
                                     sim().now());
      } else {
        monitor()->transfer_failed(outcome.request.filename,
                                   outcome.status.error().to_string(),
                                   sim().now());
      }
    }
    // Release the HRM pin if we staged.
    if (outcome.staged_from_tape && hrm_client && !replicas.empty()) {
      hrm_client->release(replicas.front().url.path, [](Status) {});
    }
    job->worker_finished(index, std::move(outcome));
  }
};

RequestManager::~RequestManager() {
  std::vector<std::shared_ptr<Worker>> live;
  for (const auto& weak : jobs_) {
    const auto job = weak.lock();
    if (!job) continue;
    for (auto& worker : job->workers) {
      if (worker == nullptr) continue;
      worker->terminal = true;
      live.push_back(std::move(worker));
    }
    job->workers.clear();  // each worker holds its job: break that cycle
  }
  for (const auto& worker : live) worker->abandon();
}

void RequestManager::Job::pump() {
  while (running < options.max_concurrent && next_index < files.size()) {
    ++running;
    publish_depth();
    workers[next_index++]->activate();
  }
  publish_depth();
}

void RequestManager::Job::worker_finished(std::size_t index,
                                          FileOutcome outcome) {
  outcomes[index] = std::move(outcome);
  workers[index].reset();  // callbacks keep the worker alive while needed
  --running;
  ++finished;
  publish_depth();
  if (finished == files.size()) {
    RequestResult result;
    result.files = std::move(outcomes);
    result.started = started;
    result.finished = rm->orb_.network().simulation().now();
    for (const auto& f : result.files) {
      result.total_bytes += f.bytes;
      if (!f.status.ok() && result.status.ok()) result.status = f.status;
    }
    if (done) done(std::move(result));
    return;
  }
  pump();
}

void RequestManager::submit(std::vector<FileRequest> files,
                            RequestOptions options,
                            std::function<void(RequestResult)> done) {
  auto job = std::make_shared<Job>();
  std::erase_if(jobs_, [](const auto& weak) { return weak.expired(); });
  jobs_.push_back(job);
  job->rm = this;
  job->options = std::move(options);
  job->files = std::move(files);
  job->outcomes.resize(job->files.size());
  job->done = std::move(done);
  job->started = orb_.network().simulation().now();
  auto& metrics = orb_.network().simulation().metrics();
  job->queue_depth = &metrics.gauge("rm_queue_depth");
  job->active_workers = &metrics.gauge("rm_active_workers");
  if (job->files.empty()) {
    orb_.network().simulation().schedule_after(0, [job] {
      RequestResult r;
      r.started = r.finished = job->started;
      job->done(std::move(r));
    });
    return;
  }
  // Every file opens its rm.file span now; pump() admits them through the
  // concurrency limit, so the pre-activation stretch is visible queue wait.
  job->workers.reserve(job->files.size());
  for (std::size_t i = 0; i < job->files.size(); ++i) {
    auto worker = std::make_shared<Worker>();
    worker->job = job;
    worker->index = i;
    worker->enqueue();
    job->workers.push_back(std::move(worker));
  }
  job->pump();
}

}  // namespace esg::rm
