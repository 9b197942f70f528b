#include "gridftp/reliability.hpp"

#include <cassert>

namespace esg::gridftp {

using common::Errc;
using common::Error;
using common::Status;

std::shared_ptr<ReliableGet> ReliableGet::start(
    GridFtpClient& client, std::vector<FtpUrl> replicas,
    std::string local_name, TransferOptions options,
    ReliabilityOptions reliability, ProgressCallback progress,
    std::function<void(ReliableResult)> done) {
  assert(!replicas.empty());
  auto self = std::shared_ptr<ReliableGet>(new ReliableGet(
      client, std::move(replicas), std::move(local_name), options, reliability,
      std::move(progress), std::move(done)));
  self->self_ = self;
  self->result_.started = client.simulation().now();
  self->attempt();
  return self;
}

ReliableGet::ReliableGet(GridFtpClient& client, std::vector<FtpUrl> replicas,
                         std::string local_name, TransferOptions options,
                         ReliabilityOptions reliability,
                         ProgressCallback progress,
                         std::function<void(ReliableResult)> done)
    : client_(client),
      replicas_(std::move(replicas)),
      local_name_(std::move(local_name)),
      options_(options),
      reliability_(reliability),
      progress_(std::move(progress)),
      done_(std::move(done)) {}

void ReliableGet::abort() {
  if (finished_) return;
  if (handle_) handle_->abort();
  finish(Error{Errc::aborted, "reliable get aborted"});
}

void ReliableGet::attempt() {
  if (finished_) return;
  if (reliability_.past_deadline(result_.started,
                                 client_.simulation().now())) {
    return finish(Error{Errc::timed_out,
                        "deadline exceeded after " +
                            std::to_string(result_.attempts) + " attempts"});
  }
  if (reliability_.out_of_attempts(result_.attempts)) {
    return finish(Error{Errc::timed_out,
                        "gave up after " +
                            std::to_string(result_.attempts) + " attempts"});
  }
  ++result_.attempts;
  if (result_.attempts > 1) {
    client_.simulation().metrics().counter("gridftp_retries_total").add();
    if (offset_ > 0) {
      // Resuming from a restart marker rather than from byte zero.
      client_.simulation().metrics().counter("gridftp_restarts_total").add();
    }
  }
  select_replica();

  TransferOptions opts = options_;
  opts.restart_offset = offset_;
  client_.simulation().flight_recorder().record(
      "gridftp", "attempt.begin", local_name_,
      {{"host", current_replica().host},
       {"attempt", std::to_string(result_.attempts)},
       {"restart_offset", std::to_string(offset_)}},
      options_.obs_track);

  auto self = shared_from_this();
  handle_ = client_.get(
      current_replica(), local_name_, opts,
      [self](Bytes delta, Bytes total, SimTime now) {
        if (self->finished_) return;
        self->offset_ = total;
        if (self->progress_) self->progress_(delta, total, now);
      },
      [self](TransferResult r) { self->attempt_finished(std::move(r)); });
  window_start_bytes_ = offset_;
  arm_rate_monitor();
  arm_attempt_timer();
}

void ReliableGet::select_replica() {
  if (!reliability_.replica_allowed) return;
  for (std::size_t probe = 0; probe < replicas_.size(); ++probe) {
    const std::size_t idx = (replica_index_ + probe) % replicas_.size();
    if (reliability_.replica_allowed(replicas_[idx].host)) {
      if (probe > 0) {
        client_.simulation()
            .metrics()
            .counter("gridftp_breaker_skips_total")
            .add(probe);
      }
      replica_index_ += probe;
      return;
    }
  }
  // Every candidate's breaker refused.  Proceed with the round-robin choice
  // as a last resort — stalling forever would be worse than probing.
}

void ReliableGet::rotate_replica() {
  ++replica_index_;
  if (replicas_.size() > 1) {
    ++result_.replica_switches;
    client_.simulation()
        .metrics()
        .counter("gridftp_replica_switches_total")
        .add();
  }
}

void ReliableGet::schedule_retry() {
  if (finished_) return;
  const SimTime now = client_.simulation().now();
  if (reliability_.past_deadline(result_.started, now)) {
    // No budget left to sleep on: give up now instead of backing off past
    // the overall deadline.
    return finish(Error{Errc::timed_out,
                        "deadline exceeded after " +
                            std::to_string(result_.attempts) + " attempts"});
  }
  // Truncated to the remaining deadline budget, so the last retry fires at
  // the deadline itself (where attempt() fails it) rather than overshooting
  // by up to max_backoff.
  const SimDuration delay = reliability_.backoff_within_deadline(
      result_.attempts, result_.started, now, client_.simulation().rng());
  client_.simulation()
      .metrics()
      .histogram("gridftp_retry_backoff_seconds", obs::duration_boundaries())
      .observe(common::to_seconds(delay));
  client_.simulation().flight_recorder().record(
      "gridftp", "retry.scheduled", local_name_,
      {{"after_attempt", std::to_string(result_.attempts)},
       {"backoff_s", std::to_string(common::to_seconds(delay))},
       {"backoff_ns", std::to_string(delay)}},
      options_.obs_track);
  auto self = shared_from_this();
  client_.simulation().schedule_after(delay, [self] { self->attempt(); });
}

void ReliableGet::report_outcome(bool ok) {
  if (reliability_.on_attempt_result) {
    reliability_.on_attempt_result(current_replica().host, ok);
  }
}

void ReliableGet::arm_attempt_timer() {
  attempt_timer_.cancel();
  if (reliability_.attempt_timeout <= 0) return;
  auto self = shared_from_this();
  attempt_timer_ = client_.simulation().schedule_after(
      reliability_.attempt_timeout, [self] {
        if (self->finished_ || !self->handle_ || !self->handle_->active()) {
          return;
        }
        self->client_.simulation()
            .metrics()
            .counter("gridftp_attempt_timeouts_total")
            .add();
        self->client_.simulation().flight_recorder().record(
            "gridftp", "attempt.timeout", self->local_name_,
            {{"host", self->current_replica().host},
             {"attempt", std::to_string(self->result_.attempts)}},
            self->options_.obs_track);
        self->handle_->abort();
        self->report_outcome(false);
        self->rotate_replica();
        self->schedule_retry();
      });
}

void ReliableGet::arm_rate_monitor() {
  monitor_.cancel();
  if (reliability_.min_rate <= 0.0) return;
  auto self = shared_from_this();
  monitor_ = client_.simulation().schedule_every(
      reliability_.eval_window, [self] {
        if (self->finished_ || !self->handle_ || !self->handle_->active()) {
          return false;
        }
        const Bytes window_bytes = self->offset_ - self->window_start_bytes_;
        self->window_start_bytes_ = self->offset_;
        const Rate achieved =
            static_cast<double>(window_bytes) /
            common::to_seconds(self->reliability_.eval_window);
        if (achieved < self->reliability_.min_rate) {
          // Too slow: abandon this replica and move to the next, resuming
          // from the restart marker immediately (no backoff — the replica
          // is alive, just underperforming; paper §7 semantics).  Slowness
          // still counts against the replica's health.
          self->client_.simulation().flight_recorder().record(
              "gridftp", "slow_replica", self->local_name_,
              {{"host", self->current_replica().host},
               {"achieved_Bps", std::to_string(achieved)}},
              self->options_.obs_track);
          self->handle_->abort();
          self->report_outcome(false);
          self->rotate_replica();
          self->attempt();
          return false;
        }
        return true;
      });
}

void ReliableGet::attempt_finished(TransferResult r) {
  if (finished_) return;
  monitor_.cancel();
  attempt_timer_.cancel();
  result_.total_bytes = offset_;
  if (r.status.ok()) {
    report_outcome(true);
    // The server's completion reply is authoritative for the byte count;
    // progress-delta integerization can run a few bytes short.
    offset_ = std::max(offset_, r.file_size);
    return finish(common::ok_status());
  }
  report_outcome(false);
  if (r.status.error().code == Errc::io_error) {
    // Integrity failure: the landed bytes cannot be trusted, so drop the
    // restart marker and re-fetch the file whole from the next replica.
    offset_ = 0;
    client_.simulation()
        .metrics()
        .counter("gridftp_corruption_refetches_total")
        .add();
    client_.simulation().flight_recorder().record(
        "gridftp", "corruption.refetch", local_name_,
        {{"host", current_replica().host}}, options_.obs_track);
  }
  // Failed attempt: advance to the next replica (round-robin) and retry
  // from the marker after an exponential backoff.  The client has already
  // dropped its session if the server looked dead, so re-authentication
  // happens naturally on the retry.
  rotate_replica();
  schedule_retry();
}

void ReliableGet::finish(Status status) {
  if (finished_) return;
  finished_ = true;
  monitor_.cancel();
  attempt_timer_.cancel();
  result_.status = std::move(status);
  result_.finished = client_.simulation().now();
  result_.total_bytes = offset_;
  progress_ = nullptr;  // may capture the owner; the op no longer needs it
  auto done = std::move(done_);
  auto self = std::move(self_);  // drop keep-alive after the callback returns
  if (done) done(std::move(result_));
}

}  // namespace esg::gridftp
