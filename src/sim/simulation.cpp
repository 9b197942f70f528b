#include "sim/simulation.hpp"

#include <algorithm>
#include <utility>

namespace esg::sim {

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {
  depth_gauge_ = &metrics_.gauge("sim_queue_depth");
  purge_counter_ = &metrics_.counter("sim_queue_purges");
  depth_gauge_->set(0.0);
  // Surface span drops as a metric so truncated traces never fail silently
  // (esg-report summary warns on it, profiles carry it).  The gauge is
  // created lazily on the first drop: clean runs keep byte-identical
  // snapshots.
  tracer_.set_drop_hook([this](std::size_t dropped_total) {
    metrics_.gauge("obs_trace_dropped")
        .set(static_cast<double>(dropped_total));
  });
}

Simulation::~Simulation() {
  // Events a destroyed capture schedules land in queue_ again, and go the
  // same way on the next pass.
  while (!queue_.empty()) {
    std::vector<Event> pending = std::move(queue_);
    queue_.clear();
  }
}

void Simulation::push_event(Event event) {
  queue_.push_back(std::move(event));
  std::push_heap(queue_.begin(), queue_.end(), fires_later);
  depth_gauge_->set(static_cast<double>(queue_.size()));
  if (queue_.size() >= kPurgeMinQueue &&
      kPurgeDeadWeight * *cancelled_ > kPurgeSizeWeight * queue_.size()) {
    purge_cancelled();
  }
}

void Simulation::purge_cancelled() {
  std::erase_if(queue_, [](const Event& e) { return !*e.alive; });
  std::make_heap(queue_.begin(), queue_.end(), fires_later);
  *cancelled_ = 0;
  ++purges_;
  purge_counter_->add(1);
  depth_gauge_->set(static_cast<double>(queue_.size()));
}

bool Simulation::drop_cancelled_head() {
  while (!queue_.empty() && !*queue_.front().alive) {
    std::pop_heap(queue_.begin(), queue_.end(), fires_later);
    queue_.pop_back();
    if (*cancelled_ > 0) --*cancelled_;
  }
  if (queue_.empty()) depth_gauge_->set(0.0);
  return !queue_.empty();
}

EventHandle Simulation::schedule_at(SimTime at, std::function<void()> fn) {
  assert(at >= now_ && "cannot schedule in the past");
  auto alive = std::make_shared<bool>(true);
  push_event(Event{at, next_seq_++, std::move(fn), alive});
  return EventHandle(std::move(alive), cancelled_);
}

EventHandle Simulation::schedule_every(SimDuration period,
                                       std::function<bool()> fn) {
  assert(period > 0);
  // The outer handle's flag is shared with every rescheduled instance so a
  // single cancel() stops the series.
  auto alive = std::make_shared<bool>(true);
  auto tick = std::make_shared<std::function<void()>>();
  // The queued wrapper events own `tick`; the body holds only a weak
  // reference to itself.  Once the series ends (or a cancelled instance is
  // purged) the last wrapper releases the closure, so whatever the callback
  // captured is destroyed instead of living on in a tick->closure->tick
  // cycle.
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [this, period, fn = std::move(fn), alive, weak_tick]() {
    if (!*alive) return;
    if (!fn()) {
      *alive = false;
      return;
    }
    if (auto t = weak_tick.lock()) {
      push_event(Event{now_ + period, next_seq_++, [t] { (*t)(); }, alive});
    }
  };
  push_event(Event{now_ + period, next_seq_++, [t = tick] { (*t)(); }, alive});
  return EventHandle(std::move(alive), cancelled_);
}

EventHandle Simulation::start_telemetry(SimDuration period) {
  assert(period > 0);
  telemetry_.sample_registry(metrics_, now_);
  alerts_.evaluate(now_);
  auto alive = std::make_shared<bool>(true);
  auto tick = std::make_shared<std::function<void()>>();
  // Same ownership scheme as schedule_every: queued wrappers own the
  // closure, the body only weakly references itself.
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  *tick = [this, period, alive, weak_tick] {
    if (!*alive) return;
    telemetry_.sample_registry(metrics_, now_);
    alerts_.evaluate(now_);
    // Re-arm only while the workload is still alive: when no live event is
    // left the run is over, and a self-perpetuating sampler would keep
    // run() from ever returning.  Cancelled events stay queued until they
    // surface, so drop them first: a dead timer far in the future must not
    // keep the sampler ticking until its time.
    if (drop_cancelled_head()) {
      if (auto t = weak_tick.lock()) {
        push_event(Event{now_ + period, next_seq_++, [t] { (*t)(); }, alive});
      }
    } else {
      *alive = false;
    }
  };
  push_event(Event{now_ + period, next_seq_++, [t = tick] { (*t)(); }, alive});
  return EventHandle(std::move(alive), cancelled_);
}

bool Simulation::step() {
  if (!drop_cancelled_head()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), fires_later);
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  depth_gauge_->set(static_cast<double>(queue_.size()));
  assert(ev.at >= now_);
  now_ = ev.at;
  ++fired_;
  ev.fn();
  return true;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(SimTime deadline) {
  while (drop_cancelled_head() && queue_.front().at <= deadline) {
    step();
  }
  now_ = std::max(now_, deadline);
}

bool Simulation::run_while_pending(const std::function<bool()>& pred) {
  if (pred()) return true;
  while (step()) {
    if (pred()) return true;
  }
  return false;
}

common::Logger Simulation::make_logger(std::string component) {
  common::Logger log(std::move(component));
  log.bind_clock([this] { return now_; });
  return log;
}

}  // namespace esg::sim
