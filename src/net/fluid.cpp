#include "net/fluid.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace esg::net {

namespace {
// Rates are bytes/second up to a few 1e8; one byte/s of slack is noise.
constexpr double kRateEps = 1e-6;
constexpr double kByteEps = 0.5;  // "done" when less than half a byte remains
}  // namespace

FluidNetwork::FluidNetwork(sim::Simulation& simulation,
                           SimDuration poll_interval)
    : sim_(simulation), poll_interval_(poll_interval) {
  integrated_at_ = sim_.now();
}

FluidNetwork::~FluidNetwork() {
  next_event_.cancel();
  poll_event_.cancel();
}

Resource* FluidNetwork::add_resource(std::string name, Rate capacity) {
  assert(std::none_of(resources_.begin(), resources_.end(),
                      [&](const auto& r) { return r->name() == name; }) &&
         "duplicate resource name");
  auto res = std::make_unique<Resource>(std::move(name), capacity);
  Resource* ptr = res.get();
  ptr->id_ = static_cast<std::uint32_t>(resources_.size());
  ptr->util_gauge_ = &sim_.metrics().gauge("net_resource_utilization",
                                           {{"resource", ptr->name()}});
  resources_.push_back(std::move(res));
  res_flows_.push_back(0);
  foreground_.push_back(0.0);
  // Per-resource solver scratch, indexed by id, grows here.
  usage_scratch_.push_back(0.0);
  cap_scratch_.push_back(0.0);
  unfrozen_scratch_.push_back(0);
  saturated_scratch_.push_back(0);
  return ptr;
}

void FluidNetwork::on_mutation() {
  rates_dirty_ = true;
  solve_dirty_ = true;
  if (batch_depth_ == 0) touch();
}

void FluidNetwork::on_resource_change(Resource* resource) {
  if (res_flows_[resource->id_] > 0) return on_mutation();
  // No flow crosses it, so no rate moves: the next reallocation refreshes
  // its gauge without a solve.
  pending_res_.push_back(resource);
  rates_dirty_ = true;
  if (batch_depth_ == 0) touch();
}

void FluidNetwork::set_down(Resource* resource, bool down) {
  assert(resource != nullptr);
  if (resource->down_ == down) return;
  resource->down_ = down;
  on_resource_change(resource);
}

void FluidNetwork::set_background(Resource* resource, Rate load) {
  assert(resource != nullptr);
  const Rate clamped = std::max(0.0, load);
  if (resource->background_ == clamped) return;
  resource->background_ = clamped;
  on_resource_change(resource);
}

void FluidNetwork::set_capacity(Resource* resource, Rate capacity) {
  assert(resource != nullptr);
  const Rate clamped = std::max(0.0, capacity);
  if (resource->nominal_ == clamped) return;
  resource->nominal_ = clamped;
  on_resource_change(resource);
}

// ---- arenas ----

std::uint32_t FluidNetwork::path_alloc(std::uint32_t len) {
  if (len == 0) return 0;
  if (len < path_free_.size() && !path_free_[len].empty()) {
    const std::uint32_t begin = path_free_[len].back();
    path_free_[len].pop_back();
    return begin;
  }
  const auto begin = static_cast<std::uint32_t>(path_pool_.size());
  path_pool_.resize(path_pool_.size() + len);
  return begin;
}

std::uint32_t FluidNetwork::alloc_flow(const FlowSpec& spec,
                                       std::uint32_t tslot) {
  std::uint32_t fslot;
  if (!flow_free_.empty()) {
    fslot = flow_free_.back();
    flow_free_.pop_back();
  } else {
    fslot = static_cast<std::uint32_t>(flow_pool_.size());
    flow_pool_.emplace_back();
  }
  Flow& f = flow_pool_[fslot];
  f = Flow{};
  f.transfer = tslot;
  f.cap = spec.cap;
  f.path_len = static_cast<std::uint32_t>(spec.path.size());
  f.path_begin = path_alloc(f.path_len);
  for (std::uint32_t k = 0; k < f.path_len; ++k) {
    const std::uint32_t rid = spec.path[k]->id();
    path_pool_[f.path_begin + k] = rid;
    // Round 1 of a solve reads its usages from sums_scratch_ by count.
    if (++res_flows_[rid] >= sums_scratch_.size()) {
      sums_scratch_.resize(res_flows_[rid] + 1);
    }
  }
  return fslot;
}

void FluidNetwork::free_flow(std::uint32_t fslot) {
  Flow& f = flow_pool_[fslot];
  if (f.path_len > 0) {
    if (f.path_len >= path_free_.size()) path_free_.resize(f.path_len + 1);
    path_free_[f.path_len].push_back(f.path_begin);
  }
  f = Flow{};
  flow_free_.push_back(fslot);
}

void FluidNetwork::remove_flow(std::uint32_t fslot) {
  const Flow& f = flow_pool_[fslot];
  // A resource no remaining flow crosses leaves the solve with zero usage.
  for (std::uint32_t k = 0; k < f.path_len; ++k) {
    const std::uint32_t rid = path_pool_[f.path_begin + k];
    if (--res_flows_[rid] > 0) continue;
    foreground_[rid] = 0.0;
    update_resource_gauge(resources_[rid].get());
  }
  free_flow(fslot);
  solve_dirty_ = true;
}

// ---- transfers ----

std::vector<std::uint32_t>::const_iterator FluidNetwork::live_at(
    TransferId id) const {
  return std::lower_bound(live_.begin(), live_.end(), id,
                          [this](std::uint32_t tslot, TransferId key) {
                            return transfer_pool_[tslot].id < key;
                          });
}

std::uint32_t FluidNetwork::slot_of(TransferId id) const {
  const auto it = live_at(id);
  return it != live_.end() && transfer_pool_[*it].id == id ? *it : kNone;
}

TransferId FluidNetwork::start_transfer(std::vector<FlowSpec> flows,
                                        Bytes total,
                                        TransferCallbacks callbacks) {
  assert(!flows.empty());
  std::uint32_t tslot;
  if (!transfer_free_.empty()) {
    tslot = transfer_free_.back();
    transfer_free_.pop_back();
  } else {
    tslot = static_cast<std::uint32_t>(transfer_pool_.size());
    transfer_pool_.emplace_back();
  }
  Transfer& t = transfer_pool_[tslot];
  t.id = next_id_++;
  t.total = total < 0 ? -1.0 : static_cast<double>(total);
  t.delivered = 0.0;
  t.reported = 0.0;
  t.cached_rate = 0.0;
  t.callbacks = std::move(callbacks);
  t.flows.clear();
  t.flows.reserve(flows.size());
  for (const auto& spec : flows) t.flows.push_back(alloc_flow(spec, tslot));
  const TransferId id = t.id;
  live_.push_back(tslot);  // ids only grow: the list stays in id order
  on_mutation();
  // A zero-byte transfer may already have completed inside touch().
  if (!live_.empty()) ensure_polling();
  return id;
}

Bytes FluidNetwork::cancel_transfer(TransferId id) {
  const std::uint32_t tslot = slot_of(id);
  if (tslot == kNone) return 0;
  // Account bytes up to this instant before dropping the transfer.
  integrate();
  const auto delivered =
      static_cast<Bytes>(transfer_pool_[tslot].delivered + kByteEps);
  erase_transfer_slot(tslot);
  on_mutation();
  return delivered;
}

void FluidNetwork::erase_transfer_slot(std::uint32_t tslot) {
  Transfer& t = transfer_pool_[tslot];
  for (const std::uint32_t fslot : t.flows) remove_flow(fslot);
  live_.erase(live_at(t.id));
  t = Transfer{};
  transfer_free_.push_back(tslot);
}

void FluidNetwork::set_flow_cap(TransferId id, std::size_t flow_index,
                                Rate cap) {
  const std::uint32_t tslot = slot_of(id);
  if (tslot == kNone) return;
  Transfer& t = transfer_pool_[tslot];
  assert(flow_index < t.flows.size());
  Flow& f = flow_pool_[t.flows[flow_index]];
  if (f.cap == cap) return;
  f.cap = cap;
  on_mutation();
}

void FluidNetwork::set_transfer_cap(TransferId id, Rate cap) {
  const std::uint32_t tslot = slot_of(id);
  if (tslot == kNone) return;
  Transfer& t = transfer_pool_[tslot];
  bool changed = false;
  for (const std::uint32_t fslot : t.flows) {
    Flow& f = flow_pool_[fslot];
    if (f.cap != cap) {
      f.cap = cap;
      changed = true;
    }
  }
  if (changed) on_mutation();
}

void FluidNetwork::add_flow(TransferId id, FlowSpec flow) {
  const std::uint32_t tslot = slot_of(id);
  if (tslot == kNone) return;
  transfer_pool_[tslot].flows.push_back(alloc_flow(flow, tslot));
  on_mutation();
}

bool FluidNetwork::transfer_active(TransferId id) const {
  return slot_of(id) != kNone;
}

Bytes FluidNetwork::transferred(TransferId id) const {
  const std::uint32_t tslot = slot_of(id);
  if (tslot == kNone) return 0;
  const Transfer& t = transfer_pool_[tslot];
  // Include bytes accrued since the last integration.
  const double dt = common::to_seconds(sim_.now() - integrated_at_);
  double v = t.delivered + t.cached_rate * dt;
  if (t.total >= 0.0) v = std::min(v, t.total);
  return static_cast<Bytes>(v + kByteEps);
}

Bytes FluidNetwork::flow_transferred(TransferId id,
                                     std::size_t flow_index) const {
  const std::uint32_t tslot = slot_of(id);
  if (tslot == kNone) return 0;
  const Transfer& t = transfer_pool_[tslot];
  if (flow_index >= t.flows.size()) return 0;
  const Flow& f = flow_pool_[t.flows[flow_index]];
  const double dt = common::to_seconds(sim_.now() - integrated_at_);
  double v = f.delivered + f.rate * dt;
  // A single flow can never carry more than the pool holds; float accrual
  // at completion would otherwise over-report (the pool itself clamps).
  if (t.total >= 0.0) v = std::min(v, t.total);
  return static_cast<Bytes>(v + kByteEps);
}

Rate FluidNetwork::current_rate(TransferId id) const {
  const std::uint32_t tslot = slot_of(id);
  return tslot == kNone ? 0.0 : transfer_pool_[tslot].cached_rate;
}

Rate FluidNetwork::flow_rate(TransferId id, std::size_t flow_index) const {
  const std::uint32_t tslot = slot_of(id);
  if (tslot == kNone) return 0.0;
  const Transfer& t = transfer_pool_[tslot];
  if (flow_index >= t.flows.size()) return 0.0;
  return flow_pool_[t.flows[flow_index]].rate;
}

void FluidNetwork::update() { touch(); }

// ---- integration ----

void FluidNetwork::integrate() {
  const SimTime now = sim_.now();
  if (now <= integrated_at_) return;
  const double dt = common::to_seconds(now - integrated_at_);
  integrated_at_ = now;
  for (const std::uint32_t tslot : live_) {
    Transfer& t = transfer_pool_[tslot];
    if (t.cached_rate <= 0.0) continue;
    double earned = 0.0;
    for (const std::uint32_t fslot : t.flows) {
      Flow& f = flow_pool_[fslot];
      if (f.rate <= 0.0) continue;
      const double d = f.rate * dt;
      f.delivered += d;
      earned += d;
    }
    if (earned <= 0.0) continue;
    // Never drain past the pool: clamp (floating error at completion).
    if (t.total >= 0.0 && t.delivered + earned > t.total) {
      earned = t.total - t.delivered;
    }
    t.delivered += earned;
  }
}

// ---- solving ----

void FluidNetwork::update_resource_gauge(Resource* res) {
  const double used = res->background_ + foreground_[res->id_];
  const double util =
      res->nominal_ > 0.0 ? std::min(1.0, used / res->nominal_) : 0.0;
  if (util == res->utilization_) return;
  res->utilization_ = util;
  res->util_gauge_->set(util);
  ++util_gauge_updates_;
}

void FluidNetwork::solve() {
  // Progressive filling (water-filling) with per-flow caps over every live
  // flow.  Every flow ends either frozen at its cap or crossing a saturated
  // resource — the classic max-min optimality condition, asserted by the
  // property tests against the retained reference implementation
  // (net/fluid_reference.hpp).  The walk order does not matter: a round's
  // minimum is order-free, every unfrozen flow adds the same delta, and a
  // resource's usage gains that delta once per unfrozen flow crossing it.
  // So every unfrozen flow has the same rate, `level`, the sum of the
  // rounds' deltas so far; a flow's rate is written when it freezes.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  solve_flows_.clear();
  double min_cap = kInf;  // the lowest cap of an unfrozen flow
  for (std::uint32_t fslot = 0; fslot < flow_pool_.size(); ++fslot) {
    const Flow& f = flow_pool_[fslot];
    if (f.transfer == kNone) continue;  // a free slot
    min_cap = std::min(min_cap, f.cap);
    solve_flows_.push_back(fslot);
  }
  if (solve_flows_.empty()) return;
  const std::size_t n_flows = solve_flows_.size();
  // Round 1: every flow is unfrozen, so each crossed resource's count is
  // its flow count.
  res_scratch_.clear();
  for (std::uint32_t rid = 0; rid < res_flows_.size(); ++rid) {
    if (res_flows_[rid] == 0) continue;
    res_scratch_.push_back(rid);
    usage_scratch_[rid] = 0.0;
    unfrozen_scratch_[rid] = res_flows_[rid];
    cap_scratch_[rid] = resources_[rid]->effective_capacity();
  }

  double level = 0.0;
  for (bool first_round = true;; first_round = false) {
    // The largest uniform rate increase every unfrozen flow can take.
    // Rounding is monotone, so the lowest cap's headroom is the least
    // headroom of any unfrozen flow.
    double delta = min_cap - level;
    std::uint32_t max_count = 0;
    for (const std::uint32_t rid : res_scratch_) {
      const std::uint32_t n = unfrozen_scratch_[rid];
      if (n == 0) continue;
      max_count = std::max(max_count, n);
      const double room = cap_scratch_[rid] - usage_scratch_[rid];
      delta = std::min(delta, room / n);
    }
    if (!std::isfinite(delta)) {
      // No cap and no resource constrains these flows; they are idle paths
      // in tests.  Freeze at an arbitrarily large rate.
      for (const std::uint32_t fslot : solve_flows_) {
        Flow& f = flow_pool_[fslot];
        f.rate = f.cap;  // cap is infinite here; harmless
      }
      break;
    }
    delta = std::max(0.0, delta);
    if (delta > 0.0) {
      level += delta;
      if (first_round) {
        // Every usage is still 0, so resources crossed by equally many
        // flows reach the same sum: build 0 + delta + ... once per count.
        sums_scratch_[0] = 0.0;
        for (std::uint32_t k = 1; k <= max_count; ++k) {
          sums_scratch_[k] = sums_scratch_[k - 1] + delta;
        }
        for (const std::uint32_t rid : res_scratch_) {
          usage_scratch_[rid] = sums_scratch_[unfrozen_scratch_[rid]];
        }
      } else {
        for (const std::uint32_t rid : res_scratch_) {
          double usage = usage_scratch_[rid];
          for (std::uint32_t k = unfrozen_scratch_[rid]; k > 0; --k) {
            usage += delta;
          }
          usage_scratch_[rid] = usage;
        }
      }
    }
    for (const std::uint32_t rid : res_scratch_) {
      saturated_scratch_[rid] =
          usage_scratch_[rid] >= cap_scratch_[rid] - kRateEps;
    }
    // Freeze flows at their cap or crossing a saturated resource: they
    // take the level as their rate and move past `live`; the unfrozen ones
    // stay in front of it.
    min_cap = kInf;
    std::size_t live = solve_flows_.size();
    for (std::size_t i = 0; i < live;) {
      Flow& f = flow_pool_[solve_flows_[i]];
      bool freeze = level >= f.cap - kRateEps;
      for (std::uint32_t k = 0; !freeze && k < f.path_len; ++k) {
        freeze = saturated_scratch_[path_pool_[f.path_begin + k]] != 0;
      }
      if (freeze) {
        f.rate = level;
        std::swap(solve_flows_[i], solve_flows_[--live]);
      } else {
        min_cap = std::min(min_cap, f.cap);
        ++i;
      }
    }
    if (live == 0) break;
    if (live == solve_flows_.size()) {
      // None froze (numerical safety: guarantee progress).
      for (const std::uint32_t fslot : solve_flows_) {
        flow_pool_[fslot].rate = level;
      }
      break;
    }
    // Only a following round reads the counts.
    for (std::size_t i = live; i < solve_flows_.size(); ++i) {
      const Flow& f = flow_pool_[solve_flows_[i]];
      for (std::uint32_t k = 0; k < f.path_len; ++k) {
        --unfrozen_scratch_[path_pool_[f.path_begin + k]];
      }
    }
    solve_flows_.resize(live);
  }

  // Publish the foreground usage (write-on-change gauges).
  for (const std::uint32_t rid : res_scratch_) {
    foreground_[rid] = usage_scratch_[rid];
    update_resource_gauge(resources_[rid].get());
  }

  // Refresh the per-transfer aggregate cache the rest of the network (rate
  // queries, completion prediction, byte integration) reads.
  for (const std::uint32_t tslot : live_) {
    Transfer& t = transfer_pool_[tslot];
    Rate sum = 0.0;
    for (const std::uint32_t member : t.flows) sum += flow_pool_[member].rate;
    t.cached_rate = sum;
  }

  ++component_solves_;
  flows_solved_total_ += n_flows;
  max_solve_flows_ = std::max(max_solve_flows_, n_flows);
}

// ---- events ----

void FluidNetwork::schedule_next_event() {
  // One shared completion event, recomputed after every solve.
  next_event_.cancel();
  double earliest = std::numeric_limits<double>::infinity();
  for (const std::uint32_t tslot : live_) {
    const Transfer& t = transfer_pool_[tslot];
    const double rem = t.remaining();
    if (!std::isfinite(rem)) continue;
    if (t.cached_rate <= kRateEps) continue;
    earliest = std::min(earliest, rem / t.cached_rate);
  }
  if (!std::isfinite(earliest)) return;
  const auto delay = static_cast<SimDuration>(
      std::ceil(earliest * static_cast<double>(common::kSecond)));
  next_event_ = sim_.schedule_after(std::max<SimDuration>(0, delay),
                                    [this] { touch(); });
}

void FluidNetwork::touch() {
  if (in_touch_) {
    dirty_ = true;
    return;
  }
  in_touch_ = true;
  ++touches_;
  do {
    dirty_ = false;
    integrate();

    // Queue progress and completions in id order before reallocating, since
    // completion callbacks typically start follow-on transfers.  User
    // callbacks must not see a half-updated network, so none runs yet.
    notices_.clear();
    for (const std::uint32_t tslot : live_) {
      Transfer& t = transfer_pool_[tslot];
      Notice n{t.id, tslot, 0, t.total >= 0.0 && t.remaining() <= kByteEps};
      const double delta = t.delivered - t.reported;
      if (delta >= 1.0 && t.callbacks.on_progress) {
        n.delta = static_cast<Bytes>(delta);
        t.reported += static_cast<double>(n.delta);
      }
      if (n.delta > 0 || n.complete) notices_.push_back(n);
    }
    for (const Notice& n : notices_) {
      if (!n.complete) continue;
      finished_.push_back(std::move(transfer_pool_[n.tslot].callbacks));
      erase_transfer_slot(n.tslot);
      rates_dirty_ = true;
    }
    // Deliver.  Callbacks may re-enter touch() (which only sets dirty_),
    // start transfers, or cancel any live one, their own included.
    const SimTime now = sim_.now();
    std::size_t next_finished = 0;
    for (const Notice& n : notices_) {
      if (n.complete) {
        const TransferCallbacks& cbs = finished_[next_finished++];
        if (n.delta > 0) cbs.on_progress(n.delta, now);
        if (cbs.on_complete) cbs.on_complete();
        continue;
      }
      // A transfer cancelled since its notice was queued gets nothing;
      // transfer ids never repeat, so a recycled slot does not match.
      if (transfer_pool_[n.tslot].id != n.id) continue;
      // Call it moved out of the pool, not copied: it may cancel its own
      // transfer or start one that moves the pool.  It goes back while its
      // transfer lives.
      auto on_progress =
          std::move(transfer_pool_[n.tslot].callbacks.on_progress);
      on_progress(n.delta, now);
      Transfer& t = transfer_pool_[n.tslot];
      if (t.id == n.id) t.callbacks.on_progress = std::move(on_progress);
    }
    finished_.clear();  // release what the completed callbacks captured

    // The incremental fast path: when no flow set, cap, capacity or
    // background changed, current rates — and the already-scheduled
    // completion event — are still exact.  Poll ticks and pure-progress
    // touches stop here without running the solver.
    if (rates_dirty_) {
      rates_dirty_ = false;
      ++reallocations_;
      if (solve_dirty_) {
        solve_dirty_ = false;
        solve();
      }
      // Flowless resources whose capacity, background or down state changed
      // get their gauge here, as every crossed one did in the solve.
      for (Resource* res : pending_res_) update_resource_gauge(res);
      pending_res_.clear();
      schedule_next_event();
    }
  } while (dirty_);
  in_touch_ = false;
  if (live_.empty()) poll_event_.cancel();
}

void FluidNetwork::ensure_polling() {
  if (poll_interval_ <= 0 || poll_event_.pending()) return;
  poll_event_ = sim_.schedule_every(poll_interval_, [this] {
    if (live_.empty()) return false;  // stop ticking when idle
    touch();
    return true;
  });
}

}  // namespace esg::net
