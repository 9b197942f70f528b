// Fluid-flow network model.
//
// This is the substrate that stands in for the paper's SC'2000 testbed
// (SciNET / NTON / HSCC, Fig 7).  Everything that can limit a transfer is a
// capacitated Resource: a WAN segment, a NIC, a host CPU (the paper observed
// GbE hosts pegged at 100% CPU servicing interrupts), or a disk (the Fig 8
// plateau sits below the NIC rate because of disk bandwidth).  A Transfer is
// a group of Flows (one per TCP stream) that drain a shared byte pool — this
// models GridFTP's extended block mode, where any stream may carry any block
// of the file.
//
// Rates are assigned by progressive filling (max-min fairness with per-flow
// caps): every flow is either limited by its own cap (TCP window / loss
// model, see net/tcp.hpp) or crosses at least one saturated resource.
// Between rate changes flows progress linearly, so the simulator only needs
// events at mutations and at exactly-predicted completions, plus an optional
// periodic poll that gives the bandwidth samplers their 100 ms resolution
// (Table 1 reports a peak over 0.1 s).
//
// The solver is sized to the worlds that run: a few dozen concurrent
// streams sharing one topology (the paper's SC'2000 run had 32).
//
//  * One solve over every live flow — a mutation that affects rates marks
//    them dirty, and the next touch solves all live flows together.  Each
//    resource counts the flows crossing it: a capacity, background or down
//    change on a resource no flow crosses only refreshes its gauge, and a
//    resource's usage returns to zero when its last flow leaves.
//  * Rounds that work per resource — a round adds its delta to each crossed
//    resource once per unfrozen flow crossing it, flags the resources it
//    saturated, and freezes the flows at their cap or crossing a flag.
//    Round 1 reads its counts from the per-resource flow counts; frozen
//    flows leave the round's list, and their paths are uncounted only when
//    another round follows.  Unfrozen flows share one rate, the sum of the
//    rounds' deltas, which a flow takes when it freezes.
//  * Flat arena storage — flows live in one contiguous pool, their paths in
//    one shared id array (offset + length per flow), transfers in a slotted
//    pool; a solve walks contiguous memory and performs zero heap
//    allocations in steady state.
//  * One transfer path — every transfer is integrated at every touch on one
//    shared clock, surfaces progress in id order at every poll tick, and
//    completes through one shared next-completion event.  The live
//    transfers are one dense list of pool slots in id order (ids only grow,
//    so a start appends, and an id lookup is a binary search); integration,
//    the notices, the completion event and the solver's rate refresh walk
//    it.  Progress and completion notices are queued as plain records and
//    delivered once the network is consistent; a transfer cancelled by an
//    earlier callback gets none of its queued notices.
//  * Incremental reallocation — a rates-dirty flag tracks whether any
//    flow/cap/capacity/background changed since the last solve.  Poll ticks
//    and pure-progress touches integrate byte counts and fire progress
//    callbacks without re-running the solver.
//  * Coalesced bookkeeping — each transfer caches its aggregate rate
//    (refreshed by the solver), utilization gauges are written only when a
//    value changes, and batch()/set_transfer_cap() fold multi-mutation
//    updates into one solve.
//
// The water-filling arithmetic does not depend on the order the flows are
// walked in: a round's minimum is order-free, every unfrozen flow gets the
// same delta, and a resource's usage gains that same delta once per
// unfrozen flow crossing it, so the sum is the same whichever flow comes
// first.  The rates are therefore bit-identical to the pre-dense solver,
// retained verbatim in net/fluid_reference.hpp; the property tests assert
// exact rate-vector equality and bench_fluid_scale tracks the speedup.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "sim/simulation.hpp"

namespace esg::net {

using common::Bytes;
using common::Rate;
using common::SimDuration;
using common::SimTime;

inline constexpr Rate kUnlimitedRate = std::numeric_limits<Rate>::infinity();
inline constexpr Bytes kUnboundedBytes = -1;

/// A capacitated element of the data path.  Capacity is in bytes/second.
class Resource {
 public:
  Resource(std::string name, Rate capacity)
      : name_(std::move(name)), nominal_(capacity) {}

  const std::string& name() const { return name_; }
  /// Dense index assigned at add_resource() time; stable for the network's
  /// lifetime and contiguous from 0.
  std::uint32_t id() const { return id_; }
  Rate nominal_capacity() const { return nominal_; }
  bool down() const { return down_; }
  Rate background_load() const { return background_; }

  /// Capacity available to foreground flows right now.
  Rate effective_capacity() const {
    if (down_) return 0.0;
    return std::max(0.0, nominal_ - background_);
  }

  /// Fraction of nominal capacity in use (foreground + background) as of
  /// the last rate allocation; mirrored into the simulation's
  /// `net_resource_utilization{resource=...}` gauge.
  double utilization() const { return utilization_; }

 private:
  friend class FluidNetwork;
  std::string name_;
  std::uint32_t id_ = 0;
  Rate nominal_;
  Rate background_ = 0.0;  // consumed by modeled cross-traffic
  bool down_ = false;      // failure injection
  double utilization_ = 0.0;
  obs::Gauge* util_gauge_ = nullptr;  // owned by the sim's registry
};

/// One TCP stream's path and its self-imposed rate cap.
struct FlowSpec {
  std::vector<const Resource*> path;
  Rate cap = kUnlimitedRate;
};

struct TransferCallbacks {
  /// Called whenever bytes are integrated (at every network event and poll
  /// tick): delta bytes since the previous call.
  std::function<void(Bytes delta, SimTime now)> on_progress;
  /// Called exactly once when the transfer's byte pool drains.
  std::function<void()> on_complete;
};

using TransferId = std::uint64_t;

class FluidNetwork {
 public:
  explicit FluidNetwork(sim::Simulation& simulation,
                        SimDuration poll_interval = 100 * common::kMillisecond);
  ~FluidNetwork();

  FluidNetwork(const FluidNetwork&) = delete;
  FluidNetwork& operator=(const FluidNetwork&) = delete;

  // ---- resources ----

  /// Create a resource; the returned pointer is stable for the network's
  /// lifetime.  Names must be unique.
  Resource* add_resource(std::string name, Rate capacity);

  /// Failure injection: a down resource passes zero bytes.
  void set_down(Resource* resource, bool down);

  /// Modeled cross-traffic occupying part of a resource's capacity.
  void set_background(Resource* resource, Rate load);

  /// Change a resource's nominal capacity (e.g. link upgrade experiments).
  void set_capacity(Resource* resource, Rate capacity);

  // ---- transfers ----

  /// Begin a transfer of `total` bytes (kUnboundedBytes = run until
  /// cancelled) carried by `flows`.  Returns an id used for later control.
  TransferId start_transfer(std::vector<FlowSpec> flows, Bytes total,
                            TransferCallbacks callbacks);

  /// Stop a transfer; no further callbacks fire, not even notices already
  /// queued in the current touch.  Returns bytes delivered.
  Bytes cancel_transfer(TransferId id);

  /// Adjust one member flow's cap (slow-start ramp, AIMD backoff).
  void set_flow_cap(TransferId id, std::size_t flow_index, Rate cap);

  /// Set every member flow's cap at once — one reallocation instead of one
  /// per stream (the TCP slow-start ramp caps all streams together).
  void set_transfer_cap(TransferId id, Rate cap);

  /// Add another member flow to a running transfer (parallelism changes).
  void add_flow(TransferId id, FlowSpec flow);

  /// Coalesce several mutations into a single reallocation:
  /// `fluid.batch([&]{ set_down(a, true); set_down(b, true); });`
  /// Nested batches solve once at the outermost end.
  template <typename F>
  void batch(F&& f) {
    ++batch_depth_;
    f();
    --batch_depth_;
    if (batch_depth_ == 0 && rates_dirty_) touch();
  }

  bool transfer_active(TransferId id) const;
  Bytes transferred(TransferId id) const;
  /// Bytes carried by one member flow (per-stripe restart markers); clamped
  /// to the transfer's pool like transferred().
  Bytes flow_transferred(TransferId id, std::size_t flow_index) const;
  /// Current aggregate rate of the transfer (post-allocation).
  Rate current_rate(TransferId id) const;
  /// Current rate of one member flow.
  Rate flow_rate(TransferId id, std::size_t flow_index) const;

  std::size_t active_transfers() const { return live_.size(); }

  /// Force integration + reallocation-if-dirty now (tests use this).
  void update();

  // ---- introspection (tests + bench_fluid_scale) ----

  /// How many touches triggered the solver.  Steady-state poll ticks must
  /// not advance this.
  std::uint64_t reallocations() const { return reallocations_; }
  /// How many touches (integration passes) have run.
  std::uint64_t touches() const { return touches_; }
  /// How many utilization gauge writes actually happened (value changes).
  std::uint64_t util_gauge_updates() const { return util_gauge_updates_; }

  /// Solves run so far, each over every live flow.
  std::uint64_t component_solves() const { return component_solves_; }
  /// Total flows walked by all solves — the real work metric.
  std::uint64_t flows_solved_total() const { return flows_solved_total_; }
  /// Flow count of the largest solve so far.
  std::size_t max_solve_flows() const { return max_solve_flows_; }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  // ---- flat arenas ----

  struct Flow {
    std::uint32_t path_begin = 0;  // offset into path_pool_
    std::uint32_t path_len = 0;
    std::uint32_t transfer = kNone;  // transfer pool slot; kNone: free
    Rate cap = kUnlimitedRate;
    Rate rate = 0.0;
    double delivered = 0.0;  // bytes carried by this flow
  };

  struct Transfer {
    TransferId id = 0;  // 0 = free slot
    std::vector<std::uint32_t> flows;  // flow pool slots
    double total = -1.0;      // <0: unbounded
    double delivered = 0.0;   // bytes drained from the pool
    double reported = 0.0;    // bytes already surfaced via on_progress
    Rate cached_rate = 0.0;   // aggregate flow rate, refreshed by the solver
    TransferCallbacks callbacks;

    double remaining() const {
      return total < 0 ? std::numeric_limits<double>::infinity()
                       : total - delivered;
    }
  };

  /// A progress and/or completion notice, queued by touch() and delivered
  /// once the network is consistent.
  struct Notice {
    TransferId id;
    std::uint32_t tslot;
    Bytes delta;    // bytes to report via on_progress (0: none)
    bool complete;  // callbacks moved to finished_ and the slot erased
  };

  // ---- internals ----

  /// The first entry of live_ whose id is not below `id`.
  std::vector<std::uint32_t>::const_iterator live_at(TransferId id) const;
  /// The pool slot of live transfer `id`, or kNone.
  std::uint32_t slot_of(TransferId id) const;
  /// A flow of transfer slot `tslot`, counted on every resource it crosses.
  std::uint32_t alloc_flow(const FlowSpec& spec, std::uint32_t tslot);
  void free_flow(std::uint32_t fslot);
  std::uint32_t path_alloc(std::uint32_t len);
  /// Uncount a flow on removal, zeroing the usage of every resource no flow
  /// crosses any more.
  void remove_flow(std::uint32_t fslot);

  void integrate();  // advance every transfer to now on the shared clock
  void solve();  // progressive filling over every live flow
  void update_resource_gauge(Resource* res);
  void schedule_next_event();  // the shared next-completion event
  void erase_transfer_slot(std::uint32_t tslot);
  void touch();  // integrate, run completions, reallocate-if-dirty, reschedule
  void ensure_polling();
  /// Record a rate-affecting change; solves immediately unless inside
  /// batch() or a touch already in flight.
  void on_mutation();
  /// A resource's capacity, background or down state changed.
  void on_resource_change(Resource* resource);

  sim::Simulation& sim_;
  SimDuration poll_interval_;
  std::vector<std::unique_ptr<Resource>> resources_;  // by dense id

  // Arenas.
  std::vector<Flow> flow_pool_;
  std::vector<std::uint32_t> flow_free_;
  std::vector<std::uint32_t> path_pool_;  // concatenated resource-id paths
  std::vector<std::vector<std::uint32_t>> path_free_;  // by path length
  std::vector<Transfer> transfer_pool_;
  std::vector<std::uint32_t> transfer_free_;

  // Indexes.
  std::vector<std::uint32_t> live_;  // live transfer slots, in id order
  std::vector<std::uint32_t> res_flows_;    // resource id -> flows crossing it
  std::vector<double> foreground_;          // resource id -> allocated rate

  TransferId next_id_ = 1;
  SimTime integrated_at_ = 0;  // the shared integration clock
  sim::EventHandle next_event_;
  sim::EventHandle poll_event_;
  bool in_touch_ = false;
  bool dirty_ = false;        // re-run the touch loop (re-entrant mutation)
  bool rates_dirty_ = false;  // some flow/cap/capacity/background changed
  bool solve_dirty_ = false;  // ...on a flow or on a resource flows cross
  int batch_depth_ = 0;
  std::uint64_t reallocations_ = 0;
  std::uint64_t touches_ = 0;
  std::uint64_t util_gauge_updates_ = 0;
  std::uint64_t component_solves_ = 0;
  std::uint64_t flows_solved_total_ = 0;
  std::size_t max_solve_flows_ = 0;

  // Solver scratch, reused across solves (indexed by resource id where
  // applicable) — steady-state solves never allocate.
  std::vector<std::uint32_t> solve_flows_;  // the round's unfrozen flow slots
  std::vector<std::uint32_t> res_scratch_;  // ids of resources flows cross
  std::vector<double> usage_scratch_;
  std::vector<double> cap_scratch_;
  std::vector<std::uint32_t> unfrozen_scratch_;  // unfrozen flows crossing
  std::vector<std::uint8_t> saturated_scratch_;  // saturated this round
  // Round 1's usages by count: [k] = 0 + delta + ... (k deltas).  Sized as
  // flows are counted, to the largest per-resource count plus one.
  std::vector<double> sums_scratch_;
  std::vector<Resource*> pending_res_;  // flowless resources with gauge edits
  // Touch scratch (safe to reuse: touch never runs re-entrantly).
  std::vector<Notice> notices_;
  std::vector<TransferCallbacks> finished_;  // completed, in notice order
};

}  // namespace esg::net
