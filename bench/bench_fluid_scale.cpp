// Flow-scale benchmark for the fluid network core.
//
// Drives 100 / 1k / 5k concurrent flows over a shared topology (a mesh of
// core links plus per-endpoint NICs) and measures what the orchestration
// layer costs per event:
//
//   * dense solver wall time per touch (a cap mutation forcing one solve),
//   * the retained reference (pre-dense, std::map) solver on the very same
//     flow population — the speedup is measured inside this binary, not
//     across commits,
//   * steady-state poll tick cost, where the incremental path must skip the
//     solver entirely (asserted via the reallocation counter),
//   * heap allocations per solve for both implementations and per steady
//     poll tick (global operator new is instrumented below); a tick's
//     allocations must not grow with the transfer count.
//
// Every transfer carries progress and completion callbacks, as the ones
// TcpTransfer starts do, so the bench times the one path every world takes.
// Each solve walks every live flow: the worlds that run have a few dozen
// streams on one connected topology.
//
// Emits BENCH_fluid_scale.json via bench::write_bench_json so the trajectory
// is tracked run over run.  `--small` runs a reduced configuration for the
// `perf`-labelled ctest smoke.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/fluid.hpp"
#include "net/fluid_reference.hpp"
#include "obs/manifest.hpp"
#include "sim/simulation.hpp"

namespace {
std::uint64_t g_alloc_count = 0;  // bench is single-threaded
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

namespace ec = esg::common;
namespace en = esg::net;
namespace es = esg::sim;

using Clock = std::chrono::steady_clock;

/// What the callbacks of every bench transfer record.  The callbacks capture
/// one pointer, so copying them never allocates.
struct Watch {
  ec::Bytes progressed = 0;
  std::size_t completed = 0;
};

en::TransferCallbacks watched(Watch& w) {
  return {[&w](ec::Bytes delta, ec::SimTime) { w.progressed += delta; },
          [&w] { ++w.completed; }};
}

double elapsed_us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

struct ScaleResult {
  int flows = 0;
  double dense_us = 0.0;      // mean wall time of a forced solve (one touch)
  double reference_us = 0.0;  // mean wall time of the reference solver
  double steady_us = 0.0;     // mean wall time of a solver-free poll tick
  double dense_allocs = 0.0;      // heap allocations per dense solve
  double reference_allocs = 0.0;  // heap allocations per reference solve
  double tick_allocs = 0.0;       // heap allocations per steady poll tick
  std::uint64_t steady_solves = 0;  // must be 0
  double max_rate_gap = 0.0;  // dense vs reference, sanity
};

/// Shared topology: `kLinks` core links everyone contends on plus one NIC
/// per endpoint; flow i runs nic[src] -> link -> nic[dst].
ScaleResult run_scale(int n_flows, int solve_reps, es::Simulation& sim) {
  constexpr int kLinks = 16;
  constexpr int kNics = 64;
  en::FluidNetwork fluid(sim, 100 * ec::kMillisecond);
  ec::Rng rng(20260805);
  Watch watch;

  std::vector<en::Resource*> links, nics;
  for (int i = 0; i < kLinks; ++i) {
    links.push_back(fluid.add_resource("core" + std::to_string(i),
                                       ec::gbps(10)));
  }
  for (int i = 0; i < kNics; ++i) {
    nics.push_back(fluid.add_resource("nic" + std::to_string(i),
                                      ec::gbps(1)));
  }

  struct FlowRecord {
    std::vector<const en::Resource*> path;
    en::Rate cap;
  };
  std::vector<en::TransferId> ids;
  std::vector<FlowRecord> records;  // same order the solver iterates
  ids.reserve(static_cast<std::size_t>(n_flows));
  records.reserve(static_cast<std::size_t>(n_flows));
  for (int i = 0; i < n_flows; ++i) {
    FlowRecord rec;
    rec.path = {nics[rng.uniform_int(kNics)],
                links[rng.uniform_int(kLinks)],
                nics[rng.uniform_int(kNics)]};
    rec.cap = rng.uniform() < 0.3 ? ec::mbps(rng.uniform(10.0, 200.0))
                                  : en::kUnlimitedRate;
    ids.push_back(fluid.start_transfer({en::FlowSpec{rec.path, rec.cap}},
                                       en::kUnboundedBytes, watched(watch)));
    records.push_back(std::move(rec));
  }

  ScaleResult out;
  out.flows = n_flows;

  // Forced-solve timing: each cap mutation triggers exactly one touch with
  // one reallocation, end to end (integrate + solve + publish + schedule).
  {
    double total = 0.0;
    std::uint64_t allocs = 0;
    for (int rep = 0; rep < solve_reps; ++rep) {
      const auto victim = ids[static_cast<std::size_t>(rep) % ids.size()];
      const en::Rate cap = ec::mbps(50.0 + (rep % 7) * 25.0);
      const auto a0 = g_alloc_count;
      const auto t0 = Clock::now();
      fluid.set_transfer_cap(victim, cap);
      const auto t1 = Clock::now();
      allocs += g_alloc_count - a0;
      total += elapsed_us(t0, t1);
    }
    out.dense_us = total / solve_reps;
    out.dense_allocs = static_cast<double>(allocs) / solve_reps;
  }

  // Reference solver on the same population (caps as mutated above).
  std::vector<en::ReferenceFlow> ref;
  ref.reserve(records.size());
  for (const FlowRecord& rec : records) {
    ref.push_back(en::ReferenceFlow{rec.path, rec.cap});
  }
  // Mirror the final caps the mutation loop left behind.
  for (int rep = 0; rep < solve_reps; ++rep) {
    const std::size_t victim = static_cast<std::size_t>(rep) % ref.size();
    ref[victim].cap = ec::mbps(50.0 + (rep % 7) * 25.0);
  }
  {
    const int ref_reps = std::max(3, solve_reps / 5);
    double total = 0.0;
    std::uint64_t allocs = 0;
    for (int rep = 0; rep < ref_reps; ++rep) {
      const auto a0 = g_alloc_count;
      const auto t0 = Clock::now();
      en::reference_waterfill(ref);
      const auto t1 = Clock::now();
      allocs += g_alloc_count - a0;
      total += elapsed_us(t0, t1);
    }
    out.reference_us = total / ref_reps;
    out.reference_allocs = static_cast<double>(allocs) / ref_reps;
  }

  // Equivalence sanity: the two solvers agree on the final rate vector.
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double gap = std::abs(ref[i].rate - fluid.flow_rate(ids[i], 0));
    out.max_rate_gap = std::max(out.max_rate_gap, gap);
  }

  // Steady-state: advance through poll ticks with zero mutations; the
  // incremental path must keep the solver cold.  Every tick reports
  // progress to every transfer.  The first tick sizes the touch scratch, so
  // allocations are counted over the ticks after it.
  {
    const std::uint64_t solves_before = fluid.reallocations();
    const ec::SimTime start = sim.now();
    const auto t0 = Clock::now();
    sim.run_until(start + 150 * ec::kMillisecond);  // the first tick
    const std::uint64_t touches_before = fluid.touches();
    const auto a0 = g_alloc_count;
    sim.run_until(start + 2 * ec::kSecond);  // 20 ticks in all
    const auto t1 = Clock::now();
    out.steady_us = elapsed_us(t0, t1) / 20.0;
    out.steady_solves = fluid.reallocations() - solves_before;
    out.tick_allocs = static_cast<double>(g_alloc_count - a0) /
                      static_cast<double>(fluid.touches() - touches_before);
  }

  fluid.batch([&] {
    for (const auto id : ids) fluid.cancel_transfer(id);
  });
  return out;
}

std::string fmt(double v, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, unit);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::strcmp(argv[1], "--small") == 0;
  const std::vector<int> scales =
      small ? std::vector<int>{100, 500} : std::vector<int>{100, 1000, 5000};
  const int solve_reps = small ? 20 : 50;

  esg::bench::print_header(
      "bench_fluid_scale — dense incremental max-min solver vs the retained "
      "reference water-filling");

  std::vector<esg::bench::Row> rows;
  es::Simulation sim{7};
  // The regression gate (tools/bench_gate.cmake) diffs this manifest against
  // bench/baselines/: only machine-independent numbers go into it (alloc
  // counts, solver invariants, sim-time metrics) — never wall-clock times.
  esg::obs::RunManifest manifest;
  bool steady_clean = true;
  double worst_gap = 0.0;
  // A tick's allocations must stay those of the smallest tier: one more
  // per transfer means the progress notices allocate.
  double first_tick_allocs = -1.0;
  bool ticks_flat = true;
  for (const int n : scales) {
    const ScaleResult r = run_scale(n, solve_reps, sim);
    const double speedup =
        r.dense_us > 0.0 ? r.reference_us / r.dense_us : 0.0;
    const double touches_per_sec =
        r.dense_us > 0.0 ? 1e6 / r.dense_us : 0.0;
    steady_clean = steady_clean && r.steady_solves == 0;
    worst_gap = std::max(worst_gap, r.max_rate_gap);
    if (first_tick_allocs < 0.0) first_tick_allocs = r.tick_allocs;
    ticks_flat = ticks_flat && r.tick_allocs <= first_tick_allocs;

    std::printf(
        "\nflows=%d\n"
        "  solver/touch   dense %10.2f us   reference %10.2f us   (%.1fx)\n"
        "  touches/sec    dense %10.0f\n"
        "  steady tick    %10.2f us   solver runs during polls: %llu\n"
        "  allocs/solve   dense %10.1f      reference %10.1f\n"
        "  allocs/tick    %10.2f      (flat in the transfer count)\n"
        "  max |rate gap| dense vs reference: %.3g B/s\n",
        r.flows, r.dense_us, r.reference_us, speedup, touches_per_sec,
        r.steady_us, static_cast<unsigned long long>(r.steady_solves),
        r.dense_allocs, r.reference_allocs, r.tick_allocs, r.max_rate_gap);

    const std::string tag = "n=" + std::to_string(n);
    rows.push_back({tag + " solver us/touch (dense)", "-", fmt(r.dense_us, "us")});
    rows.push_back({tag + " solver us/touch (reference)", "-",
                    fmt(r.reference_us, "us")});
    rows.push_back({tag + " speedup", ">=5x at n=5000", fmt(speedup, "x")});
    rows.push_back({tag + " touches/sec (dense)", "-",
                    fmt(touches_per_sec, "/s")});
    rows.push_back({tag + " steady poll tick", "solver-free",
                    fmt(r.steady_us, "us")});
    rows.push_back({tag + " allocs/solve (dense)", "-",
                    fmt(r.dense_allocs, "")});
    rows.push_back({tag + " allocs/solve (reference)", "-",
                    fmt(r.reference_allocs, "")});
    rows.push_back({tag + " solver runs during polls", "0",
                    std::to_string(r.steady_solves)});
    rows.push_back({tag + " allocs/tick", "flat", fmt(r.tick_allocs, "")});

    manifest.set_bench(tag + " allocs/solve (dense)", r.dense_allocs);
    manifest.set_bench(tag + " allocs/solve (reference)", r.reference_allocs);
    manifest.set_bench(tag + " solver runs during polls",
                       static_cast<double>(r.steady_solves));
    manifest.set_bench(tag + " max rate gap", r.max_rate_gap);
    manifest.set_bench(tag + " allocs/tick", r.tick_allocs);
  }

  esg::bench::print_table(rows);
  esg::bench::write_bench_json("fluid_scale", rows,
                               sim.metrics().snapshot(sim.now()));

  {
    esg::obs::RunManifest captured = esg::obs::capture_manifest(
        small ? "fluid_scale-small" : "fluid_scale", 7,
        "mesh: 16 core links + 64 nics per scale", 0, sim.flight_recorder(),
        sim.metrics().snapshot(sim.now()));
    captured.bench = manifest.bench;
    esg::obs::write_file("MANIFEST_fluid_scale.json", captured.to_json());
    std::printf("\nwrote MANIFEST_fluid_scale.json (digest %016llx)\n",
                static_cast<unsigned long long>(captured.flight_digest));
  }

  if (!steady_clean) {
    std::printf("FAIL: steady-state poll ticks invoked the solver\n");
    return 1;
  }
  if (!ticks_flat) {
    std::printf(
        "FAIL: steady-state poll ticks allocate more as transfers grow\n");
    return 1;
  }
  if (worst_gap > 1e-3) {
    std::printf("FAIL: dense and reference solvers diverged (%.3g B/s)\n",
                worst_gap);
    return 1;
  }
  return 0;
}
