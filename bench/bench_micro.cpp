// Micro-benchmarks (google-benchmark) for the emulator's hot kernels: the
// max-min rate allocator, LDAP filter parse/eval, DN parsing, ncx codec,
// and the event loop.  These bound how much simulated traffic the harness
// can push per wall-clock second.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "climate/model.hpp"
#include "directory/filter.hpp"
#include "ncformat/ncx.hpp"
#include "net/fluid.hpp"
#include "sim/simulation.hpp"

using namespace esg;

static void BM_FluidReallocate(benchmark::State& state) {
  const int n_flows = static_cast<int>(state.range(0));
  sim::Simulation sim;
  net::FluidNetwork fluid(sim);
  std::vector<net::Resource*> resources;
  for (int i = 0; i < 8; ++i) {
    resources.push_back(
        fluid.add_resource("r" + std::to_string(i), 1e8 + i * 1e6));
  }
  common::Rng rng(1);
  for (int f = 0; f < n_flows; ++f) {
    std::vector<const net::Resource*> path;
    for (auto* r : resources) {
      if (rng.uniform() < 0.4) path.push_back(r);
    }
    if (path.empty()) path.push_back(resources[0]);
    fluid.start_transfer({net::FlowSpec{path, 1e7 + rng.uniform(0.0, 1e7)}},
                         net::kUnboundedBytes, {});
  }
  for (auto _ : state) {
    fluid.update();
    benchmark::DoNotOptimize(fluid.active_transfers());
  }
}
BENCHMARK(BM_FluidReallocate)->Arg(8)->Arg(32)->Arg(128);

static void BM_EventLoopThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    int count = 0;
    sim.schedule_every(100, [&] { return ++count < 10000; });
    sim.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventLoopThroughput);

// Schedule/cancel/fire mix at a steady population of `range(0)` pending
// events — the shape of 10k-100k concurrent transfer completions with
// rescheduling churn.  Each iteration cancels one random event, schedules
// its replacement, and fires the minimum.
static void BM_EventQueue(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  sim::Simulation sim;
  common::Rng rng(97);
  std::vector<sim::EventHandle> handles(static_cast<std::size_t>(n));
  const std::function<void()> noop = [] {};
  for (auto& h : handles) {
    h = sim.schedule_after(
        1 + static_cast<common::SimDuration>(rng.uniform_int(1'000'000'000)),
        noop);
  }
  for (auto _ : state) {
    auto& victim = handles[rng.uniform_int(handles.size())];
    victim.cancel();
    victim = sim.schedule_after(
        1 + static_cast<common::SimDuration>(rng.uniform_int(1'000'000'000)),
        noop);
    const auto target = sim.events_fired() + 1;
    sim.run_while_pending([&] { return sim.events_fired() >= target; });
  }
  state.SetItemsProcessed(state.iterations());
  benchmark::DoNotOptimize(sim.events_fired());
}
BENCHMARK(BM_EventQueue)->Arg(10'000)->Arg(100'000);

static void BM_FilterParse(benchmark::State& state) {
  const std::string text =
      "(&(objectclass=location)(|(filename=co2*)(filename=*1998*))"
      "(!(storagetype=mss))(size>=1000000))";
  for (auto _ : state) {
    auto f = directory::Filter::parse(text);
    benchmark::DoNotOptimize(f.ok());
  }
}
BENCHMARK(BM_FilterParse);

static void BM_FilterEval(benchmark::State& state) {
  auto filter = *directory::Filter::parse(
      "(&(objectclass=location)(filename=co2*)(!(storagetype=mss)))");
  auto dn = *directory::Dn::parse("loc=x,lc=co2,rc=esg,o=grid");
  directory::Entry entry(dn);
  entry.add("objectclass", "location");
  entry.add("storagetype", "disk");
  for (int i = 0; i < 50; ++i) {
    entry.add("filename", "co2.file." + std::to_string(i) + ".ncx");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.matches(entry));
  }
}
BENCHMARK(BM_FilterEval);

static void BM_DnParse(benchmark::State& state) {
  for (auto _ : state) {
    auto dn = directory::Dn::parse(
        "lf=co2.1998.jan.ncx, lc=CO2 measurements 1998, rc=GriPhyN, o=Grid");
    benchmark::DoNotOptimize(dn.ok());
  }
}
BENCHMARK(BM_DnParse);

static void BM_NcxEncodeChunk(benchmark::State& state) {
  climate::ClimateModel model(
      climate::ModelConfig{climate::GridSpec{36, 72}, 1, 1995});
  for (auto _ : state) {
    auto bytes = model.write_chunk(0, 6);
    benchmark::DoNotOptimize(bytes->size());
  }
}
BENCHMARK(BM_NcxEncodeChunk);

static void BM_NcxHyperslabRead(benchmark::State& state) {
  climate::ClimateModel model(
      climate::ModelConfig{climate::GridSpec{36, 72}, 1, 1995});
  auto bytes = model.write_chunk(0, 12);
  auto reader = *ncformat::NcxReader::open(bytes);
  for (auto _ : state) {
    auto slab = reader.read_slab("temperature", {3, 0, 0}, {6, 36, 72});
    benchmark::DoNotOptimize(slab.ok());
  }
  state.SetBytesProcessed(state.iterations() * 6 * 36 * 72 * 4);
}
BENCHMARK(BM_NcxHyperslabRead);

// Whole-system pulse: simulated seconds of a busy transfer per wall second.
static void BM_SimulatedTransferHour(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    net::FluidNetwork fluid(sim);
    auto* r = fluid.add_resource("pipe", 1e8);
    std::vector<net::FlowSpec> flows(8, net::FlowSpec{{r}, 2e7});
    fluid.start_transfer(std::move(flows), net::kUnboundedBytes, {});
    sim.run_until(common::kHour);
    benchmark::DoNotOptimize(sim.events_fired());
  }
}
BENCHMARK(BM_SimulatedTransferHour);

BENCHMARK_MAIN();
