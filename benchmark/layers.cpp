#include <algorithm>
#include <string>

#include "workloads.hpp"

namespace esg::bench {

void LayerCounters::add(const obs::MetricsSnapshot& s) {
  transfers_started += s.value_or("gridftp_transfers_started_total", {});
  transfers_completed += s.value_or("gridftp_transfers_completed_total", {});
  gridftp_retries += s.value_or("gridftp_retries_total", {});
  attempt_timeouts += s.value_or("gridftp_attempt_timeouts_total", {});
  restarts += s.value_or("gridftp_restarts_total", {});
  if (const auto* h = s.find("gridftp_retry_backoff_seconds")) {
    backoff_s += h->sum;
  }
  checksum_failures += s.value_or("gridftp_checksum_failures_total", {});
  corruption_refetches +=
      s.value_or("gridftp_corruption_refetches_total", {});
  channels_reused += s.value_or("gridftp_channels_reused_total", {});
  channel_setups += s.value_or("gridftp_data_channel_setups_total", {});
  auth_handshakes += s.value_or("gridftp_auth_handshakes_total", {});
  hrm_hits += s.value_or("hrm_cache_hits_total", {});
  hrm_misses += s.value_or("hrm_cache_misses_total", {});
  if (const auto* h = s.find("hrm_stage_wait_seconds")) {
    if (stage_wait_buckets.empty()) {
      stage_wait_boundaries = h->boundaries;
      stage_wait_buckets.assign(h->buckets.size(), 0);
    }
    for (std::size_t i = 0;
         i < h->buckets.size() && i < stage_wait_buckets.size(); ++i) {
      stage_wait_buckets[i] += h->buckets[i];
    }
  }
  rm_submitted += s.value_or("rm_files_submitted_total", {});
  rm_retries += s.value_or("rm_retries_total", {});
  rm_stage_retries += s.value_or("rm_stage_retries_total", {});
  rm_replica_switches += s.value_or("rm_replica_switches_total", {});
  breaker_opens += s.family_total("rm_breaker_open_total");
  breaker_short_circuits +=
      s.family_total("rm_breaker_short_circuits_total");
  campaign_retries += s.value_or("campaign_retries_total", {});
  campaign_failures += s.family_total("campaign_failures_total");
  sim_purges += s.value_or("sim_queue_purges", {});
}

void LayerCounters::emit(RunResult& out) const {
  auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  out.set("sim.purges", sim_purges);
  out.set("gridftp.transfers_started", transfers_started);
  out.set("gridftp.success_ratio",
          ratio(transfers_completed, transfers_started));
  out.set("gridftp.retries", gridftp_retries);
  out.set("gridftp.attempt_timeouts", attempt_timeouts);
  out.set("gridftp.restarts", restarts);
  out.set("gridftp.backoff_s", backoff_s);
  out.set("gridftp.checksum_failures", checksum_failures);
  out.set("gridftp.corruption_refetches", corruption_refetches);
  out.set("gridftp.channel_reuse_ratio",
          ratio(channels_reused, channels_reused + channel_setups));
  out.set("gridftp.auth_handshakes", auth_handshakes);
  out.set("hrm.cache_hit_ratio", ratio(hrm_hits, hrm_hits + hrm_misses));
  out.set("hrm.stage_wait_p50_s",
          obs::histogram_quantile(stage_wait_boundaries, stage_wait_buckets,
                                  0.5));
  out.set("hrm.stage_wait_p99_s",
          obs::histogram_quantile(stage_wait_boundaries, stage_wait_buckets,
                                  0.99));
  out.set("rm.files_submitted", rm_submitted);
  out.set("rm.retries", rm_retries);
  out.set("rm.stage_retries", rm_stage_retries);
  out.set("rm.replica_switches", rm_replica_switches);
  out.set("rm.breaker_opens", breaker_opens);
  out.set("rm.breaker_short_circuits", breaker_short_circuits);
  out.set("campaign.retries", campaign_retries);
  out.set("campaign.failures", campaign_failures);
}

void WorldLayers::add(sim::Simulation& sim, net::Network& net,
                      double round_sim_wall_s) {
  events += static_cast<double>(sim.events_fired());
  sim_wall_s += round_sim_wall_s;
  if (const auto* depth = sim.telemetry().find("sim_queue_depth")) {
    queue_depth_max = std::max(queue_depth_max, depth->life_max());
  }
  const auto& fluid = net.fluid();
  touches += static_cast<double>(fluid.touches());
  reallocations += static_cast<double>(fluid.reallocations());
  component_solves += static_cast<double>(fluid.component_solves());
  flows_solved += static_cast<double>(fluid.flows_solved_total());
  max_solve_flows = std::max(max_solve_flows,
                             static_cast<double>(fluid.max_solve_flows()));
  spans += static_cast<double>(sim.tracer().span_count());
  spans_dropped += static_cast<double>(sim.tracer().dropped());
  flight_events += static_cast<double>(sim.flight_recorder().recorded());
  telemetry_samples += static_cast<double>(sim.telemetry().samples_total());
}

void WorldLayers::emit(double files, RunResult& out) const {
  out.set("sim.events", events);
  out.set("sim.events_per_file", files > 0 ? events / files : 0.0);
  out.set("sim.us_per_event", events > 0 ? sim_wall_s * 1e6 / events : 0.0);
  out.set("sim.queue_depth_max", queue_depth_max);
  out.set("net.touches", touches);
  out.set("net.reallocations", reallocations);
  out.set("net.component_solves", component_solves);
  out.set("net.flows_per_solve",
          component_solves > 0 ? flows_solved / component_solves : 0.0);
  out.set("net.max_solve_flows", max_solve_flows);
  out.set("obs.spans", spans);
  out.set("obs.spans_dropped", spans_dropped);
  out.set("obs.flight_events", flight_events);
  out.set("obs.telemetry_samples", telemetry_samples);
}

void add_profile(const obs::TimeWhereProfile& profile, RunResult& out) {
  for (int i = 0; i < obs::kProfileCategories; ++i) {
    std::string name =
        obs::profile_category_name(static_cast<obs::ProfileCategory>(i));
    for (char& ch : name) {
      if (ch == '-') ch = '_';
    }
    name = "profile." + name + "_s";
    out.set(name, out.get(name) +
                      common::to_seconds(
                          profile.category_self[static_cast<std::size_t>(i)]));
  }
}

void emit_host(const PhaseAllocs& allocs, const std::vector<double>& run_s,
               double files, RunResult& out) {
  double run_total_s = 0.0;
  for (double s : run_s) run_total_s += s;
  out.set("host.us_per_file", files > 0 ? run_total_s * 1e6 / files : 0.0);
  out.set("host.setup_allocs", static_cast<double>(allocs.setup));
  out.set("host.run_allocs", static_cast<double>(allocs.run));
  out.set("host.report_allocs", static_cast<double>(allocs.report));
  out.set("host.allocs_per_file",
          files > 0 ? static_cast<double>(allocs.setup + allocs.run +
                                          allocs.report) /
                          files
                    : 0.0);
}

void emit_span_timings(const WallTrace& trace, RunResult& out) {
  if (!trace.enabled()) return;
  const std::pair<const char*, const char*> kSpans[] = {
      {"setup.storage", "storage.populate_s"},
      {"setup.catalog_seed", "catalog.seed_s"},
      {"report.manifest", "obs.manifest_s"},
      {"report.profile", "obs.profile_s"},
      {"report.json", "obs.json_s"},
  };
  for (const auto& [span, metric] : kSpans) {
    const auto d = trace.durations(span);
    if (!d.empty()) out.set(metric, median(d));
  }
}

}  // namespace esg::bench
