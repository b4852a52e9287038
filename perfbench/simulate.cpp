// simulate: SimulateJob{atoms: 16} on the NDFT machine and on the CPU
// baseline, alternated in-process on one Engine with dispatch_threads 0.
// The event queue and the CPU/cache, DRAM, mesh and SerDes models do all
// of the work; there is no dense linear algebra or FFT.

#include <memory>

#include "api/engine.hpp"
#include "common/str_util.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace ndft;

api::SimulateJob simulate_job(core::ExecMode mode) {
  api::SimulateJob job;
  job.atoms = 16;
  job.mode = mode;
  return job;
}

double stat(const api::SimulatePayload& payload, const char* key) {
  const auto it = payload.stats.find(key);
  return it == payload.stats.end() ? 0.0 : it->second;
}

/// Mesh messages plus DRAM commands (the bench_sim_fabric definition). The
/// CPU baseline has no mesh, so there it counts DRAM commands only.
double fabric_events(const api::SimulatePayload& payload) {
  return stat(payload, "mesh.messages") + stat(payload, "dram.reads") +
         stat(payload, "dram.writes");
}

}  // namespace

RunReport run_simulate(const Options& opts, SpanLog& spans, Tally& tally,
                       std::vector<double>& setup_s) {
  // Warm-up: a lightly sampled CPU-baseline run drives the event queue,
  // the cores, caches and DRAM once before anything is timed.
  api::SimulateJob warm = simulate_job(core::ExecMode::kCpuBaseline);
  warm.sampled_ops = 2000;
  const std::unique_ptr<api::Engine> engine =
      set_up_engine({warm}, spans, setup_s);

  const core::ExecMode modes[] = {core::ExecMode::kNdft,
                                  core::ExecMode::kCpuBaseline};
  const char* const kinds[] = {"ndft", "cpu"};
  std::string first_payload[2];
  api::SimulatePayload last[2];
  std::vector<double> events_per_s[2];
  EngineRuns runs(spans, *engine);
  const double untraced_s = alternate(opts, 2, [&](std::size_t kind,
                                                   bool traced) {
    const EngineRuns::Timed timed =
        runs.run(kinds[kind], simulate_job(modes[kind]), traced);
    const api::JobResult& result = timed.result;
    if (!result.ok() || !result.simulate) {
      tally.fail(strformat("simulate %s: status %s (%s)", kinds[kind],
                           api::to_string(result.status),
                           result.error_message.c_str()),
                 false);
      return;
    }
    // The simulator is deterministic: every payload of a mode must equal
    // the first one of the run bit for bit.
    const std::string payload = result.to_json().at("payload").dump();
    if (first_payload[kind].empty()) first_payload[kind] = payload;
    if (payload == first_payload[kind]) {
      tally.pass();
    } else {
      tally.fail(strformat("simulate %s: payload differs from the run's "
                           "first one",
                           kinds[kind]),
                 true);
    }
    last[kind] = *result.simulate;
    if (traced) {
      events_per_s[kind].push_back(fabric_events(*result.simulate) /
                                   (timed.wall_ms * 1e-3));
    }
  });

  RunReport report;
  if (!opts.traced) {
    report.op_a_s = runs.median_s("ndft");
    report.op_b_s = runs.median_s("cpu");
    report.ops_per_s = static_cast<double>(runs.untraced_ops()) / untraced_s;
    return report;
  }
  const api::SimulatePayload& ndft_sim = last[0];
  const double row_accesses = stat(ndft_sim, "dram.row_hits") +
                              stat(ndft_sim, "dram.row_misses") +
                              stat(ndft_sim, "dram.row_conflicts");
  auto& layer = report.per_layer;
  layer["sim.ndft.fabric_events"] = fabric_events(ndft_sim);
  layer["sim.ndft.fabric_events_per_s"] = median(events_per_s[0]);
  layer["sim.cpu.dram_commands_per_s"] = median(events_per_s[1]);
  layer["sim.ndft.simulated_ps"] = static_cast<double>(ndft_sim.total_ps);
  layer["sim.cpu.simulated_ps"] = static_cast<double>(last[1].total_ps);
  layer["sim.ndft_speedup"] =
      ndft_sim.total_ps > 0 ? static_cast<double>(last[1].total_ps) /
                                  static_cast<double>(ndft_sim.total_ps)
                            : 0.0;
  layer["mem.dram.row_hit_rate"] =
      row_accesses > 0.0 ? stat(ndft_sim, "dram.row_hits") / row_accesses
                         : 0.0;
  layer["mem.dram.channel_utilization"] =
      stat(ndft_sim, "dram.channel_utilization");
  layer["mem.dram.refresh_stall_ps"] = stat(ndft_sim, "dram.refresh_stall_ps");
  layer["noc.mesh.contention_ps"] = stat(ndft_sim, "mesh.contention_ps");
  layer["ndp.serdes.contention_ps"] = stat(ndft_sim, "serdes.contention_ps");
  runs.add_layer_metrics(layer);
  return report;
}

}  // namespace perfbench
