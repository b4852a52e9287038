// ndft_perfbench: the repository benchmark (README.md in this directory).
//
//   ndft_perfbench --workload <dft-jobs|simulate|service-mix> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs one workload in-process through the public API, checks every
// answer and prints, as its last stdout line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. An untraced run
// (--trace 0) reports the end-to-end metrics; a traced run (--trace 1)
// reports every per-layer metric and writes its spans as Chrome
// trace-event JSON to --trace-out.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/run_metadata.hpp"
#include "common/str_util.hpp"
#include "common/thread_pool.hpp"
#include "perfbench.hpp"

namespace {

using namespace perfbench;

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run prints. A workload that does not
/// exercise a layer leaves its metrics at 0.
constexpr LayerMetric kPerLayer[] = {
    {"dft.scf.iterations", "count"},
    {"dft.scf.iter_ms", "ms"},
    {"dft.scf.hamiltonian_ms", "ms"},
    {"dft.linalg.syevd_partial_ms", "ms"},
    {"dft.linalg.syevd_partial_gflops", "GFLOP/s"},
    {"dft.linalg.scf_reduce_ms", "ms"},
    {"dft.linalg.scf_tridiag_ms", "ms"},
    {"dft.linalg.scf_backtransform_ms", "ms"},
    {"dft.fft.scf_fft3d_ms", "ms"},
    {"dft.fft.scf_fft3d_calls", "count"},
    {"dft.linalg.heev_ms", "ms"},
    {"dft.linalg.heev_gflops", "GFLOP/s"},
    {"dft.linalg.syevd_ms", "ms"},
    {"dft.linalg.gemm_ms", "ms"},
    {"dft.lrtddft.fft_pairs_ms", "ms"},
    {"dft.lrtddft.kernel_ms", "ms"},
    {"sim.ndft.fabric_events", "count"},
    {"sim.ndft.fabric_events_per_s", "1/s"},
    {"sim.cpu.dram_commands_per_s", "1/s"},
    {"sim.ndft.simulated_ps", "ps"},
    {"sim.cpu.simulated_ps", "ps"},
    {"sim.ndft_speedup", "ratio"},
    {"mem.dram.row_hit_rate", "ratio"},
    {"mem.dram.channel_utilization", "ratio"},
    {"mem.dram.refresh_stall_ps", "ps"},
    {"noc.mesh.contention_ps", "ps"},
    {"ndp.serdes.contention_ps", "ps"},
    {"api.engine.overhead_ms", "ms"},
    {"api.engine.queue_p50_ms.plan", "ms"},
    {"api.engine.queue_p99_ms.plan", "ms"},
    {"api.engine.queue_p50_ms.lrtddft", "ms"},
    {"api.engine.queue_p99_ms.lrtddft", "ms"},
    {"api.engine.queue_p50_ms.band_structure", "ms"},
    {"api.engine.queue_p99_ms.band_structure", "ms"},
    {"runtime.plan_run_ms", "ms"},
    {"api.engine.run_ms.lrtddft", "ms"},
    {"api.engine.run_ms.band_structure", "ms"},
    {"net.http_overhead_ms", "ms"},
    {"api.engine.retries", "count"},
    {"api.engine.degraded", "count"},
    {"bench.tracing_overhead_pct", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ndft_perfbench: %s\nusage: ndft_perfbench --workload "
               "<dft-jobs|simulate|service-mix> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && opts.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opts.traced = value == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (opts.workload != "dft-jobs" && opts.workload != "simulate" &&
      opts.workload != "service-mix") {
    usage("--workload must be dft-jobs, simulate or service-mix");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace (0 or 1) are required");
  }
  return opts;
}

/// Kernel pool width per workload, below the core count of a small shared
/// host: a parallel region waits for its slowest thread, so a pool as wide
/// as the host times its noisiest core. On service-mix the two dispatchers
/// would also take turns at a shared pool; at width 1 each job's kernels
/// run inline on its own dispatcher.
std::size_t pool_width(const std::string& workload) {
  return workload == "dft-jobs" ? 2 : 1;
}

ndft::Json metadata(const Options& opts) {
  ndft::Json meta = ndft::run_metadata_json();
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  meta.set("host", host);
  meta.set("nproc", std::thread::hardware_concurrency());
  meta.set("workload", opts.workload);
  meta.set("seed", opts.seed);
  meta.set("seconds", opts.seconds);
  meta.set("traced", opts.traced);
  meta.set("inputs",
           "fixed requests; the seed sets only the service-mix request "
           "order");
  return meta;
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts = parse(argc, argv);
  ndft::ThreadPool::instance().resize(pool_width(opts.workload));
  const ndft::Json meta = metadata(opts);
  std::printf("meta %s\n", meta.dump().c_str());
  std::fflush(stdout);

  SpanLog spans(opts.traced);
  Tally tally;
  std::vector<double> setup_s;
  const RunReport report =
      opts.workload == "dft-jobs"  ? run_dft_jobs(opts, spans, tally, setup_s)
      : opts.workload == "simulate" ? run_simulate(opts, spans, tally, setup_s)
                                    : run_service_mix(opts, spans, tally,
                                                      setup_s);

  ndft::Json metrics = ndft::Json::object();
  const auto add = [&](const std::string& name, double value,
                       const char* unit) {
    ndft::Json metric = ndft::Json::object();
    metric.set("value", value);
    metric.set("unit", unit);
    metrics.set(name, std::move(metric));
    std::printf("  %-40s %.6g %s\n", name.c_str(), value, unit);
  };
  if (opts.traced) {
    for (const auto& [name, value] : report.per_layer) {
      bool known = false;
      for (const LayerMetric& metric : kPerLayer) known |= name == metric.name;
      if (!known) throw ndft::NdftError("unlisted per-layer metric " + name);
    }
    for (const LayerMetric& metric : kPerLayer) {
      const auto it = report.per_layer.find(metric.name);
      add(metric.name, it == report.per_layer.end() ? 0.0 : it->second,
          metric.unit);
    }
  } else {
    add("setup_s", median(setup_s), "s");
    add("op_a_s", report.op_a_s, "s");
    add("op_b_s", report.op_b_s, "s");
    add("ops_per_s", report.ops_per_s, "1/s");
  }

  if (opts.traced && !opts.trace_out.empty()) {
    std::ofstream out(opts.trace_out);
    out << spans.chrome_json(meta).dump() << '\n';
    if (!out) {
      throw ndft::NdftError("could not write the span dump to " +
                            opts.trace_out);
    }
    std::printf("spans written to %s\n", opts.trace_out.c_str());
  }

  ndft::Json result = ndft::Json::object();
  result.set("correct", tally.correct());
  result.set("attempted", tally.attempted());
  result.set("failed", tally.failed());
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return 0;
} catch (const std::exception& error) {
  std::fprintf(stderr, "ndft_perfbench: %s\n", error.what());
  return 1;
}
