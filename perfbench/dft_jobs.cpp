// dft-jobs: the default Si_32 SCF and a Si_64 LR-TDDFT with oscillator
// strengths, alternated in-process on one Engine with dispatch_threads 0.
// Dense eigensolvers (partial syevd in the SCF, heev and full syevd in
// LR-TDDFT), FFT and the SCF mixer do nearly all of the work; no
// simulator and no HTTP are involved.

#include <cmath>
#include <memory>

#include "api/engine.hpp"
#include "common/str_util.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace ndft;

/// Converged Si_32 total energy: the fixed point of the `anderson`
/// mixer (-13.42983 Ha), quoted to the 1e-4 Ha it is stated at.
constexpr double kScfEnergyHa = -13.4298;
constexpr double kScfToleranceHa = 1e-4;
/// Lowest Si_64 excitation (0.0342018 Ha), quoted to 1e-6 Ha.
constexpr double kLowestExcitationHa = 0.034202;
constexpr double kExcitationToleranceHa = 1e-6;

api::JobRequest scf_request(bool record_trace) {
  api::ScfJob job;
  job.atoms = 32;
  job.record_trace = record_trace;
  return job;
}

api::JobRequest lrtddft_request(bool record_trace) {
  api::LrtddftJob job;
  job.atoms = 64;
  job.oscillator_strengths = true;
  job.record_trace = record_trace;
  return job;
}

void check_scf(const api::JobResult& result, Tally& tally) {
  if (!result.ok() || !result.scf) {
    tally.fail(strformat("scf: status %s (%s)", api::to_string(result.status),
                         result.error_message.c_str()),
               false);
  } else if (!result.scf->converged) {
    tally.fail(strformat("scf: not converged after %zu iterations "
                         "(residual %.3g, E = %.6f Ha)",
                         result.scf->iterations, result.scf->final_residual,
                         result.scf->total_energy_ha),
               false);
  } else if (std::abs(result.scf->total_energy_ha - kScfEnergyHa) >
             kScfToleranceHa) {
    tally.fail(strformat("scf: E = %.6f Ha, reference %.4f +- %.0e Ha",
                         result.scf->total_energy_ha, kScfEnergyHa,
                         kScfToleranceHa),
               true);
  } else {
    tally.pass();
  }
}

void check_lrtddft(const api::JobResult& result, Tally& tally) {
  if (!result.ok() || !result.lrtddft) {
    tally.fail(strformat("lrtddft: status %s (%s)",
                         api::to_string(result.status),
                         result.error_message.c_str()),
               false);
  } else if (result.lrtddft->excitations_ha.empty() ||
             std::abs(result.lrtddft->excitations_ha.front() -
                      kLowestExcitationHa) > kExcitationToleranceHa) {
    tally.fail(strformat("lrtddft: lowest excitation %.7f Ha, reference "
                         "%.6f +- %.0e Ha",
                         result.lrtddft->excitations_ha.empty()
                             ? 0.0
                             : result.lrtddft->excitations_ha.front(),
                         kLowestExcitationHa, kExcitationToleranceHa),
               true);
  } else {
    tally.pass();
  }
}

/// Host time, flops and call count of one kernel name in a trace.
struct KernelSum {
  double ms = 0.0;
  double flops = 0.0;
  double calls = 0.0;
};

KernelSum kernel_sum(const KernelTrace& trace,
                     std::initializer_list<const char*> names) {
  KernelSum sum;
  for (const TraceEvent& event : trace.events) {
    for (const char* name : names) {
      if (event.name != name) continue;
      sum.ms += event.host_ms;
      sum.flops += static_cast<double>(event.flops);
      sum.calls += 1.0;
    }
  }
  return sum;
}

double gflops(const KernelSum& sum) {
  return sum.ms > 0.0 ? sum.flops / (sum.ms * 1e6) : 0.0;
}

/// Per-layer samples of one traced job (one value per metric per job).
void add_layer_samples(const api::JobResult& result,
                       std::map<std::string, std::vector<double>>& samples) {
  if (!result.trace) return;
  const KernelTrace& trace = *result.trace;
  const api::JobTimings& t = result.timings;
  if (result.scf) {
    const double iterations = static_cast<double>(result.scf->iterations);
    const KernelSum partial = kernel_sum(trace, {"syevd.partial"});
    const KernelSum fft = kernel_sum(trace, {"fft3d"});
    samples["dft.scf.iterations"].push_back(iterations);
    samples["dft.scf.iter_ms"].push_back(
        iterations > 0.0 ? t.run_ms / iterations : 0.0);
    samples["dft.scf.hamiltonian_ms"].push_back(
        kernel_sum(trace, {"scf.hamiltonian"}).ms);
    samples["dft.linalg.syevd_partial_ms"].push_back(partial.ms);
    samples["dft.linalg.syevd_partial_gflops"].push_back(gflops(partial));
    samples["dft.linalg.scf_reduce_ms"].push_back(t.reduce_ms);
    samples["dft.linalg.scf_tridiag_ms"].push_back(t.tridiag_ms);
    samples["dft.linalg.scf_backtransform_ms"].push_back(t.backtransform_ms);
    samples["dft.fft.scf_fft3d_ms"].push_back(fft.ms);
    samples["dft.fft.scf_fft3d_calls"].push_back(fft.calls);
  } else if (result.lrtddft) {
    const KernelSum heev = kernel_sum(trace, {"heev"});
    samples["dft.linalg.heev_ms"].push_back(heev.ms);
    samples["dft.linalg.heev_gflops"].push_back(gflops(heev));
    samples["dft.linalg.syevd_ms"].push_back(kernel_sum(trace, {"syevd"}).ms);
    samples["dft.linalg.gemm_ms"].push_back(
        kernel_sum(trace, {"gemm", "gemm.c"}).ms);
    samples["dft.lrtddft.fft_pairs_ms"].push_back(
        kernel_sum(trace, {"fft.pairs"}).ms);
    samples["dft.lrtddft.kernel_ms"].push_back(
        kernel_sum(trace, {"facesplit", "coulomb", "xc.weight", "assemble"})
            .ms);
  }
}

}  // namespace

RunReport run_dft_jobs(const Options& opts, SpanLog& spans, Tally& tally,
                       std::vector<double>& setup_s) {
  // Warm-up: two SCF iterations at the timed Si_32 shape build its FFT
  // plans and grids before anything is timed; Si_8 LR-TDDFT touches the
  // LR-TDDFT kernels.
  api::ScfJob scf_warm;
  scf_warm.atoms = 32;
  scf_warm.scf.max_iterations = 2;
  api::LrtddftJob lrtddft_warm;
  lrtddft_warm.atoms = 8;
  lrtddft_warm.oscillator_strengths = true;
  const std::unique_ptr<api::Engine> engine =
      set_up_engine({scf_warm, lrtddft_warm}, spans, setup_s);

  EngineRuns runs(spans, *engine);
  std::map<std::string, std::vector<double>> layer;
  const double untraced_s = alternate(opts, 2, [&](std::size_t kind,
                                                   bool traced) {
    const EngineRuns::Timed timed =
        kind == 0 ? runs.run("scf", scf_request(traced), traced)
                  : runs.run("lrtddft", lrtddft_request(traced), traced);
    if (kind == 0) {
      check_scf(timed.result, tally);
    } else {
      check_lrtddft(timed.result, tally);
    }
    if (traced) add_layer_samples(timed.result, layer);
  });

  RunReport report;
  if (!opts.traced) {
    report.op_a_s = runs.median_s("scf");
    report.op_b_s = runs.median_s("lrtddft");
    report.ops_per_s = static_cast<double>(runs.untraced_ops()) / untraced_s;
    return report;
  }
  for (const auto& [name, values] : layer) {
    report.per_layer[name] = median(values);
  }
  runs.add_layer_metrics(report.per_layer);
  return report;
}

}  // namespace perfbench
