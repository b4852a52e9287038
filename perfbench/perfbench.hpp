#pragma once
// Shared plumbing of the repository benchmark (README.md in this
// directory): run options, the per-run tally of operations and metrics a
// workload fills in, the span log of the traced run, and small
// statistics helpers.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/engine.hpp"
#include "common/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  /// Traced run: spans around every layer call, record_trace on the DFT
  /// jobs, per-layer metrics instead of end-to-end ones.
  bool traced = false;
  /// Where the traced run writes its Chrome trace-event JSON ("" = none).
  std::string trace_out;
};

/// Operations attempted and failed in one run. An operation fails when
/// its correctness check does; `correct` turns false only when a result
/// that claims success (status ok, converged) fails its check. A job that
/// visibly reports failure — a non-ok status, `converged: false`, an HTTP
/// error — is a failed operation but not a wrong answer.
class Tally {
 public:
  void pass();
  /// Counts one failed operation and logs `why` to stderr (first few).
  void fail(const std::string& why, bool wrong_answer);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::mutex mutex_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
};

/// What one workload run reports: end-to-end metrics from an untraced
/// run, per-layer metrics (by name) from a traced one. Every workload has
/// two main kinds of operation, a and b (README.md names them), so every
/// workload reports the same end-to-end metrics.
struct RunReport {
  double op_a_s = 0.0;     ///< median wall seconds of kind a
  double op_b_s = 0.0;     ///< median wall seconds of kind b
  double ops_per_s = 0.0;  ///< operations finished per measured second
  std::map<std::string, double> per_layer;
};

/// Spans around the benchmark's calls into each layer, kept in memory and
/// written as Chrome trace-event JSON (opens in Perfetto) when the run
/// ends. Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);
  bool enabled() const noexcept { return enabled_; }
  /// A fresh span id; spans of one operation share its id as parent.
  std::uint64_t next_id() noexcept { return next_id_.fetch_add(1); }
  /// Records [start, end) on `lane` (one lane per client thread).
  void record(const std::string& layer, const std::string& name,
              Clock::time_point start, Clock::time_point end,
              std::uint64_t id, std::uint64_t parent, unsigned lane,
              ndft::Json args = ndft::Json::object());
  ndft::Json chrome_json(const ndft::Json& metadata) const;

 private:
  struct Span {
    std::string layer, name;
    double start_us = 0.0, dur_us = 0.0;
    std::uint64_t id = 0, parent = 0;
    unsigned lane = 0;
    ndft::Json args;
  };
  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// JobTimings and engine counters of a result, as span arguments.
ndft::Json timing_args(const ndft::api::JobResult& result);

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile, `q` in (0, 1] (0 when empty).
double percentile(std::vector<double> values, double q);

/// Operation wall times (ms) per kind, from the untraced and the traced
/// half of a traced run.
struct OverheadSamples {
  std::map<std::string, std::vector<double>> untraced, traced;
  /// Sum over kinds of the traced medians against the untraced ones, in
  /// percent (0 when a half has no sample of some kind).
  double pct() const;
};

/// Builds an Engine with dispatch_threads 0 kSetups times. Each set-up
/// runs `warm_ups` and appends its seconds to `setup_s`. Returns the last
/// Engine; throws when a warm-up fails.
std::unique_ptr<ndft::api::Engine> set_up_engine(
    const std::vector<ndft::api::JobRequest>& warm_ups, SpanLog& spans,
    std::vector<double>& setup_s);

/// The measured Engine::run calls of an in-process workload: their wall
/// times and, in the traced half, their spans and api.engine.* metrics.
class EngineRuns {
 public:
  struct Timed {
    ndft::api::JobResult result;
    double wall_ms = 0.0;
  };

  EngineRuns(SpanLog& spans, ndft::api::Engine& engine)
      : spans_(spans), engine_(engine) {}
  /// Runs one operation of `kind` in the untraced or the traced half.
  Timed run(const std::string& kind, const ndft::api::JobRequest& request,
            bool traced);
  /// Median untraced wall seconds of `kind`.
  double median_s(const std::string& kind) const;
  /// Untraced operations run so far, over all kinds.
  std::size_t untraced_ops() const;
  /// api.engine.* over the traced half, and bench.tracing_overhead_pct.
  void add_layer_metrics(std::map<std::string, double>& layer) const;

 private:
  SpanLog& spans_;
  ndft::api::Engine& engine_;
  OverheadSamples samples_;  ///< untraced and traced wall ms per kind
  std::vector<double> overhead_ms_;
  double retries_ = 0.0;
  double degraded_ = 0.0;
};

/// Calls op(kind, traced) round-robin over `kinds` operation kinds until
/// opts.seconds have passed. A traced run spends the first half untraced
/// and the second half traced. Each half runs every kind at least once.
/// Returns the wall seconds of the untraced half.
double alternate(const Options& opts, std::size_t kinds,
                 const std::function<void(std::size_t, bool)>& op);

/// Each workload: sets up `setups` times (recording each set-up's seconds
/// in `setup_s`), then measures for opts.seconds.
RunReport run_dft_jobs(const Options& opts, SpanLog& spans, Tally& tally,
                       std::vector<double>& setup_s);
RunReport run_simulate(const Options& opts, SpanLog& spans, Tally& tally,
                       std::vector<double>& setup_s);
RunReport run_service_mix(const Options& opts, SpanLog& spans, Tally& tally,
                          std::vector<double>& setup_s);

/// Set-ups per run; setup_s reports their median.
inline constexpr int kSetups = 5;

}  // namespace perfbench
