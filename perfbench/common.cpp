#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench.hpp"

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

void Tally::pass() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
}

void Tally::fail(const std::string& why, bool wrong_answer) {
  constexpr std::uint64_t kLoggedFailures = 8;
  std::lock_guard<std::mutex> lock(mutex_);
  ++attempted_;
  ++failed_;
  if (wrong_answer) correct_ = false;
  if (failed_ <= kLoggedFailures) {
    std::fprintf(stderr, "perfbench: %s: %s\n",
                 wrong_answer ? "WRONG ANSWER" : "failed", why.c_str());
  }
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled) {}

void SpanLog::record(const std::string& layer, const std::string& name,
                     Clock::time_point start, Clock::time_point end,
                     std::uint64_t id, std::uint64_t parent, unsigned lane,
                     ndft::Json args) {
  if (!enabled_) return;
  Span span;
  span.layer = layer;
  span.name = name;
  span.start_us = ms_between(origin_, start) * 1e3;
  span.dur_us = ms_between(start, end) * 1e3;
  span.id = id;
  span.parent = parent;
  span.lane = lane;
  span.args = std::move(args);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

ndft::Json SpanLog::chrome_json(const ndft::Json& metadata) const {
  ndft::Json events = ndft::Json::array();
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& span : spans_) {
    ndft::Json args = span.args;
    args.set("span_id", span.id);
    args.set("parent_id", span.parent);
    ndft::Json event = ndft::Json::object();
    event.set("name", span.layer + "." + span.name);
    event.set("cat", span.layer);
    event.set("ph", "X");
    event.set("ts", span.start_us);
    event.set("dur", span.dur_us);
    event.set("pid", 1);
    event.set("tid", span.lane);
    event.set("args", std::move(args));
    events.push_back(std::move(event));
  }
  ndft::Json doc = ndft::Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("metadata", metadata);
  return doc;
}

ndft::Json timing_args(const ndft::api::JobResult& result) {
  ndft::Json args = ndft::Json::object();
  args.set("kind", result.engine.kind);
  args.set("status", ndft::api::to_string(result.status));
  args.set("queue_ms", result.timings.queue_ms);
  args.set("run_ms", result.timings.run_ms);
  args.set("total_ms", result.timings.total_ms);
  args.set("linalg_ms", result.timings.linalg_ms);
  args.set("attempts", result.engine.attempts);
  args.set("degraded", static_cast<std::uint64_t>(result.degraded.size()));
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double OverheadSamples::pct() const {
  double untraced_sum = 0.0, traced_sum = 0.0;
  for (const auto& [kind, samples] : untraced) {
    const auto it = traced.find(kind);
    if (samples.empty() || it == traced.end() || it->second.empty()) {
      return 0.0;
    }
    untraced_sum += median(samples);
    traced_sum += median(it->second);
  }
  return untraced_sum > 0.0 ? 100.0 * (traced_sum / untraced_sum - 1.0) : 0.0;
}

std::unique_ptr<ndft::api::Engine> set_up_engine(
    const std::vector<ndft::api::JobRequest>& warm_ups, SpanLog& spans,
    std::vector<double>& setup_s) {
  ndft::api::EngineConfig config;
  config.dispatch_threads = 0;
  std::unique_ptr<ndft::api::Engine> engine;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    const std::uint64_t setup_id = spans.next_id();
    const Clock::time_point start = Clock::now();
    engine = std::make_unique<ndft::api::Engine>(config);
    for (const ndft::api::JobRequest& warm : warm_ups) {
      const Clock::time_point warm_start = Clock::now();
      const ndft::api::JobResult result = engine->run(warm);
      spans.record("api", "Engine::run", warm_start, Clock::now(),
                   spans.next_id(), setup_id, 0, timing_args(result));
      if (!result.ok()) {
        throw ndft::NdftError(std::string("warm-up ") +
                              ndft::api::job_kind(warm) +
                              " failed: " + result.error_message);
      }
    }
    const Clock::time_point end = Clock::now();
    setup_s.push_back(ms_between(start, end) * 1e-3);
    spans.record("bench", "setup", start, end, setup_id, 0, 0);
  }
  return engine;
}

EngineRuns::Timed EngineRuns::run(const std::string& kind,
                                  const ndft::api::JobRequest& request,
                                  bool traced) {
  const Clock::time_point start = Clock::now();
  Timed timed{engine_.run(request), 0.0};
  const Clock::time_point end = Clock::now();
  timed.wall_ms = ms_between(start, end);
  std::printf("  op %-8s %10.1f ms%s\n", kind.c_str(), timed.wall_ms,
              traced ? " (traced)" : "");
  (traced ? samples_.traced : samples_.untraced)[kind].push_back(
      timed.wall_ms);
  if (!traced) return timed;

  const ndft::api::JobResult& result = timed.result;
  ndft::Json args = timing_args(result);
  if (result.trace) {
    // Host milliseconds per kernel name of the job's kernel trace.
    std::map<std::string, double> kernel_ms;
    for (const ndft::TraceEvent& event : result.trace->events) {
      kernel_ms[event.name] += event.host_ms;
    }
    ndft::Json kernels = ndft::Json::object();
    for (const auto& [name, ms] : kernel_ms) kernels.set(name, ms);
    args.set("kernel_ms", std::move(kernels));
  }
  spans_.record("api", "Engine::run", start, end, spans_.next_id(), 0, 0,
                std::move(args));
  overhead_ms_.push_back(timed.wall_ms - result.timings.run_ms);
  retries_ += result.engine.attempts - 1.0;
  degraded_ += result.degraded.empty() ? 0.0 : 1.0;
  return timed;
}

double EngineRuns::median_s(const std::string& kind) const {
  const auto it = samples_.untraced.find(kind);
  return it == samples_.untraced.end() ? 0.0 : median(it->second) * 1e-3;
}

void EngineRuns::add_layer_metrics(
    std::map<std::string, double>& layer) const {
  layer["api.engine.overhead_ms"] = median(overhead_ms_);
  layer["api.engine.retries"] = retries_;
  layer["api.engine.degraded"] = degraded_;
  layer["bench.tracing_overhead_pct"] = samples_.pct();
}

std::size_t EngineRuns::untraced_ops() const {
  std::size_t ops = 0;
  for (const auto& [kind, samples] : samples_.untraced) ops += samples.size();
  return ops;
}

double alternate(const Options& opts, std::size_t kinds,
                 const std::function<void(std::size_t, bool)>& op) {
  const Clock::time_point start = Clock::now();
  const auto elapsed_s = [&] {
    return ms_between(start, Clock::now()) * 1e-3;
  };
  const double untraced_until = opts.traced ? opts.seconds / 2 : opts.seconds;
  double untraced_s = 0.0;
  for (const bool traced : {false, true}) {
    if (traced && !opts.traced) break;
    const double until = traced ? opts.seconds : untraced_until;
    for (std::size_t i = 0; i < kinds || elapsed_s() < until; ++i) {
      op(i % kinds, traced);
    }
    if (!traced) untraced_s = elapsed_s();
  }
  return untraced_s;
}

}  // namespace perfbench
