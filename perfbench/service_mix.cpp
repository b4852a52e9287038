// service-mix: a loopback HttpServer + Service on a default Engine (two
// dispatchers), driven as a closed loop by four clients, each on one
// keep-alive connection. Every request is POST /v1/jobs?wait_ms=...; each
// client sends cycles of PlanJob{}, LrtddftJob{}, PlanJob{} and
// BandStructureJob{} (the k-point path), each cycle in a seeded random
// order. HTTP handling, the Engine queue, JSON and small eigensolves
// (n = 137 and 179) do the work.

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "api/engine.hpp"
#include "api/request_json.hpp"
#include "common/prng.hpp"
#include "common/str_util.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace ndft;

constexpr std::size_t kClients = 4;
constexpr const char* kTarget = "/v1/jobs?wait_ms=60000";
constexpr double kClientTimeoutMs = 120000.0;

/// The three distinct requests, in the order of kKindNames.
constexpr const char* kKindNames[] = {"plan", "lrtddft", "band_structure"};
constexpr std::size_t kKinds = 3;
/// One client cycle, as indices into kKindNames (shuffled per client).
constexpr std::size_t kCycle[] = {0, 1, 0, 2};
constexpr std::size_t kCycleLength = 4;

api::JobRequest request_of(std::size_t kind) {
  switch (kind) {
    case 0: return api::PlanJob{};
    case 1: return api::LrtddftJob{};
    default: return api::BandStructureJob{};
  }
}

/// Engine, route table and loopback server; members are destroyed server
/// first, engine last.
struct Stack {
  std::unique_ptr<api::Engine> engine;
  std::unique_ptr<net::Service> service;
  std::unique_ptr<net::HttpServer> server;
};

/// One answered request.
struct Sample {
  std::size_t kind = 0;
  double latency_ms = 0.0;
  bool ok = false;
  api::JobTimings timings;
  std::uint32_t attempts = 1;
  bool degraded = false;
  Clock::time_point start, end;
};

/// Everything the clients share, read-only while they run.
struct Traffic {
  std::uint16_t port = 0;
  std::string bodies[kKinds];
  std::string payloads[kKinds];  ///< in-process serial results
};

/// Posts `kind` and checks the answer against the serial payload. Returns
/// the sample; counts it in `tally`.
Sample post_and_check(net::HttpClient& client, const Traffic& traffic,
                      std::size_t kind, Tally& tally) {
  Sample sample;
  sample.kind = kind;
  sample.start = Clock::now();
  net::HttpResponse response;
  std::string transport_error;
  try {
    response = client.post(kTarget, traffic.bodies[kind]);
  } catch (const NdftError& error) {
    transport_error = error.what();
  }
  sample.end = Clock::now();
  sample.latency_ms = ms_between(sample.start, sample.end);
  if (!transport_error.empty()) {
    tally.fail(strformat("%s: %s", kKindNames[kind], transport_error.c_str()),
               false);
    return sample;
  }
  if (response.status != 200) {
    tally.fail(strformat("%s: HTTP %d", kKindNames[kind], response.status),
               false);
    return sample;
  }
  try {
    const Json body = Json::parse(response.body);
    const api::JobResult result = api::JobResult::from_json(body);
    sample.timings = result.timings;
    sample.attempts = result.engine.attempts;
    sample.degraded = !result.degraded.empty();
    if (!result.ok()) {
      tally.fail(strformat("%s: status %s (%s)", kKindNames[kind],
                           api::to_string(result.status),
                           result.error_message.c_str()),
                 false);
    } else if (body.at("payload").dump() != traffic.payloads[kind]) {
      tally.fail(strformat("%s: payload differs from the in-process serial "
                           "run",
                           kKindNames[kind]),
                 true);
    } else {
      sample.ok = true;
      tally.pass();
    }
  } catch (const NdftError& error) {
    tally.fail(strformat("%s: unreadable 200 response: %s", kKindNames[kind],
                         error.what()),
               true);
  }
  return sample;
}

/// Builds the serving stack, records the serial reference payloads and
/// warms every request kind over HTTP once.
void set_up(Stack& stack, Traffic& traffic, SpanLog& spans,
            std::uint64_t setup_id, std::vector<double>& engine_overhead_ms) {
  stack.engine = std::make_unique<api::Engine>();
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    const api::JobRequest request = request_of(kind);
    traffic.bodies[kind] = api::job_request_to_json(request).dump();
    const Clock::time_point start = Clock::now();
    const api::JobResult result = stack.engine->run(request);
    const Clock::time_point end = Clock::now();
    if (!result.ok()) {
      throw NdftError(strformat("service-mix reference %s failed: %s",
                                kKindNames[kind],
                                result.error_message.c_str()));
    }
    traffic.payloads[kind] = result.to_json().at("payload").dump();
    engine_overhead_ms.push_back(ms_between(start, end) -
                                 result.timings.run_ms);
    spans.record("api", "Engine::run", start, end, spans.next_id(), setup_id,
                 0, timing_args(result));
  }
  net::ServiceConfig service_config;
  service_config.log = nullptr;
  stack.service = std::make_unique<net::Service>(*stack.engine, service_config);
  net::Service* service = stack.service.get();
  stack.server = std::make_unique<net::HttpServer>(
      net::ServerConfig{}, [service](const net::HttpRequest& request) {
        return service->handle(request);
      });
  stack.server->start();
  traffic.port = stack.server->port();

  net::HttpClient client("127.0.0.1", traffic.port, kClientTimeoutMs);
  Tally warm_tally;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    if (!post_and_check(client, traffic, kind, warm_tally).ok) {
      throw NdftError(strformat("service-mix warm-up %s failed",
                                kKindNames[kind]));
    }
  }
}

/// A fresh random order of one cycle. Reshuffling every cycle keeps the
/// clients from locking into one phase pattern, which would make the
/// latency mix depend on the seed.
void shuffled_cycle(Prng& rng, std::size_t (&cycle)[kCycleLength]) {
  std::copy(kCycle, kCycle + kCycleLength, cycle);
  for (std::size_t i = kCycleLength - 1; i > 0; --i) {
    std::swap(cycle[i], cycle[rng.next_below(i + 1)]);
  }
}

/// One closed-loop phase: every client posts until `deadline` and at least
/// one full cycle, drawing its order from orders[client]. Returns the
/// samples and the phase's wall seconds.
std::pair<std::vector<Sample>, double> drive(const Traffic& traffic,
                                             std::vector<Prng>& orders,
                                             Clock::time_point deadline,
                                             bool traced, SpanLog& spans,
                                             Tally& tally) {
  std::vector<std::vector<Sample>> per_client(kClients);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        net::HttpClient client("127.0.0.1", traffic.port, kClientTimeoutMs);
        std::size_t cycle[kCycleLength];
        for (std::size_t i = 0; i < kCycleLength || Clock::now() < deadline;
             ++i) {
          if (i % kCycleLength == 0) shuffled_cycle(orders[c], cycle);
          const std::size_t kind = cycle[i % kCycleLength];
          const Sample sample = post_and_check(client, traffic, kind, tally);
          if (traced) {
            Json args = Json::object();
            args.set("kind", kKindNames[kind]);
            args.set("ok", sample.ok);
            args.set("queue_ms", sample.timings.queue_ms);
            args.set("run_ms", sample.timings.run_ms);
            args.set("total_ms", sample.timings.total_ms);
            spans.record("net", "HttpClient::post", sample.start, sample.end,
                         spans.next_id(), 0, static_cast<unsigned>(c + 1),
                         std::move(args));
          }
          per_client[c].push_back(sample);
        }
      } catch (const std::exception& error) {
        tally.fail(strformat("client %zu stopped: %s", c, error.what()),
                   false);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::vector<Sample> samples;
  Clock::time_point last = start;
  for (const auto& client_samples : per_client) {
    for (const Sample& sample : client_samples) {
      samples.push_back(sample);
      if (sample.end > last) last = sample.end;
    }
  }
  return {std::move(samples), ms_between(start, last) * 1e-3};
}

std::vector<double> latencies(const std::vector<Sample>& samples,
                              std::size_t kind = kKinds) {
  std::vector<double> out;
  for (const Sample& sample : samples) {
    if (kind == kKinds || sample.kind == kind) out.push_back(sample.latency_ms);
  }
  return out;
}

}  // namespace

RunReport run_service_mix(const Options& opts, SpanLog& spans, Tally& tally,
                          std::vector<double>& setup_s) {
  Stack stack;
  Traffic traffic;
  std::vector<double> engine_overhead_ms;
  for (int i = 0; i < kSetups; ++i) {
    stack.server.reset();
    stack.service.reset();
    stack.engine.reset();
    const std::uint64_t setup_id = spans.next_id();
    const Clock::time_point start = Clock::now();
    set_up(stack, traffic, spans, setup_id, engine_overhead_ms);
    const Clock::time_point end = Clock::now();
    setup_s.push_back(ms_between(start, end) * 1e-3);
    spans.record("bench", "setup", start, end, setup_id, 0, 0);
  }

  // The seed fixes each client's request order; the requests themselves
  // are fixed.
  std::vector<Prng> orders;
  for (std::size_t c = 0; c < kClients; ++c) {
    orders.emplace_back(opts.seed * kClients + c);
  }

  const Clock::time_point start = Clock::now();
  const auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  RunReport report;
  if (!opts.traced) {
    const auto [samples, wall_s] =
        drive(traffic, orders, at(opts.seconds), false, spans, tally);
    report.op_a_s = median(latencies(samples, 0)) * 1e-3;
    report.op_b_s = median(latencies(samples, 1)) * 1e-3;
    report.ops_per_s = static_cast<double>(samples.size()) / wall_s;
    return report;
  }

  const auto untraced =
      drive(traffic, orders, at(opts.seconds / 2), false, spans, tally).first;
  const auto traced =
      drive(traffic, orders, at(opts.seconds), true, spans, tally).first;
  OverheadSamples overhead;
  std::vector<double> http_overhead_ms;
  std::vector<double> queue_ms[kKinds], run_ms[kKinds];
  double retries = 0.0, degraded = 0.0;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    overhead.untraced[kKindNames[kind]] = latencies(untraced, kind);
    overhead.traced[kKindNames[kind]] = latencies(traced, kind);
  }
  for (const Sample& sample : traced) {
    if (!sample.ok) continue;
    http_overhead_ms.push_back(sample.latency_ms - sample.timings.total_ms);
    queue_ms[sample.kind].push_back(sample.timings.queue_ms);
    run_ms[sample.kind].push_back(sample.timings.run_ms);
    retries += sample.attempts - 1.0;
    degraded += sample.degraded ? 1.0 : 0.0;
  }
  auto& layer = report.per_layer;
  for (std::size_t kind = 0; kind < kKinds; ++kind) {
    const std::string name = kKindNames[kind];
    layer["api.engine.queue_p50_ms." + name] = percentile(queue_ms[kind], 0.50);
    layer["api.engine.queue_p99_ms." + name] = percentile(queue_ms[kind], 0.99);
  }
  layer["runtime.plan_run_ms"] = median(run_ms[0]);
  layer["api.engine.run_ms.lrtddft"] = median(run_ms[1]);
  layer["api.engine.run_ms.band_structure"] = median(run_ms[2]);
  layer["net.http_overhead_ms"] = median(http_overhead_ms);
  layer["api.engine.overhead_ms"] = median(engine_overhead_ms);
  layer["api.engine.retries"] = retries;
  layer["api.engine.degraded"] = degraded;
  layer["bench.tracing_overhead_pct"] = overhead.pct();
  return report;
}

}  // namespace perfbench
