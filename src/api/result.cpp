#include "api/result.hpp"

#include <cstring>
#include <iterator>

#include "common/str_util.hpp"

namespace ndft::api {
namespace {

constexpr const char* kSchema = "ndft.job_result.v1";

// ---- enum <-> string maps. Serialization reuses the human-readable
// names the reports already print, so JSON and text output agree.

KernelClass kernel_class_from(const std::string& name) {
  for (const KernelClass cls :
       {KernelClass::kFft, KernelClass::kFaceSplit, KernelClass::kGemm,
        KernelClass::kSyevd, KernelClass::kPseudopotential,
        KernelClass::kAlltoall, KernelClass::kOther}) {
    if (name == to_string(cls)) return cls;
  }
  throw NdftError("unknown kernel class: " + name);
}

DeviceKind device_from(const std::string& name) {
  for (const DeviceKind device :
       {DeviceKind::kCpu, DeviceKind::kNdp, DeviceKind::kGpu}) {
    if (name == to_string(device)) return device;
  }
  throw NdftError("unknown device: " + name);
}

core::ExecMode exec_mode_from(const std::string& name) {
  for (const core::ExecMode mode :
       {core::ExecMode::kCpuBaseline, core::ExecMode::kGpuBaseline,
        core::ExecMode::kNdpOnly, core::ExecMode::kNdft}) {
    if (name == core::to_string(mode)) return mode;
  }
  throw NdftError("unknown execution mode: " + name);
}

const char* granularity_name(runtime::Granularity granularity) {
  switch (granularity) {
    case runtime::Granularity::kInstruction: return "instruction";
    case runtime::Granularity::kBasicBlock: return "block";
    case runtime::Granularity::kFunction: return "function";
    case runtime::Granularity::kKernel: return "kernel";
  }
  return "?";
}

runtime::Granularity granularity_from(const std::string& name) {
  for (const runtime::Granularity g :
       {runtime::Granularity::kInstruction, runtime::Granularity::kBasicBlock,
        runtime::Granularity::kFunction, runtime::Granularity::kKernel}) {
    if (name == granularity_name(g)) return g;
  }
  throw NdftError("unknown granularity: " + name);
}

// ---- exhaustive enum name tables. The static_asserts tie the table
// length to the kCount_ sentinel, so adding an enumerator without a
// serialized name fails the build instead of silently printing "?" or
// breaking JSON round trips.

constexpr const char* kJobStatusNames[] = {
    "queued", "running", "ok", "invalid", "failed", "cancelled",
    "deadline_exceeded",
};
static_assert(std::size(kJobStatusNames) ==
                  static_cast<std::size_t>(JobStatus::kCount_),
              "every JobStatus enumerator needs a serialized name");

constexpr const char* kErrorKindNames[] = {
    "none", "invalid_request", "physics", "internal", "cancelled",
    "deadline_exceeded", "transient_resource", "transient_device",
};
static_assert(std::size(kErrorKindNames) ==
                  static_cast<std::size_t>(ErrorKind::kCount_),
              "every ErrorKind enumerator needs a serialized name");

// ---- small array helpers.

Json doubles_to_json(const std::vector<double>& values) {
  Json array = Json::array();
  for (const double v : values) array.push_back(v);
  return array;
}

std::vector<double> doubles_from_json(const Json& json) {
  std::vector<double> out;
  out.reserve(json.size());
  for (const Json& v : json.items()) out.push_back(v.as_double());
  return out;
}

// ---- payload serializers.

Json to_json(const ScfPayload& p) {
  Json j = Json::object();
  j.set("atoms", p.atoms);
  j.set("basis_size", p.basis_size);
  j.set("grid_points", p.grid_points);
  j.set("converged", p.converged);
  j.set("iterations", p.iterations);
  j.set("total_energy_ha", p.total_energy_ha);
  j.set("gap_ev", p.gap_ev);
  j.set("final_residual", p.final_residual);
  j.set("electron_count", p.electron_count);
  j.set("mixing_resets", p.mixing_resets);
  j.set("residual_history", doubles_to_json(p.residual_history));
  j.set("energy_history", doubles_to_json(p.energy_history));
  return j;
}

ScfPayload scf_from_json(const Json& j) {
  ScfPayload p;
  p.atoms = j.at("atoms").as_uint();
  p.basis_size = j.at("basis_size").as_uint();
  p.grid_points = j.at("grid_points").as_uint();
  p.converged = j.at("converged").as_bool();
  p.iterations = j.at("iterations").as_uint();
  p.total_energy_ha = j.at("total_energy_ha").as_double();
  p.gap_ev = j.at("gap_ev").as_double();
  p.final_residual = j.at("final_residual").as_double();
  p.electron_count = j.at("electron_count").as_double();
  if (const Json* resets = j.find("mixing_resets")) {
    p.mixing_resets = resets->as_uint();
  }
  p.residual_history = doubles_from_json(j.at("residual_history"));
  p.energy_history = doubles_from_json(j.at("energy_history"));
  return p;
}

Json to_json(const BandStructurePayload& p) {
  Json j = Json::object();
  j.set("basis_size", p.basis_size);
  Json path = Json::array();
  for (const BandsAtKPayload& at_k : p.path) {
    Json point = Json::object();
    point.set("label", at_k.label);
    point.set("energies_ha", doubles_to_json(at_k.energies_ha));
    point.set("weight", at_k.weight);
    // Additive since the scatter/gather layer (%.17g coordinates
    // round-trip bitwise, so merged and direct payloads stay comparable).
    Json coords = Json::array();
    for (const double c : at_k.k) coords.push_back(c);
    point.set("k", std::move(coords));
    path.push_back(std::move(point));
  }
  j.set("path", std::move(path));
  j.set("vbm_ha", p.vbm_ha);
  j.set("cbm_ha", p.cbm_ha);
  j.set("vbm_label", p.vbm_label);
  j.set("cbm_label", p.cbm_label);
  j.set("indirect_gap_ev", p.indirect_gap_ev);
  j.set("direct_gap_gamma_ev", p.direct_gap_gamma_ev);
  // Additive since the generalized (crystal + Monkhorst-Pack) job;
  // appended so older documents differ only by absent keys.
  j.set("atoms", p.atoms);
  j.set("sampling", p.sampling);
  j.set("band_energy_ha", p.band_energy_ha);
  j.set("weight_sum", p.weight_sum);
  return j;
}

BandStructurePayload bands_from_json(const Json& j) {
  BandStructurePayload p;
  p.basis_size = j.at("basis_size").as_uint();
  for (const Json& point : j.at("path").items()) {
    BandsAtKPayload at_k;
    at_k.label = point.at("label").as_string();
    at_k.energies_ha = doubles_from_json(point.at("energies_ha"));
    // Additive: unit weight in pre-grid documents.
    if (const Json* weight = point.find("weight")) {
      at_k.weight = weight->as_double();
    }
    // Additive: zero coordinates in pre-sharding documents.
    if (const Json* coords = point.find("k")) {
      NDFT_REQUIRE(coords->size() == 3, "point 'k' needs 3 coordinates");
      for (std::size_t i = 0; i < 3; ++i) {
        at_k.k[i] = (*coords)[i].as_double();
      }
    }
    p.path.push_back(std::move(at_k));
  }
  p.vbm_ha = j.at("vbm_ha").as_double();
  p.cbm_ha = j.at("cbm_ha").as_double();
  p.vbm_label = j.at("vbm_label").as_string();
  p.cbm_label = j.at("cbm_label").as_string();
  p.indirect_gap_ev = j.at("indirect_gap_ev").as_double();
  p.direct_gap_gamma_ev = j.at("direct_gap_gamma_ev").as_double();
  // Additive members: absent in documents emitted before the
  // generalized job; defaults keep them deserializable.
  if (const Json* atoms = j.find("atoms")) {
    p.atoms = atoms->as_uint();
  }
  if (const Json* sampling = j.find("sampling")) {
    p.sampling = sampling->as_string();
  }
  if (const Json* band_energy = j.find("band_energy_ha")) {
    p.band_energy_ha = band_energy->as_double();
  }
  if (const Json* weight_sum = j.find("weight_sum")) {
    p.weight_sum = weight_sum->as_double();
  }
  return p;
}

Json to_json(const LrtddftPayload& p) {
  Json j = Json::object();
  j.set("atoms", p.atoms);
  j.set("basis_size", p.basis_size);
  Json dims = Json::array();
  for (const std::size_t d : p.grid_dims) dims.push_back(d);
  j.set("grid_dims", std::move(dims));
  j.set("ground_gap_ev", p.ground_gap_ev);
  j.set("valence_bands", p.valence_bands);
  j.set("projector_count", p.projector_count);
  j.set("nonlocal_expectation_ha", p.nonlocal_expectation_ha);
  j.set("pair_count", p.pair_count);
  j.set("excitations_ha", doubles_to_json(p.excitations_ha));
  Json counts = Json::array();
  for (const KernelCountPayload& count : p.counts) {
    Json entry = Json::object();
    entry.set("class", to_string(count.cls));
    entry.set("flops", count.flops);
    entry.set("bytes", count.bytes);
    counts.push_back(std::move(entry));
  }
  j.set("counts", std::move(counts));
  Json lines = Json::array();
  for (const OscillatorLinePayload& line : p.lines) {
    Json entry = Json::object();
    entry.set("energy_ev", line.energy_ev);
    entry.set("strength", line.strength);
    lines.push_back(std::move(entry));
  }
  j.set("lines", std::move(lines));
  return j;
}

LrtddftPayload lrtddft_from_json(const Json& j) {
  LrtddftPayload p;
  p.atoms = j.at("atoms").as_uint();
  p.basis_size = j.at("basis_size").as_uint();
  const Json& dims = j.at("grid_dims");
  NDFT_REQUIRE(dims.size() == 3, "grid_dims must have 3 entries");
  for (std::size_t i = 0; i < 3; ++i) p.grid_dims[i] = dims[i].as_uint();
  p.ground_gap_ev = j.at("ground_gap_ev").as_double();
  p.valence_bands = j.at("valence_bands").as_uint();
  p.projector_count = j.at("projector_count").as_uint();
  p.nonlocal_expectation_ha = j.at("nonlocal_expectation_ha").as_double();
  p.pair_count = j.at("pair_count").as_uint();
  p.excitations_ha = doubles_from_json(j.at("excitations_ha"));
  for (const Json& entry : j.at("counts").items()) {
    KernelCountPayload count;
    count.cls = kernel_class_from(entry.at("class").as_string());
    count.flops = entry.at("flops").as_uint();
    count.bytes = entry.at("bytes").as_uint();
    p.counts.push_back(count);
  }
  for (const Json& entry : j.at("lines").items()) {
    OscillatorLinePayload line;
    line.energy_ev = entry.at("energy_ev").as_double();
    line.strength = entry.at("strength").as_double();
    p.lines.push_back(line);
  }
  return p;
}

Json to_json(const SimulatePayload& p) {
  Json j = Json::object();
  j.set("mode", core::to_string(p.mode));
  j.set("atoms", p.atoms);
  j.set("pairs", p.pairs);
  j.set("grid_points", p.grid_points);
  j.set("basis_size", p.basis_size);
  Json kernels = Json::array();
  for (const core::KernelTime& k : p.kernels) {
    Json entry = Json::object();
    entry.set("name", k.name);
    entry.set("class", to_string(k.cls));
    entry.set("device", to_string(k.device));
    entry.set("time_ps", k.time_ps);
    kernels.push_back(std::move(entry));
  }
  j.set("kernels", std::move(kernels));
  j.set("total_ps", p.total_ps);
  j.set("sched_overhead_ps", p.sched_overhead_ps);
  j.set("memory_energy_mj", p.memory_energy_mj);
  j.set("mesh_bytes", p.mesh_bytes);
  j.set("sharing_bytes", p.sharing_bytes);
  Json pseudo = Json::object();
  pseudo.set("total", p.pseudo_total);
  pseudo.set("per_process", p.pseudo_per_process);
  pseudo.set("capacity", p.pseudo_capacity);
  pseudo.set("out_of_memory", p.pseudo_oom);
  j.set("pseudo", std::move(pseudo));
  // Additive: omitted entirely when empty so pre-fabric documents and
  // their byte-exact round-trips are unchanged.
  if (!p.stats.empty()) {
    Json stats = Json::object();
    for (const auto& [name, value] : p.stats) stats.set(name, value);
    j.set("stats", std::move(stats));
  }
  if (p.events != 0) j.set("events", p.events);
  return j;
}

SimulatePayload simulate_from_json(const Json& j) {
  SimulatePayload p;
  p.mode = exec_mode_from(j.at("mode").as_string());
  p.atoms = j.at("atoms").as_uint();
  p.pairs = j.at("pairs").as_uint();
  p.grid_points = j.at("grid_points").as_uint();
  p.basis_size = j.at("basis_size").as_uint();
  for (const Json& entry : j.at("kernels").items()) {
    core::KernelTime k;
    k.name = entry.at("name").as_string();
    k.cls = kernel_class_from(entry.at("class").as_string());
    k.device = device_from(entry.at("device").as_string());
    k.time_ps = entry.at("time_ps").as_uint();
    p.kernels.push_back(std::move(k));
  }
  p.total_ps = j.at("total_ps").as_uint();
  p.sched_overhead_ps = j.at("sched_overhead_ps").as_uint();
  p.memory_energy_mj = j.at("memory_energy_mj").as_double();
  p.mesh_bytes = j.at("mesh_bytes").as_uint();
  p.sharing_bytes = j.at("sharing_bytes").as_uint();
  const Json& pseudo = j.at("pseudo");
  p.pseudo_total = pseudo.at("total").as_uint();
  p.pseudo_per_process = pseudo.at("per_process").as_uint();
  p.pseudo_capacity = pseudo.at("capacity").as_uint();
  p.pseudo_oom = pseudo.at("out_of_memory").as_bool();
  if (const Json* stats = j.find("stats")) {
    for (const auto& [name, value] : stats->members()) {
      p.stats[name] = value.as_double();
    }
  }
  if (const Json* events = j.find("events")) p.events = events->as_uint();
  return p;
}

Json to_json(const PlanPayload& p) {
  Json j = Json::object();
  j.set("atoms", p.atoms);
  j.set("granularity", granularity_name(p.granularity));
  Json placements = Json::array();
  for (const PlacementPayload& placement : p.placements) {
    Json entry = Json::object();
    entry.set("kernel", placement.kernel);
    entry.set("class", to_string(placement.cls));
    entry.set("device", to_string(placement.device));
    entry.set("crossing", placement.crossing);
    entry.set("est_time_ps", placement.est_time_ps);
    entry.set("transfer_in_ps", placement.transfer_in_ps);
    entry.set("switch_in_ps", placement.switch_in_ps);
    entry.set("arithmetic_intensity", placement.arithmetic_intensity);
    entry.set("est_cpu_ps", placement.est_cpu_ps);
    entry.set("est_ndp_ps", placement.est_ndp_ps);
    placements.push_back(std::move(entry));
  }
  j.set("placements", std::move(placements));
  j.set("est_total_ps", p.est_total_ps);
  j.set("est_overhead_ps", p.est_overhead_ps);
  j.set("crossings", p.crossings);
  // Additive: omitted when false so older documents round-trip unchanged.
  if (p.used_stored_profile) j.set("used_stored_profile", true);
  return j;
}

PlanPayload plan_from_json(const Json& j) {
  PlanPayload p;
  p.atoms = j.at("atoms").as_uint();
  p.granularity = granularity_from(j.at("granularity").as_string());
  for (const Json& entry : j.at("placements").items()) {
    PlacementPayload placement;
    placement.kernel = entry.at("kernel").as_string();
    placement.cls = kernel_class_from(entry.at("class").as_string());
    placement.device = device_from(entry.at("device").as_string());
    placement.crossing = entry.at("crossing").as_bool();
    placement.est_time_ps = entry.at("est_time_ps").as_uint();
    placement.transfer_in_ps = entry.at("transfer_in_ps").as_uint();
    placement.switch_in_ps = entry.at("switch_in_ps").as_uint();
    placement.arithmetic_intensity =
        entry.at("arithmetic_intensity").as_double();
    placement.est_cpu_ps = entry.at("est_cpu_ps").as_uint();
    placement.est_ndp_ps = entry.at("est_ndp_ps").as_uint();
    p.placements.push_back(std::move(placement));
  }
  p.est_total_ps = j.at("est_total_ps").as_uint();
  p.est_overhead_ps = j.at("est_overhead_ps").as_uint();
  p.crossings = static_cast<unsigned>(j.at("crossings").as_uint());
  if (const Json* used = j.find("used_stored_profile")) {
    p.used_stored_profile = used->as_bool();
  }
  return p;
}

Json to_json(const CalibrationPayload& p) {
  Json j = Json::object();
  j.set("calibrated", p.calibrated);
  j.set("peak_gflops", p.peak_gflops);
  j.set("dram_gbps", p.dram_gbps);
  j.set("blocked_efficiency", p.blocked_efficiency);
  j.set("max_ratio", p.max_ratio);
  j.set("fitted_events", p.fitted_events);
  j.set("fitted_ms", p.fitted_ms);
  return j;
}

CalibrationPayload calibration_from_json(const Json& j) {
  CalibrationPayload p;
  p.calibrated = j.at("calibrated").as_bool();
  p.peak_gflops = j.at("peak_gflops").as_double();
  p.dram_gbps = j.at("dram_gbps").as_double();
  p.blocked_efficiency = j.at("blocked_efficiency").as_double();
  p.max_ratio = j.at("max_ratio").as_double();
  p.fitted_events = j.at("fitted_events").as_uint();
  p.fitted_ms = j.at("fitted_ms").as_double();
  return p;
}

Json to_json(const CoDesignPayload& p) {
  Json j = Json::object();
  j.set("trace_events", p.trace_events);
  j.set("trace_atoms", p.trace_atoms);
  j.set("trace_flops", p.trace_flops);
  j.set("trace_bytes", p.trace_bytes);
  j.set("trace_host_ms", p.trace_host_ms);
  j.set("trace_truncated", p.trace_truncated);
  j.set("calibration", to_json(p.calibration));
  j.set("plan", to_json(p.plan));
  j.set("simulate", p.simulate ? to_json(*p.simulate) : Json());
  return j;
}

CoDesignPayload codesign_from_json(const Json& j) {
  CoDesignPayload p;
  p.trace_events = j.at("trace_events").as_uint();
  p.trace_atoms = j.at("trace_atoms").as_uint();
  p.trace_flops = j.at("trace_flops").as_uint();
  p.trace_bytes = j.at("trace_bytes").as_uint();
  p.trace_host_ms = j.at("trace_host_ms").as_double();
  p.trace_truncated = j.at("trace_truncated").as_bool();
  p.calibration = calibration_from_json(j.at("calibration"));
  p.plan = plan_from_json(j.at("plan"));
  const Json& simulate = j.at("simulate");
  if (!simulate.is_null()) {
    p.simulate = simulate_from_json(simulate);
  }
  return p;
}

}  // namespace

const char* to_string(JobStatus status) noexcept {
  const auto index = static_cast<std::size_t>(status);
  return index < std::size(kJobStatusNames) ? kJobStatusNames[index] : "?";
}

const char* to_string(ErrorKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(kErrorKindNames) ? kErrorKindNames[index] : "?";
}

JobStatus job_status_from_string(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kJobStatusNames); ++i) {
    if (name == kJobStatusNames[i]) return static_cast<JobStatus>(i);
  }
  throw NdftError("unknown job status: " + name);
}

ErrorKind error_kind_from_string(const std::string& name) {
  for (std::size_t i = 0; i < std::size(kErrorKindNames); ++i) {
    if (name == kErrorKindNames[i]) return static_cast<ErrorKind>(i);
  }
  throw NdftError("unknown error kind: " + name);
}

bool is_transient(ErrorKind kind) noexcept {
  return kind == ErrorKind::kTransientResource ||
         kind == ErrorKind::kTransientDevice;
}

Json JobResult::to_json() const {
  Json j = Json::object();
  j.set("schema", kSchema);
  j.set("kind", engine.kind);
  j.set("status", to_string(status));

  Json error_json = Json::object();
  error_json.set("kind", to_string(error));
  error_json.set("message", error_message);
  Json details = Json::array();
  for (const std::string& detail : error_details) details.push_back(detail);
  error_json.set("details", std::move(details));
  j.set("error", std::move(error_json));

  Json timings_json = Json::object();
  timings_json.set("queue_ms", timings.queue_ms);
  timings_json.set("run_ms", timings.run_ms);
  timings_json.set("total_ms", timings.total_ms);
  timings_json.set("linalg_ms", timings.linalg_ms);
  timings_json.set("backoff_ms", timings.backoff_ms);
  timings_json.set("reduce_ms", timings.reduce_ms);
  timings_json.set("tridiag_ms", timings.tridiag_ms);
  timings_json.set("backtransform_ms", timings.backtransform_ms);
  j.set("timings", std::move(timings_json));

  Json engine_json = Json::object();
  engine_json.set("job_id", engine.job_id);
  engine_json.set("pool_threads", engine.pool_threads);
  engine_json.set("dispatch_threads", engine.dispatch_threads);
  engine_json.set("exec_seq", engine.exec_seq);
  engine_json.set("attempts", engine.attempts);
  j.set("engine", std::move(engine_json));

  // Additive since the robustness layer: how (if at all) the run was
  // degraded to still succeed.
  Json degraded_json = Json::array();
  for (const std::string& note : degraded) degraded_json.push_back(note);
  j.set("degraded", std::move(degraded_json));

  Json payload = Json();  // null unless a payload is engaged
  if (scf) payload = api::to_json(*scf);
  else if (band_structure) payload = api::to_json(*band_structure);
  else if (lrtddft) payload = api::to_json(*lrtddft);
  else if (simulate) payload = api::to_json(*simulate);
  else if (plan) payload = api::to_json(*plan);
  else if (codesign) payload = api::to_json(*codesign);
  j.set("payload", std::move(payload));
  // Additive since the schema's first emission: the recorded kernel
  // trace rides along when the request asked for one.
  j.set("trace", trace ? trace->to_json() : Json());
  // Additive since the scatter/gather layer: fan-out accounting when a
  // ShardedEngine executed the job (null for plain Engine results).
  if (shard) {
    Json shard_json = Json::object();
    shard_json.set("backends", shard->backends);
    shard_json.set("shards", shard->shards);
    shard_json.set("rerouted", shard->rerouted);
    shard_json.set("failed_backends", shard->failed_backends);
    j.set("shard", std::move(shard_json));
  } else {
    j.set("shard", Json());
  }
  return j;
}

JobResult JobResult::from_json(const Json& json) {
  NDFT_REQUIRE(json.is_object(), "job result must be a JSON object");
  const std::string schema = json.at("schema").as_string();
  NDFT_REQUIRE(schema == kSchema,
               ("unsupported schema: " + schema).c_str());

  JobResult result;
  result.engine.kind = json.at("kind").as_string();
  result.status = job_status_from_string(json.at("status").as_string());

  const Json& error_json = json.at("error");
  result.error = error_kind_from_string(error_json.at("kind").as_string());
  result.error_message = error_json.at("message").as_string();
  for (const Json& detail : error_json.at("details").items()) {
    result.error_details.push_back(detail.as_string());
  }

  const Json& timings_json = json.at("timings");
  result.timings.queue_ms = timings_json.at("queue_ms").as_double();
  result.timings.run_ms = timings_json.at("run_ms").as_double();
  result.timings.total_ms = timings_json.at("total_ms").as_double();
  // Additive telemetry introduced after v1 results were first emitted:
  // absent in older documents, default 0 keeps them deserializable.
  if (const Json* linalg = timings_json.find("linalg_ms")) {
    result.timings.linalg_ms = linalg->as_double();
  }
  if (const Json* backoff = timings_json.find("backoff_ms")) {
    result.timings.backoff_ms = backoff->as_double();
  }
  if (const Json* reduce = timings_json.find("reduce_ms")) {
    result.timings.reduce_ms = reduce->as_double();
  }
  if (const Json* tridiag = timings_json.find("tridiag_ms")) {
    result.timings.tridiag_ms = tridiag->as_double();
  }
  if (const Json* back = timings_json.find("backtransform_ms")) {
    result.timings.backtransform_ms = back->as_double();
  }

  const Json& engine_json = json.at("engine");
  result.engine.job_id = engine_json.at("job_id").as_uint();
  result.engine.pool_threads = engine_json.at("pool_threads").as_uint();
  result.engine.dispatch_threads =
      engine_json.at("dispatch_threads").as_uint();
  // Additive since the cost-aware queue; absent in older documents.
  if (const Json* seq = engine_json.find("exec_seq")) {
    result.engine.exec_seq = seq->as_uint();
  }
  // Additive since the retry loop; absent in older documents.
  if (const Json* attempts = engine_json.find("attempts")) {
    result.engine.attempts =
        static_cast<std::uint32_t>(attempts->as_uint());
  }
  if (const Json* degraded_json = json.find("degraded")) {
    for (const Json& note : degraded_json->items()) {
      result.degraded.push_back(note.as_string());
    }
  }

  const Json& payload = json.at("payload");
  if (!payload.is_null()) {
    const std::string& kind = result.engine.kind;
    if (kind == "scf") result.scf = scf_from_json(payload);
    else if (kind == "band_structure")
      result.band_structure = bands_from_json(payload);
    else if (kind == "lrtddft") result.lrtddft = lrtddft_from_json(payload);
    else if (kind == "simulate")
      result.simulate = simulate_from_json(payload);
    else if (kind == "plan") result.plan = plan_from_json(payload);
    else if (kind == "codesign")
      result.codesign = codesign_from_json(payload);
    else throw NdftError("unknown payload kind: " + kind);
  }
  // Absent in documents emitted before traces existed; null when the
  // request did not record one.
  if (const Json* trace_json = json.find("trace")) {
    if (!trace_json->is_null()) {
      result.trace = KernelTrace::from_json(*trace_json);
    }
  }
  // Absent in pre-sharding documents; null for plain Engine results.
  if (const Json* shard_json = json.find("shard")) {
    if (!shard_json->is_null()) {
      ShardInfo info;
      info.backends = shard_json->at("backends").as_uint();
      info.shards = shard_json->at("shards").as_uint();
      info.rerouted = shard_json->at("rerouted").as_uint();
      info.failed_backends = shard_json->at("failed_backends").as_uint();
      result.shard = info;
    }
  }
  return result;
}

}  // namespace ndft::api
