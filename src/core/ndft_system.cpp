#include "core/ndft_system.hpp"

#include <algorithm>
#include <cmath>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "cpu/trace_gen.hpp"
#include "mem/energy.hpp"
#include "runtime/pseudo_store.hpp"
#include "runtime/sca.hpp"

namespace ndft::core {
namespace {

/// Fraction of a kernel's instruction-level traffic that is stores.
double write_fraction(KernelClass cls) {
  switch (cls) {
    case KernelClass::kFaceSplit: return 32.0 / 112.0;
    case KernelClass::kAlltoall: return 0.5;
    case KernelClass::kFft: return 0.5;
    case KernelClass::kGemm: return 0.05;
    case KernelClass::kPseudopotential: return 0.1;
    case KernelClass::kSyevd: return 0.3;
    case KernelClass::kOther: return 0.25;
  }
  return 0.25;
}

/// Per-run mutable state. One RunArena lives on the stack of each run_*
/// call, which is what makes NdftSystem safe to share across concurrent
/// jobs: nothing a run writes outlives or escapes it.
struct RunArena {
  Addr next_base = 0;  ///< simulated-address cursor for trace placement
};

/// Builds one trace per core for a kernel, splitting work evenly. All
/// traces share the same sampling scale. The arena cursor advances past
/// the data. `llc_share` is the per-core slice of the machine's last-level
/// cache and `reuse_floor` the smallest footprint that still reuses at LLC
/// distance (i.e. just above the private levels).
std::vector<cpu::Trace> make_traces(const dft::KernelWork& kernel,
                                    unsigned cores, RunArena& arena,
                                    const SystemConfig& config,
                                    Bytes block_bytes, Bytes llc_share,
                                    Bytes reuse_floor) {
  NDFT_ASSERT(cores > 0);
  const double wf = write_fraction(kernel.cls);
  const Bytes l1_per_core = std::max<Bytes>(kernel.l1_bytes / cores, 64);
  const auto writes = static_cast<Bytes>(static_cast<double>(l1_per_core) *
                                         wf);
  const Bytes reads = l1_per_core - writes;
  // Streaming kernels revisit their live buffers (input + output), the
  // way the real code makes multiple passes over P; blocked kernels use
  // the analytic panel-traffic volume as their sweep footprint — unless
  // the whole matrix is LLC-resident, in which case the only DRAM
  // traffic is the matrix itself. Using traffic volume as the address
  // footprint for streams would sprawl past physical memory and alias
  // DRAM rows unphysically.
  const Bytes live = kernel.input_bytes + kernel.output_bytes;
  Bytes footprint = kernel.dram_bytes;
  if (kernel.pattern != AccessPattern::kBlocked) {
    if (live > 0) {
      footprint = std::min<Bytes>(footprint, live);
    }
  } else if (live > 0 && live <= llc_share * cores) {
    footprint = live;  // LLC-resident panels: stream the matrix once
  }
  Bytes ws = std::max<Bytes>(footprint / cores, 4096);
  std::size_t ops =
      std::clamp(config.sampled_ops_per_kernel / cores,
                 config.min_ops_per_core, config.max_ops_per_core);

  // A blocked kernel's sample must cover at least one full reuse cycle
  // of the physical tile; with fewer ops the trace generator shrinks the
  // tile to fit the window, which moves its reuse hits into a faster
  // cache level than the real tile can reach (a 128 KiB panel reused
  // from L2 would sample as L1-resident and report an optimistic time).
  // Grow the window instead of letting the tile shrink.
  if (kernel.pattern == AccessPattern::kBlocked) {
    const Bytes block = std::min<Bytes>(std::max<Bytes>(block_bytes, 64),
                                        std::max<Bytes>(ws, 64));
    const std::uint64_t reuse =
        std::max<std::uint64_t>(l1_per_core / std::max<Bytes>(ws, 1), 1);
    const auto cycle_ops =
        static_cast<std::size_t>(reuse * std::max<Bytes>(block / 64, 1));
    ops = std::max(ops, std::min(cycle_ops, config.max_ops_per_core));
  }

  // Sampling-window correction: when the real execution makes several
  // passes over an LLC-resident footprint but the sampled window is
  // shorter than one pass, the sample would look all-cold and
  // misrepresent a cache-friendly kernel as DRAM-bound. Shrink the
  // footprint so the window observes the same number of passes, keeping
  // the reuse distance above the private levels (reuse_floor) so hits
  // come from the correct cache level.
  const Bytes sampled_bytes = static_cast<Bytes>(ops) * 64;
  const std::uint64_t passes =
      std::max<std::uint64_t>(l1_per_core / std::max<Bytes>(ws, 1), 1);
  if (passes > 1 && ws <= llc_share && ws > sampled_bytes) {
    ws = std::max<Bytes>(sampled_bytes / passes, reuse_floor);
    ws = std::max<Bytes>(ws, 4096);
  }
  const Bytes ws_aligned = (ws + 4095) / 4096 * 4096;

  std::vector<cpu::Trace> traces;
  traces.reserve(cores);
  for (unsigned c = 0; c < cores; ++c) {
    cpu::TraceParams params;
    params.flops = kernel.flops / cores;
    params.bytes_read = reads;
    params.bytes_written = writes;
    params.pattern = kernel.pattern;
    params.working_set = ws;
    params.stride_bytes = kernel.stride_bytes;
    params.base_addr = arena.next_base + static_cast<Addr>(c) * ws_aligned;
    params.seed = 0x5eed0000 + c;
    params.max_mem_ops = ops;
    params.block_bytes = block_bytes;
    traces.push_back(cpu::generate_trace(params));
  }
  arena.next_base += static_cast<Addr>(cores) * ws_aligned;
  return traces;
}

std::vector<const cpu::Trace*> pointers(
    const std::vector<cpu::Trace>& traces) {
  std::vector<const cpu::Trace*> ptrs;
  ptrs.reserve(traces.size());
  for (const cpu::Trace& t : traces) {
    ptrs.push_back(&t);
  }
  return ptrs;
}

TimePs scaled(TimePs elapsed, double scale) {
  return static_cast<TimePs>(static_cast<double>(elapsed) * scale + 0.5);
}

/// Rolls the full per-instance StatSet tree into RunReport::stats: one
/// bounded key per (component class, counter) pair. Counters sum across
/// instances; *_peak counters keep the maximum seen on any instance.
/// The allowlist keeps the payload size independent of the machine size
/// (a 16-stack machine has 128 DRAM channels — nobody wants 128 rows of
/// "row_hits" in a job result).
void roll_up_stats(const sim::StatSet& all,
                   std::map<std::string, double>& out) {
  static const char* const kLeaves[] = {
      // Fabric connection / staging counters (sim/port.hpp).
      "messages", "bytes", "hops", "contention_ps", "backpressure_stalls",
      "backpressure_stall_ps", "staged_peak", "queue_peak", "fault_delays",
      // DRAM channel counters (mem/dram_channel.cpp).
      "reads", "writes", "row_hits", "row_misses", "row_conflicts",
      "refresh_stall_ps", "refreshes",
  };
  for (const auto& [key, value] : all.snapshot()) {
    const char* group = nullptr;
    if (key.find(".mesh.") != std::string::npos) group = "mesh";
    else if (key.find(".serdes.") != std::string::npos) group = "serdes";
    else if (key.find(".dram.") != std::string::npos) group = "dram";
    else if (key.find(".spm.") != std::string::npos) group = "spm";
    else continue;  // core/cache counters stay out of the bounded set
    const std::size_t dot = key.rfind('.');
    const std::string leaf = key.substr(dot + 1);
    bool allowed = false;
    for (const char* candidate : kLeaves) {
      if (leaf == candidate) allowed = true;
    }
    if (!allowed) continue;
    double& slot = out[std::string(group) + "." + leaf];
    if (leaf.size() > 5 && leaf.compare(leaf.size() - 5, 5, "_peak") == 0) {
      slot = std::max(slot, value);
    } else {
      slot += value;
    }
  }
}

}  // namespace

NdftSystem::NdftSystem(SystemConfig config) : config_(std::move(config)) {}

dft::Workload NdftSystem::workload_for(std::size_t atoms) const {
  return dft::Workload::lrtddft_iteration(dft::SystemDims::silicon(atoms));
}

dft::Workload NdftSystem::workload_from_trace(
    const KernelTrace& trace) const {
  return dft::Workload::from_trace(trace);
}

runtime::ExecutionPlan NdftSystem::plan(
    const dft::Workload& workload, runtime::Granularity granularity) const {
  const runtime::Sca sca(config_.cpu_profile, config_.ndp_profile);
  const runtime::CostModel cost(config_.cpu_profile, config_.ndp_profile);
  const runtime::Scheduler scheduler(sca, cost);
  return scheduler.plan(workload, granularity);
}

RunReport NdftSystem::run(std::size_t atoms, ExecMode mode) const {
  return run(workload_for(atoms), mode);
}

RunReport NdftSystem::run(const dft::Workload& workload,
                          ExecMode mode) const {
  switch (mode) {
    case ExecMode::kCpuBaseline: return run_cpu_baseline(workload);
    case ExecMode::kGpuBaseline: return run_gpu_baseline(workload);
    case ExecMode::kNdpOnly: return run_ndp(workload, /*co_design=*/false);
    case ExecMode::kNdft: return run_ndp(workload, /*co_design=*/true);
  }
  throw NdftError("unknown execution mode");
}

RunReport NdftSystem::run_cpu_baseline(const dft::Workload& workload) const {
  sim::EventQueue queue;
  mem::DramSystem dram("xeon.dram", queue, config_.xeon_dram);
  cpu::CpuComplex machine("xeon", queue, config_.xeon, dram);

  RunReport report;
  report.mode = ExecMode::kCpuBaseline;
  report.dims = workload.dims;

  const Bytes xeon_llc_share =
      config_.xeon.l3.size_bytes / config_.xeon.cores;
  const Bytes xeon_reuse_floor = config_.xeon.l2.size_bytes * 3 / 2;
  RunArena arena;
  for (const dft::KernelWork& kernel : workload.kernels) {
    // Stage boundary: one simulated kernel (event batch) at a time.
    cancel_point();
    fault_point("sim.mem");
    const auto traces =
        make_traces(kernel, config_.xeon.cores, arena, config_,
                    Bytes{128} << 10, xeon_llc_share, xeon_reuse_floor);
    const auto ptrs = pointers(traces);
    const TimePs start = queue.now();
    const double energy_before =
        dram.dynamic_energy_nj(mem::DramEnergy::ddr4());
    bool finished = false;
    machine.run(ptrs, [&finished] { finished = true; });
    queue.run();
    NDFT_ASSERT(finished);
    const TimePs elapsed = scaled(queue.now() - start,
                                  traces.front().scale);
    report.kernels.push_back(
        KernelTime{kernel.name, kernel.cls, DeviceKind::kCpu, elapsed});
    // Dynamic energy scales with the sampling factor; background power
    // burns over the kernel's (already scaled) duration.
    const double background_mw =
        mem::DramEnergy::ddr4().background_with_refresh_mw(
            config_.xeon_dram.timing.tCK_ps *
            config_.xeon_dram.timing.tREFI) *
        config_.xeon_dram.channels;
    report.memory_energy_mj +=
        (dram.dynamic_energy_nj(mem::DramEnergy::ddr4()) - energy_before) *
            traces.front().scale * 1e-6 +
        background_mw * static_cast<double>(elapsed) * 1e-12;
    machine.invalidate_caches();
    queue.run();
  }

  sim::StatSet all_stats;
  dram.collect_stats("xeon.dram", all_stats);
  roll_up_stats(all_stats, report.stats);
  if (queue.now() > 0) {
    // GB/s (decimal) is 1e-3 bytes/ps.
    report.stats["dram.channel_utilization"] =
        report.stats["dram.bytes"] /
        (config_.xeon_dram.peak_gbps() * 1e-3 *
         static_cast<double>(queue.now()));
  }

  report.events = queue.executed();

  const runtime::PseudoStore store(workload, config_.processes);
  report.pseudo = store.on_cpu(config_.cpu_capacity);
  return report;
}

RunReport NdftSystem::run_gpu_baseline(const dft::Workload& workload) const {
  const gpu::GpuModel model(config_.gpu);
  RunReport report;
  report.mode = ExecMode::kGpuBaseline;
  report.dims = workload.dims;

  for (std::size_t i = 0; i < workload.kernels.size(); ++i) {
    const dft::KernelWork& kernel = workload.kernels[i];
    Bytes h2d = 0;
    Bytes d2h = 0;
    // The paper's GPU critique: the multi-process LR-TDDFT pipeline
    // stages each kernel's working arrays between host and device memory
    // around the MPI steps. The response GEMM is the exception: its
    // operands were just produced on-device, so it runs resident; the
    // Alltoall moves device-to-device over NVLink instead of PCIe.
    if (kernel.cls != KernelClass::kGemm &&
        kernel.cls != KernelClass::kAlltoall) {
      h2d += kernel.input_bytes;
      d2h += kernel.output_bytes;
    }
    // Working data beyond device memory additionally spills each pass.
    const Bytes working = kernel.input_bytes + kernel.output_bytes;
    if (working > config_.gpu.device_memory) {
      const Bytes spill = working - config_.gpu.device_memory;
      h2d += spill;
      d2h += spill;
    }
    gpu::GpuStepTime t = model.execute(kernel.cls, kernel.flops,
                                       kernel.dram_bytes, h2d, d2h);
    if (kernel.cls == KernelClass::kAlltoall) {
      t.kernel += model.peer_transfer(kernel.comm_volume);
    }
    report.kernels.push_back(KernelTime{kernel.name, kernel.cls,
                                        DeviceKind::kGpu, t.total()});
    // Memory-system energy: device HBM at ~4 pJ/bit, PCIe at ~10 pJ/bit
    // (1 pJ = 1e-9 mJ), plus ~20 W of HBM background across both devices.
    report.memory_energy_mj +=
        (static_cast<double>(kernel.dram_bytes) * 8.0 * 4.0 +
         static_cast<double>(h2d + d2h) * 8.0 * 10.0) *
            1e-9 +
        20000.0 * static_cast<double>(t.total()) * 1e-12;
  }

  const runtime::PseudoStore store(workload, config_.processes);
  runtime::PseudoFootprint footprint;
  footprint.capacity = config_.gpu.device_memory;
  footprint.per_process = store.copy_bytes();
  footprint.total = store.copy_bytes();  // one resident copy on the device
  report.pseudo = footprint;
  return report;
}

RunReport NdftSystem::run_ndp(const dft::Workload& workload,
                              bool co_design) const {
  runtime::ExecutionPlan plan;
  if (co_design) {
    plan = this->plan(workload);
  } else {
    plan.placements.assign(workload.kernels.size(), runtime::Placement{});
    for (auto& p : plan.placements) {
      p.device = DeviceKind::kNdp;
    }
  }
  return run_hybrid(workload, plan,
                    co_design ? ExecMode::kNdft : ExecMode::kNdpOnly,
                    co_design);
}

RunReport NdftSystem::run_planned(const dft::Workload& workload,
                                  const runtime::ExecutionPlan& plan) const {
  return run_hybrid(workload, plan, ExecMode::kNdft, /*co_design=*/true);
}

RunReport NdftSystem::run_hybrid(const dft::Workload& workload,
                                 const runtime::ExecutionPlan& plan,
                                 ExecMode mode, bool co_design) const {
  sim::EventQueue queue;
  ndp::NdpSystem ndp("ndp", queue, config_.ndp);
  cpu::CpuComplex host("host", queue, config_.host_cpu, ndp.cpu_port());

  NDFT_REQUIRE(plan.placements.size() == workload.kernels.size(),
               "plan must cover every kernel of the workload");

  RunReport report;
  report.mode = mode;
  report.dims = workload.dims;

  const unsigned stacks = ndp.stack_count();
  const unsigned ndp_cores = config_.ndp.total_cores();
  const runtime::PseudoStore store(workload, config_.processes);

  RunArena arena;
  for (std::size_t i = 0; i < workload.kernels.size(); ++i) {
    // Stage boundary: one simulated kernel (event batch) at a time.
    cancel_point();
    fault_point("sim.mem");
    const dft::KernelWork& kernel = workload.kernels[i];
    const runtime::Placement& placement = plan.placements[i];
    if (co_design && placement.crossing) {
      report.sched_overhead_ps +=
          placement.transfer_in_ps + placement.switch_in_ps;
    }

    const TimePs start = queue.now();
    TimePs elapsed = 0;
    const double dram_energy_before = ndp.dram_dynamic_energy_nj();
    const double mesh_energy_before = ndp.mesh().energy_nj();
    double kernel_scale = 1.0;

    if (placement.device == DeviceKind::kCpu) {
      const auto traces = make_traces(
          kernel, config_.host_cpu.cores, arena, config_, Bytes{128} << 10,
          config_.host_cpu.l3.size_bytes / config_.host_cpu.cores,
          config_.host_cpu.l2.size_bytes * 3 / 2);
      const auto ptrs = pointers(traces);
      bool finished = false;
      host.run(ptrs, [&finished] { finished = true; });
      queue.run();
      NDFT_ASSERT(finished);
      elapsed = scaled(queue.now() - start, traces.front().scale);
      kernel_scale = traces.front().scale;
    } else {
      const auto traces =
          make_traces(kernel, ndp_cores, arena, config_, Bytes{16} << 10,
                      config_.ndp.stack.l1.size_bytes, 4096);
      const auto ptrs = pointers(traces);

      // Fabric traffic that overlaps the computation: Alltoall exchange
      // between stacks, and (under the co-design) the pseudopotential
      // shared-block streaming filtered by the per-stack arbiters.
      Bytes per_pair_bytes = 0;
      if (kernel.cls == KernelClass::kAlltoall) {
        per_pair_bytes = kernel.comm_volume / (stacks * stacks);
      } else if (co_design &&
                 kernel.cls == KernelClass::kPseudopotential) {
        per_pair_bytes = kernel.dram_bytes / (stacks * stacks);
        if (!config_.shared_memory.hierarchical) {
          // Flat mode: every worker process fetches its own remote copy.
          per_pair_bytes *=
              std::max(1u, config_.processes.ndp_processes / stacks);
        }
        report.sharing_bytes +=
            static_cast<Bytes>(stacks) * (stacks - 1) * per_pair_bytes;
      }

      TimePs trace_done = start;
      TimePs mesh_done = start;
      bool finished = false;
      ndp.run(ptrs, [&finished, &trace_done, &queue] {
        finished = true;
        trace_done = queue.now();
      });
      if (per_pair_bytes > 0) {
        for (unsigned s = 0; s < stacks; ++s) {
          for (unsigned d = 0; d < stacks; ++d) {
            if (s == d) continue;
            ndp.mesh().send(s, d, per_pair_bytes,
                            [&mesh_done, &queue](TimePs) {
                              mesh_done = queue.now();
                            });
          }
        }
      }
      queue.run();
      NDFT_ASSERT(finished);
      elapsed = std::max(scaled(trace_done - start, traces.front().scale),
                         mesh_done - start);
      kernel_scale = traces.front().scale;
    }

    // DRAM command energy in the window scales with the sampling factor;
    // mesh messages were issued at full volume; background power burns
    // over the kernel's (already scaled) duration.
    report.memory_energy_mj +=
        (ndp.dram_dynamic_energy_nj() - dram_energy_before) * kernel_scale *
            1e-6 +
        (ndp.mesh().energy_nj() - mesh_energy_before) * 1e-6 +
        ndp.dram_background_mw() * static_cast<double>(elapsed) * 1e-12;

    report.kernels.push_back(
        KernelTime{kernel.name, kernel.cls, placement.device, elapsed});
    host.invalidate_caches();
    ndp.invalidate_caches();
    queue.run();
  }

  sim::StatSet all_stats;
  ndp.collect_stats("ndp", all_stats);
  roll_up_stats(all_stats, report.stats);
  if (queue.now() > 0) {
    // GB/s (decimal) is 1e-3 bytes/ps; peak aggregates over all stacks.
    report.stats["dram.channel_utilization"] =
        report.stats["dram.bytes"] /
        (config_.ndp.stack.dram.peak_gbps() * stacks * 1e-3 *
         static_cast<double>(queue.now()));
  }

  report.mesh_bytes = ndp.mesh().bytes_sent();
  report.events = queue.executed();
  report.pseudo = co_design
                      ? store.on_ndft(config_.ndp_capacity)
                      : store.on_ndp(runtime::PseudoLayout::kReplicated,
                                     config_.ndp_capacity);
  return report;
}

}  // namespace ndft::core
