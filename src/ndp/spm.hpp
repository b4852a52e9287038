#pragma once
// Scratchpad memory (SPM) in the logic layer of each HBM stack.
//
// The paper (Section IV-C) places a 256 KiB SPM per stack (16 KiB per NDP
// core) in the logic layer and uses it as software-managed shared memory
// for pseudopotential blocks. We model a first-fit allocator plus a single
// high-bandwidth port with low fixed latency; DRAM is ~20x slower to reach.

#include <list>
#include <optional>

#include "common/types.hpp"
#include "sim/port.hpp"
#include "sim/sim_object.hpp"

namespace ndft::ndp {

/// SPM parameters (Table III: 16 KiB per core, 256 KiB per stack).
struct SpmConfig {
  Bytes capacity = 256 * 1024;
  TimePs access_latency_ps = 1500;  ///< ~3 cycles at 2 GHz
  double bandwidth_gbps = 128.0;    ///< wide on-die port
  std::size_t port_queue = 8;       ///< in-flight accesses on the port

  static SpmConfig table3() { return SpmConfig{}; }
};

/// One stack's scratchpad: allocator + timed access port.
class Spm : public sim::SimObject {
 public:
  Spm(std::string name, sim::EventQueue& queue, const SpmConfig& config);

  /// Allocates `size` bytes; returns the SPM-local offset or nullopt when
  /// fragmentation/capacity prevents the allocation.
  std::optional<Addr> alloc(Bytes size);

  /// Frees a block previously returned by alloc(); rejects unknown offsets.
  void free(Addr offset);

  /// Bytes currently allocated.
  Bytes used() const noexcept { return used_; }
  /// Total capacity.
  Bytes capacity() const noexcept { return config_.capacity; }

  /// Timed read of `size` bytes; `done` fires when data is available.
  void read(Bytes size, sim::CompletionFn done);
  /// Timed write of `size` bytes; `done` fires when the write retires.
  void write(Bytes size, sim::CompletionFn done);

  const SpmConfig& config() const noexcept { return config_; }

 private:
  struct Region {
    Addr offset;
    Bytes size;
    bool allocated;
  };

  /// One access in flight on the port connection.
  struct Access {
    sim::CompletionFn done;
  };

  void timed_access(Bytes size, bool is_write,
                    sim::CompletionFn done);

  SpmConfig config_;
  std::list<Region> regions_;  // ordered by offset; adjacent free merged
  Bytes used_ = 0;
  // The timed port is a store-forward fabric connection: an access holds
  // the wire for its serialization time (start = max(now, wire_free)),
  // completes latency + serialization later, and at most `port_queue`
  // accesses are in flight — beyond that, requests stage in sender_ and
  // the wait is accounted as backpressure_stall_ps in stats().
  sim::Connection<Access> port_;
  sim::OutputPort<Access> out_;
  sim::CreditedSender<Access> sender_;
};

}  // namespace ndft::ndp
