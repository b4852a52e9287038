#include "ndp/spm.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/units.hpp"

namespace ndft::ndp {

namespace {

sim::LinkConfig spm_port_link(const SpmConfig& config) {
  sim::LinkConfig link;
  link.latency_ps = config.access_latency_ps;
  link.gbps = config.bandwidth_gbps;
  link.capacity = config.port_queue;
  link.delivery = sim::Delivery::kStoreForward;
  return link;
}

}  // namespace

Spm::Spm(std::string name, sim::EventQueue& queue, const SpmConfig& config)
    : SimObject(std::move(name), queue),
      config_(config),
      port_(queue, spm_port_link(config), &stats()),
      out_(port_),
      sender_(queue, out_, &stats()) {
  NDFT_REQUIRE(config.capacity > 0, "SPM capacity must be positive");
  regions_.push_back(Region{0, config.capacity, false});
  port_.on_receive([this] {
    while (!port_.empty()) {
      Access access = port_.pop();
      if (access.done) access.done(now());
    }
  });
}

std::optional<Addr> Spm::alloc(Bytes size) {
  NDFT_REQUIRE(size > 0, "cannot allocate zero bytes");
  // Align to 64 B so shared blocks are line-aligned.
  const Bytes aligned = (size + 63) / 64 * 64;
  for (auto it = regions_.begin(); it != regions_.end(); ++it) {
    if (it->allocated || it->size < aligned) {
      continue;
    }
    const Addr offset = it->offset;
    if (it->size > aligned) {
      // Split: the tail remains free.
      regions_.insert(std::next(it),
                      Region{offset + aligned, it->size - aligned, false});
      it->size = aligned;
    }
    it->allocated = true;
    used_ += aligned;
    stats().add("allocs");
    return offset;
  }
  stats().add("alloc_failures");
  return std::nullopt;
}

void Spm::free(Addr offset) {
  for (auto it = regions_.begin(); it != regions_.end(); ++it) {
    if (it->offset != offset || !it->allocated) {
      continue;
    }
    it->allocated = false;
    used_ -= it->size;
    // Merge with free neighbours.
    if (it != regions_.begin()) {
      auto prev = std::prev(it);
      if (!prev->allocated) {
        prev->size += it->size;
        regions_.erase(it);
        it = prev;
      }
    }
    auto next = std::next(it);
    if (next != regions_.end() && !next->allocated) {
      it->size += next->size;
      regions_.erase(next);
    }
    return;
  }
  throw NdftError("Spm::free: unknown or already-free offset");
}

void Spm::timed_access(Bytes size, bool is_write,
                       sim::CompletionFn done) {
  stats().add(is_write ? "write_bytes" : "read_bytes",
              static_cast<double>(size));
  // The connection reproduces the previous port arithmetic exactly:
  // start = max(now, wire_free), completion at start + latency +
  // serialization, wire busy for the serialization time.
  sender_.push(Access{std::move(done)}, std::max<Bytes>(size, 1));
}

void Spm::read(Bytes size, sim::CompletionFn done) {
  timed_access(size, /*is_write=*/false, std::move(done));
}

void Spm::write(Bytes size, sim::CompletionFn done) {
  timed_access(size, /*is_write=*/true, std::move(done));
}

}  // namespace ndft::ndp
