// Compiled forwarding plane for census traffic.
//
// A census resolves two host-to-host router paths per probe (forward to
// the destination, reverse for the reply). Stitching one costs a few
// microseconds (assemble + derive), and a census probes a fixed set of
// (VP, destination) pairs, so the paths are compiled up front instead of
// stitched on demand. Both censuses build one: the ping-RR campaign per
// destination block (measure/campaign.cpp), the trace census over its
// shared destination sample (measure/trace_census.cpp).
//
// CompiledFib precomputes those paths keyed by what they actually depend
// on. A stitched host path is a function of the endpoints' access
// routers, not the hosts themselves: only two elements are per-host — the
// first hop's ingress (picked from the source-host salt) and the last
// hop's egress (picked from the destination-host salt); see
// PathStitcher::derive_addresses. The source pick is per row. The
// destination pick is made at the column's access router, and an access
// router with at most two interfaces (loopback + one, as every generated
// destination's has) answers it without looking at the salt; build() poisons any
// other column to kMiss. So the table stores one forward and one reverse
// "spine" per (source host, destination access router) pair — typically
// 10-30x fewer than per-destination paths — and a lookup copies the spine
// into a caller-owned scratch. The result is bit-identical to the
// stitcher's output for every covered pair (tests/fib_equivalence_test).
//
// Build-then-freeze: build() stitches everything eagerly, one source row
// per ThreadPool task, appending rows to one arena in row order, so the
// tables are the same bytes at any thread count; the finished object is
// immutable and safe for any number of concurrent readers. Lookups for pairs
// outside the compiled (sources x destinations) coverage return kMiss;
// the network resolves those through the PathCache, which census traffic
// does not reach.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "routing/stitcher.h"

namespace rr::util {
class ThreadPool;
}  // namespace rr::util

namespace rr::route {

class CompiledFib {
 public:
  enum class Lookup : std::uint8_t {
    kMiss,        // pair not compiled; the caller resolves it elsewhere
    kUnroutable,  // compiled, and BGP has no route
    kHit,         // `out` holds the full hop list
  };

  /// Compiles dual-direction spines for every (source, destination access
  /// router) pair. `sources` are the probing hosts (VPs and the plain-ping
  /// probe host); `dests` are the destination hosts of the current block.
  /// Source rows fan out across `pool` when one is given.
  [[nodiscard]] static std::shared_ptr<const CompiledFib> build(
      PathStitcher& stitcher, std::span<const HostId> sources,
      std::span<const HostId> dests, util::ThreadPool* pool = nullptr);

  /// Forward path `src` -> `dst` into `out` (equivalent to
  /// PathStitcher::host_path(src, dst)).
  Lookup forward(HostId src, HostId dst, std::vector<PathHop>& out) const;

  /// Reverse path `dst` -> `reply_to` into `out` (equivalent to
  /// PathStitcher::host_path(dst, reply_to)).
  Lookup reverse(HostId dst, HostId reply_to,
                 std::vector<PathHop>& out) const;

  [[nodiscard]] std::size_t spine_pairs() const noexcept {
    return pairs_.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return pairs_.capacity() * sizeof(SpinePair) + arena_.capacity() * sizeof(PathHop) +
           (source_slot_.capacity() + ar_slot_.capacity()) *
               sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffff'ffffu;
  static constexpr std::uint8_t kFwdRoutable = 1 << 0;
  static constexpr std::uint8_t kRevRoutable = 1 << 1;

  struct SpinePair {
    std::uint32_t fwd_off = 0;
    std::uint32_t rev_off = 0;
    std::uint16_t fwd_len = 0;
    std::uint16_t rev_len = 0;
    std::uint8_t flags = 0;
  };

  /// Maps arena storage straight from the kernel. Pool workers grow the
  /// arena in turn, and storage a worker takes from its own malloc arena
  /// stays there after the table is dropped, out of the caller's reach
  /// (+10 MiB peak RSS on the 2-thread 800-AS ping-RR census). A mapping
  /// is returned whole when freed, whichever thread made it.
  template <typename T>
  struct MappedAllocator {
    using value_type = T;
    MappedAllocator() = default;
    template <typename U>
    explicit MappedAllocator(const MappedAllocator<U>& /*other*/) noexcept {}
    [[nodiscard]] T* allocate(std::size_t n);
    void deallocate(T* p, std::size_t n) noexcept;
    friend bool operator==(MappedAllocator, MappedAllocator) noexcept {
      return true;
    }
  };

  CompiledFib() = default;

  const topo::Topology* topology_ = nullptr;
  std::vector<std::uint32_t> source_slot_;  // HostId -> table row
  std::vector<std::uint32_t> ar_slot_;      // RouterId -> table column
  std::size_t columns_ = 0;
  std::vector<SpinePair> pairs_;  // [row * columns_ + column]
  std::vector<PathHop, MappedAllocator<PathHop>> arena_;
};

}  // namespace rr::route
