// A thread-safe router-level path cache in front of PathStitcher.
//
// Stitching a (source, destination) pair walks the AS path, the intra-AS
// cores and the access chains, and derives per-hop ingress/egress
// addresses — a few microseconds. The cache computes each directed pair
// once and hands out shared immutable hop lists after that. It is the
// route source for traffic no compiled table covers: reverse traceroute,
// the tools and examples, probes aimed at router interfaces, and any pair
// a census FIB leaves uncovered. Census traffic does not come here: both
// censuses resolve routes from tables compiled for them (routing/fib.h,
// routing/reply_routes.h). perfbench/census_bench.cpp reports hits() and
// misses() per census, which is how that stays visible.
//
// Concurrency: lookups take one shard mutex (64 shards, keyed by endpoint
// pair); entries are shared_ptr-owned so a returned path stays valid even
// if the entry is evicted by another thread. Capacity is bounded per shard
// with FIFO eviction, which does not track a census-sized working set: the
// 800-AS Doubletree trace census (141 VPs x 1,024 destinations) touches
// 277,173 distinct keys against the 2^18 = 262,144 default slots, so when
// it routed through this cache every census re-stitched all of them, even
// on a warm testbed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "routing/stitcher.h"
#include "util/annotations.h"
#include "util/mutex.h"

namespace rr::route {

class PathCache {
 public:
  /// `max_entries` bounds the total cached paths (0 = unbounded).
  explicit PathCache(PathStitcher stitcher, std::size_t max_entries = 1 << 18);

  /// Cached equivalents of the PathStitcher calls. The returned pointer is
  /// never null; `(*result)->routable` is false when BGP has no route, and
  /// `hops` is then empty.
  struct Entry {
    bool routable = false;
    std::vector<PathHop> hops;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  [[nodiscard]] EntryPtr host_path(HostId src, HostId dst);
  [[nodiscard]] EntryPtr router_path(RouterId src, HostId dst);
  [[nodiscard]] EntryPtr host_to_router_path(HostId src, RouterId dst);

  /// Drops every cached path (behaviour/topology never change under a
  /// running network, so this exists for tests and memory pressure only).
  void clear();

  [[nodiscard]] std::uint64_t hits() const noexcept {
    return hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t misses() const noexcept {
    return misses_.load(std::memory_order_relaxed);
  }

 private:
  enum class Kind : std::uint64_t { kHostHost = 1, kRouterHost = 2,
                                    kHostRouter = 3 };

  [[nodiscard]] EntryPtr lookup(Kind kind, std::uint64_t src,
                                std::uint64_t dst);

  static constexpr std::size_t kShards = 64;
  struct Shard {
    util::Mutex mu;
    std::unordered_map<std::uint64_t, EntryPtr> map RROPT_GUARDED_BY(mu);
    std::vector<std::uint64_t> order
        RROPT_GUARDED_BY(mu);  // FIFO eviction ring
    std::size_t evict_at RROPT_GUARDED_BY(mu) = 0;
  };

  PathStitcher stitcher_;
  std::size_t max_per_shard_;
  std::vector<Shard> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace rr::route
