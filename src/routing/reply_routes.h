// Per-VP reply routes for router-originated errors.
//
// A traceroute's TTL-exceeded errors travel from the expiring router back
// to the vantage point, along PathStitcher::router_path(router, vp). The
// trace census gives every VP one ReplyRoutes: a RouterId-indexed table of
// those hop lists, reached through the VP's SendContexts
// (sim::SendContext::reply_routes) and filled on first use.
//
// Why fill on use instead of compiling up front: a full compile would
// stitch every router on every VP's forward spines. On the 800-AS census
// benchmark world (world seed 0, input seed 0, 141 VPs x 1,024
// destinations) that is 319,736 pairs, 3.93M hops, 45 MiB and 0.25-0.42 s
// serial — 2.7x the 119,746 pairs the census actually uses.
//
// Concurrency: none needed. A census runs each VP on one worker per
// round, so one table has one writer at a time and the round barrier
// orders successive writers. An entry is a pure function of (router, VP),
// so when it is filled cannot change any output.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "routing/stitcher.h"

namespace rr::route {

class ReplyRoutes {
 public:
  enum class State : std::uint8_t { kUnfilled, kUnroutable, kRoutable };

  /// Routes toward `vp`; the table is sized on first use.
  explicit ReplyRoutes(HostId vp) : vp_(vp) {}

  [[nodiscard]] HostId vp() const noexcept { return vp_; }

  /// router_path(router, vp) into `hops`, stitched on the first call for
  /// `router`. Returns false when BGP has no route. `hops` views the
  /// table and stays valid until the next lookup.
  bool lookup(PathStitcher& stitcher, RouterId router,
              std::span<const PathHop>& hops);

  /// The entry for `router` without stitching (kUnfilled if none yet).
  [[nodiscard]] State peek(RouterId router,
                           std::span<const PathHop>& hops) const;

  /// Routers stitched so far, routable or not.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  static constexpr std::uint32_t kNoEntry = 0xffff'ffffu;

  struct Entry {
    std::uint32_t off = 0;
    std::uint16_t len = 0;
    bool routable = false;
  };

  HostId vp_;
  std::vector<std::uint32_t> slot_;  // RouterId -> entries_ index
  std::vector<Entry> entries_;
  std::vector<PathHop> arena_;
  std::vector<PathHop> scratch_;
};

}  // namespace rr::route
