// Trace census pins and route-source conformance.
//
// The census's outputs on the StopSetDeterminism world (test_scale, seed
// 777, 48 destinations per VP, rounds of 8) are committed here, with stop
// sets on and off, and must hold at 1, 2 and 8 threads. They were taken
// before the census moved from the PathCache to its own compiled routes,
// so they pin that the move changed no probe, stop or discovery.
//
// The census resolves every route from tables it builds for itself: a
// CompiledFib for probes and echo replies, and a per-VP ReplyRoutes for
// TTL-exceeded errors. So it makes no PathCache lookup at all, and every
// reply-table entry must equal PathStitcher::router_path.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "measure/testbed.h"
#include "measure/trace_census.h"
#include "routing/reply_routes.h"

namespace rr::measure {
namespace {

struct Pin {
  std::uint64_t schedule_hash;
  std::uint64_t interface_hash;
  std::uint64_t link_hash;
  std::uint64_t probes_sent;
  std::uint64_t probes_saved;
};

constexpr Pin kStopSetsOn{0x6839c861fb9d8fa4ULL, 0xf53256d78567f9d4ULL,
                          0x91a08e9f0acc8794ULL, 6636, 1599};
constexpr Pin kStopSetsOff{0xa2d0a41481385917ULL, 0xf53256d78567f9d4ULL,
                           0x3d63738c271ba22dULL, 15863, 0};

TestbedConfig world_config() {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 777;
  return config;
}

TraceCensusConfig census_config(int threads, bool stop_sets) {
  TraceCensusConfig config;
  config.per_vp_dests = 48;
  config.round = 8;
  config.threads = threads;
  config.use_stop_sets = stop_sets;
  return config;
}

void expect_pinned(bool stop_sets, const Pin& pin) {
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    Testbed testbed{world_config()};
    const auto r = run_trace_census(testbed, census_config(threads, stop_sets));
    EXPECT_EQ(r.schedule_hash, pin.schedule_hash);
    EXPECT_EQ(r.interface_hash, pin.interface_hash);
    EXPECT_EQ(r.link_hash, pin.link_hash);
    EXPECT_EQ(r.probes_sent, pin.probes_sent);
    EXPECT_EQ(r.probes_saved, pin.probes_saved);
  }
}

TEST(TraceCensusPins, StopSetsOn) { expect_pinned(true, kStopSetsOn); }

TEST(TraceCensusPins, StopSetsOff) { expect_pinned(false, kStopSetsOff); }

TEST(TraceCensusRoutes, CensusMakesNoPathCacheLookups) {
  for (const bool stop_sets : {true, false}) {
    Testbed testbed{world_config()};
    const auto& cache = testbed.network().path_cache();
    const std::uint64_t before = cache.hits() + cache.misses();
    const auto r = run_trace_census(testbed, census_config(2, stop_sets));
    EXPECT_EQ(cache.hits() + cache.misses(), before) << stop_sets;
    // Errors did come back, through the reply tables.
    EXPECT_GT(r.reply_routes, 0u) << stop_sets;
    // The census leaves no table installed behind it.
    EXPECT_EQ(testbed.network().compiled_fib(), nullptr);
  }
}

TEST(TraceCensusRoutes, ReplyTableEntriesMatchStitcher) {
  Testbed testbed{world_config()};
  auto& net = testbed.network();
  const auto dests = testbed.topology().destinations();
  const auto vps = testbed.vps();
  ASSERT_GE(vps.size(), 2u);
  std::size_t checked = 0;
  std::size_t unroutable = 0;
  for (const auto* vp : vps.first(2)) {
    route::ReplyRoutes replies{vp->host};
    auto prober = testbed.make_prober(vp->host, 20.0);
    sim::NetCounters sink;
    probe::TraceOptions options;
    options.counters = &sink;
    options.reply_routes = &replies;
    for (std::size_t i = 0; i < dests.size(); i += dests.size() / 32) {
      (void)prober.traceroute(testbed.topology().host_at(dests[i]).address,
                              options);
    }
    ASSERT_GT(replies.size(), 0u);
    std::vector<route::PathHop> stitched;
    std::span<const route::PathHop> hops;
    std::size_t filled = 0;
    for (topo::RouterId r = 0; r < testbed.topology().routers().size(); ++r) {
      const auto state = replies.peek(r, hops);
      if (state == route::ReplyRoutes::State::kUnfilled) continue;
      ++filled;
      SCOPED_TRACE(testing::Message() << "router " << r << " vp " << vp->host);
      const bool routable = net.stitcher().router_path(r, vp->host, stitched);
      ASSERT_EQ(state == route::ReplyRoutes::State::kRoutable, routable);
      if (!routable) {
        ++unroutable;
        continue;
      }
      ASSERT_EQ(hops.size(), stitched.size());
      for (std::size_t h = 0; h < hops.size(); ++h) {
        EXPECT_EQ(hops[h].router, stitched[h].router) << "hop " << h;
        EXPECT_EQ(hops[h].ingress, stitched[h].ingress) << "hop " << h;
        EXPECT_EQ(hops[h].egress, stitched[h].egress) << "hop " << h;
      }
      ++checked;
    }
    EXPECT_EQ(filled, replies.size());
  }
  EXPECT_GT(checked, unroutable);
}

}  // namespace
}  // namespace rr::measure
