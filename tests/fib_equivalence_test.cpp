// Routing-layer conformance for the compiled forwarding plane: for every
// (campaign source, block destination) pair a CompiledFib covers, its
// forward and reverse lookups must reproduce PathStitcher::host_path hop
// for hop, and must report kUnroutable exactly when the stitcher finds no
// path. The stitcher stays in the tree as that reference. A table built
// on a thread pool must be the same table, and a column whose endpoint
// pick varies by destination host must never be served. Campaign outputs
// built on the FIB are pinned in tests/pipeline_differential_test.cpp;
// thread independence per stream block is CampaignDeterminism's.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "measure/testbed.h"
#include "routing/fib.h"
#include "routing/stitcher.h"
#include "util/thread_pool.h"

namespace rr {
namespace {

using route::CompiledFib;
using route::PathHop;

void expect_hops_equal(const std::vector<PathHop>& fib,
                       const std::vector<PathHop>& stitched) {
  ASSERT_EQ(fib.size(), stitched.size());
  for (std::size_t h = 0; h < fib.size(); ++h) {
    EXPECT_EQ(fib[h].router, stitched[h].router) << "hop " << h;
    EXPECT_EQ(fib[h].ingress, stitched[h].ingress) << "hop " << h;
    EXPECT_EQ(fib[h].egress, stitched[h].egress) << "hop " << h;
  }
}

/// One lookup against the stitcher's answer for the same directed pair.
void expect_lookup_matches(CompiledFib::Lookup lookup,
                           const std::vector<PathHop>& fib_hops,
                           route::PathStitcher& stitcher, topo::HostId from,
                           topo::HostId to) {
  std::vector<PathHop> stitched;
  const bool routable = stitcher.host_path(from, to, stitched);
  ASSERT_NE(lookup, CompiledFib::Lookup::kMiss);
  ASSERT_EQ(lookup == CompiledFib::Lookup::kHit, routable);
  if (routable) expect_hops_equal(fib_hops, stitched);
}

class FibEquivalence : public ::testing::Test {
 protected:
  static constexpr std::size_t kBlock = 64;

  void SetUp() override {
    measure::TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 20170331;
    testbed_ = std::make_unique<measure::Testbed>(config);
    // The campaign's row set: every VP plus the plain-ping probe host.
    for (const auto* vp : testbed_->vps()) sources_.push_back(vp->host);
    if (topology().probe_host() != topo::kNoHost) {
      sources_.push_back(topology().probe_host());
    }
    // A block from the middle of the census, as a streaming campaign
    // compiles one.
    const auto dests = topology().destinations();
    ASSERT_GE(dests.size(), 2 * kBlock);
    block_ = dests.subspan(dests.size() / 2 - kBlock / 2, kBlock);
    fib_ = CompiledFib::build(stitcher(), sources_, block_);
  }

  /// Whether the endpoint interface pick at `host`'s access router ignores
  /// the host's salt, so every host behind it can share one spine.
  bool pick_is_constant(topo::HostId host) const {
    const auto ar = topology().host_at(host).access_router;
    return topology().router_at(ar).interfaces.size() <= 2;
  }

  const topo::Topology& topology() const { return testbed_->topology(); }
  route::PathStitcher& stitcher() { return testbed_->network().stitcher(); }

  /// A destination is covered when the block compiled its access router:
  /// the table stores one spine per (source, destination access router).
  bool covered(topo::HostId dst) const {
    const auto ar = topology().host_at(dst).access_router;
    return std::any_of(block_.begin(), block_.end(), [&](topo::HostId d) {
      return topology().host_at(d).access_router == ar;
    });
  }

  std::unique_ptr<measure::Testbed> testbed_;
  std::vector<topo::HostId> sources_;
  std::span<const topo::HostId> block_;
  std::shared_ptr<const CompiledFib> fib_;
};

TEST_F(FibEquivalence, ForwardAndReverseMatchStitcher) {
  std::size_t checked = 0;
  std::size_t unroutable = 0;
  std::vector<PathHop> hops;
  for (const topo::HostId src : sources_) {
    // Every census destination, not just the block: one outside it that
    // shares a block destination's access router is answered from the
    // same spine and must match too.
    for (const topo::HostId dst : topology().destinations()) {
      if (!covered(dst)) continue;
      SCOPED_TRACE(testing::Message() << "src " << src << " dst " << dst);
      const auto fwd = fib_->forward(src, dst, hops);
      expect_lookup_matches(fwd, hops, stitcher(), src, dst);
      const auto rev = fib_->reverse(dst, src, hops);
      expect_lookup_matches(rev, hops, stitcher(), dst, src);
      unroutable += (fwd == CompiledFib::Lookup::kUnroutable ? 1 : 0) +
                    (rev == CompiledFib::Lookup::kUnroutable ? 1 : 0);
      checked += 2;
    }
  }
  EXPECT_GE(checked, 2 * sources_.size() * block_.size());
  // The census is mostly routable; a table answering kUnroutable
  // everywhere would pass the loop above vacuously.
  EXPECT_LT(unroutable, checked / 2);
}

TEST_F(FibEquivalence, PoolBuildIsTheSameTable) {
  // One source row per pool task, arenas concatenated in row order: every
  // lookup must return what the caller-only build returns.
  util::ThreadPool pool(4);
  const auto parallel = CompiledFib::build(stitcher(), sources_, block_, &pool);
  EXPECT_EQ(parallel->spine_pairs(), fib_->spine_pairs());
  EXPECT_EQ(parallel->memory_bytes(), fib_->memory_bytes());
  std::vector<PathHop> a, b;
  for (const topo::HostId src : sources_) {
    for (const topo::HostId dst : block_) {
      ASSERT_EQ(parallel->forward(src, dst, a), fib_->forward(src, dst, b));
      expect_hops_equal(a, b);
      ASSERT_EQ(parallel->reverse(dst, src, a), fib_->reverse(dst, src, b));
      expect_hops_equal(a, b);
    }
  }
}

TEST_F(FibEquivalence, VaryingEndpointPickIsNeverServed) {
  // Every generated destination sits behind an access router with one
  // interface besides its loopback, so the destination-salted endpoint
  // pick is the same for every host of a column.
  const auto dests = topology().destinations();
  EXPECT_TRUE(std::all_of(dests.begin(), dests.end(), [&](topo::HostId d) {
    return pick_is_constant(d);
  }));
  // Some other hosts (vantage points, the probe host, cloud hosts) sit
  // behind routers with more, where the pick varies with the host. A
  // column over them must never be served: another host behind the same
  // router would get the representative's endpoint address.
  std::vector<topo::HostId> varying;
  for (topo::HostId h = 0; h < topology().hosts().size(); ++h) {
    if (!pick_is_constant(h)) varying.push_back(h);
  }
  ASSERT_FALSE(varying.empty());
  const auto fib = CompiledFib::build(stitcher(), sources_, varying);
  std::vector<PathHop> hops;
  for (const topo::HostId src : sources_) {
    for (const topo::HostId dst : varying) {
      EXPECT_EQ(fib->forward(src, dst, hops), CompiledFib::Lookup::kMiss);
      EXPECT_EQ(fib->reverse(dst, src, hops), CompiledFib::Lookup::kMiss);
    }
  }
}

TEST_F(FibEquivalence, UncoveredPairsMiss) {
  // Outside the source rows or the block's access routers the table has
  // no answer, and the network resolves the pair through the path cache.
  const topo::HostId outsider = block_.front();  // a host, but not a row
  std::vector<PathHop> hops;
  EXPECT_EQ(fib_->forward(outsider, block_.back(), hops),
            CompiledFib::Lookup::kMiss);
  EXPECT_EQ(fib_->reverse(block_.back(), outsider, hops),
            CompiledFib::Lookup::kMiss);
  std::size_t uncovered = 0;
  for (const topo::HostId dst : topology().destinations()) {
    if (covered(dst)) continue;
    ++uncovered;
    EXPECT_EQ(fib_->forward(sources_.front(), dst, hops),
              CompiledFib::Lookup::kMiss);
    EXPECT_EQ(fib_->reverse(dst, sources_.front(), hops),
              CompiledFib::Lookup::kMiss);
  }
  EXPECT_GT(uncovered, 0u);
}

}  // namespace
}  // namespace rr
