// Pipeline conformance against the retired legacy walk's pinned outputs.
//
// The compiled element dataplane (sim/pipeline.h) replaced a branch-forest
// walk and claims *bit-identity* with it — not statistical similarity.
// While both engines were in the tree this harness ran whole campaigns
// under each and compared frozen datasets; the legacy walk has since been
// deleted, and its campaign outputs on this harness's inputs live on as
// the pins below (content_hash plus all ten NetCounters fields, captured
// single-threaded with the legacy engine before its removal). The
// pipeline must meet every pin at worker threads {1, 2, 8}, at fault rates
// {0, 1%, 10%}, and on a bucket-contention world whose near-empty 1-2 pps
// CoPP buckets make the serial token replay kill mid-probe on most chunks.
//
// Also here: a randomized element-composition property test — arbitrary
// valid element chains over real packets must preserve the dataplane's
// conservation invariants (TTL monotonicity, option geometry bounds,
// deferred token-bucket event accounting) even for compositions the
// run-list compiler would never emit.
//
// The per-element spec tables live in tests/element_test.cpp; when this
// file fails, that one says which element diverged.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/testbed.h"
#include "packet/view.h"
#include "packet/wire.h"
#include "sim/element.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/pipeline.h"

namespace rr::measure {
namespace {

/// One campaign's pinned outputs on the test_scale world with seed 1701
/// and the default CampaignConfig.
struct CampaignPin {
  const char* name;
  bool contended;  // every router polices options with a 1-2 pps bucket
  double fault_rate;
  std::uint64_t content_hash;
  sim::NetCounters counters;
};

// NetCounters order: sent, delivered, responses, dropped_loss,
// dropped_filter, dropped_rate_limit, dropped_ttl, dropped_unroutable,
// ttl_errors, port_unreachables.
constexpr CampaignPin kPins[] = {
    {"no faults", false, 0.0, 0xc9b783d26a6007ffULL,
     {15726, 12757, 8056, 710, 2281, 727, 0, 0, 0, 0}},
    {"1% faults", false, 0.01, 0x2f9b324d038a61f8ULL,
     {15926, 10399, 5869, 2818, 2083, 1990, 0, 0, 0, 0}},
    {"10% faults", false, 0.10, 0x6fa4d5cfd67108b8ULL,
     {16999, 2221, 524, 9090, 1059, 5712, 0, 0, 0, 0}},
    {"contended", true, 0.0, 0x93395cce9e64a42aULL,
     {15726, 2287, 815, 114, 232, 13611, 0, 0, 0, 0}},
};

TestbedConfig pinned_world(bool contended) {
  TestbedConfig config;
  config.topo_params = topo::TopologyParams::test_scale();
  config.topo_params.seed = 1701;
  if (contended) {
    config.behavior_params.router_rate_limited = 1.0;
    config.behavior_params.generous_limit_pps_min = 1;
    config.behavior_params.generous_limit_pps_max = 2;
  }
  return config;
}

class PipelineDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { testbed_ = new Testbed{pinned_world(false)}; }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  /// Every NetCounters field is part of the pin: the pipeline must charge
  /// every drop to the same cause the legacy walk did.
  static void expect_counters_equal(const sim::NetCounters& a,
                                    const sim::NetCounters& b) {
    EXPECT_EQ(a.sent, b.sent);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.responses, b.responses);
    EXPECT_EQ(a.dropped_loss, b.dropped_loss);
    EXPECT_EQ(a.dropped_filter, b.dropped_filter);
    EXPECT_EQ(a.dropped_rate_limit, b.dropped_rate_limit);
    EXPECT_EQ(a.dropped_ttl, b.dropped_ttl);
    EXPECT_EQ(a.dropped_unroutable, b.dropped_unroutable);
    EXPECT_EQ(a.ttl_errors, b.ttl_errors);
    EXPECT_EQ(a.port_unreachables, b.port_unreachables);
  }

  static void expect_meets_pin(Testbed& testbed, const CampaignPin& pin) {
    for (const int threads : {1, 2, 8}) {
      SCOPED_TRACE(testing::Message()
                   << pin.name << ", threads " << threads);
      CampaignConfig config;
      config.threads = threads;
      if (pin.fault_rate > 0.0) {
        config.faults = sim::FaultParams::uniform(pin.fault_rate);
      }
      Campaign campaign = Campaign::run(testbed, config);
      const auto dataset =
          data::CampaignDataset::from_campaign(std::move(campaign), "diff");
      EXPECT_EQ(dataset.content_hash(), pin.content_hash);
      expect_counters_equal(testbed.network().counters(), pin.counters);
    }
  }

  static Testbed* testbed_;
};

Testbed* PipelineDifferentialTest::testbed_ = nullptr;

TEST_F(PipelineDifferentialTest, EnginesBitIdenticalWithoutFaults) {
  expect_meets_pin(*testbed_, kPins[0]);
}

TEST_F(PipelineDifferentialTest, EnginesBitIdenticalAtOnePercentFaults) {
  expect_meets_pin(*testbed_, kPins[1]);
}

TEST_F(PipelineDifferentialTest, EnginesBitIdenticalAtTenPercentFaults) {
  expect_meets_pin(*testbed_, kPins[2]);
}

/// The contended world drives the serial replay's kill path (the
/// killed_counters reconstruction) on nearly every chunk. If buckets never
/// killed here, the test world went stale, not the code.
TEST_F(PipelineDifferentialTest, ContendedWorldMatchesPin) {
  const CampaignPin& pin = kPins[3];
  ASSERT_GT(pin.counters.dropped_rate_limit, 0u);
  Testbed contended{pinned_world(true)};
  expect_meets_pin(contended, pin);
}

TEST_F(PipelineDifferentialTest, InstalledFaultPlanRecompilesRunLists) {
  sim::Network& net = testbed_->network();
  CampaignConfig config;
  config.faults = sim::FaultParams::uniform(0.01);
  (void)Campaign::run(*testbed_, config);
  // A faulted campaign compiles fault elements in (and with them the loss
  // of the trusted-stamp licence)...
  EXPECT_TRUE(net.pipeline().config().faults_enabled);
  const sim::PackedRunList faulted =
      net.pipeline().list(sim::HopRow::kStamps, /*has_options=*/true);
  EXPECT_EQ(sim::run_list_at(faulted, 0), sim::ElementOp::kFaultInject);
  // ...and the next plan-less campaign's install recompiles the table
  // back to the fused fault-free form.
  (void)Campaign::run(*testbed_);
  EXPECT_FALSE(net.pipeline().config().faults_enabled);
  const sim::PackedRunList hot =
      net.pipeline().list(sim::HopRow::kStamps, /*has_options=*/true);
  const std::size_t hot_steps = sim::run_list_size(hot);
  ASSERT_GT(hot_steps, 0u);
  EXPECT_NE(sim::run_list_at(hot, 0), sim::ElementOp::kFaultInject);
  EXPECT_EQ(sim::run_list_at(hot, hot_steps - 1),
            sim::ElementOp::kTtlStampTrusted);
}

// ------------------------------------------- randomized composition property
//
// Arbitrary valid element chains (not just the ones the compiler emits)
// executed over real serialized ping-RR packets. Whatever the chain, the
// dataplane's conservation invariants must hold at every hop:
//
//   * TTL monotonicity: the TTL byte never increases;
//   * option geometry bounds: header length, option offsets, and total
//     length never change mid-walk; RR fill never exceeds capacity; the
//     header re-validates (checksum included) after every hop;
//   * token-bucket accounting: in deferred mode every CoPP consume is
//     recorded with the hop's exact (router, time, leg), times are
//     nondecreasing within the leg, and a hop appends at most the number
//     of gate elements in its chain.

struct ChainPools {
  // With fault elements present, only the fault-aware stamp path is valid.
  static constexpr sim::ElementOp kFaulted[] = {
      sim::ElementOp::kFaultInject, sim::ElementOp::kBaseLoss,
      sim::ElementOp::kSlowPathLoss, sim::ElementOp::kStormGate,
      sim::ElementOp::kCoppGate, sim::ElementOp::kEdgeFilter,
      sim::ElementOp::kTtl, sim::ElementOp::kStamp,
  };
  // Fault-free chains may use the trusted (and fused) fast paths.
  static constexpr sim::ElementOp kTrusted[] = {
      sim::ElementOp::kBaseLoss, sim::ElementOp::kSlowPathLoss,
      sim::ElementOp::kCoppGate, sim::ElementOp::kEdgeFilter,
      sim::ElementOp::kTtl, sim::ElementOp::kStampTrusted,
      sim::ElementOp::kTtlStampTrusted,
  };
};

TEST(PipelineComposition, RandomChainsPreserveConservationInvariants) {
  const sim::FaultPlan plan{sim::FaultParams::uniform(0.2)};
  sim::ElementSet elements;
  elements.fault.plan = &plan;
  elements.storm.plan = &plan;
  elements.stamp.plan = &plan;
  elements.base_loss.probability = 0.2;
  elements.slow_loss.probability = 0.2;

  std::mt19937_64 rng{0x5EED1701};
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const bool faulted = (rng() & 1) != 0;
    const std::span<const sim::ElementOp> pool =
        faulted ? std::span<const sim::ElementOp>{ChainPools::kFaulted}
                : std::span<const sim::ElementOp>{ChainPools::kTrusted};
    sim::PackedRunList list = 0;
    const std::size_t chain_length = 1 + rng() % 8;
    std::size_t gates = 0;
    for (std::size_t k = 0; k < chain_length; ++k) {
      const sim::ElementOp op = pool[rng() % pool.size()];
      gates += op == sim::ElementOp::kCoppGate ? 1 : 0;
      list = run_list_append(list, op);
    }

    std::vector<std::uint8_t> bytes;
    pkt::build_ping(bytes, net::IPv4Address{10, 0, 0, 1},
                    net::IPv4Address{10, 0, 0, 2}, 7, 1,
                    static_cast<std::uint8_t>(2 + rng() % 62),
                    static_cast<int>(1 + rng() % 9));
    pkt::Ipv4HeaderView view{bytes};
    sim::NetCounters counters;
    sim::FaultCounters fault_counters;
    sim::ProbeTrace trace;
    sim::HopContext ctx;
    ctx.view = &view;
    ctx.bytes = bytes;
    ctx.has_options = true;
    ctx.flow = rng();
    ctx.src_as = 1;
    ctx.dst_as = 2;
    ctx.counters = &counters;
    ctx.fault_counters = &fault_counters;
    ctx.trace = &trace;

    const auto baseline = pkt::inspect_header(bytes);
    ASSERT_TRUE(baseline.has_value());
    const auto rr_capacity = pkt::rr_wire(bytes, baseline->rr_offset).capacity;

    double last_event_time = 0.0;
    for (std::size_t hop = 0; hop < 12; ++hop) {
      ctx.router = static_cast<topo::RouterId>(hop % 4);
      ctx.egress = net::IPv4Address{10, 1, 0,
                                    static_cast<std::uint8_t>(hop + 1)};
      ctx.as_id = static_cast<std::uint32_t>(1 + hop % 3);
      ctx.hop = hop;
      ctx.now = 0.05 * static_cast<double>(hop);

      const std::uint8_t ttl_before = bytes[8];
      const std::size_t events_before = trace.events.size();
      const sim::HopVerdict verdict = run_hop(list, elements, ctx);

      EXPECT_LE(bytes[8], ttl_before) << "TTL increased at hop " << hop;
      const auto info = pkt::inspect_header(bytes);
      ASSERT_TRUE(info.has_value()) << "header invalid after hop " << hop;
      EXPECT_EQ(info->header_bytes, baseline->header_bytes);
      EXPECT_EQ(info->total_length, baseline->total_length);
      // Faults may *remove* the RR option (strip blanks it to NOPs) but
      // nothing may move it or grow it past its capacity.
      if (info->rr_offset != 0) {
        EXPECT_EQ(info->rr_offset, baseline->rr_offset);
        EXPECT_LE(pkt::rr_wire(bytes, info->rr_offset).filled, rr_capacity);
      }

      EXPECT_LE(trace.events.size(), events_before + gates);
      for (std::size_t e = events_before; e < trace.events.size(); ++e) {
        EXPECT_EQ(trace.events[e].router, ctx.router);
        EXPECT_EQ(trace.events[e].time, ctx.now);
        EXPECT_FALSE(trace.events[e].reply_leg);
        EXPECT_GE(trace.events[e].time, last_event_time);
        last_event_time = trace.events[e].time;
      }
      if (verdict != sim::HopVerdict::kContinue) break;
    }
  }
}

}  // namespace
}  // namespace rr::measure
