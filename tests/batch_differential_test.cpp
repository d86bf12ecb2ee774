// Batched-dataplane conformance at the prober layer.
//
// Prober::probe_batch_into drives up to sim::WalkBatch::kMaxProbes probes
// through Network::send_batch's SoA kernel and claims *bit-identity* with
// calling Prober::probe_into once per slot — not statistical similarity.
// probe_into stays in the tree as that reference. This harness proves the
// claim per probe: the same probe stream is sent batched through one
// network and scalar (one fresh SendContext per probe) through a second
// network over the same frozen world, and every slot's ProbeResult, its
// NetCounters tally, its deferred token-bucket events and its counted_*
// replay flags must match, at batch widths {1, 3, 7, 16} and fault rates
// {0, 1%, 10%}. Campaign-level outputs are pinned separately
// (tests/pipeline_differential_test.cpp).
//
// When this file fails, tests/element_test.cpp (per-element specs) says
// which element diverged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <vector>

#include "measure/testbed.h"
#include "probe/prober.h"
#include "sim/fault.h"
#include "sim/network.h"

namespace rr::measure {
namespace {

class BatchDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    config.topo_params.seed = 1701;
    testbed_ = new Testbed{config};
  }
  static void TearDownTestSuite() {
    delete testbed_;
    testbed_ = nullptr;
  }

  /// A fresh network over the suite's world. Each side of a comparison
  /// gets its own, so device IP-ID counters start and advance alike.
  static Testbed twin() {
    TestbedConfig config;
    config.topo_params = topo::TopologyParams::test_scale();
    return Testbed{testbed_->topology_ptr(), testbed_->behaviors_ptr(),
                   config};
  }

  static void expect_results_equal(const probe::ProbeResult& a,
                                   const probe::ProbeResult& b) {
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.responder, b.responder);
    EXPECT_EQ(a.rr_option_in_reply, b.rr_option_in_reply);
    EXPECT_EQ(a.rr_recorded, b.rr_recorded);
    EXPECT_EQ(a.rr_free_slots, b.rr_free_slots);
    EXPECT_EQ(a.ts_option_in_reply, b.ts_option_in_reply);
    EXPECT_EQ(a.ts_entries, b.ts_entries);
    EXPECT_EQ(a.ts_overflow, b.ts_overflow);
    EXPECT_EQ(a.quoted_rr_present, b.quoted_rr_present);
    EXPECT_EQ(a.quoted_rr, b.quoted_rr);
    EXPECT_EQ(a.quoted_rr_free_slots, b.quoted_rr_free_slots);
    EXPECT_EQ(a.reply_ip_id, b.reply_ip_id);
    EXPECT_EQ(a.send_time, b.send_time);
    EXPECT_EQ(a.rtt, b.rtt);
  }

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

  static void expect_traces_equal(const sim::ProbeTrace& a,
                                  const sim::ProbeTrace& b) {
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t e = 0; e < a.events.size(); ++e) {
      EXPECT_EQ(a.events[e].router, b.events[e].router);
      EXPECT_EQ(a.events[e].time, b.events[e].time);
      EXPECT_EQ(a.events[e].reply_leg, b.events[e].reply_leg);
    }
    EXPECT_EQ(a.counted_delivered, b.counted_delivered);
    EXPECT_EQ(a.counted_response, b.counted_response);
    EXPECT_EQ(a.counted_ttl_error, b.counted_ttl_error);
    EXPECT_EQ(a.counted_port_unreachable, b.counted_port_unreachable);
    EXPECT_EQ(a.doomed, b.doomed);
    EXPECT_EQ(a.doom_charged_loss, b.doom_charged_loss);
    EXPECT_EQ(a.doom_after_events, b.doom_after_events);
  }

  /// Sends one VP's ping-RR stream over the world's destinations in
  /// consecutive batches of `widths` (cycled until `probes` are sent), and
  /// the same stream scalar through a twin network, comparing every slot.
  static void expect_batches_match_scalar(double fault_rate,
                                          std::initializer_list<int> widths,
                                          std::size_t probes) {
    Testbed batched_bed = twin();
    Testbed scalar_bed = twin();
    const sim::FaultPlan plan{fault_rate > 0.0
                                  ? sim::FaultParams::uniform(fault_rate)
                                  : sim::FaultParams{}};
    batched_bed.network().set_fault_plan(plan);
    scalar_bed.network().set_fault_plan(plan);

    const topo::HostId vp = testbed_->vps().front()->host;
    auto batched = batched_bed.make_prober(vp, 20.0);
    auto scalar = scalar_bed.make_prober(vp, 20.0);
    const auto& topology = testbed_->topology();
    const auto dests = topology.destinations();

    std::size_t next = 0;
    for (auto width = widths.begin(); next < probes;) {
      const std::size_t m = std::min<std::size_t>(
          static_cast<std::size_t>(*width), probes - next);
      std::vector<probe::ProbeSpec> specs;
      for (std::size_t i = 0; i < m; ++i) {
        specs.push_back(probe::ProbeSpec::ping_rr(
            topology.host_at(dests[(next + i) % dests.size()]).address));
      }
      std::vector<sim::SendContext> ctxs(m);
      std::vector<probe::ProbeResult> results(m);
      batched.probe_batch_into(specs, ctxs, results);
      for (std::size_t i = 0; i < m; ++i) {
        SCOPED_TRACE(testing::Message() << "fault_rate " << fault_rate
                                        << " width " << m << " probe "
                                        << next + i);
        sim::SendContext ctx;
        probe::ProbeResult reference;
        scalar.probe_into(specs[i], &ctx, reference);
        expect_results_equal(results[i], reference);
        expect_counters_equal(ctxs[i].counters, ctx.counters);
        expect_traces_equal(ctxs[i].trace, ctx.trace);
      }
      next += m;
      if (++width == widths.end()) width = widths.begin();
    }
  }

  static Testbed* testbed_;
};

Testbed* BatchDifferentialTest::testbed_ = nullptr;

constexpr std::size_t kProbesPerWidth = 96;

TEST_F(BatchDifferentialTest, BatchedBitIdenticalWithoutFaults) {
  for (const int width : {1, 3, 7, 16}) {
    expect_batches_match_scalar(0.0, {width}, kProbesPerWidth);
  }
}

TEST_F(BatchDifferentialTest, BatchedBitIdenticalAtOnePercentFaults) {
  for (const int width : {1, 3, 7, 16}) {
    expect_batches_match_scalar(0.01, {width}, kProbesPerWidth);
  }
}

TEST_F(BatchDifferentialTest, BatchedBitIdenticalAtTenPercentFaults) {
  for (const int width : {1, 3, 7, 16}) {
    expect_batches_match_scalar(0.10, {width}, kProbesPerWidth);
  }
}

/// Mixed widths on one probe stream: the prober's clock and sequence
/// numbers must carry across ragged batches exactly as across scalar
/// probes.
TEST_F(BatchDifferentialTest, RaggedBatchWidthsBitIdentical) {
  expect_batches_match_scalar(0.0, {3, 16, 1, 7}, 4 * kProbesPerWidth);
  expect_batches_match_scalar(0.10, {7, 1, 16, 3}, 4 * kProbesPerWidth);
}

}  // namespace
}  // namespace rr::measure
