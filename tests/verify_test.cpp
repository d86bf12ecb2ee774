// Tests for tools/verify — the run-list abstract interpreter — and for
// the run_list_append capacity contract it polices.
//
// RroptVerify.RunTableSound is the tier-1 wiring point from ISSUE 10: the
// tables compile_run_table emits for the repo's real configs (default,
// paper-scale, faults-on, zero-loss) plus ~500 seeded random configs and
// element chains must all prove sound. The negative tests then corrupt
// lists in every way the invariants name and require the verifier to call
// each one out by its invariant id — a verifier that proves everything is
// worthless.
#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/behavior.h"
#include "sim/pipeline.h"
#include "verify/verify.h"

namespace rr {
namespace {

using sim::ElementOp;
using sim::HopRow;
using sim::PackedRunList;
using sim::PipelineConfig;
using verify::OptionState;
using verify::Violation;

[[nodiscard]] PipelineConfig default_config() {
  const sim::BehaviorParams params{};
  return {false, params.base_loss, params.options_extra_loss};
}

[[nodiscard]] bool has_invariant(const std::vector<Violation>& violations,
                                 const std::string& id) {
  return std::any_of(violations.begin(), violations.end(),
                     [&id](const Violation& v) { return v.invariant == id; });
}

[[nodiscard]] PackedRunList pack(std::initializer_list<ElementOp> ops) {
  PackedRunList list = 0;
  for (const ElementOp op : ops) list = sim::run_list_append(list, op);
  return list;
}

// ---------------------------------------------------------------- tier-1

TEST(RroptVerify, RunTableSound) {
  // The configs the repo actually runs. Paper scale shares the default
  // BehaviorParams losses (census_scale changes topology, not behaviour).
  const sim::BehaviorParams params{};
  const std::vector<PipelineConfig> real{
      {false, params.base_loss, params.options_extra_loss},  // default
      {false, params.base_loss, params.options_extra_loss},  // paper
      {true, params.base_loss, params.options_extra_loss},   // faults on
      {false, 0.0, 0.0},                                     // max elision
  };
  for (const PipelineConfig& config : real) {
    const sim::RunTable table = sim::compile_run_table(config);
    const verify::TableReport report = verify::verify_run_table(table, config);
    EXPECT_TRUE(report.ok()) << verify::format_report(report, false);
    EXPECT_EQ(report.entries.size(), 2 * HopRow::kNumPersonalities);
  }

  // ~500 seeded random configs through compile -> verify: every table the
  // compiler can emit proves sound, not just the four we ship.
  std::mt19937_64 rng{0xbeefcafe};
  std::uniform_real_distribution<double> loss{0.0, 0.05};
  for (int round = 0; round < 500; ++round) {
    const PipelineConfig config{(rng() & 1) != 0,
                                (rng() & 1) != 0 ? loss(rng) : 0.0,
                                (rng() & 1) != 0 ? loss(rng) : 0.0};
    const sim::RunTable table = sim::compile_run_table(config);
    const verify::TableReport report = verify::verify_run_table(table, config);
    ASSERT_TRUE(report.ok())
        << "round " << round << "\n"
        << verify::format_report(report, false);
  }
}

TEST(RroptVerify, RandomLegalChainsProveSound) {
  // Seeded random element chains built the way the compiler builds them —
  // a phase-ordered subset with at most one TTL write and one stamp —
  // must verify clean through verify_chain (which also round-trips the
  // packed encoding).
  std::mt19937_64 rng{0x5eed5eed};
  for (int round = 0; round < 500; ++round) {
    const bool faults = (rng() & 1) != 0;
    const PipelineConfig config{faults, 0.01, 0.01};
    std::vector<ElementOp> chain;
    if (faults) chain.push_back(ElementOp::kFaultInject);
    if ((rng() & 1) != 0) chain.push_back(ElementOp::kBaseLoss);
    if ((rng() & 1) != 0) chain.push_back(ElementOp::kSlowPathLoss);
    if (faults && (rng() & 1) != 0) chain.push_back(ElementOp::kStormGate);
    if ((rng() & 1) != 0) chain.push_back(ElementOp::kCoppGate);
    switch (rng() % 3) {
      case 0: chain.push_back(ElementOp::kTransitFilter); break;
      case 1: chain.push_back(ElementOp::kEdgeFilter); break;
      default: break;
    }
    const bool ttl = (rng() & 1) != 0;
    const bool stamp = (rng() & 1) != 0;
    if (ttl && stamp && !faults) {
      chain.push_back(ElementOp::kTtlStampTrusted);
    } else {
      if (ttl) chain.push_back(ElementOp::kTtl);
      if (stamp) {
        chain.push_back(faults ? ElementOp::kStamp
                               : ElementOp::kStampTrusted);
      }
    }
    const auto violations =
        verify::verify_chain(chain, OptionState::kPresent, config);
    ASSERT_TRUE(violations.empty())
        << "round " << round << ": " << violations.front().invariant << ": "
        << violations.front().message;
  }
}

// ----------------------------------------------- negative: each invariant

TEST(RroptVerify, FlagsOutOfOrderOpcodes) {
  // TTL before the CoPP gate breaks the load-bearing branch order.
  const auto violations =
      verify::verify_list(pack({ElementOp::kTtl, ElementOp::kCoppGate}),
                          OptionState::kPresent, default_config());
  EXPECT_TRUE(has_invariant(violations, "order"));
}

TEST(RroptVerify, FlagsDoubleTtlDecrement) {
  const auto violations =
      verify::verify_list(pack({ElementOp::kTtl, ElementOp::kTtl}),
                          OptionState::kAbsent, default_config());
  EXPECT_TRUE(has_invariant(violations, "ttl-monotone"));
}

TEST(RroptVerify, FlagsDoubleRrAdvance) {
  const auto violations = verify::verify_list(
      pack({ElementOp::kStampTrusted, ElementOp::kStampTrusted}),
      OptionState::kPresent, default_config());
  EXPECT_TRUE(has_invariant(violations, "rr-monotone"));
}

TEST(RroptVerify, FlagsFusedFollowedByStamp) {
  // The fused opcode already advanced the pointer; a trailing stamp both
  // double-advances and breaks the phase order.
  const auto violations = verify::verify_list(
      pack({ElementOp::kTtlStampTrusted, ElementOp::kStamp}),
      OptionState::kPresent, default_config());
  EXPECT_TRUE(has_invariant(violations, "rr-monotone"));
  EXPECT_TRUE(has_invariant(violations, "order"));
}

TEST(RroptVerify, FlagsOptionOpcodeInNoOptionsBank) {
  const auto violations =
      verify::verify_list(pack({ElementOp::kTtl, ElementOp::kStampTrusted}),
                          OptionState::kAbsent, default_config());
  EXPECT_TRUE(has_invariant(violations, "options-bank"));
}

TEST(RroptVerify, FlagsTrustedStampAfterFault) {
  PipelineConfig faulty = default_config();
  faulty.faults_enabled = true;
  const auto violations = verify::verify_list(
      pack({ElementOp::kFaultInject, ElementOp::kTtl,
            ElementOp::kStampTrusted}),
      OptionState::kPresent, faulty);
  EXPECT_TRUE(has_invariant(violations, "trusted-after-fault"));
  EXPECT_TRUE(has_invariant(violations, "trusted-under-faults"));
}

TEST(RroptVerify, FlagsTrustedStampUnderFaultConfig) {
  // Even with no fault opcode in *this* list, a faults-enabled config
  // voids the structural proof (another hop's fault element may rewrite
  // option bytes mid-walk).
  PipelineConfig faulty = default_config();
  faulty.faults_enabled = true;
  const auto violations =
      verify::verify_list(pack({ElementOp::kTtl, ElementOp::kStampTrusted}),
                          OptionState::kPresent, faulty);
  EXPECT_TRUE(has_invariant(violations, "trusted-under-faults"));
  EXPECT_FALSE(has_invariant(violations, "trusted-after-fault"));
}

TEST(RroptVerify, FlagsDeadCodePastTerminator) {
  // Hand-corrupt: kTtl at nibble 0, kEnd at nibble 1, kStamp at nibble 2.
  const PackedRunList list =
      static_cast<PackedRunList>(ElementOp::kTtl) |
      (static_cast<PackedRunList>(ElementOp::kStamp) << 8);
  const auto violations =
      verify::verify_list(list, OptionState::kPresent, default_config());
  EXPECT_TRUE(has_invariant(violations, "dead-code"));
}

TEST(RroptVerify, FlagsUnknownOpcodeNibble) {
  const PackedRunList list = 0xF;  // nibble value 15: no such opcode
  const auto violations =
      verify::verify_list(list, OptionState::kPresent, default_config());
  EXPECT_TRUE(has_invariant(violations, "decode"));
}

TEST(RroptVerify, FlagsOverlongChain) {
  // Nine opcodes: one more than the packed capacity. run_list_append
  // rejects the ninth, so the compile would silently drop behaviour —
  // verify_chain must flag it rather than verify the truncated list.
  const std::vector<ElementOp> chain{
      ElementOp::kFaultInject, ElementOp::kBaseLoss,
      ElementOp::kSlowPathLoss, ElementOp::kStormGate, ElementOp::kCoppGate,
      ElementOp::kTransitFilter, ElementOp::kEdgeFilter, ElementOp::kTtl,
      ElementOp::kStamp};
  PipelineConfig faulty = default_config();
  faulty.faults_enabled = true;
  const auto violations =
      verify::verify_chain(chain, OptionState::kPresent, faulty);
  EXPECT_TRUE(has_invariant(violations, "overflow"));
}

TEST(RroptVerify, FlagsCorruptedTableEntry) {
  // Corrupt one real entry of a real table: the visible-stamper fused
  // entry gets a second TTL opcode. verify_run_table must localize it.
  const PipelineConfig config = default_config();
  sim::RunTable table = sim::compile_run_table(config);
  const std::size_t index = HopRow::kNumPersonalities + HopRow::kStamps;
  table[index] = sim::run_list_append(table[index], ElementOp::kTtl);
  const verify::TableReport report = verify::verify_run_table(table, config);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_invariant(report.violations, "ttl-monotone"));
  for (const Violation& v : report.violations) {
    EXPECT_EQ(v.flags, HopRow::kStamps);
    EXPECT_TRUE(v.has_options);
  }
}

TEST(RroptVerify, FlagsMissingOpcodeAgainstSpec) {
  // Drop the CoPP gate from the rate-limited options entry: the abstract
  // execution is fine (gates are pure) but the double-entry personality
  // spec must notice the missing opcode.
  const PipelineConfig config = default_config();
  sim::RunTable table = sim::compile_run_table(config);
  const std::size_t index =
      HopRow::kNumPersonalities + HopRow::kRateLimited;
  table[index] = pack({ElementOp::kBaseLoss, ElementOp::kSlowPathLoss,
                       ElementOp::kTtl});
  const verify::TableReport report = verify::verify_run_table(table, config);
  EXPECT_TRUE(has_invariant(report.violations, "spec"));
}

TEST(RroptVerify, FlagsUnfusedPairAsPeepholeRegression) {
  // The unfused pair is byte-identical, but losing the fusion on the
  // hottest personality is a perf regression the spec check reports.
  const PipelineConfig config = default_config();
  sim::RunTable table = sim::compile_run_table(config);
  const std::size_t index = HopRow::kNumPersonalities + HopRow::kStamps;
  table[index] = pack({ElementOp::kBaseLoss, ElementOp::kSlowPathLoss,
                       ElementOp::kTtl, ElementOp::kStampTrusted});
  const verify::TableReport report = verify::verify_run_table(table, config);
  EXPECT_TRUE(has_invariant(report.violations, "spec"));
}

// ------------------------------------------------------------- the model

TEST(RroptVerify, GateOpcodesAreVerdictPureByModel) {
  for (const ElementOp op :
       {ElementOp::kBaseLoss, ElementOp::kSlowPathLoss, ElementOp::kStormGate,
        ElementOp::kCoppGate, ElementOp::kTransitFilter,
        ElementOp::kEdgeFilter}) {
    const verify::OpModel* model = verify::op_model(op);
    ASSERT_NE(model, nullptr);
    EXPECT_TRUE(model->gate) << model->name;
    EXPECT_FALSE(model->writes_ttl) << model->name;
    EXPECT_FALSE(model->stamps) << model->name;
    EXPECT_EQ(model->commits, 0) << model->name;
  }
  EXPECT_EQ(verify::op_model(static_cast<ElementOp>(15)), nullptr);
}

TEST(RroptVerify, FusedEntryCommitsOnceForTwoMutations) {
  verify::AbstractHeader post;
  const auto violations =
      verify::verify_list(pack({ElementOp::kTtlStampTrusted}),
                          OptionState::kPresent, default_config(), &post);
  EXPECT_TRUE(violations.empty());
  EXPECT_EQ(post.ttl_decrements, 1);
  EXPECT_EQ(post.rr_advances, 1);
  EXPECT_EQ(post.checksum_commits, 1);
  EXPECT_EQ(post.uncommitted_groups, 0);
}

TEST(RroptVerify, ReportFormatsProofsAndViolations) {
  const PipelineConfig config = default_config();
  sim::RunTable table = sim::compile_run_table(config);
  table[0] = pack({ElementOp::kTtl, ElementOp::kTtl});
  const verify::TableReport report = verify::verify_run_table(table, config);
  const std::string verbose = verify::format_report(report, true);
  EXPECT_NE(verbose.find("[VIOLATED]"), std::string::npos);
  EXPECT_NE(verbose.find("[proved]"), std::string::npos);
  EXPECT_NE(verbose.find("ttl-monotone"), std::string::npos);
  const std::string terse = verify::format_report(report, false);
  EXPECT_EQ(terse.find("[proved]"), std::string::npos);
}

// -------------------------------------------- run_list_append capacity

TEST(RunListAppend, RejectsPastEightOps) {
  PackedRunList list = 0;
  for (int i = 0; i < 8; ++i) {
    list = sim::run_list_append(list, ElementOp::kCoppGate);
  }
  EXPECT_TRUE(sim::run_list_full(list));
  EXPECT_EQ(sim::run_list_size(list), 8u);
#ifdef NDEBUG
  // Release builds reject: the list comes back unchanged instead of the
  // old silent truncation via an undefined 64-bit shift.
  const PackedRunList after = sim::run_list_append(list, ElementOp::kTtl);
  EXPECT_EQ(after, list);
  EXPECT_EQ(sim::run_list_size(after), 8u);
#else
  // Debug builds assert: appending to a full list is a compile bug.
  EXPECT_DEATH((void)sim::run_list_append(list, ElementOp::kTtl),
               "already holds 8 opcodes");
#endif
}

TEST(RunListAppend, FullDetectsExactBoundary) {
  PackedRunList list = 0;
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(sim::run_list_full(list));
    list = sim::run_list_append(list, ElementOp::kBaseLoss);
  }
  EXPECT_FALSE(sim::run_list_full(list));
  list = sim::run_list_append(list, ElementOp::kTtl);
  EXPECT_TRUE(sim::run_list_full(list));
}

}  // namespace
}  // namespace rr
