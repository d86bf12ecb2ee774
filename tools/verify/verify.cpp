#include "verify/verify.h"

#include <algorithm>
#include <array>
#include <sstream>

namespace rr::verify {

namespace {

using sim::ElementOp;
using sim::HopRow;
using sim::PackedRunList;
using sim::PipelineConfig;

/// Maximum opcodes a run list may hold: the longest legal composition
/// (fault, base loss, slow loss, storm, CoPP, one filter, TTL, stamp).
constexpr std::size_t kMaxRunOps = 8;

/// Phase ranks mirror compile_run_table's emission order, which mirrors
/// the retired walk's branch order — load-bearing for the pins (a storm
/// doom must precede the CoPP gate so the doomed packet still consumes
/// budget; filters run after the gate; TTL after the whole slow path;
/// stamping last). The fused opcode carries the TTL rank and implicitly
/// occupies the stamp rank too (nothing may follow it but kEnd, which the
/// rr/ttl single-advance invariants enforce).
constexpr int kPhaseFault = 0;
constexpr int kPhaseBaseLoss = 1;
constexpr int kPhaseSlowLoss = 2;
constexpr int kPhaseStorm = 3;
constexpr int kPhaseCopp = 4;
constexpr int kPhaseFilter = 5;
constexpr int kPhaseTtl = 6;
constexpr int kPhaseStamp = 7;

constexpr std::array<OpModel, 12> kOpModels{{
    // kEnd — never executed (the interpreter's loop guard); modelled as a
    // zero-effect terminator so indexing stays total.
    {"kEnd", -1, false, false, false, false, false, false, 0},
    // FaultInjectorElement: may blank/truncate/garble option content (each
    // mutate.h helper rewrites the checksum itself, so it is self-balanced)
    // and may exhaust the RR pointer; never touches TTL.
    {"kFaultInject", kPhaseFault, false, false, false, false, true, false, 0},
    {"kBaseLoss", kPhaseBaseLoss, true, false, false, false, false, false, 0},
    {"kSlowPathLoss", kPhaseSlowLoss, true, false, false, false, false, true,
     0},
    {"kStormGate", kPhaseStorm, true, false, false, false, false, true, 0},
    {"kCoppGate", kPhaseCopp, true, false, false, false, false, true, 0},
    {"kTransitFilter", kPhaseFilter, true, false, false, false, false, true,
     0},
    {"kEdgeFilter", kPhaseFilter, true, false, false, false, false, true, 0},
    // TtlDecrementElement: one guarded decrement, one RFC 1624 commit.
    {"kTtl", kPhaseTtl, false, true, false, false, false, false, 1},
    // StampElement: revalidates option bytes per stamp (fault-tolerant),
    // advances the pointer one slot under the fullness check, one commit.
    {"kStamp", kPhaseStamp, false, false, true, false, false, true, 1},
    // TrustedStampElement: same advance, revalidation skipped — licensed
    // only while option content is provably untouched since entry.
    {"kStampTrusted", kPhaseStamp, false, false, true, true, false, true, 1},
    // Fused TTL + trusted stamp: two mutation groups, ONE combined commit.
    {"kTtlStampTrusted", kPhaseTtl, false, true, true, true, false, true, 1},
}};

[[nodiscard]] std::string op_sequence(PackedRunList list) {
  std::string out;
  for (PackedRunList w = list; (w & 0xF) != 0; w >>= 4) {
    if (!out.empty()) out += ", ";
    const auto nibble = static_cast<std::uint8_t>(w & 0xF);
    const OpModel* model = op_model(static_cast<ElementOp>(nibble));
    out += model != nullptr ? model->name : "<bad nibble>";
  }
  return out.empty() ? "<empty>" : out;
}

/// Collects violations for one list with shared entry coordinates.
class Reporter {
 public:
  Reporter(std::vector<Violation>& out, std::uint8_t flags, bool has_options,
           PackedRunList list)
      : out_(out), flags_(flags), has_options_(has_options), list_(list) {}

  void violation(std::string invariant, std::string message) {
    out_.push_back({flags_, has_options_, list_, std::move(invariant),
                    std::move(message)});
  }

 private:
  std::vector<Violation>& out_;
  std::uint8_t flags_;
  bool has_options_;
  PackedRunList list_;
};

/// Applies one opcode's transfer function to the abstract state, emitting
/// violations for every invariant the step would break. `step` is the
/// 0-based position (for messages only).
void transfer(ElementOp op, std::size_t step, OptionState entry_options,
              const PipelineConfig& config, AbstractHeader& state,
              Reporter& report) {
  const OpModel& m = *op_model(op);
  const std::string where =
      "step " + std::to_string(step) + " (" + m.name + ")";

  // Gate opcodes are verdict-pure by model construction; the check below
  // keeps the model honest if an opcode ever gets reclassified.
  if (m.gate && (m.writes_ttl || m.stamps || m.fault || m.commits != 0)) {
    report.violation("gate-writes",
                     where + " is a gate opcode but its transfer function "
                             "writes the header");
  }

  // Option-touching opcodes are illegal against a packet with no options:
  // the concrete element would at best silently no-op (rr_offset_ ==
  // kNone), which means the compiler emitted dead behaviour into the
  // fast-path bank.
  if (m.needs_options && entry_options == OptionState::kAbsent) {
    report.violation("options-bank",
                     where + " touches IP options but was compiled into the "
                             "no-options bank");
  }

  if (m.writes_ttl) {
    if (state.ttl_decrements >= 1) {
      report.violation("ttl-monotone",
                       where + " decrements TTL a second time in one hop");
    }
    ++state.ttl_decrements;
    // Guarded decrement: TTL 0 never survives (drop), so the post interval
    // decrements and clamps. Strict monotonicity is structural — no opcode
    // model carries a TTL increment.
    state.ttl.lo = std::max(0, state.ttl.lo - 1);
    state.ttl.hi = std::max(0, state.ttl.hi - 1);
    ++state.uncommitted_groups;
  }

  if (m.stamps) {
    if (state.rr_advances >= 1) {
      report.violation("rr-monotone",
                       where + " advances the RR pointer a second time in "
                               "one hop");
    }
    ++state.rr_advances;
    ++state.uncommitted_groups;
    if (m.trusted && state.option_content_tainted) {
      report.violation(
          "trusted-after-fault",
          where + " skips option revalidation after a fault opcode that may "
                  "have rewritten option content — the trusted-stamp proof "
                  "does not hold");
    }
    if (m.trusted && config.faults_enabled) {
      report.violation(
          "trusted-under-faults",
          where + " is a trusted stamp but the config compiles fault "
                  "elements — the structural no-mid-walk-option-writes "
                  "proof does not hold");
    }
  }

  if (m.fault) {
    // Fault opcodes rewrite option content in place (never the geometry)
    // and may exhaust the RR pointer; every mutate.h helper rewrites the
    // checksum itself, so the abstract accumulator stays balanced. From
    // here on only revalidating stamps are licensed.
    state.option_content_tainted = true;
  }

  if (m.commits > 0) {
    // A commit covers every group the opcode itself produced. Only the
    // fused opcode may cover two groups with one commit — a non-fused
    // opcode claiming multiple groups per commit would mean a skipped
    // RFC 1624 patch somewhere.
    const bool fused = m.writes_ttl && m.stamps;
    const int covered = fused ? 2 : 1;
    if (state.uncommitted_groups < covered) {
      report.violation("checksum-balance",
                       where + " commits a checksum delta with no matching "
                               "header mutation");
    }
    state.uncommitted_groups =
        std::max(0, state.uncommitted_groups - covered);
    state.checksum_commits += m.commits;
    if (fused && m.commits != 1) {
      report.violation("checksum-balance",
                       where + " is fused but does not commit exactly one "
                               "combined delta");
    }
  }
}

/// Abstract effect signature used for the fused-vs-unfused equivalence
/// proof: everything observable about the final header bytes, deliberately
/// excluding how the commits were *grouped* (one fused RMW vs two RMWs of
/// the same composed delta — RFC 1624 deltas compose exactly).
struct EffectSignature {
  TtlInterval ttl;
  int ttl_decrements = 0;
  int rr_advances = 0;
  int uncommitted_groups = 0;
  bool tainted = false;

  [[nodiscard]] bool operator==(const EffectSignature& other) const {
    return ttl.lo == other.ttl.lo && ttl.hi == other.ttl.hi &&
           ttl_decrements == other.ttl_decrements &&
           rr_advances == other.rr_advances &&
           uncommitted_groups == other.uncommitted_groups &&
           tainted == other.tainted;
  }
};

[[nodiscard]] EffectSignature signature_of(const AbstractHeader& state) {
  return {state.ttl, state.ttl_decrements, state.rr_advances,
          state.uncommitted_groups, state.option_content_tainted};
}

/// Abstractly executes a decoded opcode sequence without structural checks
/// (used for the unfused expansions, whose lists are synthesized here and
/// already structurally valid). Violations still collect.
AbstractHeader interpret(std::span<const ElementOp> ops,
                         OptionState entry_options,
                         const PipelineConfig& config, Reporter& report) {
  AbstractHeader state;
  state.options = entry_options;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    transfer(ops[k], k, entry_options, config, state, report);
  }
  return state;
}

/// Decodes a packed list into opcodes, reporting structural violations
/// (unknown nibbles, dead opcodes past the terminator, over-long lists).
std::vector<ElementOp> decode(PackedRunList list, Reporter& report) {
  std::vector<ElementOp> ops;
  bool ended = false;
  for (std::size_t k = 0; k < 16; ++k) {
    const auto nibble = static_cast<std::uint8_t>((list >> (4 * k)) & 0xF);
    if (nibble == 0) {
      ended = true;
      continue;
    }
    if (op_model(static_cast<ElementOp>(nibble)) == nullptr) {
      report.violation("decode", "nibble " + std::to_string(k) +
                                     " holds unknown opcode value " +
                                     std::to_string(nibble));
      continue;
    }
    if (ended) {
      // The interpreter stops at the first kEnd nibble, so these opcodes
      // are dead — a mis-compile (no append sequence produces a gap).
      report.violation("dead-code",
                       "opcode at nibble " + std::to_string(k) +
                           " is unreachable past the kEnd terminator");
      continue;
    }
    ops.push_back(static_cast<ElementOp>(nibble));
  }
  if (ops.size() > kMaxRunOps) {
    report.violation("overflow",
                     "run list holds " + std::to_string(ops.size()) +
                         " opcodes; kEnd must be reachable in <= " +
                         std::to_string(kMaxRunOps) + " nibbles");
  }
  return ops;
}

void check_order(std::span<const ElementOp> ops, Reporter& report) {
  int last_phase = -1;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const OpModel& m = *op_model(ops[k]);
    if (m.phase <= last_phase) {
      report.violation(
          "order", std::string{"opcode "} + m.name + " at step " +
                       std::to_string(k) +
                       " violates the compile phase order (gates before "
                       "TTL, one filter, stamping last)");
    }
    last_phase = m.phase;
    // The fused opcode also occupies the stamp rank: nothing but kEnd may
    // legally follow (a later kStamp would double-advance, caught above;
    // a later gate breaks the order here).
    if (m.writes_ttl && m.stamps) last_phase = kPhaseStamp;
  }
}

/// Proves every fused opcode byte-equivalent to its unfused expansion
/// under the abstract semantics: replace the fused step with the pair and
/// compare effect signatures over the whole list.
void check_fusion(std::span<const ElementOp> ops, OptionState entry_options,
                  const PipelineConfig& config, Reporter& report) {
  for (std::size_t k = 0; k < ops.size(); ++k) {
    if (ops[k] != ElementOp::kTtlStampTrusted) continue;
    std::vector<ElementOp> unfused(ops.begin(), ops.end());
    unfused[k] = ElementOp::kTtl;
    unfused.insert(unfused.begin() + static_cast<std::ptrdiff_t>(k) + 1,
                   ElementOp::kStampTrusted);
    // Interpret both sequences into scratch reporters: the expansion's own
    // violations are not the entry's (e.g. trusted-under-faults would
    // double-report); only the effect signatures are compared.
    std::vector<Violation> scratch;
    Reporter mute{scratch, 0, false, 0};
    const AbstractHeader fused_post =
        interpret(ops, entry_options, config, mute);
    const AbstractHeader unfused_post =
        interpret(unfused, entry_options, config, mute);
    if (!(signature_of(fused_post) == signature_of(unfused_post))) {
      report.violation(
          "fusion-equivalence",
          "fused kTtlStampTrusted at step " + std::to_string(k) +
              " is not abstractly equivalent to kTtl; kStampTrusted");
    }
  }
}

/// The independently re-derived personality spec: which opcodes the entry
/// for (flags, has_options) must and must not contain under `config`.
/// Deliberately written as per-opcode predicates, not as an ordered
/// emission loop, so it cannot share a bug with compile_run_table.
struct EntrySpec {
  bool fault = false;
  bool base_loss = false;
  bool slow_loss = false;
  bool storm = false;
  bool copp = false;
  bool transit = false;
  bool edge = false;
  int ttl_decrements = 0;
  int rr_advances = 0;
  bool trusted_allowed = false;
  bool fused_expected = false;
};

[[nodiscard]] EntrySpec entry_spec(std::uint8_t flags, bool has_options,
                                   const PipelineConfig& config) {
  EntrySpec spec;
  spec.fault = config.faults_enabled;
  spec.base_loss = config.base_loss > 0.0;
  spec.slow_loss = has_options && config.options_extra_loss > 0.0;
  spec.storm = has_options && config.faults_enabled;
  spec.copp = has_options && (flags & HopRow::kRateLimited) != 0;
  spec.transit = has_options && (flags & HopRow::kFiltersTransit) != 0;
  spec.edge = has_options && !spec.transit &&
              (flags & HopRow::kFiltersEdge) != 0;
  spec.ttl_decrements = (flags & HopRow::kHidden) == 0 ? 1 : 0;
  spec.rr_advances =
      (has_options && (flags & HopRow::kStamps) != 0) ? 1 : 0;
  spec.trusted_allowed = !config.faults_enabled;
  spec.fused_expected = spec.ttl_decrements == 1 && spec.rr_advances == 1 &&
                        spec.trusted_allowed;
  return spec;
}

void check_spec(std::span<const ElementOp> ops, std::uint8_t flags,
                bool has_options, const PipelineConfig& config,
                const AbstractHeader& post, Reporter& report) {
  const EntrySpec spec = entry_spec(flags, has_options, config);
  const auto has = [&ops](ElementOp op) {
    return std::find(ops.begin(), ops.end(), op) != ops.end();
  };
  const auto expect = [&](ElementOp op, bool expected, const char* why) {
    if (has(op) == expected) return;
    report.violation("spec", std::string{expected ? "missing " : "stray "} +
                                 op_model(op)->name + ": " + why);
  };
  expect(ElementOp::kFaultInject, spec.fault,
         "fault injection follows the installed plan's enabled state");
  expect(ElementOp::kBaseLoss, spec.base_loss,
         "base loss gates exist iff base_loss > 0");
  expect(ElementOp::kSlowPathLoss, spec.slow_loss,
         "slow-path loss gates exist iff options and options_extra_loss > 0");
  expect(ElementOp::kStormGate, spec.storm,
         "storm gates exist iff options and the fault plan is enabled");
  expect(ElementOp::kCoppGate, spec.copp,
         "CoPP gates exist iff options and the router is rate-limited");
  expect(ElementOp::kTransitFilter, spec.transit,
         "transit filters exist iff options and the AS filters transit");
  expect(ElementOp::kEdgeFilter, spec.edge,
         "edge filters exist iff options, the AS filters its edge, and no "
         "transit filter shadows it");
  if (post.ttl_decrements != spec.ttl_decrements) {
    report.violation(
        "spec", "personality decrements TTL " +
                    std::to_string(post.ttl_decrements) + " time(s), spec "
                    "requires " + std::to_string(spec.ttl_decrements) +
                    ((flags & HopRow::kHidden) != 0
                         ? " (hidden routers do not decrement)"
                         : " (visible routers decrement exactly once)"));
  }
  if (post.rr_advances != spec.rr_advances) {
    report.violation(
        "spec", "personality advances the RR pointer " +
                    std::to_string(post.rr_advances) + " time(s), spec "
                    "requires " + std::to_string(spec.rr_advances));
  }
  if (!spec.trusted_allowed &&
      (has(ElementOp::kStampTrusted) || has(ElementOp::kTtlStampTrusted))) {
    report.violation("spec",
                     "trusted stamp compiled under an enabled fault plan");
  }
  if (spec.fused_expected && spec.rr_advances == 1 &&
      !has(ElementOp::kTtlStampTrusted)) {
    // Not a soundness bug — the unfused pair is byte-identical — but a
    // silent peephole regression on the census's hottest personality.
    report.violation("spec",
                     "fusible TTL+trusted-stamp pair was not fused "
                     "(peephole regression on the hottest personality)");
  }
}

}  // namespace

const OpModel* op_model(ElementOp op) noexcept {
  const auto index = static_cast<std::size_t>(op);
  if (index >= kOpModels.size()) return nullptr;
  return &kOpModels[index];
}

std::vector<Violation> verify_list(PackedRunList list, OptionState options,
                                   const PipelineConfig& config,
                                   AbstractHeader* post) {
  std::vector<Violation> violations;
  Reporter report{violations, 0, options == OptionState::kPresent, list};
  const std::vector<ElementOp> ops = decode(list, report);
  check_order(ops, report);
  AbstractHeader state = interpret(ops, options, config, report);
  if (state.uncommitted_groups != 0) {
    report.violation("checksum-balance",
                     std::to_string(state.uncommitted_groups) +
                         " header mutation group(s) end the run without an "
                         "RFC 1624 commit");
  }
  check_fusion(ops, options, config, report);
  if (post != nullptr) *post = state;
  return violations;
}

std::vector<Violation> verify_entry(PackedRunList list, std::uint8_t flags,
                                    bool has_options,
                                    const PipelineConfig& config,
                                    AbstractHeader* post) {
  const OptionState options =
      has_options ? OptionState::kPresent : OptionState::kAbsent;
  AbstractHeader state;
  std::vector<Violation> violations = verify_list(list, options, config,
                                                  &state);
  Reporter report{violations, flags, has_options, list};
  std::vector<Violation> scratch;  // decode already reported structure
  Reporter mute{scratch, flags, has_options, list};
  const std::vector<ElementOp> ops = decode(list, mute);
  check_spec(ops, flags, has_options, config, state, report);
  for (Violation& v : violations) {
    v.flags = flags;
    v.has_options = has_options;
  }
  if (post != nullptr) *post = state;
  return violations;
}

std::vector<Violation> verify_chain(std::span<const ElementOp> chain,
                                    OptionState options,
                                    const PipelineConfig& config) {
  std::vector<Violation> violations;
  PackedRunList list = 0;
  for (const ElementOp op : chain) list = sim::run_list_append(list, op);
  Reporter report{violations, 0, options == OptionState::kPresent, list};
  if (chain.size() > kMaxRunOps) {
    report.violation("overflow",
                     "element chain holds " + std::to_string(chain.size()) +
                         " opcodes; the packed run list caps at " +
                         std::to_string(kMaxRunOps) +
                         " and run_list_append rejects the rest — the "
                         "compile would silently drop behaviour");
    return violations;
  }
  // Encode round-trip: the packed form must decode to the chain (an
  // append/terminator bug would show up here before any semantic check).
  if (sim::run_list_size(list) != chain.size()) {
    report.violation("overflow", "packed run list dropped opcodes");
    return violations;
  }
  for (std::size_t k = 0; k < chain.size(); ++k) {
    if (sim::run_list_at(list, k) != chain[k]) {
      report.violation("decode", "packed run list decodes to a different "
                                 "opcode at step " + std::to_string(k));
    }
  }
  auto list_violations = verify_list(list, options, config, nullptr);
  violations.insert(violations.end(),
                    std::make_move_iterator(list_violations.begin()),
                    std::make_move_iterator(list_violations.end()));
  return violations;
}

TableReport verify_run_table(const sim::RunTable& table,
                             const PipelineConfig& config) {
  TableReport report;
  report.config = config;
  report.entries.reserve(table.size());
  for (int options = 0; options < 2; ++options) {
    for (std::size_t flags = 0; flags < HopRow::kNumPersonalities; ++flags) {
      const std::size_t index =
          (options != 0 ? HopRow::kNumPersonalities : 0) + flags;
      EntryProof proof;
      proof.flags = static_cast<std::uint8_t>(flags);
      proof.has_options = options != 0;
      proof.list = table[index];
      proof.steps = sim::run_list_size(proof.list);
      auto violations =
          verify_entry(proof.list, proof.flags, proof.has_options, config,
                       &proof.post);
      proof.ok = violations.empty();
      report.entries.push_back(proof);
      report.violations.insert(report.violations.end(),
                               std::make_move_iterator(violations.begin()),
                               std::make_move_iterator(violations.end()));
    }
  }
  return report;
}

bool run_table_sound(const sim::RunTable& table,
                     const PipelineConfig& config) {
  return verify_run_table(table, config).ok();
}

std::string describe_config(const PipelineConfig& config) {
  std::ostringstream out;
  out << "faults=" << (config.faults_enabled ? "on" : "off")
      << " base_loss=" << config.base_loss
      << " options_extra_loss=" << config.options_extra_loss;
  return out.str();
}

std::string format_report(const TableReport& report, bool verbose) {
  std::ostringstream out;
  out << "rropt_verify: " << describe_config(report.config) << "\n";
  std::size_t proved = 0;
  for (const EntryProof& entry : report.entries) {
    if (entry.ok) ++proved;
    if (!verbose && entry.ok) continue;
    out << (entry.ok ? "  [proved]   " : "  [VIOLATED] ") << "flags=0b";
    for (int bit = 4; bit >= 0; --bit) {
      out << ((entry.flags >> bit) & 1);
    }
    out << " options=" << (entry.has_options ? 1 : 0) << " steps="
        << entry.steps << "  ttl-dec=" << entry.post.ttl_decrements
        << " rr-adv=" << entry.post.rr_advances
        << " commits=" << entry.post.checksum_commits << "  [";
    out << op_sequence(entry.list) << "]\n";
  }
  for (const Violation& violation : report.violations) {
    out << "  violation: flags=0b";
    for (int bit = 4; bit >= 0; --bit) {
      out << ((violation.flags >> bit) & 1);
    }
    out << " options=" << (violation.has_options ? 1 : 0) << " ["
        << violation.invariant << "] " << violation.message << "\n";
  }
  out << "  " << proved << "/" << report.entries.size()
      << " entries proved, " << report.violations.size() << " violation"
      << (report.violations.size() == 1 ? "" : "s") << "\n";
  return out.str();
}

}  // namespace rr::verify
