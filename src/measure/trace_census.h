// Trace census: every VP traceroutes every destination (the paper's
// traceroute companion campaign to the ping-RR census), with optional
// Doubletree stop sets (measure/stopset.h) eliminating intra- and
// inter-monitor redundancy.
//
// Execution is round-based so the global stop set stays deterministic at
// any thread count: within a round each VP traces a fixed slice of its
// (seeded, per-VP shuffled) destination order on pool workers, reading a
// *frozen* global set and buffering its own discoveries; between rounds
// the buffered insertions are committed serially in canonical VP order —
// the deferred pattern the token-bucket replay established. A VP's probe
// stream is therefore a pure function of (seed, round size, stop-set
// contents at round boundaries), never of thread timing, and the census
// asserts that by folding every VP's schedule into schedule_hash.
//
// Routes come from tables built for the census, not from the network's
// PathCache: a CompiledFib over VPs x the destination sample (built on the
// census's pool) answers every probe and echo reply, and each VP's
// route::ReplyRoutes answers the TTL-exceeded errors sent back to it.
#pragma once

#include <cstdint>
#include <vector>

#include "measure/stopset.h"
#include "measure/testbed.h"

namespace rr::measure {

struct TraceCensusConfig {
  /// Destinations traced per VP (0 = the topology's whole destination
  /// list). Each VP walks its own shuffled order over the same set.
  std::size_t per_vp_dests = 0;
  int max_ttl = 30;
  int attempts = 2;
  double pps = 20.0;
  std::uint64_t seed = 0x7261CE;
  /// Master switch: off = classic full traces (the baseline the probe
  /// reduction is measured against).
  bool use_stop_sets = true;
  int first_hop = 5;   // Doubletree's h (forward from h, backward h-1..1)
  int window = 4;      // forward-sweep batch width (TTLs per send_batch)
  /// Destinations each VP advances per commit round (global stop-set
  /// insertions become visible at round boundaries only). Smaller rounds
  /// surface inter-monitor facts sooner (more savings) at the cost of
  /// more serial commit points; 16 keeps the first blind round under a
  /// seventh of typical bench samples.
  std::size_t round = 16;
  int threads = 0;     // 0 = testbed default / RROPT_THREADS
};

struct TraceCensusResult {
  std::uint64_t traces = 0;
  std::uint64_t reached = 0;
  std::uint64_t probes_sent = 0;
  /// TTL slots the backward rule provably skipped (lower bound — forward
  /// stops save an unknowable remaining distance; benches measure the
  /// full reduction by running the census off-vs-on).
  std::uint64_t probes_saved = 0;
  StopSetStats stats;  // merged across VPs (membership checks / hits)

  /// Topology discovered by the census — the redundancy-independent
  /// analysis output: distinct TTL-exceeded responder interfaces and
  /// distinct directed router-router adjacencies, with order-independent
  /// hashes over the sorted sets.
  std::uint64_t interfaces = 0;
  std::uint64_t links = 0;
  std::uint64_t interface_hash = 0;
  std::uint64_t link_hash = 0;
  /// Per-VP probe schedules (every trace's target, probe count, stop
  /// TTLs, and hop list) folded in canonical VP order: bit-identical
  /// schedules <=> equal hashes, at any thread count.
  std::uint64_t schedule_hash = 0;

  /// Router -> VP routes stitched into the per-VP reply tables, summed
  /// across VPs: the distinct (responding router, VP) pairs of the census.
  std::uint64_t reply_routes = 0;

  std::uint64_t local_keys = 0;   // summed across VPs
  std::uint64_t global_keys = 0;
  std::uint64_t stopset_overflows = 0;
};

/// Runs the census on `testbed` (serial phase: no concurrent sends may be
/// in flight; the census manages its own worker pool).
[[nodiscard]] TraceCensusResult run_trace_census(Testbed& testbed,
                                                 const TraceCensusConfig& config);

}  // namespace rr::measure
