#!/usr/bin/env bash
# Compares a freshly produced BENCH_<name>.json against the committed
# reference in bench_results/ and fails on regressions:
#
#   * per-phase wall-clock times ("world", "campaign") each get their own
#     tolerance band — a compile-phase regression can no longer hide
#     inside a campaign-phase win;
#   * peak_rss_mib gets a (tighter) band of its own: the memory budget is
#     a product promise, not a side effect;
#   * deterministic values (headline rates, dataset_hash, destination
#     count) must match the reference exactly at any size — the campaign
#     is bit-reproducible, so ANY drift is an error, not a regression.
#
#   scripts/check_bench_regression.sh [fresh.json] [reference.json]
#
# Defaults: ./BENCH_table1.json vs bench_results/BENCH_table1.json.
# Tolerances (fractions over the reference) are overridable:
#   RROPT_BENCH_TOLERANCE       default band for phase times (0.25)
#   RROPT_BENCH_TOLERANCE_WORLD     world-phase override
#   RROPT_BENCH_TOLERANCE_CAMPAIGN  campaign-phase override
#   RROPT_BENCH_TOLERANCE_RSS   peak-RSS band (default 0.10)
set -eu

fresh=${1:-BENCH_table1.json}
reference=${2:-bench_results/BENCH_table1.json}
tolerance=${RROPT_BENCH_TOLERANCE:-0.25}
tolerance_world=${RROPT_BENCH_TOLERANCE_WORLD:-$tolerance}
tolerance_campaign=${RROPT_BENCH_TOLERANCE_CAMPAIGN:-$tolerance}
tolerance_rss=${RROPT_BENCH_TOLERANCE_RSS:-0.10}

# A missing *reference* is not an error: a fresh checkout (or a branch
# that predates the committed baseline) has nothing to compare against,
# and failing there would make the guard impossible to bootstrap. A
# missing *fresh* result still fails — the bench was supposed to run.
if [[ ! -f "$reference" ]]; then
  echo "check_bench_regression: no reference at $reference;" \
       "skipping comparison (commit one to enable the guard)" >&2
  exit 0
fi
if [[ ! -f "$fresh" ]]; then
  echo "check_bench_regression: missing $fresh" >&2
  exit 1
fi

extract() {  # extract <file> <key> — first numeric value for "key"
  sed -n "s/.*\"$2\": *\([0-9.eE+-]*\).*/\1/p" "$1" | head -n1
}
extract_string() {  # extract <file> <key> — first quoted value for "key"
  sed -n "s/.*\"$2\": *\"\([^\"]*\)\".*/\1/p" "$1" | head -n1
}

failures=0

# ---------------------------------------------------- deterministic values
# Exact-match keys, checked whenever both files carry them. dataset_hash
# is the strongest check: one flipped observation bit anywhere in a 500k-
# destination census changes it.
for key in ping_rate_by_ip rr_rate_by_ip rr_over_ping_by_ip \
           ping_rate rr_rate rr_over_ping destinations; do
  fresh_value=$(extract "$fresh" "$key")
  ref_value=$(extract "$reference" "$key")
  if [[ -n "$fresh_value" && -n "$ref_value" \
        && "$fresh_value" != "$ref_value" ]]; then
    echo "check_bench_regression: $key changed: $ref_value -> $fresh_value" >&2
    failures=1
  fi
done
fresh_hash=$(extract_string "$fresh" dataset_hash)
ref_hash=$(extract_string "$reference" dataset_hash)
if [[ -n "$fresh_hash" && -n "$ref_hash" ]]; then
  if [[ "$fresh_hash" != "$ref_hash" ]]; then
    echo "check_bench_regression: dataset_hash drifted:" \
         "$ref_hash -> $fresh_hash (campaign contents changed)" >&2
    failures=1
  else
    echo "dataset_hash: $fresh_hash (matches reference)"
  fi
fi

# Figure 5 row contents are bit-reproducible (with stop sets on or off, at
# any thread count), so any drift in the rows hash means the TTL study's
# numbers changed — an error, exactly like dataset_hash.
fresh_fig5=$(extract_string "$fresh" fig5_rows_hash)
ref_fig5=$(extract_string "$reference" fig5_rows_hash)
if [[ -n "$fresh_fig5" && -n "$ref_fig5" ]]; then
  if [[ "$fresh_fig5" != "$ref_fig5" ]]; then
    echo "check_bench_regression: fig5_rows_hash drifted:" \
         "$ref_fig5 -> $fresh_fig5 (Figure 5 contents changed)" >&2
    failures=1
  else
    echo "fig5_rows_hash: $fresh_fig5 (matches reference)"
  fi
fi

# ------------------------------------------------------- tolerance-banded
# check_band <label> <fresh> <ref> <tolerance>; empty values skip (not
# every bench has every phase, and non-Linux runs report rss 0).
check_band() {
  local label=$1 fresh_value=$2 ref_value=$3 tol=$4
  if [[ -z "$fresh_value" || -z "$ref_value" ]]; then
    return 0
  fi
  awk -v fresh="$fresh_value" -v ref="$ref_value" -v tol="$tol" \
      -v label="$label" '
    BEGIN {
      if (ref <= 0 || fresh <= 0) exit 0  # unmeasured on one side
      limit = ref * (1 + tol)
      printf "%s: %.3f fresh vs %.3f reference (limit %.3f, %+.0f%%)\n",
             label, fresh, ref, limit, (fresh / ref - 1) * 100
      if (fresh > limit) {
        printf "check_bench_regression: %s regressed %.0f%% (> %.0f%%)\n",
               label, (fresh / ref - 1) * 100, tol * 100 > "/dev/stderr"
        exit 1
      }
    }' || return 1
}

check_band "world phase (s)" "$(extract "$fresh" world)" \
  "$(extract "$reference" world)" "$tolerance_world" || failures=1
check_band "campaign phase (s)" "$(extract "$fresh" campaign)" \
  "$(extract "$reference" campaign)" "$tolerance_campaign" || failures=1
check_band "peak RSS (MiB)" "$(extract "$fresh" peak_rss_mib)" \
  "$(extract "$reference" peak_rss_mib)" "$tolerance_rss" || failures=1

# ------------------------------------------------ micro-bench walk gates
# The per-hop walk interpreter (BENCH_micro.json only). Besides the usual
# band against the committed reference, walk_pipeline_ns carries a hard
# absolute ceiling: the compiled element run list must stay at or below
# the 177 ns the hand-inlined view walk cost when the pipeline landed —
# an interpreter that costs more than the branch forest it replaced is a
# regression no matter what the reference drifted to.
walk_pipeline_ceiling_ns=${RROPT_WALK_PIPELINE_CEILING_NS:-177}
check_band "walk_pipeline_ns" "$(extract "$fresh" walk_pipeline_ns)" \
  "$(extract "$reference" walk_pipeline_ns)" "$tolerance" || failures=1
fresh_walk_pipeline=$(extract "$fresh" walk_pipeline_ns)
if [[ -n "$fresh_walk_pipeline" ]]; then
  awk -v v="$fresh_walk_pipeline" -v limit="$walk_pipeline_ceiling_ns" '
    BEGIN {
      if (v > limit) {
        printf "check_bench_regression: walk_pipeline_ns %.1f exceeds the " \
               "%.0f ns ceiling\n", v, limit > "/dev/stderr"
        exit 1
      }
      printf "walk_pipeline_ns: %.1f (ceiling %.0f)\n", v, limit
    }' || failures=1
fi

# The batched walk engine (walk_batch_pipeline) must beat the scalar
# interpreter per probe. walk_batch_speedup is bench_micro's best per-rep
# ratio of scalar over the best campaign-eligible width (batch >= 8,
# campaign pass A's regime): both sides of each rep's ratio are
# temporally adjacent samples of the same run, so the ratio is machine-
# speed-independent — it gates the batching win itself, not the box's
# frequency that day. The floor funds Campaign pass A's batched walk:
# if batching stops paying, this trips before the campaign
# quietly slows down.
walk_batch_speedup_floor=${RROPT_WALK_BATCH_SPEEDUP:-1.25}
fresh_walk_batch8=$(extract "$fresh" walk_batch8_ns)
fresh_walk_batch_speedup=$(extract "$fresh" walk_batch_speedup)
if [[ -n "$fresh_walk_batch_speedup" ]]; then
  awk -v ratio="$fresh_walk_batch_speedup" \
      -v floor="$walk_batch_speedup_floor" '
    BEGIN {
      printf "walk_batch_speedup: %.2fx over scalar (floor %.2fx)\n",
             ratio, floor
      if (ratio < floor) {
        printf "check_bench_regression: batched walk speedup %.2fx below " \
               "the %.2fx floor\n", ratio, floor > "/dev/stderr"
        exit 1
      }
    }' || failures=1
fi
check_band "walk_batch8_ns" "$fresh_walk_batch8" \
  "$(extract "$reference" walk_batch8_ns)" "$tolerance" || failures=1

# ------------------------------------------------ stop-set probing gates
# The trace census (BENCH_trace.json only) must keep delivering the
# Doubletree win: the honest off-vs-on probe reduction carries a hard
# floor (RROPT_STOPSET_REDUCTION, default 0.40). A stop-set change that
# stops saving probes is a perf regression of the subsystem's entire
# reason to exist, no matter how the wall-clock bands look.
stopset_reduction_floor=${RROPT_STOPSET_REDUCTION:-0.40}
fresh_reduction=$(extract "$fresh" stopset_reduction)
if [[ -n "$fresh_reduction" ]]; then
  awk -v r="$fresh_reduction" -v floor="$stopset_reduction_floor" '
    BEGIN {
      printf "stopset_reduction: %.1f%% (floor %.0f%%)\n",
             r * 100, floor * 100
      if (r < floor) {
        printf "check_bench_regression: stop-set probe reduction %.1f%% " \
               "below the %.0f%% floor\n", r * 100,
               floor * 100 > "/dev/stderr"
        exit 1
      }
    }' || failures=1
fi

if [[ "$failures" -ne 0 ]]; then
  exit 1
fi
echo "within tolerance"
