#!/usr/bin/env python3
"""Census benchmark for rropt: probes/s, CPU and probe cost of the
Table 1 ping-RR census and the Doubletree trace census.

    python3 perfbench/run.py                     # every workload, one table
    python3 perfbench/run.py --workload pingrr_census --seed 3 \
        --seconds 10 --trace 0                   # one workload
    python3 perfbench/run.py --world-seed heldout ...   # held-out world
    python3 perfbench/run.py --pin               # recompute spec.json pins

Run from the root of a source checkout. The first call builds the program
and the workload program (census_bench.cpp) into .bench_build/perfbench.
Each workload runs in its own process. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}, where
attempted/failed count output checks. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. The exit code is
non-zero when a check fails.

Inputs: the world comes from --world-seed (default: spec.json world.seed);
the workload seed --seed picks the census input seed
spec.json input_seeds[seed % len(input_seeds)], so every run's outputs can
be checked against the hashes pinned for that (world, input) pair.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import stats  # noqa: E402


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ------------------------------------------------------------------ build

def build():
    """Configures (once) and builds census_bench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "measure", "campaign.h")):
        fail("rropt sources (src/) not found next to perfbench/")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run([cmake, "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run([cmake, "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "census_bench")


# ------------------------------------------------------------------- host

def cpu_times():
    """(total, steal) jiffies from the aggregate line of /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return sum(fields[:8]), (fields[7] if len(fields) > 7 else 0)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


# ------------------------------------------------------------- workloads

def run_child(exe, spec, workload, world_seed, input_seed, seconds, trace,
              pin_only=False):
    """Runs one workload process; returns (doc, spans or None, host)."""
    wl = spec["workloads"][workload]
    threads = max(1, min(wl["threads"], os.cpu_count() or 1))
    spans_path = os.path.join(BUILD_ROOT, "spans",
                              f"{workload}-{world_seed}-{input_seed}.json")
    cmd = [exe, "--workload", wl["kind"], "--threads", str(threads),
           "--world-seed", str(world_seed), "--input-seed", str(input_seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if pin_only:
        # One world build and one census: only the outputs are wanted.
        cmd += ["--setup-reps", "1", "--min-reps", "1"]
    if trace:
        os.makedirs(os.path.dirname(spans_path), exist_ok=True)
        cmd += ["--spans-out", spans_path]
    env = dict(os.environ, RROPT_THREADS=str(threads))
    total0, steal0 = cpu_times()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    total1, steal1 = cpu_times()
    if proc.returncode != 0:
        fail(f"{workload}: census_bench exited with {proc.returncode}", 1)
    doc = json.loads(out.strip().splitlines()[-1])
    spans = stats.parse_spans(load_json(spans_path)) if trace else None
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": threads,
        "steal_share": ((steal1 - steal0) / (total1 - total0)
                        if total1 > total0 else 0.0),
        "involuntary_ctx_switches":
            doc["host"]["involuntary_ctx_switches"],
    }
    return doc, spans, host


def end_to_end(doc):
    """Every end-to-end metric of one run, and the per-repetition
    summaries (median, quartiles, count) behind the timed ones."""
    body = doc["body"]
    reps = body["reps"]
    per_rep = {
        "setup_s": doc["setup"]["total_s"],
        "probes_per_s": [r["probes_sent"] / r["wall_s"] for r in reps],
        "pairs_per_s": [r["pairs"] / r["wall_s"] for r in reps],
        "census_cpu_s": [r["cpu_s"] for r in reps],
    }
    summaries = {k: stats.quartile_summary(v) for k, v in per_rep.items()}
    metrics = {k: s["median"] for k, s in summaries.items()}
    metrics.update({
        "peak_rss_mib": doc["peak_rss_mib"],
        "probes_sent": reps[-1]["probes_sent"],
        "interfaces_found": body["outputs"]["interfaces_found"],
    })
    return metrics, summaries


def per_layer(doc, spans):
    """Every per-layer metric of one traced run, and the sample count
    behind each sampled one. A layer the workload does not call reports
    0."""
    body = doc["body"]
    setup = doc["setup"]
    traced = body["traced_reps"]
    untraced = body["reps"]
    layer = body.get("layer_pass", {})
    data_pass = body.get("data_pass", {})
    med = stats.median
    is_ping = doc["workload"] == "pingrr"

    def rep_median(key):
        return med([r[key] for r in traced]) if is_ping else 0.0

    samples = {}

    def sampled(name, scale=1.0):
        """(p50, p99) per call of the spans called `name`; zeros when this
        workload's layer pass does not sample it."""
        values = stats.per_call(spans, name, scale)
        samples[name] = len(values)
        if not values:
            return 0.0, 0.0
        return stats.percentile(values, 50), stats.tail(values, 99)

    def span_median(name):
        ds = [(s["end"] - s["start"]) * 1e-9 for s in spans
              if s["name"] == name]
        return med(ds) if ds else 0.0

    m = {
        "topology.generate_s": med(setup["generate_s"]),
        "sim.behaviors_s": med(setup["behaviors_s"]),
        "measure.testbed_init_s": med(setup["testbed_init_s"]),
        "routing.fib_build_s": layer.get("fib_build_s", 0.0),
        "routing.fib_blocks": layer.get("fib_blocks", 0),
        "routing.fib_spine_pairs": layer.get("fib_spine_pairs", 0),
        "routing.fib_mib": layer.get("fib_mib", 0.0),
    }
    m["routing.fib_lookup_ns.p50"], m["routing.fib_lookup_ns.p99"] = \
        sampled("routing.fib_lookup")
    m["routing.stitch_ns.p50"], m["routing.stitch_ns.p99"] = \
        sampled("routing.stitch")
    hits = sum(r["cache_hits"] for r in traced)
    lookups = hits + sum(r["cache_misses"] for r in traced)
    m["routing.path_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    m["packet.build_ns"] = sampled("packet.build")[0]
    m["packet.parse_ns"] = sampled("packet.parse")[0]
    (m["sim.send_batch_ns_per_probe.p50"],
     m["sim.send_batch_ns_per_probe.p99"]) = sampled("sim.send_batch")
    m["sim.replay_ns_per_event"] = sampled("sim.replay")[0]
    m["sim.bucket_events_per_probe"] = layer.get("bucket_events_per_probe",
                                                 0.0)
    events = layer.get("replay_events", 0)
    m["sim.replay_kill_ratio"] = (layer.get("replay_kills", 0) / events
                                  if events else 0.0)
    (m["probe.pingrr_ns_per_probe.p50"],
     m["probe.pingrr_ns_per_probe.p99"]) = sampled("probe.pingrr_batch")
    m["probe.ping_ns"] = sampled("probe.ping")[0]
    m["probe.buffer_growths"] = body["outputs"].get("probe_buffer_growths", 0)
    m["probe.trace_us.p50"], m["probe.trace_us.p99"] = \
        sampled("probe.trace", 1e-3)
    m["probe.probes_per_trace"] = (
        0.0 if is_ping else
        med([r["probes_sent"] / r["pairs"] for r in traced]))

    m["measure.pass_a_s"] = rep_median("pass_a_s")
    m["measure.pass_b_s"] = rep_median("pass_b_s")
    m["measure.campaign_unattributed_s"] = (
        med([r["run_s"] - r["pass_a_s"] - r["pass_b_s"] for r in traced])
        - m["routing.fib_build_s"] if is_ping else 0.0)
    chunks = sum(r.get("sharded_chunks", 0) + r.get("fallback_chunks", 0)
                 for r in traced)
    m["measure.replay_sharded_ratio"] = (
        sum(r.get("sharded_chunks", 0) for r in traced) / chunks
        if chunks else 0.0)
    m["measure.stopset_hit_rate"] = (
        0.0 if is_ping else med([r["stopset_hit_rate"] for r in traced]))
    m["measure.probes_saved"] = body["outputs"].get("probes_saved", 0)
    m["measure.stopset_overflows"] = (
        0 if is_ping else max(r["stopset_overflows"] for r in traced))
    m["measure.stopset_contains_ns"] = sampled("measure.stopset_contains")[0]

    m["data.freeze_s"] = rep_median("freeze_s")
    m["data.hash_s"] = rep_median("hash_s")
    m["data.serialize_s"] = span_median("data.serialize")
    m["data.parse_s"] = span_median("data.parse")
    m["data.mib"] = data_pass.get("data_mib", 0.0)
    m["analysis.response_table_s"] = rep_median("table_s")
    m["util.cores_busy"] = med([r["cpu_s"] / r["wall_s"] for r in traced])

    # Tracing overhead and closure. Census root spans cover one traced
    # repetition; their children are the calls the workload makes.
    m["trace.overhead_ratio"] = (med([r["wall_s"] for r in traced]) /
                                 med([r["wall_s"] for r in untraced]))
    selfs = stats.self_times(spans)
    roots = [s for s in spans if s["name"].startswith("census.")]
    m["trace.span_coverage"] = med(
        [1.0 - selfs[s["id"]] / (s["end"] - s["start"]) for s in roots])
    return m, samples


# ---------------------------------------------------------------- checks

def check_outputs(doc, spec, workload, world_seed, input_seed):
    """[(name, ok, detail)] for one run's outputs."""
    out = doc["body"]["outputs"]
    reps = doc["body"]["reps"] + doc["body"]["traced_reps"]
    results = [(f"census_bench.{k}", bool(v), "")
               for k, v in doc["checks"].items()]
    sent = {r["probes_sent"] for r in reps}
    results.append(("probes_sent_same_every_repetition", len(sent) == 1,
                    str(sorted(sent))))

    pins = spec["pins"].get(str(world_seed), {}).get(str(input_seed))
    kind = spec["workloads"][workload]["kind"]
    if pins is not None:
        p = pins[kind]
        for key, value in p.items():
            results.append((f"pinned.{key}", out[key] == value,
                            f"got {out[key]}, pinned {value}"))
    else:
        results.append(("pins_exist_for_world_and_input", False,
                         f"no pins for world {world_seed} input "
                         f"{input_seed}; run --pin"))
    for key, (lo, hi) in spec["bands"].get(kind, {}).items():
        got = out[key]
        results.append((f"band.{key}", lo <= got <= hi,
                        f"{got:.4f} in [{lo}, {hi}]"))
    return results


# ------------------------------------------------------------------ main

def resolve_world_seed(spec, text):
    if text is None:
        return spec["world"]["seed"]
    if text == "heldout":
        return spec["world"]["heldout_seed"]
    return int(text)


def input_seed_for(spec, seed):
    seeds = spec["input_seeds"]
    return seeds[seed % len(seeds)]


def run_one(exe, spec, bench, workload, seed, seconds, trace, world_seed):
    input_seed = input_seed_for(spec, seed)
    doc, spans, host = run_child(exe, spec, workload, world_seed, input_seed,
                                 seconds, trace)
    summaries = {}
    if trace:
        metrics, samples = per_layer(doc, spans)
    else:
        metrics, summaries = end_to_end(doc)
        samples = {}
    checks = check_outputs(doc, spec, workload, world_seed, input_seed)
    declared = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        fail(f"metrics not computed: {missing}", 1)
    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "workload": workload, "seed": seed, "world_seed": world_seed,
        "input_seed": input_seed, "trace": int(trace), "host": host,
        "repetitions": len(doc["body"]["reps"]),
        "samples": samples,
        "summaries": summaries,
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in checks],
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    runs_dir = os.path.join(BUILD_ROOT, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    name = f"{int(time.time() * 1000)}-{workload}-{seed}-{int(trace)}.json"
    with open(os.path.join(runs_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    return record


def print_record(record):
    host = record["host"]
    print(f"== {record['workload']} (world {record['world_seed']}, input "
          f"{record['input_seed']}, {host['threads']} threads, "
          f"{record['repetitions']} repetitions)")
    print("host: " + json.dumps(host))
    for name, entry in record["metrics"].items():
        v = entry["value"]
        text = f"{v:>16d}" if isinstance(v, int) else f"{v:>16.6g}"
        print(f"  {name:<36} {text} {entry['unit']}")
    for name, s in record["summaries"].items():
        print(f"  {name} per repetition: median {s['median']:.6g}, "
              f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, "
              f"spread {100 * s['spread']:.1f}%, n {s['n']}")
    counts = ", ".join(f"{k} {n}" for k, n in record["samples"].items() if n)
    if counts:
        print(f"  samples (spans) per sampled operation: {counts}")
    failed = [c for c in record["checks"] if not c["ok"]]
    print(f"  checks: {len(record['checks']) - len(failed)}/"
          f"{len(record['checks'])} passed")
    for c in failed:
        print(f"  CHECK FAILED {c['name']}: {c['detail']}")


def pin(exe, spec):
    """Recomputes spec.json pins for the primary and held-out worlds. The
    1-thread and N-thread ping-RR censuses must agree before anything is
    written."""
    pins = {}
    for world_seed in (spec["world"]["seed"], spec["world"]["heldout_seed"]):
        for input_seed in spec["input_seeds"]:
            entry = {}
            hashes = set()
            for workload in ("pingrr_census", "pingrr_census_1t",
                             "trace_census"):
                doc, _, _ = run_child(exe, spec, workload, world_seed,
                                      input_seed, 0, False, pin_only=True)
                out = doc["body"]["outputs"]
                if spec["workloads"][workload]["kind"] == "pingrr":
                    hashes.add(out["dataset_hash"])
                    entry["pingrr"] = {"dataset_hash": out["dataset_hash"]}
                else:
                    entry["trace"] = {
                        "trace_schedule_hash": out["trace_schedule_hash"],
                        "trace_interface_hash": out["trace_interface_hash"]}
            if len(hashes) != 1:
                fail(f"dataset hash depends on threads: {sorted(hashes)}", 1)
            pins.setdefault(str(world_seed), {})[str(input_seed)] = entry
            print(f"pinned world {world_seed} input {input_seed}: {entry}",
                  file=sys.stderr)
    spec["pins"] = pins
    with open(os.path.join(HERE, "spec.json"), "w") as f:
        json.dump(spec, f, indent=2)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--world-seed")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args()

    exe = build()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "spec.json"))
    if args.pin:
        pin(exe, spec)
        return 0
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail(f"unknown workload {args.workload}; one of {names}")
    seconds = (args.seconds if args.seconds is not None
               else bench["run_seconds"])
    world_seed = resolve_world_seed(spec, args.world_seed)
    trace = bool(args.trace)

    records = [run_one(exe, spec, bench, w, args.seed, seconds, trace,
                       world_seed)
               for w in ([args.workload] if args.workload else names)]
    for record in records:
        print_record(record)
    attempted = sum(len(r["checks"]) for r in records)
    failed = sum(1 for r in records for c in r["checks"] if not c["ok"])
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed}
    if args.workload:
        result["metrics"] = records[0]["metrics"]
    else:
        result["metrics"] = {r["workload"]: r["metrics"] for r in records}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
