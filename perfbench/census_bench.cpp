// Census benchmark workload process (driven by run.py; see README.md).
//
// One process runs one workload on a world generated from --world-seed:
//
//   pingrr  the Table 1 ping-RR census, destinations streamed in blocks:
//           Campaign::run -> CampaignDataset::from_campaign ->
//           content_hash -> build_response_table
//   trace   the Doubletree trace census with stop sets: run_trace_census
//
// It builds the world --setup-reps times, runs one warm-up census, then
// repeats the census until --seconds have passed, and prints one JSON
// object holding every raw per-repetition figure plus the outputs the
// checks need. run.py turns those into medians and checks them.
//
// With --trace 1 the repetitions record spans (spans.h) around each call
// into the program, and a fixed-sample layer pass afterwards drives the
// public entry points the census calls internally (FIB compile and
// lookup, packet build/parse, batched sends, token replay, probing,
// stitching, stop sets, dataset IO), so per-layer costs are measured
// from outside src/. Spans go to --spans-out.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "measure/campaign.h"
#include "measure/classify.h"
#include "measure/stopset.h"
#include "measure/testbed.h"
#include "measure/trace_census.h"
#include "packet/wire.h"
#include "probe/prober.h"
#include "routing/fib.h"
#include "sim/behavior.h"
#include "spans.h"
#include "topology/generator.h"
#include "util/log.h"
#include "util/rng.h"

namespace {

using namespace rr;
using perfbench::Scope;
using perfbench::Tracer;

// ------------------------------------------------------------ arguments

// Input size. 800 ASes is the repository's quick bench scale (7,762
// destination prefixes, 141 VPs): one census takes seconds, so a run
// repeats it often enough for a steady median. Blocks of 1,024
// destinations make the ping-RR census compile its FIB eight times, as
// the paper-scale census recompiles it per streamed block. 1,024 trace
// destinations per VP keep the trace census's discovered interfaces
// within 1% across input seeds.
constexpr int kAses = 800;
constexpr std::size_t kStreamBlock = 1024;
constexpr std::size_t kTraceDests = 1024;

struct Args {
  std::string workload;  // pingrr | trace
  int threads = 1;
  std::uint64_t world_seed = 0;
  std::uint64_t input_seed = 0;
  double seconds = 10.0;
  int min_reps = 3;    // censuses per run, at least
  int setup_reps = 9;  // world builds per run
  bool trace = false;
  std::string spans_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "census_bench: %s\n"
               "usage: census_bench --workload pingrr|trace --threads N "
               "--world-seed W --input-seed S [--seconds T] [--min-reps R] "
               "[--setup-reps R] [--trace 0|1 --spans-out F]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-') {
    std::fprintf(stderr, "census_bench: bad value for %s: %s\n", flag, text);
    std::exit(2);
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_world = false;
  bool have_input = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--threads") {
      a.threads = static_cast<int>(parse_u64("--threads", v));
    } else if (flag == "--world-seed") {
      a.world_seed = parse_u64("--world-seed", v);
      have_world = true;
    } else if (flag == "--input-seed") {
      a.input_seed = parse_u64("--input-seed", v);
      have_input = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--min-reps") {
      a.min_reps = static_cast<int>(parse_u64("--min-reps", v));
    } else if (flag == "--setup-reps") {
      a.setup_reps = static_cast<int>(parse_u64("--setup-reps", v));
    } else if (flag == "--trace") {
      a.trace = parse_u64("--trace", v) != 0;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload != "pingrr" && a.workload != "trace") {
    usage("--workload must be pingrr or trace");
  }
  if (!have_world || !have_input) usage("--world-seed and --input-seed");
  if (a.threads < 1 || a.setup_reps < 1 || a.min_reps < 1) {
    usage("--threads, --setup-reps and --min-reps must be >= 1");
  }
  if (a.trace && a.spans_out.empty()) usage("--trace 1 needs --spans-out");
  return a;
}

// ---------------------------------------------------------- JSON output

/// Minimal JSON object writer: keys in insertion order, nested objects
/// and arrays of numbers.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  Json& u64(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Json& obj(const std::string& key, const Json& v) {
    return raw(key, v.text());
  }
  Json& nums(const std::string& key, const std::vector<double>& vs) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < vs.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", vs[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  Json& raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + value;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------- process probes

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Keeps a computed value alive so sampled loops are not optimised away.
volatile std::uint64_t g_sink = 0;

// ---------------------------------------------------------------- world

struct World {
  std::shared_ptr<const topo::Topology> topology;
  std::shared_ptr<const sim::Behaviors> behaviors;
  std::unique_ptr<measure::Testbed> testbed;
};

struct SetupTimes {
  double generate_s = 0;
  double behaviors_s = 0;
  double testbed_s = 0;
  double total_s = 0;
};

topo::TopologyParams world_params(const Args& a) {
  // The repository's quick bench scale (bench/common.h): the paper's
  // parameters at a reduced AS count, VP pools kept satisfiable.
  topo::TopologyParams p = topo::TopologyParams::paper_scale();
  p.num_ases = kAses;
  p.planetlab_sites_2011 = 60;
  p.seed = a.world_seed;
  if (p.num_ases < 5200) {
    p.colo_fraction = std::min(0.30, 0.06 * 5200.0 / p.num_ases);
  }
  return p;
}

World build_world(const Args& a, Tracer& tracer, SetupTimes& t) {
  World w;
  measure::TestbedConfig config;
  config.threads = a.threads;
  Scope setup(tracer, "setup.world");
  {
    Scope s(tracer, "topology.generate");
    w.topology = topo::Generator{world_params(a)}.generate();
    t.generate_s = s.stop();
  }
  {
    Scope s(tracer, "sim.behaviors");
    w.behaviors = std::make_shared<const sim::Behaviors>(
        w.topology, config.behavior_params);
    t.behaviors_s = s.stop();
  }
  {
    Scope s(tracer, "measure.testbed_init");
    w.testbed =
        std::make_unique<measure::Testbed>(w.topology, w.behaviors, config);
    t.testbed_s = s.stop();
  }
  t.total_s = setup.stop();
  return w;
}

// ------------------------------------------------------ ping-RR census

measure::CampaignConfig campaign_config(const Args& a) {
  measure::CampaignConfig c;
  c.seed = a.input_seed;
  c.threads = a.threads;
  c.stream_block = kStreamBlock;
  return c;
}

struct PingRep {
  double wall_s = 0, cpu_s = 0, run_s = 0, freeze_s = 0, hash_s = 0,
         table_s = 0, pass_a_s = 0, pass_b_s = 0;
  std::uint64_t sharded = 0, fallback = 0, probes_sent = 0, pairs = 0,
                dataset_hash = 0, cache_hits = 0, cache_misses = 0;
};

/// The last repetition's outputs, kept for the checks.
struct PingOutputs {
  std::optional<measure::Campaign> campaign;
  std::optional<data::CampaignDataset> dataset;
  measure::ResponseTable table;
};

PingRep pingrr_once(measure::Testbed& testbed,
                    const measure::CampaignConfig& config, Tracer& tracer,
                    PingOutputs& keep) {
  keep.dataset.reset();  // free the previous repetition first
  keep.campaign.reset();
  PingRep rep;
  const auto& cache = testbed.network().path_cache();
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  const double cpu0 = cpu_seconds();
  {
    Scope census(tracer, "census.pingrr");
    {
      Scope s(tracer, "measure.campaign_run");
      keep.campaign.emplace(measure::Campaign::run(testbed, config));
      rep.run_s = s.stop();
    }
    {
      Scope s(tracer, "data.freeze");
      keep.dataset.emplace(data::CampaignDataset::from_campaign(
          std::move(*keep.campaign), "perfbench ping-RR census"));
      rep.freeze_s = s.stop();
    }
    {
      Scope s(tracer, "data.hash");
      rep.dataset_hash = keep.dataset->content_hash();
      rep.hash_s = s.stop();
    }
    {
      Scope s(tracer, "analysis.response_table");
      keep.table = measure::build_response_table(*keep.campaign);
      rep.table_s = s.stop();
    }
    rep.wall_s = census.stop();
  }
  rep.cpu_s = cpu_seconds() - cpu0;
  const auto& phases = keep.campaign->phase_stats();
  rep.pass_a_s = phases.pass_a_seconds;
  rep.pass_b_s = phases.pass_b_seconds;
  rep.sharded = phases.sharded_chunks;
  rep.fallback = phases.serial_fallback_chunks;
  rep.probes_sent = phases.probes_sent;
  rep.pairs = keep.campaign->num_vps() * keep.campaign->num_destinations();
  rep.cache_hits = cache.hits() - hits0;
  rep.cache_misses = cache.misses() - misses0;
  return rep;
}

Json ping_rep_json(const PingRep& r) {
  Json j;
  j.num("wall_s", r.wall_s).num("cpu_s", r.cpu_s).num("run_s", r.run_s);
  j.num("freeze_s", r.freeze_s).num("hash_s", r.hash_s);
  j.num("table_s", r.table_s).num("pass_a_s", r.pass_a_s);
  j.num("pass_b_s", r.pass_b_s).u64("sharded_chunks", r.sharded);
  j.u64("fallback_chunks", r.fallback).u64("probes_sent", r.probes_sent);
  j.u64("pairs", r.pairs).str("dataset_hash", hex64(r.dataset_hash));
  j.u64("cache_hits", r.cache_hits).u64("cache_misses", r.cache_misses);
  return j;
}

bool same_counts(const measure::ResponseTable& a,
                 const measure::ResponseTable& b) {
  const auto eq = [](const auto& x, const auto& y) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i].probed != y[i].probed ||
          x[i].ping_responsive != y[i].ping_responsive ||
          x[i].rr_responsive != y[i].rr_responsive) {
        return false;
      }
    }
    return true;
  };
  return eq(a.by_ip, b.by_ip) && eq(a.by_as, b.by_as);
}

/// Distinct addresses recorded in any RR reply: the interfaces the ping-RR
/// census discovered.
std::uint64_t rr_interfaces(const measure::Campaign& campaign) {
  std::vector<std::uint32_t> all;
  for (std::size_t d = 0; d < campaign.num_destinations(); ++d) {
    for (const auto a : campaign.recorded_union(d)) all.push_back(a.value());
  }
  std::sort(all.begin(), all.end());
  return static_cast<std::uint64_t>(
      std::unique(all.begin(), all.end()) - all.begin());
}

// ------------------------------------------------------- trace census

measure::TraceCensusConfig trace_config(const Args& a) {
  measure::TraceCensusConfig c;
  c.per_vp_dests = kTraceDests;
  c.seed = a.input_seed;
  c.threads = a.threads;
  c.use_stop_sets = true;
  return c;
}

struct TraceRep {
  double wall_s = 0, cpu_s = 0, census_s = 0;
  std::uint64_t probes_sent = 0, cache_hits = 0, cache_misses = 0;
  measure::TraceCensusResult result;
};

TraceRep trace_once(measure::Testbed& testbed,
                    const measure::TraceCensusConfig& config,
                    Tracer& tracer) {
  TraceRep rep;
  auto& net = testbed.network();
  const auto& cache = net.path_cache();
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  const std::uint64_t sent0 = net.counters().sent;
  const double cpu0 = cpu_seconds();
  {
    Scope census(tracer, "census.trace");
    {
      Scope s(tracer, "measure.trace_census");
      rep.result = measure::run_trace_census(testbed, config);
      rep.census_s = s.stop();
    }
    rep.wall_s = census.stop();
  }
  rep.cpu_s = cpu_seconds() - cpu0;
  rep.probes_sent = net.counters().sent - sent0;
  rep.cache_hits = cache.hits() - hits0;
  rep.cache_misses = cache.misses() - misses0;
  return rep;
}

Json trace_rep_json(const TraceRep& r) {
  const auto& res = r.result;
  Json j;
  j.num("wall_s", r.wall_s).num("cpu_s", r.cpu_s).num("census_s", r.census_s);
  j.u64("probes_sent", r.probes_sent).u64("pairs", res.traces);
  j.u64("reached", res.reached).u64("probes_saved", res.probes_saved);
  j.num("stopset_hit_rate", res.stats.hit_rate());
  j.u64("stopset_overflows", res.stopset_overflows);
  j.u64("interfaces", res.interfaces).u64("links", res.links);
  j.str("schedule_hash", hex64(res.schedule_hash));
  j.str("interface_hash", hex64(res.interface_hash));
  j.u64("cache_hits", r.cache_hits).u64("cache_misses", r.cache_misses);
  return j;
}

// ----------------------------------------------------------- layer pass
//
// Fixed-size samples drawn with the input seed from the same world. Fast
// operations are timed in groups (the span's `calls`) so clock reads do
// not dominate; every sampled operation gets at least kSamples spans, so
// its p99 has at least ten samples beyond it.

constexpr std::size_t kSamples = 2048;
constexpr std::size_t kGroup = 64;

std::vector<topo::HostId> campaign_sources(measure::Testbed& testbed) {
  std::vector<topo::HostId> sources;
  for (const auto* vp : testbed.vps()) sources.push_back(vp->host);
  if (testbed.topology().probe_host() != topo::kNoHost) {
    sources.push_back(testbed.topology().probe_host());
  }
  return sources;
}

/// Layers under Campaign::run, on a sample of one streaming block.
Json layer_pass_pingrr(measure::Testbed& testbed,
                       const measure::CampaignConfig& config,
                       std::uint64_t seed, Tracer& tracer) {
  auto& net = testbed.network();
  const auto& topology = testbed.topology();
  const auto dests = topology.destinations();
  const auto sources = campaign_sources(testbed);
  const auto vps = testbed.vps();
  const std::size_t n_vps = vps.size();
  util::Rng rng{seed ^ 0x5eed1a7e5ULL};
  Json out;
  Scope pass(tracer, "layer_pass.pingrr");

  // routing: the per-block FIB compiles Campaign::run performs (same
  // sources, same destination blocks), one resident at a time.
  const std::size_t block =
      config.stream_block == 0 ? dests.size() : config.stream_block;
  const std::size_t n_blocks = (dests.size() + block - 1) / block;
  const std::size_t sample_block = seed % n_blocks;
  std::shared_ptr<const route::CompiledFib> fib;
  std::uint64_t spine_pairs = 0;
  std::size_t fib_bytes = 0;
  double fib_build_s = 0;
  net.set_compiled_fib(nullptr);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    const std::size_t begin = b * block;
    const std::size_t len = std::min(block, dests.size() - begin);
    std::shared_ptr<const route::CompiledFib> built;
    {
      Scope s(tracer, "routing.fib_build");
      built = route::CompiledFib::build(net.stitcher(), sources,
                                        dests.subspan(begin, len));
      fib_build_s += s.stop();
    }
    spine_pairs += built->spine_pairs();
    fib_bytes = std::max(fib_bytes, built->memory_bytes());
    if (b == sample_block) fib = std::move(built);
  }
  out.num("fib_build_s", fib_build_s).u64("fib_blocks", n_blocks);
  out.u64("fib_spine_pairs", spine_pairs);
  out.num("fib_mib", static_cast<double>(fib_bytes) / (1024.0 * 1024.0));

  const std::size_t block_begin = sample_block * block;
  const std::size_t block_len = std::min(block, dests.size() - block_begin);
  const auto pick_dest = [&] {
    return dests[block_begin + rng.next_below(block_len)];
  };
  const auto pick_vp = [&] { return vps[rng.next_below(n_vps)]->host; };

  // routing: compiled lookups, forward + reverse per (VP, destination).
  {
    std::vector<route::PathHop> fwd, rev;
    std::vector<std::pair<topo::HostId, topo::HostId>> pairs(kGroup);
    for (std::size_t s = 0; s < kSamples; ++s) {
      for (auto& p : pairs) p = {pick_vp(), pick_dest()};
      std::uint64_t hops = 0;
      Scope span(tracer, "routing.fib_lookup", kGroup);
      for (const auto& [src, dst] : pairs) {
        fib->forward(src, dst, fwd);
        fib->reverse(dst, src, rev);
        hops += fwd.size() + rev.size();
      }
      span.stop();
      g_sink = g_sink + hops;
    }
  }
  net.set_compiled_fib(fib);

  // packet: building ping-RR probes, and parsing real ping-RR replies.
  {
    std::vector<std::uint8_t> buf;
    const auto src = topology.host_at(vps[0]->host).address;
    for (std::size_t s = 0; s < kSamples; ++s) {
      const auto dst = topology.host_at(pick_dest()).address;
      Scope span(tracer, "packet.build", kGroup);
      for (std::size_t i = 0; i < kGroup; ++i) {
        pkt::build_ping(buf, src, dst, 0x1234, static_cast<std::uint16_t>(i),
                        64, 9);
      }
      span.stop();
      g_sink = g_sink + buf[10];
    }
  }
  {
    std::vector<std::vector<std::uint8_t>> replies;
    sim::SendContext ctx;
    for (std::size_t tries = 0; replies.size() < kGroup && tries < 20000;
         ++tries) {
      const auto vp = pick_vp();
      std::vector<std::uint8_t> probe;
      pkt::build_ping(probe, topology.host_at(vp).address,
                      topology.host_at(pick_dest()).address, 0x4242,
                      static_cast<std::uint16_t>(tries), 64, 9);
      auto d = net.send(vp, std::move(probe),
                        static_cast<double>(tries) * 0.05, &ctx);
      if (d) {
        const auto info = pkt::inspect_datagram(d->bytes);
        if (info && info->icmp_type == 0 && info->rr_offset != 0) {
          replies.push_back(std::move(d->bytes));
        }
      }
    }
    for (std::size_t s = 0; s < kSamples && !replies.empty(); ++s) {
      std::uint64_t filled = 0;
      Scope span(tracer, "packet.parse", replies.size());
      for (const auto& r : replies) {
        const auto info = pkt::inspect_datagram(r);
        if (info && info->rr_offset != 0) {
          filled += pkt::rr_wire(r, info->rr_offset).filled;
        }
      }
      span.stop();
      g_sink = g_sink + filled;
    }
  }

  // sim: Network::send_batch on prebuilt ping-RR datagrams.
  constexpr std::size_t kBatch = 16;
  {
    std::vector<std::vector<std::uint8_t>> bytes(kBatch);
    std::vector<sim::SendContext> ctxs(kBatch);
    std::vector<sim::Network::BatchProbe> batch(kBatch);
    for (std::size_t s = 0; s < kSamples; ++s) {
      const auto vp = vps[s % n_vps]->host;
      const auto src = topology.host_at(vp).address;
      for (std::size_t i = 0; i < kBatch; ++i) {
        pkt::build_ping(bytes[i], src, topology.host_at(pick_dest()).address,
                        0x5151, static_cast<std::uint16_t>(s * kBatch + i),
                        64, 9);
        batch[i].bytes = &bytes[i];
        batch[i].time = static_cast<double>(s * kBatch + i) * 0.05;
        batch[i].ctx = &ctxs[i];
        batch[i].delivery.reset();
      }
      Scope span(tracer, "sim.send_batch", kBatch);
      net.send_batch(vp, batch);
      span.stop();
      for (std::size_t i = 0; i < kBatch; ++i) {
        if (batch[i].delivery) bytes[i] = std::move(batch[i].delivery->bytes);
      }
    }
  }

  // probe: Prober::probe_batch_into from every VP in lockstep, as pass A
  // does, then the canonical (step, VP, event) token replay of pass B.
  {
    const std::size_t rounds = (kSamples + n_vps - 1) / n_vps;
    std::vector<probe::Prober> probers;
    probers.reserve(n_vps);
    for (std::size_t v = 0; v < n_vps; ++v) {
      probers.push_back(testbed.make_prober(vps[v]->host, config.vp_pps));
    }
    std::vector<probe::ProbeSpec> specs(kBatch);
    std::vector<sim::SendContext> ctxs(kBatch);
    std::vector<probe::ProbeResult> results(kBatch);
    // events[(r * kBatch + i) * n_vps + v]: probe i of VP v in round r.
    std::vector<std::vector<sim::BucketEvent>> events(rounds * kBatch * n_vps);
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t v = 0; v < n_vps; ++v) {
        for (auto& spec : specs) {
          spec = probe::ProbeSpec::ping_rr(
              topology.host_at(pick_dest()).address);
        }
        Scope span(tracer, "probe.pingrr_batch", kBatch);
        probers[v].probe_batch_into(specs, ctxs, results);
        span.stop();
        for (std::size_t i = 0; i < kBatch; ++i) {
          std::swap(events[(r * kBatch + i) * n_vps + v], ctxs[i].trace.events);
        }
      }
    }
    net.reset();  // fresh buckets, as at the start of Campaign::run
    std::uint64_t attempted = 0, failed = 0, recorded = 0;
    constexpr std::size_t kProbesPerSpan = 16;
    for (std::size_t p0 = 0; p0 < events.size(); p0 += kProbesPerSpan) {
      const std::size_t p1 = std::min(p0 + kProbesPerSpan, events.size());
      std::uint64_t group_events = 0;
      for (std::size_t p = p0; p < p1; ++p) group_events += events[p].size();
      if (group_events == 0) continue;
      std::uint64_t tried = 0, lost = 0;
      Scope span(tracer, "sim.replay", group_events);
      for (std::size_t p = p0; p < p1; ++p) {
        for (const auto& ev : events[p]) {
          ++tried;
          if (!net.try_consume_options_token(ev.router, ev.time)) {
            ++lost;  // a kill: later events of this probe never happen
            break;
          }
        }
      }
      span.set_calls(tried);
      span.stop();
      recorded += group_events;
      attempted += tried;
      failed += lost;
    }
    out.num("bucket_events_per_probe",
            static_cast<double>(recorded) / static_cast<double>(events.size()));
    out.u64("replay_events", attempted).u64("replay_kills", failed);
  }

  // probe: the plain-ping sweep's Prober::probe_into from the probe host.
  if (topology.probe_host() != topo::kNoHost) {
    auto prober = testbed.make_prober(topology.probe_host(), config.vp_pps);
    sim::SendContext ctx;
    probe::ProbeResult result;
    for (std::size_t s = 0; s < kSamples; ++s) {
      const auto spec =
          probe::ProbeSpec::ping(topology.host_at(pick_dest()).address);
      Scope span(tracer, "probe.ping");
      prober.probe_into(spec, &ctx, result);
    }
  }

  net.set_compiled_fib(nullptr);
  net.reset();
  return out;
}

/// Dataset IO on the census's own frozen dataset; returns whether the
/// parsed copy equals the original.
bool layer_pass_data(const data::CampaignDataset& dataset, Tracer& tracer,
                     Json& out) {
  bool same = true;
  std::size_t bytes = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::uint8_t> wire;
    {
      Scope s(tracer, "data.serialize");
      wire = dataset.serialize();
    }
    std::optional<data::CampaignDataset> parsed;
    {
      Scope s(tracer, "data.parse");
      parsed = data::CampaignDataset::parse(wire);
    }
    same = same && parsed && *parsed == dataset;
    bytes = wire.size();
  }
  out.num("data_mib", static_cast<double>(bytes) / (1024.0 * 1024.0));
  return same;
}

/// Layers under run_trace_census: stitching, gated traceroutes and stop
/// set membership.
Json layer_pass_trace(measure::Testbed& testbed,
                      const measure::TraceCensusConfig& config,
                      std::uint64_t seed, Tracer& tracer) {
  auto& net = testbed.network();
  const auto& topology = testbed.topology();
  const auto dests = topology.destinations();
  const auto vps = testbed.vps();
  util::Rng rng{seed ^ 0x7ace5a3b1eULL};
  const auto pick_dest = [&] { return dests[rng.next_below(dests.size())]; };
  Json out;
  Scope pass(tracer, "layer_pass.trace");

  {
    std::vector<route::PathHop> hops;
    for (std::size_t s = 0; s < kSamples; ++s) {
      const auto src = vps[rng.next_below(vps.size())]->host;
      const auto dst = pick_dest();
      Scope span(tracer, "routing.stitch");
      net.stitcher().host_path(src, dst, hops);
      span.stop();
      g_sink = g_sink + hops.size();
    }
  }

  // Doubletree-gated traceroutes from a few VPs, each with its own local
  // set, sharing one global set (live inserts: this pass is serial).
  constexpr std::size_t kTraceVps = 16;
  const std::size_t n_trace_vps = std::min(kTraceVps, vps.size());
  const std::size_t per_vp = (kSamples + n_trace_vps - 1) / n_trace_vps;
  measure::StopSet global(4096 + per_vp * 256);
  std::vector<std::uint64_t> hit_keys;
  {
    sim::NetCounters sink;
    probe::TraceOptions options;
    options.max_ttl = config.max_ttl;
    options.attempts = config.attempts;
    options.window = config.window;
    options.counters = &sink;
    std::vector<net::IPv4Address> targets(per_vp);
    for (auto& t : targets) t = topology.host_at(pick_dest()).address;
    for (std::size_t v = 0; v < n_trace_vps; ++v) {
      auto prober = testbed.make_prober(vps[v]->host, config.pps);
      measure::StopSet local(4096 + per_vp * 4);
      measure::DoubletreeGate::Config gc;
      gc.first_hop = config.first_hop;
      gc.max_ttl = config.max_ttl;
      gc.live_global_inserts = true;
      measure::DoubletreeGate gate(&local, &global, gc);
      options.gate = &gate;
      for (const auto target : targets) {
        Scope span(tracer, "probe.trace");
        const auto result = prober.traceroute(target, options);
        span.stop();
        for (const auto& hop : result.hops) {
          if (hop.responded && hit_keys.size() < kSamples * kGroup / 2) {
            hit_keys.push_back(measure::global_stop_key(hop.address, target));
          }
        }
      }
      gate.finish_trace();
    }
    net.merge_counters(sink);
  }

  // StopSet::contains: half keys the pass inserted, half fresh ones.
  {
    std::vector<std::uint64_t> keys(kGroup);
    for (std::size_t s = 0; s < kSamples; ++s) {
      for (std::size_t i = 0; i < kGroup; ++i) {
        keys[i] = (i % 2 == 0 && !hit_keys.empty())
                      ? hit_keys[rng.next_below(hit_keys.size())]
                      : measure::global_stop_key(
                            net::IPv4Address{static_cast<std::uint32_t>(rng())},
                            topology.host_at(pick_dest()).address);
      }
      std::uint64_t found = 0;
      Scope span(tracer, "measure.stopset_contains", kGroup);
      for (const auto k : keys) found += global.contains(k) ? 1 : 0;
      span.stop();
      g_sink = g_sink + found;
    }
  }
  return out;
}

// ----------------------------------------------------------------- main

/// The census repetitions of one run: a warm-up, then untraced ones until
/// the time budget is spent (at least --min-reps), then --min-reps traced
/// ones when tracing. A traced run gives the untraced ones half of
/// --seconds, so its length stays close to an untraced run's.
template <typename Rep>
struct Repetitions {
  std::vector<Rep> untraced;
  std::vector<Rep> traced;
};

template <typename Rep, typename Once>
Repetitions<Rep> repeat(const Args& a, Tracer& off, Tracer& tracer,
                        Once once) {
  once(off);  // warm-up, not reported
  Repetitions<Rep> reps;
  const std::int64_t t0 = perfbench::now_ns();
  const double budget = a.trace ? a.seconds * 0.5 : a.seconds;
  while (static_cast<int>(reps.untraced.size()) < a.min_reps ||
         static_cast<double>(perfbench::now_ns() - t0) * 1e-9 < budget) {
    reps.untraced.push_back(once(off));
  }
  for (int i = 0; a.trace && i < a.min_reps; ++i) {
    reps.traced.push_back(once(tracer));
  }
  return reps;
}

template <typename Rep, typename ToJson>
void add_reps(Json& out, const Repetitions<Rep>& reps, ToJson to_json) {
  const auto list = [&](const std::vector<Rep>& rs) {
    std::string s = "[";
    for (std::size_t i = 0; i < rs.size(); ++i) {
      s += (i ? ", " : "") + to_json(rs[i]).text();
    }
    return s + "]";
  };
  out.raw("reps", list(reps.untraced));
  out.raw("traced_reps", list(reps.traced));
}

Json run_pingrr(const Args& a, measure::Testbed& testbed, Tracer& off,
                Tracer& tracer, Json& checks) {
  const auto config = campaign_config(a);
  PingOutputs keep;
  const auto reps = repeat<PingRep>(a, off, tracer, [&](Tracer& t) {
    return pingrr_once(testbed, config, t, keep);
  });
  Json out;
  add_reps(out, reps, ping_rep_json);

  // Outputs of the last repetition, checked by run.py against pins/bands.
  const std::uint64_t hash = reps.untraced.back().dataset_hash;
  const auto& table = keep.table;
  Json outputs;
  outputs.str("dataset_hash", hex64(hash));
  outputs.u64("interfaces_found", rr_interfaces(*keep.campaign));
  outputs.num("ping_rate_by_ip", table.by_ip[0].ping_rate());
  outputs.num("rr_rate_by_ip", table.by_ip[0].rr_rate());
  outputs.num("rr_over_ping_by_ip", table.by_ip[0].rr_over_ping());
  outputs.num("rr_over_ping_by_as", table.by_as[0].rr_over_ping());
  outputs.u64("probe_buffer_growths",
              keep.campaign->alloc_stats().probe_buffer_growths);
  out.obj("outputs", outputs);

  bool same_hash = true;
  for (const auto* rs : {&reps.untraced, &reps.traced}) {
    for (const auto& r : *rs) same_hash = same_hash && r.dataset_hash == hash;
  }
  checks.boolean("repetitions_same_dataset_hash", same_hash);
  checks.boolean("dataset_table_matches_campaign_table",
                 same_counts(keep.dataset->response_table(), table));

  Json layers;
  const bool roundtrip = layer_pass_data(*keep.dataset, tracer, layers);
  checks.boolean("dataset_serialize_parse_roundtrip", roundtrip);
  if (a.trace) {
    Json pass = layer_pass_pingrr(testbed, config, a.input_seed, tracer);
    out.obj("layer_pass", pass);
  }
  out.obj("data_pass", layers);
  return out;
}

Json run_trace(const Args& a, measure::Testbed& testbed, Tracer& off,
               Tracer& tracer, Json& checks) {
  const auto config = trace_config(a);
  const auto reps = repeat<TraceRep>(a, off, tracer, [&](Tracer& t) {
    return trace_once(testbed, config, t);
  });
  Json out;
  add_reps(out, reps, trace_rep_json);

  const TraceRep& last_rep = reps.untraced.back();
  const auto& last = last_rep.result;
  Json outputs;
  outputs.str("trace_schedule_hash", hex64(last.schedule_hash));
  outputs.str("trace_interface_hash", hex64(last.interface_hash));
  outputs.u64("interfaces_found", last.interfaces);
  outputs.u64("traces", last.traces);
  outputs.u64("reached", last.reached);
  outputs.u64("probes_saved", last.probes_saved);
  out.obj("outputs", outputs);

  bool same = true;
  for (const auto* rs : {&reps.untraced, &reps.traced}) {
    for (const auto& r : *rs) {
      same = same && r.result.schedule_hash == last.schedule_hash &&
             r.result.interface_hash == last.interface_hash &&
             r.probes_sent == last_rep.probes_sent;
    }
  }
  checks.boolean("repetitions_same_schedule", same);
  checks.boolean("every_trace_ran",
                 last.traces == config.per_vp_dests * testbed.vps().size());

  if (a.trace) {
    out.obj("layer_pass", layer_pass_trace(testbed, config, a.input_seed,
                                           tracer));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  util::set_log_level(util::LogLevel::kWarn);

  const std::uint64_t run_id =
      (static_cast<std::uint64_t>(perfbench::now_ns()) << 16) ^
      static_cast<std::uint64_t>(getpid());
  Tracer off{false, run_id};
  Tracer tracer{a.trace, run_id};

  // Set-up: the world the census runs on is the first of --setup-reps
  // builds (traced); the others follow the census, on a warm process,
  // after its world is freed, so they do not add to peak RSS.
  std::vector<double> gen, beh, tb, total;
  const auto record = [&](const SetupTimes& t) {
    gen.push_back(t.generate_s);
    beh.push_back(t.behaviors_s);
    tb.push_back(t.testbed_s);
    total.push_back(t.total_s);
  };
  SetupTimes first;
  World world = build_world(a, tracer, first);
  record(first);
  const std::size_t vps = world.testbed->vps().size();
  const std::size_t destinations = world.topology->destinations().size();

  Json checks;
  const Json body =
      a.workload == "pingrr"
          ? run_pingrr(a, *world.testbed, off, tracer, checks)
          : run_trace(a, *world.testbed, off, tracer, checks);

  for (int i = 1; i < a.setup_reps; ++i) {
    world = World{};  // free the previous world before building the next
    SetupTimes t;
    world = build_world(a, off, t);
    record(t);
  }
  Json setup;
  setup.nums("total_s", total).nums("generate_s", gen);
  setup.nums("behaviors_s", beh).nums("testbed_init_s", tb);

  if (a.trace && !tracer.write(a.spans_out)) {
    std::fprintf(stderr, "census_bench: cannot write %s\n",
                 a.spans_out.c_str());
    return 1;
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Json host;
  host.u64("involuntary_ctx_switches",
           static_cast<std::uint64_t>(ru.ru_nivcsw));

  Json doc;
  doc.str("workload", a.workload);
  doc.u64("threads", static_cast<std::uint64_t>(a.threads));
  doc.u64("world_seed", a.world_seed).u64("input_seed", a.input_seed);
  doc.u64("vps", vps).u64("destinations", destinations);
  doc.str("run_id", hex64(run_id));
  doc.obj("setup", setup).raw("body", body.text()).obj("checks", checks);
  doc.num("peak_rss_mib", peak_rss_mib()).obj("host", host);
  std::printf("%s\n", doc.text().c_str());
  return 0;
}
