#include "measure/trace_census.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace rr::measure {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] std::uint64_t fnv_fold(std::uint64_t h,
                                     std::uint64_t word) noexcept {
  return (h ^ word) * kFnvPrime;
}

/// One VP's census state — prober (persistent clock), reply routes, gate
/// over its own local set, deferred global discoveries, and private result
/// tallies. Workers touch only their own PerVp plus lock-free global-set
/// and compiled-FIB reads.
struct PerVp {
  std::unique_ptr<probe::Prober> prober;
  std::unique_ptr<route::ReplyRoutes> replies;
  std::unique_ptr<StopSet> local;
  std::unique_ptr<DoubletreeGate> gate;
  std::vector<std::uint32_t> order;  // destination indices, seeded shuffle
  sim::NetCounters tally;

  std::uint64_t traces = 0;
  std::uint64_t reached = 0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_saved = 0;
  std::uint64_t schedule_hash = kFnvOffset;
  std::unordered_set<std::uint32_t> ifaces;
  std::unordered_set<std::uint64_t> links;
};

void harvest(PerVp& p, const probe::TracerouteResult& trace) {
  ++p.traces;
  if (trace.reached) ++p.reached;
  p.probes_sent += trace.probes_sent;
  p.probes_saved += trace.probes_saved;

  std::uint64_t h = p.schedule_hash;
  h = fnv_fold(h, trace.target.value());
  h = fnv_fold(h, trace.probes_sent);
  h = fnv_fold(h, static_cast<std::uint64_t>(trace.first_ttl) |
                      (static_cast<std::uint64_t>(trace.forward_stop_ttl)
                       << 16) |
                      (static_cast<std::uint64_t>(trace.backward_stop_ttl)
                       << 32) |
                      (static_cast<std::uint64_t>(trace.reached) << 48));

  // Router interfaces and directed router-router adjacencies — the
  // redundancy-independent discovery set. Echo hops (the destination) are
  // excluded: a forward stop elides the last-router->destination pair for
  // *this* destination by design, while router facts are covered by the
  // trace that seeded the stop.
  std::uint32_t prev_iface = 0;
  int prev_ttl = -2;
  for (const auto& hop : trace.hops) {
    h = fnv_fold(h, static_cast<std::uint64_t>(hop.ttl) |
                        (static_cast<std::uint64_t>(hop.responded) << 8) |
                        (static_cast<std::uint64_t>(hop.from_stopset) << 9) |
                        (static_cast<std::uint64_t>(hop.kind) << 10) |
                        (static_cast<std::uint64_t>(hop.address.value())
                         << 16));
    if (hop.responded && hop.kind == probe::ResponseKind::kTtlExceeded) {
      const std::uint32_t iface = hop.address.value();
      p.ifaces.insert(iface);
      if (prev_iface != 0 && prev_ttl + 1 == hop.ttl) {
        p.links.insert((static_cast<std::uint64_t>(prev_iface) << 32) |
                       iface);
      }
      prev_iface = iface;
      prev_ttl = hop.ttl;
    } else {
      prev_iface = 0;
      prev_ttl = -2;
    }
  }
  p.schedule_hash = h;
}

}  // namespace

TraceCensusResult run_trace_census(Testbed& testbed,
                                   const TraceCensusConfig& config) {
  const auto& topology = testbed.topology();
  const auto dests = topology.destinations();
  const std::size_t n_all = dests.size();
  const std::size_t n_dests = config.per_vp_dests == 0
                                  ? n_all
                                  : std::min(config.per_vp_dests, n_all);
  const auto vps = testbed.vps();
  const std::size_t n_vps = vps.size();
  const std::size_t round =
      std::max<std::size_t>(1, std::min(config.round, n_dests));
  const int threads = util::resolve_thread_count(
      config.threads > 0 ? config.threads : testbed.threads());

  // Destination sample shared by every VP: per_vp_dests subsamples the
  // *census*, not each VP's view — all VPs still probe the same targets,
  // which is where the inter-monitor redundancy the global set exploits
  // lives. A seeded shuffle picks the sample; each VP then walks it in
  // its own seeded order.
  std::vector<std::uint32_t> sample(n_all);
  std::iota(sample.begin(), sample.end(), 0u);
  {
    util::Rng sample_rng(config.seed);
    sample_rng.shuffle(sample);
  }
  sample.resize(n_dests);

  // Every forward probe and echo reply of the census runs between a VP
  // and a sample destination, so one table compiled over VPs x sample
  // resolves all of them; TTL-exceeded errors take the per-VP reply
  // tables below. The table is installed for the census only, as
  // Campaign::run does per block.
  util::ThreadPool pool(threads);
  sim::Network& net = testbed.network();
  {
    std::vector<topo::HostId> sources(n_vps);
    for (std::size_t v = 0; v < n_vps; ++v) sources[v] = vps[v]->host;
    std::vector<topo::HostId> targets(n_dests);
    for (std::size_t i = 0; i < n_dests; ++i) targets[i] = dests[sample[i]];
    net.set_compiled_fib(nullptr);
    net.set_compiled_fib(
        route::CompiledFib::build(net.stitcher(), sources, targets, &pool));
  }

  // The shared (frozen-per-round) global set. Capacity is a heuristic
  // sized to the key population — roughly the per-prefix union of
  // interfaces over all VP paths; a saturated stripe only rejects new
  // facts (costing savings, never correctness), so a miss-estimate
  // degrades gracefully.
  StopSet global(4096 + n_dests * 256);

  std::vector<std::unique_ptr<PerVp>> per_vp;
  per_vp.reserve(n_vps);
  for (std::size_t v = 0; v < n_vps; ++v) {
    auto p = std::make_unique<PerVp>();
    p->replies = std::make_unique<route::ReplyRoutes>(vps[v]->host);
    p->prober = std::make_unique<probe::Prober>(
        net, vps[v]->host, [&] {
          probe::Prober::Options options;
          options.pps = config.pps;
          return options;
        }());
    if (config.use_stop_sets) {
      p->local = std::make_unique<StopSet>(4096 + n_dests * 4);
      DoubletreeGate::Config gc;
      gc.first_hop = config.first_hop;
      gc.max_ttl = config.max_ttl;
      p->gate = std::make_unique<DoubletreeGate>(p->local.get(), &global, gc);
    }
    p->order = sample;
    util::Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)));
    rng.shuffle(p->order);
    per_vp.push_back(std::move(p));
  }

  probe::TraceOptions topts;
  topts.max_ttl = config.max_ttl;
  topts.attempts = config.attempts;
  topts.window = config.window;

  for (std::size_t begin = 0; begin < n_dests; begin += round) {
    const std::size_t end = std::min(begin + round, n_dests);
    pool.parallel_for(n_vps, [&](std::size_t v) {
      PerVp& p = *per_vp[v];
      probe::TraceOptions options = topts;
      options.gate = p.gate.get();
      options.counters = &p.tally;
      options.reply_routes = p.replies.get();
      for (std::size_t i = begin; i < end; ++i) {
        const auto target =
            topology.host_at(dests[p.order[i]]).address;
        harvest(p, p.prober->traceroute(target, options));
      }
    });
    // Commit this round's global discoveries serially in canonical VP
    // order: every worker of the next round sees the identical set no
    // matter how many threads ran this one.
    if (config.use_stop_sets) {
      for (std::size_t v = 0; v < n_vps; ++v) {
        auto& pending = per_vp[v]->gate->pending_global();
        global.insert_all(pending);
        pending.clear();
      }
    }
  }

  net.set_compiled_fib(nullptr);

  TraceCensusResult result;
  std::unordered_set<std::uint32_t> ifaces;
  std::unordered_set<std::uint64_t> links;
  result.schedule_hash = kFnvOffset;
  for (std::size_t v = 0; v < n_vps; ++v) {
    PerVp& p = *per_vp[v];
    net.merge_counters(p.tally);
    result.reply_routes += p.replies->size();
    result.traces += p.traces;
    result.reached += p.reached;
    result.probes_sent += p.probes_sent;
    result.probes_saved += p.probes_saved;
    result.schedule_hash = fnv_fold(result.schedule_hash, p.schedule_hash);
    ifaces.insert(p.ifaces.begin(), p.ifaces.end());
    links.insert(p.links.begin(), p.links.end());
    if (p.gate != nullptr) {
      p.gate->finish_trace();
      result.stats.merge(p.gate->stats());
      result.local_keys += p.local->size();
      result.stopset_overflows += p.local->overflows();
    }
  }
  result.stats.probes_sent = result.probes_sent;
  result.stats.probes_saved = result.probes_saved;
  if (config.use_stop_sets) {
    result.global_keys = global.size();
    result.stopset_overflows += global.overflows();
  }

  std::vector<std::uint32_t> iface_sorted(ifaces.begin(), ifaces.end());
  std::sort(iface_sorted.begin(), iface_sorted.end());
  std::vector<std::uint64_t> link_sorted(links.begin(), links.end());
  std::sort(link_sorted.begin(), link_sorted.end());
  result.interfaces = iface_sorted.size();
  result.links = link_sorted.size();
  std::uint64_t ih = kFnvOffset;
  for (const auto a : iface_sorted) ih = fnv_fold(ih, a);
  result.interface_hash = ih;
  std::uint64_t lh = kFnvOffset;
  for (const auto l : link_sorted) lh = fnv_fold(lh, l);
  result.link_hash = lh;
  return result;
}

}  // namespace rr::measure
