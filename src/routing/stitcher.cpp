#include "routing/stitcher.h"

#include <algorithm>

#include "util/rng.h"

namespace rr::route {

namespace {

std::uint64_t pair_mix(std::uint64_t a, std::uint64_t b) noexcept {
  return util::mix64((a << 32) ^ b ^ 0x5bd1e995);
}

}  // namespace

void PathStitcher::append_intra(topo::AsId as, RouterId from, RouterId to,
                                std::vector<RouterId>& seq) const {
  if (from == to) return;
  const topo::AsInfo& info = topology_->as_at(as);
  if (info.core.empty() || info.internal_hops == 0) return;

  // Deterministically select up to `internal_hops` core routers (excluding
  // the endpoints) to model the backbone crossing.
  const std::uint64_t salt = pair_mix(from, to);
  int wanted = info.internal_hops;
  const std::size_t n = info.core.size();
  std::size_t index = static_cast<std::size_t>(salt % n);
  for (std::size_t attempts = 0; attempts < n && wanted > 0; ++attempts) {
    const RouterId candidate = info.core[index];
    index = (index + 1) % n;
    if (candidate == from || candidate == to) continue;
    seq.push_back(candidate);
    --wanted;
  }
}

bool PathStitcher::assemble(std::optional<HostId> src_host,
                            std::optional<RouterId> src_router,
                            std::optional<HostId> dst_host,
                            std::optional<RouterId> dst_router,
                            std::vector<RouterId>& seq) {
  seq.clear();
  const topo::AsId dst_as =
      dst_host ? topology_->host_at(*dst_host).as_id
               : topology_->router_at(*dst_router).as_id;

  topo::AsId src_as;
  RouterId entry;  // the router where "the rest of the path" begins
  if (src_host) {
    const topo::Host& src_info = topology_->host_at(*src_host);
    src_as = src_info.as_id;
    const auto chain = topology_->access_chain(src_info.access_router);
    // Host-side chain runs core -> ... -> access; the packet traverses it
    // in reverse.
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      seq.push_back(*it);
    }
    entry = chain.empty() ? src_info.access_router : chain.front();
    if (chain.empty()) seq.push_back(src_info.access_router);
  } else {
    src_as = topology_->router_at(*src_router).as_id;
    entry = *src_router;  // excluded from the sequence itself
  }

  // Span view: source-origin queries (every campaign forward path) alias
  // the oracle's arena directly — no per-assembly path copy.
  std::vector<topo::AsId> path_storage;
  const std::span<const topo::AsId> as_path =
      oracle_->path_view(src_as, dst_as, path_storage);
  if (as_path.empty()) return false;

  for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
    const auto link_id = topology_->link_between(as_path[i], as_path[i + 1]);
    if (!link_id) return false;  // BGP and link tables must agree
    const topo::AsLink& link = topology_->link_at(*link_id);
    if (!link.exists_in(oracle_->epoch())) return false;
    const bool a_side = link.a == as_path[i];
    const RouterId egress_border = a_side ? link.router_a : link.router_b;
    const RouterId ingress_border = a_side ? link.router_b : link.router_a;
    append_intra(as_path[i], entry, egress_border, seq);
    seq.push_back(egress_border);
    seq.push_back(ingress_border);
    entry = ingress_border;
  }

  // Destination side: cross the final AS, then either descend the host's
  // access chain or stop at the target router.
  if (dst_host) {
    const topo::Host& dst_info = topology_->host_at(*dst_host);
    const auto dst_chain = topology_->access_chain(dst_info.access_router);
    const RouterId dst_top =
        dst_chain.empty() ? dst_info.access_router : dst_chain.front();
    append_intra(dst_as, entry, dst_top, seq);
    if (dst_chain.empty()) {
      seq.push_back(dst_info.access_router);
    } else {
      seq.insert(seq.end(), dst_chain.begin(), dst_chain.end());
    }
  } else {
    append_intra(dst_as, entry, *dst_router, seq);
    seq.push_back(*dst_router);
  }

  // Collapse consecutive duplicates introduced at seams (e.g. a stub AS
  // whose single core router is simultaneously border and access top).
  seq.erase(std::unique(seq.begin(), seq.end()), seq.end());
  // A router-originated packet is not processed by its own originator
  // (it may be its own egress border).
  if (src_router && !seq.empty() && seq.front() == *src_router) {
    seq.erase(seq.begin());
  }
  return true;
}

net::IPv4Address PathStitcher::pick_interface(RouterId router,
                                              std::uint64_t salt) const {
  const topo::Router& info = topology_->router_at(router);
  if (info.interfaces.size() <= 1) return info.loopback;
  const std::size_t index =
      1 + static_cast<std::size_t>(pair_mix(router, salt) %
                                   (info.interfaces.size() - 1));
  return info.interfaces[index];
}

void PathStitcher::derive_addresses(const std::vector<RouterId>& seq,
                                    std::uint64_t dst_salt,
                                    std::optional<HostId> src,
                                    std::vector<PathHop>& out) const {
  out.clear();
  out.reserve(seq.size());
  const std::uint64_t src_salt =
      src ? (kSrcHostSaltTag | *src) : 0x7000000000000000ULL;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    PathHop hop;
    hop.router = seq[i];
    const topo::AsId as = topology_->router_at(seq[i]).as_id;

    // Ingress: how upstream addresses this router.
    if (i == 0) {
      hop.ingress = pick_interface(seq[i], src_salt);
    } else {
      const topo::AsId prev_as = topology_->router_at(seq[i - 1]).as_id;
      if (prev_as != as) {
        const auto link_id = topology_->link_between(prev_as, as);
        const topo::AsLink& link = topology_->link_at(*link_id);
        hop.ingress = link.a == as ? link.addr_a : link.addr_b;
      } else {
        hop.ingress = pick_interface(seq[i], seq[i - 1]);
      }
    }

    // Egress: the outgoing interface (what RR records).
    if (i + 1 == seq.size()) {
      hop.egress = pick_interface(seq[i], kDstSaltTag | dst_salt);
    } else {
      const topo::AsId next_as = topology_->router_at(seq[i + 1]).as_id;
      if (next_as != as) {
        const auto link_id = topology_->link_between(as, next_as);
        const topo::AsLink& link = topology_->link_at(*link_id);
        hop.egress = link.a == as ? link.addr_a : link.addr_b;
      } else {
        hop.egress = pick_interface(seq[i], seq[i + 1]);
      }
    }
    out.push_back(hop);
  }
}

bool PathStitcher::host_path(HostId src, HostId dst,
                             std::vector<PathHop>& out) {
  std::vector<RouterId> seq;
  if (!assemble(src, std::nullopt, dst, std::nullopt, seq)) return false;
  derive_addresses(seq, dst, src, out);
  return true;
}

bool PathStitcher::router_path(RouterId src, HostId dst,
                               std::vector<PathHop>& out) {
  std::vector<RouterId> seq;
  if (!assemble(std::nullopt, src, dst, std::nullopt, seq)) return false;
  derive_addresses(seq, dst, std::nullopt, out);
  return true;
}

bool PathStitcher::host_to_router_path(HostId src, RouterId dst,
                                       std::vector<PathHop>& out) {
  std::vector<RouterId> seq;
  if (!assemble(src, std::nullopt, std::nullopt, dst, seq)) return false;
  derive_addresses(seq, 0xf100000000000000ULL | dst, src, out);
  return true;
}

std::optional<std::vector<PathHop>> PathStitcher::host_path(HostId src,
                                                            HostId dst) {
  std::vector<PathHop> out;
  if (!host_path(src, dst, out)) return std::nullopt;
  return out;
}

}  // namespace rr::route
