#include "probe/prober.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

#include "packet/icmp.h"
#include "packet/ipv4.h"
#include "packet/udp.h"
#include "packet/wire.h"

namespace rr::probe {

const char* to_string(ProbeType type) noexcept {
  switch (type) {
    case ProbeType::kPing: return "ping";
    case ProbeType::kPingRr: return "ping-RR";
    case ProbeType::kPingRrUdp: return "ping-RRudp";
    case ProbeType::kPingTs: return "ping-TS";
  }
  return "?";
}

const char* to_string(ResponseKind kind) noexcept {
  switch (kind) {
    case ResponseKind::kNone: return "none";
    case ResponseKind::kEchoReply: return "echo-reply";
    case ResponseKind::kTtlExceeded: return "ttl-exceeded";
    case ResponseKind::kPortUnreachable: return "port-unreachable";
  }
  return "?";
}

std::string ProbeResult::to_string() const {
  std::string out = std::string{probe::to_string(type)} + " " +
                    target.to_string() + " -> " + probe::to_string(kind);
  if (rr_option_in_reply) {
    out += " rr[";
    for (std::size_t i = 0; i < rr_recorded.size(); ++i) {
      out += (i ? "," : "") + rr_recorded[i].to_string();
    }
    out += "]+" + std::to_string(rr_free_slots);
  }
  if (quoted_rr_present) {
    out += " quoted-rr(" + std::to_string(quoted_rr.size()) + "+" +
           std::to_string(quoted_rr_free_slots) + " free)";
  }
  return out;
}

Prober::Prober(sim::Network& network, topo::HostId source,
               ProberOptions options)
    : network_(&network),
      source_(source),
      source_address_(network.topology().host_at(source).address),
      icmp_id_(options.icmp_id != 0
                   ? options.icmp_id
                   : static_cast<std::uint16_t>(0x4000 | (source & 0x3fff))),
      clock_(options.start_time),
      interval_(1.0 / options.pps) {}

void Prober::probe_into(const ProbeSpec& spec, sim::SendContext* ctx,
                        ProbeResult& out) {
  // RROPT_HOT_BEGIN(prober-probe): one exchange per call at campaign rate;
  // probe bytes are built into the recycled buffer and the delivery's
  // storage is reclaimed below, so the steady state allocates nothing —
  // rropt_lint keeps it that way by banning unwaived allocation here.
  //
  // Reset here, not just in Network::send: an early return before the send
  // must not leave the previous probe's trace (or result fields) behind
  // for a deferred-replay caller to mistake for this probe's.
  out.reset();
  if (ctx != nullptr) ctx->trace.reset();
  const double send_time = clock_;
  clock_ += interval_;
  ++sent_;
  const std::uint16_t seq = next_seq_++;

  const std::size_t capacity_before = buf_.capacity();
  build_probe_into(spec, seq, buf_);

  out.target = spec.target;
  out.type = spec.type;
  out.send_time = send_time;

  auto delivery = network_->send_reusing(source_, buf_, send_time, ctx);
  if (delivery) {
    parse_response_into(spec, seq, send_time, *delivery, out);
    // Reclaim the response's storage (it was the probe buffer, or a reply
    // scratch swapped for it): the next probe builds into it.
    buf_ = std::move(delivery->bytes);
  }
  if (buf_.capacity() != capacity_before) ++buffer_growths_;
  // RROPT_HOT_END(prober-probe)
}

void Prober::build_probe_into(const ProbeSpec& spec, std::uint16_t seq,
                              std::vector<std::uint8_t>& buf) {
  // RROPT_HOT_BEGIN(prober-build): serialization into recycled storage —
  // shared by the scalar and batched paths, so their bytes are identical
  // by construction.
  if (spec.type == ProbeType::kPingRrUdp) {
    const std::uint16_t dst_port = static_cast<std::uint16_t>(
        pkt::kUdpProbePortBase + (next_udp_port_++ % 256));
    pkt::build_udp_probe(buf, source_address_, spec.target,
                         static_cast<std::uint16_t>(0x8000 | seq), dst_port,
                         spec.ttl, spec.rr_slots);
  } else if (spec.type == ProbeType::kPingTs) {
    pkt::build_ping_ts(buf, source_address_, spec.target, icmp_id_, seq,
                       spec.ttl, spec.rr_slots);
  } else {
    const int slots = spec.type == ProbeType::kPingRr ? spec.rr_slots : 0;
    pkt::build_ping(buf, source_address_, spec.target, icmp_id_, seq,
                    spec.ttl, slots);
  }
  // RROPT_HOT_END(prober-build)
}

void Prober::probe_batch_into(std::span<const ProbeSpec> specs,
                              std::span<sim::SendContext> ctxs,
                              std::span<ProbeResult> results) {
  // RROPT_HOT_BEGIN(prober-batch): the campaign's inner loop when batching
  // is on. Pacing, sequencing, and per-slot bookkeeping are exactly what a
  // scalar probe_into sequence would do; only the network traversal is
  // batched.
  const std::size_t n = specs.size();
  assert(n == ctxs.size() && n == results.size());
  assert(n <= sim::WalkBatch::kMaxProbes);
  if (batch_bufs_.size() < n) {
    batch_bufs_.resize(n);  // RROPT_HOT_OK(alloc): one-time warm-up growth
  }

  std::array<sim::Network::BatchProbe, sim::WalkBatch::kMaxProbes> probes;
  std::array<std::uint16_t, sim::WalkBatch::kMaxProbes> seqs;
  std::array<std::size_t, sim::WalkBatch::kMaxProbes> capacities;
  for (std::size_t k = 0; k < n; ++k) {
    ProbeResult& out = results[k];
    out.reset();
    ctxs[k].trace.reset();
    const double send_time = clock_;
    clock_ += interval_;
    ++sent_;
    seqs[k] = next_seq_++;

    std::vector<std::uint8_t>& buf = batch_bufs_[k];
    capacities[k] = buf.capacity();
    build_probe_into(specs[k], seqs[k], buf);

    out.target = specs[k].target;
    out.type = specs[k].type;
    out.send_time = send_time;

    probes[k].bytes = &buf;
    probes[k].time = send_time;
    probes[k].ctx = &ctxs[k];
  }

  network_->send_batch(source_, std::span{probes.data(), n});

  for (std::size_t k = 0; k < n; ++k) {
    auto& delivery = probes[k].delivery;
    if (delivery) {
      parse_response_into(specs[k], seqs[k], results[k].send_time, *delivery,
                          results[k]);
      batch_bufs_[k] = std::move(delivery->bytes);
    }
    if (batch_bufs_[k].capacity() != capacities[k]) ++buffer_growths_;
  }
  // RROPT_HOT_END(prober-batch)
}

void Prober::parse_response_into(const ProbeSpec& spec, std::uint16_t seq,
                                 double send_time,
                                 const sim::Network::Delivery& delivery,
                                 ProbeResult& out) {
  const auto info = pkt::inspect_datagram(delivery.bytes);
  if (!info) return;
  if (info->protocol != static_cast<std::uint8_t>(pkt::IpProto::kIcmp)) {
    return;
  }

  out.responder = info->source;
  out.reply_ip_id = info->identification;

  if (info->icmp_type == static_cast<std::uint8_t>(pkt::IcmpType::kEchoReply)) {
    if (info->echo_identifier != icmp_id_ || info->echo_sequence != seq) {
      ++mismatched_;
      return;
    }
    out.kind = ResponseKind::kEchoReply;
    out.rtt = delivery.time - send_time;
    if (info->rr_offset != 0) {
      const auto rr = pkt::rr_wire(delivery.bytes, info->rr_offset);
      out.rr_option_in_reply = true;
      for (std::size_t i = 0; i < rr.filled; ++i) {
        out.rr_recorded.push_back(  // RROPT_HOT_OK: recycled capacity
            pkt::rr_slot(delivery.bytes, rr, i));
      }
      out.rr_free_slots = rr.capacity - rr.filled;
    }
    if (info->ts_offset != 0) {
      const auto ts = pkt::ts_wire(delivery.bytes, info->ts_offset);
      out.ts_option_in_reply = true;
      for (std::size_t i = 0; i < ts.filled; ++i) {
        const auto entry = pkt::ts_entry(delivery.bytes, ts, i);
        out.ts_entries.emplace_back(  // RROPT_HOT_OK: recycled capacity
            entry.address, entry.timestamp_ms);
      }
      out.ts_overflow = ts.overflow;
    }
    ++matched_;
    return;
  }

  // ICMP errors: validate against the quoted datagram. Echo *requests*
  // (the only other whitelisted type) carry no quote and fall out here,
  // exactly like the legacy error_body() == nullptr path.
  if (info->quote_offset == 0) return;
  const auto quoted = std::span<const std::uint8_t>{delivery.bytes}.subspan(
      info->quote_offset, info->quote_length);
  const auto q = pkt::inspect_header(quoted);
  if (!q || q->destination != spec.target || q->source != source_address_) {
    ++mismatched_;
    return;
  }

  if (info->icmp_type ==
      static_cast<std::uint8_t>(pkt::IcmpType::kTimeExceeded)) {
    out.kind = ResponseKind::kTtlExceeded;
  } else if (info->icmp_type ==
                 static_cast<std::uint8_t>(pkt::IcmpType::kDestUnreachable) &&
             info->icmp_code == pkt::kCodePortUnreachable) {
    out.kind = ResponseKind::kPortUnreachable;
  } else {
    ++mismatched_;
    return;
  }
  out.rtt = delivery.time - send_time;
  if (q->rr_offset != 0) {
    const auto rr = pkt::rr_wire(quoted, q->rr_offset);
    out.quoted_rr_present = true;
    for (std::size_t i = 0; i < rr.filled; ++i) {
      out.quoted_rr.push_back(  // RROPT_HOT_OK: recycled capacity
          pkt::rr_slot(quoted, rr, i));
    }
    out.quoted_rr_free_slots = rr.capacity - rr.filled;
  }
  ++matched_;
}

TracerouteResult Prober::traceroute(net::IPv4Address target, int max_ttl,
                                    int attempts) {
  TraceOptions options;
  options.max_ttl = max_ttl;
  options.attempts = attempts;
  return traceroute(target, options);
}

TracerouteResult Prober::traceroute(net::IPv4Address target,
                                    const TraceOptions& options) {
  TracerouteResult result;
  result.target = target;
  const int max_ttl = std::max(1, options.max_ttl);
  const int attempts = std::max(1, options.attempts);
  const int window = std::clamp(
      options.window, 1, static_cast<int>(sim::WalkBatch::kMaxProbes));
  TraceGate* const gate = options.gate;

  int first = 1;
  if (gate != nullptr) first = std::clamp(gate->begin(target), 1, max_ttl);
  result.first_ttl = first;

  // Scratch warm-up (one-time growth, then flat across traces).
  if (static_cast<int>(trace_ctxs_.size()) < window) {
    trace_specs_.resize(static_cast<std::size_t>(window));
    trace_ctxs_.resize(static_cast<std::size_t>(window));
    trace_results_.resize(static_cast<std::size_t>(window));
  }
  for (int k = 0; k < window; ++k) {
    sim::SendContext& ctx = trace_ctxs_[static_cast<std::size_t>(k)];
    ctx.counters = sim::NetCounters{};
    ctx.reply_routes = options.reply_routes;
  }
  if (static_cast<int>(trace_hops_.size()) < max_ttl + 1) {
    trace_hops_.resize(static_cast<std::size_t>(max_ttl) + 1);
  }
  for (int t = 0; t <= max_ttl; ++t) {
    trace_hops_[static_cast<std::size_t>(t)] = TracerouteHop{};
  }

  std::uint64_t sent = 0;
  int reach_ttl = 0;  // lowest TTL that drew an echo reply; 0 = none yet

  // ------------------------------------------------- forward sweep
  // TTL windows from `first` upward, each window batched through the
  // deferred dataplane; extra attempts re-probe only unresponsive TTLs.
  bool forward_done = false;
  for (int base = first; base <= max_ttl && !forward_done; ) {
    const int w = std::min(window, max_ttl - base + 1);
    for (int round = 0; round < attempts; ++round) {
      int n = 0;
      for (int t = base; t < base + w; ++t) {
        if (round > 0 && trace_hops_[static_cast<std::size_t>(t)].responded) {
          continue;
        }
        ProbeSpec spec = ProbeSpec::ping(target);
        spec.ttl = static_cast<std::uint8_t>(t);
        trace_specs_[static_cast<std::size_t>(n)] = spec;
        ++n;
      }
      if (n == 0) break;
      probe_batch_into(
          std::span<const ProbeSpec>{trace_specs_.data(),
                                     static_cast<std::size_t>(n)},
          std::span<sim::SendContext>{trace_ctxs_.data(),
                                      static_cast<std::size_t>(n)},
          std::span<ProbeResult>{trace_results_.data(),
                                 static_cast<std::size_t>(n)});
      sent += static_cast<std::uint64_t>(n);
      for (int k = 0; k < n; ++k) {
        const int t = trace_specs_[static_cast<std::size_t>(k)].ttl;
        const ProbeResult& pr = trace_results_[static_cast<std::size_t>(k)];
        if (!pr.responded()) continue;
        TracerouteHop& hop = trace_hops_[static_cast<std::size_t>(t)];
        hop.ttl = t;
        hop.responded = true;
        hop.address = pr.responder;
        hop.kind = pr.kind;
      }
    }
    // Scan the window in TTL order for the event that ends the sweep.
    for (int t = base; t < base + w; ++t) {
      TracerouteHop& hop = trace_hops_[static_cast<std::size_t>(t)];
      if (hop.ttl == 0) hop.ttl = t;  // probed, silent
      if (!hop.responded) continue;
      if (hop.kind == ResponseKind::kEchoReply) {
        reach_ttl = t;
        forward_done = true;
        break;
      }
      if (gate != nullptr) {
        // Stop *before* record: the stop must reflect knowledge from
        // earlier traces, never the fact this hop is about to add (a
        // live-insert gate would otherwise stop on its own first hop).
        const bool stop = gate->stop_forward(hop.address, t);
        gate->record(hop.address, t);
        if (stop) {
          result.forward_stop_ttl = t;
          forward_done = true;
          break;
        }
      }
    }
    base += w;
  }

  // ------------------------------------------------ backward sweep
  // Doubletree's second half: from first-1 down toward TTL 1, scalar
  // (window 1) so each hop can consult the gate before the next probe.
  if (gate != nullptr && first > 1) {
    for (int t = first - 1; t >= 1; --t) {
      TracerouteHop& hop = trace_hops_[static_cast<std::size_t>(t)];
      hop.ttl = t;
      for (int attempt = 0; attempt < attempts; ++attempt) {
        ProbeSpec spec = ProbeSpec::ping(target);
        spec.ttl = static_cast<std::uint8_t>(t);
        probe_into(spec, &trace_ctxs_[0], trace_results_[0]);
        ++sent;
        const ProbeResult& pr = trace_results_[0];
        if (!pr.responded()) continue;
        hop.responded = true;
        hop.address = pr.responder;
        hop.kind = pr.kind;
        break;
      }
      if (!hop.responded) continue;
      if (hop.kind == ResponseKind::kEchoReply) {
        // The destination is nearer than Doubletree's h; keep walking
        // down to find the true distance and the path below it.
        if (reach_ttl == 0 || t < reach_ttl) reach_ttl = t;
        continue;
      }
      const bool stop = gate->stop_backward(hop.address, t);
      gate->record(hop.address, t);
      if (stop) {
        result.backward_stop_ttl = t;
        result.probes_saved += static_cast<std::uint64_t>(t - 1);
        const auto below = gate->backfill(hop.address, t);
        if (static_cast<int>(below.size()) >= t - 1) {
          for (int bt = 1; bt < t; ++bt) {
            TracerouteHop& bh = trace_hops_[static_cast<std::size_t>(bt)];
            bh.ttl = bt;
            bh.responded = true;
            bh.address = below[static_cast<std::size_t>(bt - 1)];
            bh.kind = ResponseKind::kTtlExceeded;
            bh.from_stopset = true;
          }
        }
        break;
      }
    }
  }

  // ------------------------------------------------------ assembly
  // Ascending TTL; trimmed at the echo (overshot window probes past the
  // destination are dropped, like the classic engine that never sent
  // them) or at the forward stop. probes_saved counts only the TTL slots
  // a backward stop provably skipped — a forward stop's savings depend on
  // the unprobed distance, so benches measure them off-vs-on instead.
  result.probes_sent = sent;
  int end_ttl = max_ttl;
  if (reach_ttl > 0) {
    result.reached = true;
    end_ttl = reach_ttl;
  } else if (result.forward_stop_ttl > 0) {
    end_ttl = result.forward_stop_ttl;
  }
  result.hops.clear();
  result.hops.reserve(static_cast<std::size_t>(end_ttl));
  for (int t = 1; t <= end_ttl; ++t) {
    const TracerouteHop& hop = trace_hops_[static_cast<std::size_t>(t)];
    if (hop.ttl == t) result.hops.push_back(hop);
  }

  sim::NetCounters tally;
  for (int k = 0; k < window; ++k) {
    tally.merge(trace_ctxs_[static_cast<std::size_t>(k)].counters);
  }
  if (options.counters != nullptr) {
    options.counters->merge(tally);
  } else {
    network_->merge_counters(tally);
  }
  return result;
}

}  // namespace rr::probe
