#include "routing/fib.h"

#include <sys/mman.h>

#include <atomic>
#include <cassert>
#include <new>

#include "util/thread_pool.h"

namespace rr::route {

std::shared_ptr<const CompiledFib> CompiledFib::build(
    PathStitcher& stitcher, std::span<const HostId> sources,
    std::span<const HostId> dests, util::ThreadPool* pool) {
  std::shared_ptr<CompiledFib> fib{new CompiledFib};
  const topo::Topology& topo = stitcher.topology();
  fib->topology_ = &topo;
  fib->source_slot_.assign(topo.hosts().size(), kNoSlot);
  fib->ar_slot_.assign(topo.routers().size(), kNoSlot);

  // Columns: one per distinct destination access router, represented by
  // the first destination that uses it. The spine-identity argument needs
  // every host behind a column to share the representative's AS, and the
  // access router's endpoint pick to be the same for every host: with at
  // most two interfaces (loopback + one) pick_interface ignores its salt.
  // The generator guarantees both for destination hosts; a column that
  // breaks either is demoted to kMiss (PathCache fallback) rather than
  // trusted.
  std::vector<HostId> reps;
  std::vector<RouterId> column_ar;
  std::vector<std::uint8_t> poisoned;
  for (const HostId d : dests) {
    const topo::Host& host = topo.host_at(d);
    std::uint32_t& slot = fib->ar_slot_[host.access_router];
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(reps.size());
      reps.push_back(d);
      column_ar.push_back(host.access_router);
      poisoned.push_back(
          topo.router_at(host.access_router).interfaces.size() > 2 ? 1 : 0);
    } else if (topo.host_at(reps[slot]).as_id != host.as_id) {
      poisoned[slot] = 1;
    }
  }
  for (std::size_t c = 0; c < reps.size(); ++c) {
    if (poisoned[c]) fib->ar_slot_[column_ar[c]] = kNoSlot;
  }

  std::vector<HostId> rows;
  for (const HostId s : sources) {
    if (fib->source_slot_[s] != kNoSlot) continue;
    fib->source_slot_[s] = static_cast<std::uint32_t>(rows.size());
    rows.push_back(s);
  }

  // Rows are independent: each one stitches its spines into a per-thread
  // scratch with row-relative offsets, then appends them to the one arena
  // in row order, so the table is the bytes of a serial sweep at any
  // thread count (the DESIGN §10 pattern); without a pool a one-thread
  // pool runs the same loop on the caller. parallel_for claims indices in
  // increasing order, so the row a commit waits for is always being built
  // by a thread that is not itself waiting. Per-row arenas (concatenated
  // or kept) cost the 800-AS ping-RR census 4-6 MiB of peak RSS: they
  // fragment the heap, where one mapped arena is returned whole.
  fib->columns_ = reps.size();
  fib->pairs_.assign(rows.size() * reps.size(), SpinePair{});
  std::atomic<std::size_t> committed{0};
  const auto build_row = [&](std::size_t r) {
    thread_local std::vector<PathHop> scratch;
    thread_local std::vector<PathHop> hops;
    scratch.clear();
    SpinePair* row_pairs = fib->pairs_.data() + r * fib->columns_;
    for (std::size_t c = 0; c < reps.size(); ++c) {
      SpinePair& pair = row_pairs[c];
      if (stitcher.host_path(rows[r], reps[c], hops)) {
        assert(hops.size() < 0x10000);
        pair.fwd_off = static_cast<std::uint32_t>(scratch.size());
        pair.fwd_len = static_cast<std::uint16_t>(hops.size());
        pair.flags |= kFwdRoutable;
        scratch.insert(scratch.end(), hops.begin(), hops.end());
      }
      if (stitcher.host_path(reps[c], rows[r], hops)) {
        assert(hops.size() < 0x10000);
        pair.rev_off = static_cast<std::uint32_t>(scratch.size());
        pair.rev_len = static_cast<std::uint16_t>(hops.size());
        pair.flags |= kRevRoutable;
        scratch.insert(scratch.end(), hops.begin(), hops.end());
      }
    }
    for (std::size_t at = committed.load(std::memory_order_acquire); at != r;
         at = committed.load(std::memory_order_acquire)) {
      committed.wait(at, std::memory_order_acquire);
    }
    const auto base = static_cast<std::uint32_t>(fib->arena_.size());
    assert(fib->arena_.size() + scratch.size() < 0xffff'ffffu);
    for (std::size_t c = 0; c < reps.size(); ++c) {
      SpinePair& pair = row_pairs[c];
      if (pair.flags & kFwdRoutable) pair.fwd_off += base;
      if (pair.flags & kRevRoutable) pair.rev_off += base;
    }
    fib->arena_.insert(fib->arena_.end(), scratch.begin(), scratch.end());
    committed.store(r + 1, std::memory_order_release);
    committed.notify_all();
  };
  util::ThreadPool caller_only{1};
  (pool != nullptr ? *pool : caller_only).parallel_for(rows.size(), build_row);
  return fib;
}

template <typename T>
T* CompiledFib::MappedAllocator<T>::allocate(std::size_t n) {
  void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};
  return static_cast<T*>(p);
}

template <typename T>
void CompiledFib::MappedAllocator<T>::deallocate(T* p,
                                                 std::size_t n) noexcept {
  ::munmap(p, n * sizeof(T));
}

template struct CompiledFib::MappedAllocator<PathHop>;

CompiledFib::Lookup CompiledFib::forward(HostId src, HostId dst,
                                         std::vector<PathHop>& out) const {
  const std::uint32_t row = source_slot_[src];
  if (row == kNoSlot) return Lookup::kMiss;
  const std::uint32_t col =
      ar_slot_[topology_->host_at(dst).access_router];
  if (col == kNoSlot) return Lookup::kMiss;
  const SpinePair& pair = pairs_[row * columns_ + col];
  if (!(pair.flags & kFwdRoutable)) return Lookup::kUnroutable;
  out.assign(arena_.begin() + pair.fwd_off,
             arena_.begin() + pair.fwd_off + pair.fwd_len);
  return Lookup::kHit;
}

CompiledFib::Lookup CompiledFib::reverse(HostId dst, HostId reply_to,
                                         std::vector<PathHop>& out) const {
  const std::uint32_t row = source_slot_[reply_to];
  if (row == kNoSlot) return Lookup::kMiss;
  const std::uint32_t col =
      ar_slot_[topology_->host_at(dst).access_router];
  if (col == kNoSlot) return Lookup::kMiss;
  const SpinePair& pair = pairs_[row * columns_ + col];
  if (!(pair.flags & kRevRoutable)) return Lookup::kUnroutable;
  out.assign(arena_.begin() + pair.rev_off,
             arena_.begin() + pair.rev_off + pair.rev_len);
  return Lookup::kHit;
}

}  // namespace rr::route
