#include "routing/reply_routes.h"

#include <cassert>

namespace rr::route {

bool ReplyRoutes::lookup(PathStitcher& stitcher, RouterId router,
                         std::span<const PathHop>& hops) {
  if (slot_.empty()) {
    slot_.assign(stitcher.topology().routers().size(), kNoEntry);
  }
  std::uint32_t& slot = slot_[router];
  if (slot == kNoEntry) {
    Entry entry;
    entry.routable = stitcher.router_path(router, vp_, scratch_);
    if (entry.routable) {
      assert(scratch_.size() < 0x10000);
      entry.off = static_cast<std::uint32_t>(arena_.size());
      entry.len = static_cast<std::uint16_t>(scratch_.size());
      arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
    }
    slot = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(entry);
  }
  const Entry& entry = entries_[slot];
  hops = std::span<const PathHop>{arena_}.subspan(entry.off, entry.len);
  return entry.routable;
}

ReplyRoutes::State ReplyRoutes::peek(RouterId router,
                                     std::span<const PathHop>& hops) const {
  if (slot_.empty() || slot_[router] == kNoEntry) return State::kUnfilled;
  const Entry& entry = entries_[slot_[router]];
  hops = std::span<const PathHop>{arena_}.subspan(entry.off, entry.len);
  return entry.routable ? State::kRoutable : State::kUnroutable;
}

}  // namespace rr::route
