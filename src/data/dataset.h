// Publishable measurement datasets.
//
// The paper released its raw study data through M-Lab; this module gives
// the toolkit the same capability: a campaign can be frozen into a
// self-contained CampaignDataset — probe outcomes plus the public metadata
// needed to re-analyze them (VP sites/platforms, destination addresses,
// prefix->AS numbers and CAIDA-style types) — saved to a compact versioned
// binary file, reloaded later, and re-analyzed without the simulator or
// topology in memory.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "measure/campaign.h"
#include "measure/classify.h"

namespace rr::data {

struct DatasetVp {
  std::string site;
  std::uint8_t platform = 0;  // topo::Platform

  [[nodiscard]] bool operator==(const DatasetVp&) const = default;
};

struct DatasetDestination {
  std::uint32_t address = 0;  // probed IP (host byte order)
  std::uint32_t asn = 0;      // owning AS number (public mapping)
  std::uint8_t as_type = 0;   // topo::AsType
  std::uint8_t ping_responsive = 0;

  [[nodiscard]] bool operator==(const DatasetDestination&) const = default;
};

/// A frozen campaign: everything needed to regenerate Table 1 and the
/// reachability analyses offline.
class CampaignDataset {
 public:
  static constexpr std::uint32_t kMagic = 0x52524453;  // "RRDS"
  static constexpr std::uint16_t kVersion = 1;

  std::string description;
  std::vector<DatasetVp> vps;
  std::vector<DatasetDestination> destinations;
  /// Row-major [vp][destination], same layout as Campaign.
  std::vector<measure::RrObservation> observations;

  /// Freezes a finished campaign (addresses and AS metadata come from the
  /// same public mapping the analyses use).
  [[nodiscard]] static CampaignDataset from_campaign(
      const measure::Campaign& campaign, std::string description = {});

  /// Same freeze, but *moves* the campaign's observation matrix into the
  /// dataset instead of copying it (the layouts are identical). Use when
  /// the campaign is no longer needed: at census scale this halves the
  /// freeze's resident footprint (~300 MB matrix). The campaign's derived
  /// summaries remain usable; its at() does not.
  [[nodiscard]] static CampaignDataset from_campaign(
      measure::Campaign&& campaign, std::string description = {});

  // ------------------------------------------------------------------ IO
  /// Serializes to the versioned binary format (returns false on IO error).
  [[nodiscard]] bool save(const std::string& path) const;
  /// Loads and validates; nullopt on missing file, bad magic/version, or
  /// truncated/corrupt content.
  [[nodiscard]] static std::optional<CampaignDataset> load(
      const std::string& path);

  /// In-memory (de)serialization, used by save/load and directly testable.
  [[nodiscard]] std::vector<std::uint8_t> serialize() const;
  [[nodiscard]] static std::optional<CampaignDataset> parse(
      std::span<const std::uint8_t> bytes);

  /// FNV-1a over the serialized bytes: a stable fingerprint for asserting
  /// that two runs (different thread counts, say) produced
  /// the same dataset without keeping both in memory.
  [[nodiscard]] std::uint64_t content_hash() const;

  // ------------------------------------------------------ offline queries
  [[nodiscard]] std::size_t num_vps() const noexcept { return vps.size(); }
  [[nodiscard]] std::size_t num_destinations() const noexcept {
    return destinations.size();
  }
  [[nodiscard]] const measure::RrObservation& at(
      std::size_t vp, std::size_t dest) const noexcept {
    return observations[vp * destinations.size() + dest];
  }
  [[nodiscard]] bool rr_responsive(std::size_t dest) const noexcept;
  [[nodiscard]] bool rr_reachable(std::size_t dest) const noexcept;
  [[nodiscard]] int min_rr_distance(std::size_t dest) const noexcept;

  /// Re-derives Table 1 from the frozen data alone.
  [[nodiscard]] measure::ResponseTable response_table() const;

  [[nodiscard]] bool operator==(const CampaignDataset&) const = default;
};

}  // namespace rr::data
