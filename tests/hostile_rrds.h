// Crafted .rrds files whose header counts claim far more records than the
// file holds. Both carry a valid trailer checksum (it is a 16-bit
// one's-complement sum, trivial to forge), so only the parser's own
// bounds stand between them and a census-sized allocation.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "netbase/byte_io.h"
#include "netbase/checksum.h"

namespace rr::data::hostile {

/// Appends the trailer CampaignDataset::serialize() would: a pad byte if
/// the body is odd, then the checksum that makes the file verify.
inline std::vector<std::uint8_t> with_trailer(std::vector<std::uint8_t> body) {
  if (body.size() % 2 != 0) body.push_back(0);
  const std::uint16_t sum = net::internet_checksum(body);
  body.push_back(static_cast<std::uint8_t>(sum >> 8));
  body.push_back(static_cast<std::uint8_t>(sum));
  return body;
}

/// Header through the two counts, with an empty description.
inline net::ByteWriter header(std::uint32_t n_vps, std::uint32_t n_dests) {
  net::ByteWriter out;
  out.u32(CampaignDataset::kMagic);
  out.u16(CampaignDataset::kVersion);
  out.u32(0);  // description length
  out.u32(n_vps);
  out.u32(n_dests);
  return out;
}

/// 26 bytes claiming 0 VPs and 5,000,000 destinations.
inline std::vector<std::uint8_t> many_destinations() {
  net::ByteWriter out = header(0, 5'000'000);
  out.zeros(6);
  return with_trailer(std::move(out).take());
}

/// ~500 KB claiming 100,000 VPs x 100,000 destinations: the VP records
/// are all there (empty site + platform byte), nothing after them.
inline std::vector<std::uint8_t> huge_matrix() {
  net::ByteWriter out = header(100'000, 100'000);
  for (int v = 0; v < 100'000; ++v) {
    out.u32(0);  // site length
    out.u8(0);   // platform
  }
  return with_trailer(std::move(out).take());
}

}  // namespace rr::data::hostile
