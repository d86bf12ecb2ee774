// Allocation bound for CampaignDataset::parse on hostile headers.
//
// Replaces the global allocator with a shim that records the largest
// single request, then parses the crafted files of hostile_rrds.h. Each
// must be rejected, and no request made while parsing it may exceed the
// file's own size: the parser must check its header counts against the
// bytes it holds before it reserves for them. A standalone binary (not
// gtest) because the allocator override owns the whole process.
//
// With a directory argument it also writes the two files there, as
// many_destinations.rrds and huge_matrix.rrds, for the rr-analyze tests.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

static std::atomic<std::size_t> g_max_request{0};

namespace {
void* tracked_alloc(std::size_t size) {
  std::size_t seen = g_max_request.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_max_request.compare_exchange_weak(seen, size,
                                              std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#include <fstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "hostile_rrds.h"

namespace {

bool check(const char* name, const std::vector<std::uint8_t>& bytes) {
  g_max_request.store(0);
  bool rejected = false;
  try {
    rejected = !rr::data::CampaignDataset::parse(bytes).has_value();
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "FAIL %s: parse threw std::bad_alloc\n", name);
    return false;
  }
  const std::size_t peak = g_max_request.load();
  if (!rejected) {
    std::fprintf(stderr, "FAIL %s: parse accepted the file\n", name);
    return false;
  }
  if (peak > bytes.size()) {
    std::fprintf(stderr, "FAIL %s: %zu-byte file drew a %zu-byte request\n",
                 name, bytes.size(), peak);
    return false;
  }
  std::printf("ok %s: %zu bytes rejected, largest request %zu bytes\n", name,
              bytes.size(), peak);
  return true;
}

bool write(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const auto many = rr::data::hostile::many_destinations();
  const auto huge = rr::data::hostile::huge_matrix();
  bool ok = check("many_destinations", many);
  ok = check("huge_matrix", huge) && ok;
  if (argc > 1) {
    const std::string dir = argv[1];
    ok = write(dir + "/many_destinations.rrds", many) && ok;
    ok = write(dir + "/huge_matrix.rrds", huge) && ok;
  }
  return ok ? 0 : 1;
}
