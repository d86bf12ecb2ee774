// In-memory span recorder for the census benchmark.
//
// A span is one timed call into the program: name, start, end, the span
// that was open when it began (its parent), and how many calls it covers
// (sampled micro-operations are timed in small groups, so per-call cost is
// duration / calls). Every span of one process shares the tracer's run id.
// Spans are kept in memory and written out once, when the run ends.
//
// A disabled tracer still times each Scope -- the benchmark's metrics come
// from those durations -- but records nothing, so untraced runs pay only
// for the clock reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t id = 0;      // 1-based
  std::uint32_t parent = 0;  // 0 = no parent
  const char* name = "";     // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 1;
};

class Tracer {
 public:
  Tracer(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (0 when
  /// disabled). Spans must be closed in LIFO order.
  std::uint32_t open(const char* name, std::int64_t start,
                     std::uint64_t calls) {
    if (!enabled_) return 0;
    Span span;
    span.id = static_cast<std::uint32_t>(spans_.size() + 1);
    span.parent = open_.empty() ? 0 : open_.back();
    span.name = name;
    span.start_ns = start;
    span.calls = calls;
    spans_.push_back(span);
    open_.push_back(span.id);
    return span.id;
  }

  void set_calls(std::uint32_t id, std::uint64_t calls) {
    if (id != 0) spans_[id - 1].calls = calls;
  }

  void close(std::uint32_t id, std::int64_t end) {
    if (id == 0) return;
    spans_[id - 1].end_ns = end;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Writes {"run_id": ..., "spans": [[id, parent, name, start, end,
  /// calls], ...]}; returns false on an IO error.
  [[nodiscard]] bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"run_id\": \"%016llx\", \"spans\": [\n",
                 static_cast<unsigned long long>(run_id_));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "[%u,%u,\"%s\",%lld,%lld,%llu]%s\n", s.id, s.parent,
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.calls),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// Times one call (or a group of `calls` calls) and records it as a span
/// when the tracer is enabled.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t calls = 1)
      : tracer_(tracer), start_(now_ns()) {
    id_ = tracer_.open(name, start_, calls);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { stop(); }

  /// Corrects the call count when it is known only after the calls.
  void set_calls(std::uint64_t calls) { tracer_.set_calls(id_, calls); }

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop() {
    if (end_ == 0) {
      end_ = now_ns();
      tracer_.close(id_, end_);
    }
    return static_cast<double>(end_ - start_) * 1e-9;
  }

 private:
  Tracer& tracer_;
  std::int64_t start_;
  std::int64_t end_ = 0;
  std::uint32_t id_ = 0;
};

}  // namespace perfbench
