// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around every op and every
// per-layer probe call (name, layer, start, end, parent, op id), kept in a
// vector and written once at exit as Chrome trace-event JSON. When the
// tracer is disabled, begin() returns kNoSpan after one branch and end()
// ignores it, so untraced rounds pay nothing measurable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();

struct Span {
  const char* name;
  const char* layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  ///< index of the enclosing span, -1 for roots
  std::int64_t op;      ///< op id shared by all spans of one op, -1 if none
  std::int32_t tid;     ///< display lane: 0 = measuring thread, 1+ = clients
};

class Tracer {
 public:
  static constexpr std::int32_t kNoSpan = -1;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// Turns recording on/off between rounds (the traced run alternates
  /// traced and untraced blocks to measure its own overhead).
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span nested in the innermost open span.
  std::int32_t begin(const char* name, const char* layer, std::int64_t op = -1);
  void end(std::int32_t id);

  /// Records an already-finished span (engine jobs, whose intervals come
  /// from completion callbacks and BatchReport timings).
  std::int32_t add(const char* name, const char* layer, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent, std::int64_t op,
                   std::int32_t tid);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Self time per layer in milliseconds: each span's duration minus the
  /// union of its children's intervals.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span.
  void write_chrome_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, const char* layer, std::int64_t op = -1)
      : t_(t), id_(t.begin(name, layer, op)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t id_;
};

}  // namespace perfbench
