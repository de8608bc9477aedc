#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int32_t Tracer::begin(const char* name, const char* layer,
                           std::int64_t op) {
  if (!enabled_) return kNoSpan;
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  if (op < 0 && parent >= 0) op = spans_[static_cast<std::size_t>(parent)].op;
  spans_.push_back({name, layer, now_ns(), 0, parent, op, 0});
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id) {
  if (id == kNoSpan) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order; tolerate a mismatched id without corrupting
  // the stack of the others.
  const auto it = std::find(open_.rbegin(), open_.rend(), id);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

std::int32_t Tracer::add(const char* name, const char* layer,
                         std::int64_t start_ns, std::int64_t end_ns,
                         std::int32_t parent, std::int64_t op,
                         std::int32_t tid) {
  if (!enabled_) return kNoSpan;
  spans_.push_back({name, layer, start_ns, end_ns, parent, op, tid});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-6;
  }
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("trace: cannot write " + path);
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%lld}}",
                 i == 0 ? "" : ",\n", s.name, s.layer, s.tid,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, static_cast<long long>(s.op));
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    throw std::runtime_error("trace: failed to finish " + path);
  }
}

}  // namespace perfbench
