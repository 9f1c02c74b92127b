#include "common/metrics.h"

#include <algorithm>
#include <cstdio>

namespace itask::common {

namespace {

template <FoldRule R, class T>
void Fold(T& into, const T& from) {
  if constexpr (R == FoldRule::kSum) {
    into += from;
  } else if constexpr (R == FoldRule::kMax) {
    into = std::max(into, from);
  } else if constexpr (R == FoldRule::kOr) {
    into = into || from;
  } else if constexpr (R == FoldRule::kAnd) {
    into = into && from;
  } else if constexpr (R == FoldRule::kXor) {
    into ^= from;
  } else {
    into.Merge(from);
  }
}

}  // namespace

void RunMetrics::Merge(const RunMetrics& other) {
#define ITASK_MERGE_RUN_METRICS_FIELD(type, name, rule) Fold<FoldRule::rule>(name, other.name);
  ITASK_RUN_METRICS_FIELDS(ITASK_MERGE_RUN_METRICS_FIELD)
#undef ITASK_MERGE_RUN_METRICS_FIELD
}

std::string RunMetrics::Summary() const {
  char buf[320];
  int n = std::snprintf(buf, sizeof(buf),
                        "%s wall=%.1fms gc=%.1fms (%llu GCs, %llu LUGC) peak=%s interrupts=%llu",
                        succeeded ? "ok" : (out_of_memory ? "OME" : "failed"), wall_ms, gc_ms,
                        static_cast<unsigned long long>(gc_count),
                        static_cast<unsigned long long>(lugc_count),
                        FormatBytes(peak_heap_bytes).c_str(),
                        static_cast<unsigned long long>(interrupts));
  if (gc_pause_hist.count > 0 && n > 0 && static_cast<std::size_t>(n) < sizeof(buf)) {
    std::snprintf(buf + n, sizeof(buf) - static_cast<std::size_t>(n),
                  " gc_pause[p50=%.2fms p95=%.2fms max=%.2fms]",
                  gc_pause_hist.Quantile(0.5) / 1e6, gc_pause_hist.Quantile(0.95) / 1e6,
                  static_cast<double>(gc_pause_hist.max) / 1e6);
  }
  return buf;
}

std::string FormatBytes(std::uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= 1024ULL * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.2fGB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (bytes >= 1024ULL * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMB", b / (1024.0 * 1024.0));
  } else if (bytes >= 1024ULL) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

}  // namespace itask::common
