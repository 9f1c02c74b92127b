// bench_overall: the unified per-PR perf artifact (DESIGN.md §15.4).
//
// One harness that touches every headline axis the telemetry plane tracks —
// wall time, interrupt-latency p99, spill volume, GC time, and the net
// counters — across three representative configurations:
//
//   WC/inproc   pressured WordCount on the paper cluster (interrupt + spill
//               + GC numbers, no wire)
//   HS/inproc   pressured HeapSort (the sort-heavy counterpoint)
//   WC/tcp+ft   WordCount under fault tolerance over TCP loopback (wire +
//               recovery counters)
//
// Each configuration runs kRuns times; its row carries the median of every
// metric and the min/max of the gated ones, so a baseline states its own
// spread. Emits BENCH_overall.json (or ITASK_BENCH_JSON): one JSON row per
// line inside the envelope, so tools/perf_gate can diff a candidate against
// the committed baseline line-by-line. The envelope records the core count
// the rows were measured on. Every run has tracing active so the
// events_dropped column is live, not vacuously zero.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/hyracks_apps.h"
#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "net/transport.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kRuns = 3;

struct OverallRow {
  std::string app;
  std::string transport;
  bool ft = false;
  double wall_ms = 0.0;
  double gc_ms = 0.0;
  double gc_share = 0.0;  // gc_ms / wall_ms, clamped to [0, 1].
  std::uint64_t interrupts = 0;
  std::uint64_t interrupt_n = 0;  // Latency samples; equals interrupts.
  double interrupt_p99_us = 0.0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t events_dropped = 0;
  bool ok = false;
};

OverallRow RunOne(const std::string& app, itask::net::TransportKind kind, bool ft,
                  std::uint64_t dataset_bytes, std::uint64_t heap_bytes) {
  OverallRow row;
  row.app = app;
  row.transport = itask::net::TransportKindName(kind);
  row.ft = ft;

  itask::cluster::ClusterConfig cc = itask::bench::PaperCluster(heap_bytes);
  cc.net.kind = kind;
  itask::cluster::Cluster cluster(cc);

  itask::apps::AppConfig ac;
  ac.dataset_bytes = dataset_bytes;
  ac.deadline_ms = 120000.0;
  ac.fault_tolerance = ft;
  ac.trace_active = true;  // events_dropped must measure a real trace.
  const auto t0 = Clock::now();
  const auto r = itask::apps::RunHyracksApp(app, cluster, ac, itask::apps::Mode::kITask);
  row.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  const itask::common::RunMetrics& m = r.metrics;
  row.gc_ms = m.gc_ms;
  row.gc_share = row.wall_ms <= 0.0 ? 0.0 : std::min(m.gc_ms / row.wall_ms, 1.0);
  row.interrupts = m.interrupts;
  row.interrupt_n = m.interrupt_latency_hist.count;
  row.interrupt_p99_us = m.interrupt_latency_hist.Quantile(0.99) / 1e3;
  row.spilled_bytes = m.spilled_bytes;
  row.net_msgs = m.net_msgs_sent;
  row.net_bytes = m.net_bytes_sent;
  row.events_dropped = m.events_dropped;
  row.ok = m.succeeded;
  return row;
}

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

template <class Field>
Spread SpreadOf(const std::vector<OverallRow>& runs, Field field) {
  std::vector<double> v;
  for (const OverallRow& run : runs) {
    v.push_back(static_cast<double>(field(run)));
  }
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

// One row from |runs| of one configuration: medians, plus min/max of the
// gated metrics. ok only when every run succeeded.
std::string RowJson(const std::vector<OverallRow>& runs) {
  const OverallRow& first = runs.front();
  const Spread wall = SpreadOf(runs, [](const OverallRow& r) { return r.wall_ms; });
  const Spread gc = SpreadOf(runs, [](const OverallRow& r) { return r.gc_ms; });
  const Spread p99 = SpreadOf(runs, [](const OverallRow& r) { return r.interrupt_p99_us; });
  const Spread spill = SpreadOf(runs, [](const OverallRow& r) { return r.spilled_bytes; });
  const auto median = [&runs](auto field) { return SpreadOf(runs, field).median; };
  bool ok = true;
  for (const OverallRow& run : runs) {
    ok = ok && run.ok;
  }
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"app\":\"%s\",\"transport\":\"%s\",\"ft\":%s,\"runs\":%zu,"
      "\"wall_ms\":%.3f,\"wall_ms_min\":%.3f,\"wall_ms_max\":%.3f,"
      "\"gc_ms\":%.3f,\"gc_ms_min\":%.3f,\"gc_ms_max\":%.3f,\"gc_share\":%.4f,"
      "\"interrupts\":%.0f,\"interrupt_n\":%.0f,"
      "\"interrupt_p99_us\":%.2f,\"interrupt_p99_us_min\":%.2f,"
      "\"interrupt_p99_us_max\":%.2f,"
      "\"spilled_bytes\":%.0f,\"spilled_bytes_min\":%.0f,\"spilled_bytes_max\":%.0f,"
      "\"net_msgs\":%.0f,\"net_bytes\":%.0f,\"events_dropped\":%.0f,\"ok\":%s}",
      first.app.c_str(), first.transport.c_str(), first.ft ? "true" : "false", runs.size(),
      wall.median, wall.min, wall.max, gc.median, gc.min, gc.max,
      median([](const OverallRow& r) { return r.gc_share; }),
      median([](const OverallRow& r) { return r.interrupts; }),
      median([](const OverallRow& r) { return r.interrupt_n; }), p99.median, p99.min,
      p99.max, spill.median, spill.min, spill.max,
      median([](const OverallRow& r) { return r.net_msgs; }),
      median([](const OverallRow& r) { return r.net_bytes; }),
      median([](const OverallRow& r) { return r.events_dropped; }), ok ? "true" : "false");
  return buf;
}

}  // namespace

int main() {
  const double scale = itask::bench::BenchScale();
  // Pressured inputs on the 8MB paper heaps: big enough to interrupt and
  // spill, small enough that a CI run finishes in seconds.
  const auto mb = [scale](double v) {
    return static_cast<std::uint64_t>(v * scale * 1024 * 1024);
  };

  // Heaps sized to interrupt: the inproc rows run 6MB inputs on 2MB heaps
  // (3x oversubscription, same regime as the paper's pressured tables), the
  // tcp+ft row 2MB on 1MB.
  struct Config {
    const char* app;
    itask::net::TransportKind kind;
    bool ft;
    std::uint64_t dataset_bytes;
    std::uint64_t heap_bytes;
  };
  const std::vector<Config> configs = {
      {"WC", itask::net::TransportKind::kInproc, false, mb(6.0), 2 << 20},
      {"HS", itask::net::TransportKind::kInproc, false, mb(6.0), 2 << 20},
      {"WC", itask::net::TransportKind::kTcp, true, mb(2.0), 1 << 20},
  };

  bool ok = true;
  std::string rows_json;
  for (const Config& config : configs) {
    std::vector<OverallRow> runs;
    for (int i = 0; i < kRuns; ++i) {
      const OverallRow row =
          RunOne(config.app, config.kind, config.ft, config.dataset_bytes, config.heap_bytes);
      ok = ok && row.ok;
      std::printf("[overall] %-2s/%-6s%s run %d/%d wall=%8.1fms gc=%7.1fms (%4.1f%%) "
                  "interrupts=%-4llu int_p99=%7.1fus spilled=%s dropped=%llu %s\n",
                  row.app.c_str(), row.transport.c_str(), row.ft ? "+ft" : "   ", i + 1,
                  kRuns, row.wall_ms, row.gc_ms, row.gc_share * 100.0,
                  static_cast<unsigned long long>(row.interrupts), row.interrupt_p99_us,
                  itask::common::FormatBytes(row.spilled_bytes).c_str(),
                  static_cast<unsigned long long>(row.events_dropped),
                  row.ok ? "ok" : "FAIL");
      runs.push_back(row);
    }
    rows_json += (rows_json.empty() ? "" : ",\n") + RowJson(runs);
  }

  const char* env = std::getenv("ITASK_BENCH_JSON");
  const std::string path = env != nullptr ? env : "BENCH_overall.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_overall: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"overall\",\"scale\":%.3f,\"cores\":%u,\"rows\":[\n%s\n],"
               "\"ok\":%s}\n",
               scale, std::thread::hardware_concurrency(), rows_json.c_str(),
               ok ? "true" : "false");
  std::fclose(out);
  std::printf("bench_overall: wrote %s (%s)\n", path.c_str(), ok ? "ok" : "FAILURES");
  return ok ? 0 : 1;
}
