// perf_gate: the per-PR regression gate over bench_overall's artifact
// (DESIGN.md §15.4).
//
//   perf_gate <baseline BENCH_overall.json> <candidate BENCH_overall.json>
//
// Rows are keyed by (app, transport, ft); each row's metrics are medians of
// bench_overall's repeated runs. A candidate row regresses when it blows past
// the baseline by more than the per-metric tolerance:
//
//   wall_ms           > baseline x 2.5  (+50ms slack — CI machines vary)
//   gc_ms             > baseline x 2.5  (+50ms slack)
//   interrupt_p99_us  > baseline x 4.0  (+10ms slack)
//   spilled_bytes     > baseline x 3.0  (+1MB slack)
//
// Multiplicative bounds with additive slack: tiny baselines (a 2ms wall, a
// zero spill count) would otherwise flag noise as a 10x regression. The p99
// slack is wide because a row with one or two interrupts reports a single
// latency, which spans 0-8ms from run to run. GC is gated in absolute time:
// gc_share divides by wall time, so a speedup elsewhere would read as a GC
// regression; it is printed for context only. A
// candidate row that failed outright (ok=false), or a baseline row missing
// from the candidate, always gates. Extra candidate rows are reported but
// allowed — adding coverage is not a regression.
//
// The parser is not a general JSON reader: it consumes bench_overall's
// one-row-per-line output, same contract as the obs trace parser.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct GateRow {
  std::string key;  // "app/transport" (+ "+ft").
  double wall_ms = 0.0;
  double interrupt_p99_us = 0.0;
  double gc_ms = 0.0;
  double gc_share = 0.0;  // Printed, not gated: it falls as wall time falls.
  double spilled_bytes = 0.0;
  bool ok = false;
};

// Extracts the raw token after "name": on |line|; empty when absent.
std::string RawField(const std::string& line, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return "";
  }
  std::size_t start = pos + needle.size();
  std::size_t end = start;
  if (end < line.size() && line[end] == '"') {
    ++start;
    end = line.find('"', start);
    return end == std::string::npos ? "" : line.substr(start, end - start);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') {
    ++end;
  }
  return line.substr(start, end - start);
}

bool ParseRows(const std::string& path, std::map<std::string, GateRow>* out,
               std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"app\":") == std::string::npos) {
      continue;
    }
    GateRow row;
    const std::string app = RawField(line, "app");
    const std::string transport = RawField(line, "transport");
    if (app.empty() || transport.empty()) {
      *error = path + ": row missing app/transport: " + line;
      return false;
    }
    row.key = app + "/" + transport + (RawField(line, "ft") == "true" ? "+ft" : "");
    row.wall_ms = std::atof(RawField(line, "wall_ms").c_str());
    row.interrupt_p99_us = std::atof(RawField(line, "interrupt_p99_us").c_str());
    row.gc_ms = std::atof(RawField(line, "gc_ms").c_str());
    row.gc_share = std::atof(RawField(line, "gc_share").c_str());
    row.spilled_bytes = std::atof(RawField(line, "spilled_bytes").c_str());
    row.ok = RawField(line, "ok") == "true";
    (*out)[row.key] = row;
  }
  if (out->empty()) {
    *error = path + ": no bench rows found";
    return false;
  }
  return true;
}

// One metric check: candidate must stay under base * factor + slack.
bool Check(const char* key, const char* metric, double base, double cand,
           double factor, double slack, int* violations) {
  const double limit = base * factor + slack;
  if (cand <= limit) {
    return true;
  }
  std::fprintf(stderr,
               "perf_gate: REGRESSION %s %s: candidate %.2f > limit %.2f "
               "(baseline %.2f x %.1f + %.0f)\n",
               key, metric, cand, limit, base, factor, slack);
  ++*violations;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perf_gate <baseline.json> <candidate.json>\n");
    return 2;
  }
  std::map<std::string, GateRow> baseline;
  std::map<std::string, GateRow> candidate;
  std::string error;
  if (!ParseRows(argv[1], &baseline, &error) ||
      !ParseRows(argv[2], &candidate, &error)) {
    std::fprintf(stderr, "perf_gate: %s\n", error.c_str());
    return 2;
  }

  int violations = 0;
  for (const auto& [key, base] : baseline) {
    const auto it = candidate.find(key);
    if (it == candidate.end()) {
      std::fprintf(stderr, "perf_gate: REGRESSION %s: row missing from candidate\n",
                   key.c_str());
      ++violations;
      continue;
    }
    const GateRow& cand = it->second;
    if (!cand.ok) {
      std::fprintf(stderr, "perf_gate: REGRESSION %s: candidate run failed\n",
                   key.c_str());
      ++violations;
      continue;
    }
    const bool wall = Check(key.c_str(), "wall_ms", base.wall_ms, cand.wall_ms, 2.5,
                            50.0, &violations);
    const bool intr = Check(key.c_str(), "interrupt_p99_us", base.interrupt_p99_us,
                            cand.interrupt_p99_us, 4.0, 10000.0, &violations);
    const bool spill = Check(key.c_str(), "spilled_bytes", base.spilled_bytes,
                             cand.spilled_bytes, 3.0, 1024.0 * 1024.0, &violations);
    const bool gc = Check(key.c_str(), "gc_ms", base.gc_ms, cand.gc_ms, 2.5, 50.0,
                          &violations);
    if (wall && intr && spill && gc) {
      std::printf("perf_gate: ok %s (wall %.1f/%.1fms, int_p99 %.1f/%.1fus, "
                  "spill %.0f/%.0fB, gc %.1f/%.1fms, gc_share %.3f/%.3f)\n",
                  key.c_str(), cand.wall_ms, base.wall_ms, cand.interrupt_p99_us,
                  base.interrupt_p99_us, cand.spilled_bytes, base.spilled_bytes,
                  cand.gc_ms, base.gc_ms, cand.gc_share, base.gc_share);
    }
  }
  for (const auto& entry : candidate) {
    const std::string& key = entry.first;
    if (baseline.find(key) == baseline.end()) {
      std::printf("perf_gate: new row %s (no baseline; not gated)\n", key.c_str());
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "perf_gate: %d violation(s) vs %s\n", violations, argv[1]);
    return 1;
  }
  std::printf("perf_gate: all %zu row(s) within tolerance of %s\n", baseline.size(),
              argv[1]);
  return 0;
}
