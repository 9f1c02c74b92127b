// Shared pieces of the job benchmark: the workload table, the benchmark's own
// reference computation of every job's result, and the small statistics
// helpers both the end-to-end and the traced run use.
#ifndef JOBBENCH_JOBBENCH_H_
#define JOBBENCH_JOBBENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads/graph.h"
#include "workloads/text.h"

namespace jobbench {

// One benchmark workload: an ITask job run again and again on one reused
// simulated cluster (closed loop, one client).
struct Workload {
  std::string name;
  std::string app;  // "WC" (WordCount) or "HS" (HeapSort).
  bool fault_tolerance = false;
  int nodes = 2;
  int max_workers = 2;                // Per node; nodes * max_workers <= nproc.
  std::uint64_t heap_bytes = 0;       // Per node.
  std::uint64_t input_bytes = 0;      // Generated input per job.
  std::uint64_t granularity_bytes = 32 << 10;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

// The seed a job's generator gets: every job of a run reads the same input,
// derived from the run's --seed.
std::uint64_t InputSeed(std::uint64_t run_seed);

// ---- Inputs ----

// The generator settings the apps use for a job of |input_bytes|: WordCount's
// corpus (its vocabulary grows with the corpus, one distinct word per 192
// bytes, at least 2000) and HeapSort's webmap.
itask::workloads::TextConfig WordCountInput(std::uint64_t input_bytes, std::uint64_t seed);
itask::workloads::GraphConfig HeapSortInput(std::uint64_t input_bytes, std::uint64_t seed);
// HeapSort's sort key of one generated edge.
std::uint64_t SortKey(const itask::workloads::Edge& e);

// ---- Result checks, independent of the program ----
//
// The expected result is recomputed from the workload generator alone: the
// benchmark re-implements the word split, the sort keys and the result
// fingerprints instead of calling into the apps library.
struct Expected {
  std::uint64_t records = 0;
  std::uint64_t checksum = 0;
};

// WordCount: distinct words of the corpus, and the sum over words of the
// app's per-entry fingerprint of (word, count). HeapSort: number of keys and
// their order-independent multiset fingerprint.
Expected Reference(const Workload& w, std::uint64_t seed);

inline bool Matches(const Expected& want, std::uint64_t records, std::uint64_t checksum) {
  return want.records == records && want.checksum == checksum;
}

// ---- Statistics ----
double Median(std::vector<double> v);

// One reported metric: value, unit and the number of samples behind it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
};

// ---- Traced-run layer timings (layers.cc) ----
//
// Each times calls into one module's public functions on inputs made by the
// workload's own generator with the run's input seed.
std::vector<Metric> MeasureLayers(const Workload& w, std::uint64_t seed,
                                  const std::string& workdir);

}  // namespace jobbench

#endif  // JOBBENCH_JOBBENCH_H_
