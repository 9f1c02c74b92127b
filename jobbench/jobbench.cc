// jobbench: end-to-end and per-layer benchmark of the ITask runtime.
//
//   jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--workdir <dir>]
//   jobbench --selftest [--workdir <dir>]
//
// One process builds one simulated cluster and runs the workload's job on it
// again and again, one job at a time (a closed loop with one client), for
// --seconds. Every job's result is checked against the benchmark's own
// computation from the workload generator. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
// untraced jobs, then times single layers, and reports the per-layer metrics.
// Every metric is also printed with its sample count on a line of its own.
// See README.md for the workloads, the metrics and how they relate.
#include "jobbench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/hyracks_apps.h"
#include "cluster/cluster.h"
#include "workloads/graph.h"
#include "workloads/text.h"

#ifndef JOBBENCH_BUILD_TYPE
#define JOBBENCH_BUILD_TYPE "unknown"
#endif

namespace jobbench {

using Clock = std::chrono::steady_clock;
constexpr double kMiB = 1024.0 * 1024.0;

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> v;
    Workload wc;
    wc.name = "wc-interrupt";
    wc.app = "WC";
    wc.heap_bytes = 2 << 20;
    wc.input_bytes = 12 << 20;
    v.push_back(wc);

    Workload hs;
    hs.name = "hs-gc";
    hs.app = "HS";
    hs.heap_bytes = 2 << 20;
    hs.input_bytes = 32 << 20;
    v.push_back(hs);

    // Fault tolerance over the in-process transport: every shuffle output is
    // staged in the recovery ledger and delivered at commit. Loopback TCP was
    // left out: its job time followed the machine's thread wake-up latency
    // (see README.md).
    Workload ft;
    ft.name = "wc-ft-ledger";
    ft.app = "WC";
    ft.fault_tolerance = true;
    ft.heap_bytes = 64 << 20;
    ft.input_bytes = 12 << 20;
    v.push_back(ft);
    return v;
  }();
  return table;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

namespace {

std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t InputSeed(std::uint64_t run_seed) { return Mix64(run_seed ^ 0x6a6f6262656e6368ULL); }

itask::workloads::TextConfig WordCountInput(std::uint64_t input_bytes, std::uint64_t seed) {
  itask::workloads::TextConfig tc;
  tc.seed = seed;
  tc.target_bytes = input_bytes;
  tc.vocabulary = std::max<std::uint64_t>(2'000, input_bytes / 192);
  return tc;
}

itask::workloads::GraphConfig HeapSortInput(std::uint64_t input_bytes, std::uint64_t seed) {
  return itask::workloads::GraphForBytes(input_bytes, seed);
}

std::uint64_t SortKey(const itask::workloads::Edge& e) { return Mix64(e.src * 0x1000003ULL + e.dst); }

// ---- Reference computation ----
//
// The fingerprints are written out here so the check does not trust the
// program's own copies.
namespace {

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h = (h ^ c) * 1099511628211ULL;
  }
  return h;
}

std::uint64_t WordEntryFingerprint(const std::string& word, std::uint64_t count) {
  return Mix64(Fnv1a(word) ^ Mix64(count));
}

std::uint64_t SortKeyFingerprint(std::uint64_t key) { return Mix64(key ^ 0x9e3779b97f4a7c15ULL); }

// Every word of the WordCount corpus with its count, splitting on spaces.
std::unordered_map<std::string, std::uint64_t> WordCounts(std::uint64_t input_bytes,
                                                          std::uint64_t seed) {
  std::unordered_map<std::string, std::uint64_t> counts;
  itask::workloads::ForEachDocument(WordCountInput(input_bytes, seed), [&](const std::string& doc) {
    std::size_t start = 0;
    while (start <= doc.size()) {
      std::size_t end = doc.find(' ', start);
      if (end == std::string::npos) {
        end = doc.size();
      }
      if (end > start) {
        ++counts[doc.substr(start, end - start)];
      }
      start = end + 1;
    }
  });
  return counts;
}

Expected ReferenceWordCount(std::uint64_t input_bytes, std::uint64_t seed) {
  const std::unordered_map<std::string, std::uint64_t> counts = WordCounts(input_bytes, seed);
  Expected e;
  e.records = counts.size();
  for (const auto& [word, count] : counts) {
    e.checksum += WordEntryFingerprint(word, count);
  }
  return e;
}

Expected ReferenceHeapSort(std::uint64_t input_bytes, std::uint64_t seed) {
  Expected e;
  itask::workloads::ForEachEdge(HeapSortInput(input_bytes, seed),
                                [&](const itask::workloads::Edge& edge) {
                                  e.checksum += SortKeyFingerprint(SortKey(edge));
                                  ++e.records;
                                });
  return e;
}

}  // namespace

Expected Reference(const Workload& w, std::uint64_t seed) {
  return w.app == "HS" ? ReferenceHeapSort(w.input_bytes, seed)
                       : ReferenceWordCount(w.input_bytes, seed);
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

namespace {

// ---- Running jobs ----

itask::cluster::ClusterConfig MakeClusterConfig(const Workload& w, const std::string& workdir) {
  itask::cluster::ClusterConfig cc;
  cc.num_nodes = w.nodes;
  cc.heap.capacity_bytes = w.heap_bytes;
  cc.heap.real_pauses = true;  // GC pauses take wall time, as in a JVM.
  cc.heap.gc_ns_per_byte = 0.25;
  cc.spill_root = workdir;
  return cc;
}

itask::apps::AppConfig MakeAppConfig(const Workload& w, std::uint64_t seed, bool traced) {
  itask::apps::AppConfig ac;
  ac.dataset_bytes = w.input_bytes;
  ac.max_workers = w.max_workers;
  ac.granularity_bytes = w.granularity_bytes;
  ac.seed = seed;
  ac.deadline_ms = 120'000.0;  // A stuck job fails instead of hanging the run.
  ac.fault_tolerance = w.fault_tolerance;
  ac.trace_active = traced;
  return ac;
}

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

// Peak resident memory while a job runs: a thread samples the process's
// resident set every 2 ms between Begin() and End().
class RssSampler {
 public:
  RssSampler() : thread_([this] { Loop(); }) {}
  ~RssSampler() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void Begin() {
    const std::uint64_t now = ResidentBytes();
    std::lock_guard lock(mu_);
    peak_ = now;
    active_ = true;
    cv_.notify_all();
  }
  // Returns the peak since Begin(), in MiB.
  double End() {
    const std::uint64_t now = ResidentBytes();
    std::lock_guard lock(mu_);
    active_ = false;
    peak_ = std::max(peak_, now);
    return static_cast<double>(peak_) / kMiB;
  }

 private:
  static std::uint64_t ResidentBytes() {
    unsigned long long size = 0;
    unsigned long long resident = 0;
    std::FILE* f = std::fopen("/proc/self/statm", "r");
    if (f != nullptr) {
      if (std::fscanf(f, "%llu %llu", &size, &resident) != 2) {
        resident = 0;
      }
      std::fclose(f);
    }
    return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
  }

  void Loop() {
    std::unique_lock lock(mu_);
    while (!stop_) {
      if (!active_) {
        cv_.wait(lock, [this] { return stop_ || active_; });
        continue;
      }
      lock.unlock();
      const std::uint64_t now = ResidentBytes();
      lock.lock();
      if (active_) {
        peak_ = std::max(peak_, now);
      }
      cv_.wait_for(lock, std::chrono::milliseconds(2), [this] { return stop_; });
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;       // Guarded by mu_.
  bool active_ = false;     // Guarded by mu_.
  std::uint64_t peak_ = 0;  // Guarded by mu_.
  std::thread thread_;
};


// Node-lifetime counters summed over the cluster; a job's share is the
// difference of two of these taken around it.
struct NodeTotals {
  std::uint64_t gc_pause_ns = 0;
  std::uint64_t gc_count = 0;
  std::uint64_t lugc_count = 0;
  std::uint64_t files_written = 0;    // Spill files that reached disk.
  double write_ms = 0.0;              // Time writing them.
  double read_ms = 0.0;               // Time reading spill files back.
  std::uint64_t disk_bytes = 0;       // On-disk bytes after the block codec.
  std::uint64_t cancelled_write_bytes = 0;
  std::uint64_t read_stall_ns = 0;

  NodeTotals operator-(const NodeTotals& o) const {
    NodeTotals d;
    d.gc_pause_ns = gc_pause_ns - o.gc_pause_ns;
    d.gc_count = gc_count - o.gc_count;
    d.lugc_count = lugc_count - o.lugc_count;
    d.files_written = files_written - o.files_written;
    d.write_ms = write_ms - o.write_ms;
    d.read_ms = read_ms - o.read_ms;
    d.disk_bytes = disk_bytes - o.disk_bytes;
    d.cancelled_write_bytes = cancelled_write_bytes - o.cancelled_write_bytes;
    d.read_stall_ns = read_stall_ns - o.read_stall_ns;
    return d;
  }
};

NodeTotals Totals(itask::cluster::Cluster& cluster) {
  NodeTotals t;
  for (int i = 0; i < cluster.size(); ++i) {
    itask::cluster::Node& node = cluster.node(i);
    const itask::memsim::HeapStats heap = node.heap().Stats();
    t.gc_pause_ns += heap.total_gc_pause_ns;
    t.gc_count += heap.gc_count;
    t.lugc_count += heap.lugc_count;
    // The base manager's stats count files on disk; the async layer's own
    // Stats() counts every accepted spill, cancelled writes included.
    const itask::serde::SpillStats disk = node.async_spill().itask::serde::SpillManager::Stats();
    t.files_written += disk.spill_count;
    t.write_ms += disk.write_ms;
    t.read_ms += disk.read_ms;
    const itask::io::IoStats io = node.async_spill().io_stats();
    t.disk_bytes += io.framed_bytes;
    t.cancelled_write_bytes += io.cancelled_write_bytes;
    t.read_stall_ns += io.read_stall_ns;
  }
  return t;
}

struct JobSample {
  bool ok = false;
  bool traced = false;
  std::uint64_t records = 0;
  std::uint64_t checksum = 0;
  double job_s = 0.0;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
  NodeTotals layers;
  itask::common::RunMetrics metrics;
  std::uint64_t events_dropped = 0;
};

// |rss|, when given, samples the job's peak resident memory.
JobSample RunJob(itask::cluster::Cluster& cluster, const Workload& w, std::uint64_t seed,
                 bool traced, RssSampler* rss = nullptr) {
  JobSample s;
  s.traced = traced;
  cluster.tracer().set_enabled(traced);
  const NodeTotals before = Totals(cluster);
  const std::uint64_t dropped_before = cluster.tracer().stats().dropped;
  const double cpu_before = ProcessCpuSeconds();
  if (rss != nullptr) {
    rss->Begin();
  }
  const Clock::time_point t0 = Clock::now();
  itask::apps::AppResult r = itask::apps::RunHyracksApp(w.app, cluster, MakeAppConfig(w, seed, traced),
                                                        itask::apps::Mode::kITask);
  s.job_s = std::chrono::duration<double>(Clock::now() - t0).count();
  s.peak_rss_mb = rss != nullptr ? rss->End() : 0.0;
  // Background spill writes the job left queued are its work too: let them
  // land before reading its CPU time and its share of the counters.
  for (int i = 0; i < cluster.size(); ++i) {
    cluster.node(i).async_spill().Drain();
  }
  s.cpu_s = ProcessCpuSeconds() - cpu_before;
  s.layers = Totals(cluster) - before;
  s.events_dropped = cluster.tracer().stats().dropped - dropped_before;
  cluster.tracer().set_enabled(false);
  s.ok = r.metrics.succeeded;
  s.records = r.records;
  s.checksum = r.checksum;
  s.metrics = r.metrics;
  return s;
}

// ---- Output ----

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void PrintMetricLines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("[jobbench] metric %-32s %14s %-8s n=%zu\n", m.name.c_str(), Fmt(m.value).c_str(),
                m.unit.c_str(), m.n);
  }
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) {
      json += ", ";
    }
    json += "\"" + metrics[i].name + "\": {\"value\": " + Fmt(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void PrintStamp(const Workload& w, std::uint64_t run_seed, std::uint64_t input_seed, double seconds,
                bool trace) {
  std::printf(
      "[jobbench] nproc=%ld build=%s workload=%s seed=%llu input_seed=%llu seconds=%g trace=%d\n",
      sysconf(_SC_NPROCESSORS_ONLN), JOBBENCH_BUILD_TYPE, w.name.c_str(),
      static_cast<unsigned long long>(run_seed), static_cast<unsigned long long>(input_seed),
      seconds, trace ? 1 : 0);
  std::printf(
      "[jobbench] cluster=%d nodes x %d workers heap=%.1f MiB/node transport=inproc ft=%d app=%s "
      "input=%.1f MiB granularity=%llu KiB\n",
      w.nodes, w.max_workers, static_cast<double>(w.heap_bytes) / kMiB,
      w.fault_tolerance ? 1 : 0, w.app.c_str(),
      static_cast<double>(w.input_bytes) / kMiB,
      static_cast<unsigned long long>(w.granularity_bytes >> 10));
  std::fflush(stdout);
}

void PrintJobLine(std::size_t index, const JobSample& s) {
  std::printf(
      "[jobbench] job %zu%s ok=%d job_s=%.4f cpu_s=%.4f gc=%llu lugc=%llu interrupts=%llu "
      "spill_files=%llu disk=%.2f MiB\n",
      index, s.traced ? " traced" : "", s.ok ? 1 : 0, s.job_s, s.cpu_s,
      static_cast<unsigned long long>(s.layers.gc_count),
      static_cast<unsigned long long>(s.layers.lugc_count),
      static_cast<unsigned long long>(s.metrics.interrupts),
      static_cast<unsigned long long>(s.layers.files_written),
      static_cast<double>(s.layers.disk_bytes) / kMiB);
  std::fflush(stdout);
}

// Checks the warm-up jobs and every successful timed job against the
// reference. A failed warm-up job makes the run incorrect; failed timed jobs
// are counted by the caller, not judged here.
bool CheckJobs(const Expected& want, const std::vector<JobSample>& warmups,
               const std::vector<JobSample>& jobs) {
  bool correct = true;
  const auto check = [&](const char* what, const std::vector<JobSample>& v, bool must_succeed) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (!v[i].ok && must_succeed) {
        std::printf("[jobbench] %s job %zu FAILED\n", what, i);
        correct = false;
      } else if (v[i].ok && !Matches(want, v[i].records, v[i].checksum)) {
        std::printf("[jobbench] %s job %zu WRONG RESULT: records=%llu checksum=%016llx\n", what, i,
                    static_cast<unsigned long long>(v[i].records),
                    static_cast<unsigned long long>(v[i].checksum));
        correct = false;
      }
    }
  };
  check("warm-up", warmups, /*must_succeed=*/true);
  check("timed", jobs, /*must_succeed=*/false);
  std::printf("[jobbench] reference records=%llu checksum=%016llx: %s\n",
              static_cast<unsigned long long>(want.records),
              static_cast<unsigned long long>(want.checksum),
              correct ? "all results match" : "MISMATCH");
  return correct;
}

std::size_t CountFailed(const std::vector<JobSample>& jobs) {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(), [](const JobSample& s) { return !s.ok; }));
}

// Median over successful jobs of f(job).
template <typename F>
Metric JobMetric(const std::string& name, const std::string& unit,
                 const std::vector<JobSample>& jobs, F f) {
  std::vector<double> v;
  for (const JobSample& s : jobs) {
    if (s.ok) {
      v.push_back(f(s));
    }
  }
  return Metric{name, Median(v), unit, v.size()};
}

// Builds a cluster and runs one untimed warm-up job on it; the time both
// take is one set-up sample.
std::unique_ptr<itask::cluster::Cluster> SetUp(const Workload& w, std::uint64_t seed,
                                               const std::string& workdir, double* setup_s,
                                               std::vector<JobSample>* warmups) {
  const Clock::time_point t0 = Clock::now();
  auto cluster = std::make_unique<itask::cluster::Cluster>(MakeClusterConfig(w, workdir));
  warmups->push_back(RunJob(*cluster, w, seed, /*traced=*/false));
  *setup_s = std::chrono::duration<double>(Clock::now() - t0).count();
  return cluster;
}

// Runs jobs back to back until |seconds| have passed (at least one job).
// |traced_every| > 0 traces every that-many-th job, starting with the first.
std::vector<JobSample> JobLoop(itask::cluster::Cluster& cluster, const Workload& w,
                               std::uint64_t seed, double seconds, int traced_every,
                               RssSampler* rss = nullptr) {
  std::vector<JobSample> jobs;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  do {
    const bool traced = traced_every > 0 && jobs.size() % static_cast<std::size_t>(traced_every) == 0;
    jobs.push_back(RunJob(cluster, w, seed, traced, rss));
    PrintJobLine(jobs.size() - 1, jobs.back());
  } while (Clock::now() < end);
  return jobs;
}

constexpr int kSetups = 3;

int EndToEndRun(const Workload& w, std::uint64_t seed, double seconds, const std::string& workdir) {
  std::vector<double> setup_times;
  std::vector<JobSample> warmups;
  std::unique_ptr<itask::cluster::Cluster> cluster;
  for (int i = 0; i < kSetups; ++i) {
    cluster.reset();  // One cluster at a time.
    double setup_s = 0.0;
    cluster = SetUp(w, seed, workdir, &setup_s, &warmups);
    setup_times.push_back(setup_s);
    std::printf("[jobbench] setup %d: %.4f s (cluster + warm-up job)\n", i, setup_s);
  }
  const std::vector<JobSample> jobs = JobLoop(*cluster, w, seed, seconds, /*traced_every=*/0);
  cluster.reset();

  const Expected want = Reference(w, seed);
  const bool correct = CheckJobs(want, warmups, jobs);
  const std::size_t failed = CountFailed(jobs);
  const double input_mb = static_cast<double>(w.input_bytes) / kMiB;

  std::vector<Metric> metrics;
  metrics.push_back(Metric{"setup_s", Median(setup_times), "s", setup_times.size()});
  metrics.push_back(JobMetric("job_s.p50", "s", jobs, [](const JobSample& s) { return s.job_s; }));
  metrics.push_back(JobMetric("cpu_s.p50", "CPU-s", jobs, [](const JobSample& s) { return s.cpu_s; }));
  metrics.push_back(JobMetric("spill_mb_per_input_mb", "MiB/MiB", jobs, [&](const JobSample& s) {
    return static_cast<double>(s.layers.disk_bytes) / kMiB / input_mb;
  }));
  std::printf("[jobbench] jobs attempted=%zu failed=%zu\n", jobs.size(), failed);
  PrintMetricLines(metrics);
  PrintResult(correct, jobs.size(), failed, metrics);
  return 0;
}

// The same job on one node with one worker and a heap it never fills, run
// kSoloJobs times on one cluster.
constexpr int kSoloJobs = 3;

Metric SoloJobSeconds(const Workload& w, std::uint64_t seed, const std::string& workdir,
                      const Expected& want, bool* correct) {
  Workload solo = w;
  solo.name += "-solo";
  solo.nodes = 1;
  solo.max_workers = 1;
  solo.fault_tolerance = false;
  solo.heap_bytes = std::max<std::uint64_t>(w.input_bytes * 16, 256ULL << 20);
  itask::cluster::Cluster cluster(MakeClusterConfig(solo, workdir));
  std::vector<double> v;
  for (int i = 0; i < kSoloJobs; ++i) {
    const JobSample s = RunJob(cluster, solo, seed, /*traced=*/false);
    if (!s.ok || !Matches(want, s.records, s.checksum)) {
      std::printf("[jobbench] solo job %d failed or mismatched\n", i);
      *correct = false;
    }
    std::printf("[jobbench] solo job %d: %.4f s\n", i, s.job_s);
    v.push_back(s.job_s);
  }
  return Metric{"apps.solo_job_s", Median(v), "s", v.size()};
}

int TracedRun(const Workload& w, std::uint64_t seed, double seconds, const std::string& workdir) {
  std::vector<JobSample> warmups;
  double setup_s = 0.0;
  std::unique_ptr<itask::cluster::Cluster> cluster = SetUp(w, seed, workdir, &setup_s, &warmups);
  std::printf("[jobbench] setup: %.4f s (cluster + warm-up job)\n", setup_s);
  RssSampler rss;
  const std::vector<JobSample> jobs = JobLoop(*cluster, w, seed, seconds, /*traced_every=*/2, &rss);
  cluster.reset();

  const Expected want = Reference(w, seed);
  bool correct = CheckJobs(want, warmups, jobs);
  const std::size_t failed = CountFailed(jobs);

  std::vector<JobSample> traced;
  std::vector<JobSample> untraced;
  for (const JobSample& s : jobs) {
    (s.traced ? traced : untraced).push_back(s);
  }

  std::vector<Metric> m;
  const auto per_job = [&](const std::string& name, const std::string& unit, auto f) {
    m.push_back(JobMetric(name, unit, jobs, f));
  };
  per_job("memsim.gc_s", "s", [](const JobSample& s) { return s.layers.gc_pause_ns / 1e9; });
  per_job("memsim.gc_count", "count", [](const JobSample& s) { return double(s.layers.gc_count); });
  per_job("memsim.lugc_count", "count", [](const JobSample& s) { return double(s.layers.lugc_count); });
  per_job("itask.interrupts", "count", [](const JobSample& s) { return double(s.metrics.interrupts); });
  per_job("itask.ome_interrupts", "count",
          [](const JobSample& s) { return double(s.metrics.ome_interrupts); });
  per_job("itask.reactivations", "count",
          [](const JobSample& s) { return double(s.metrics.reactivations); });
  per_job("itask.lazy_serialized_mb", "MiB",
          [](const JobSample& s) { return s.metrics.lazy_serialized_bytes / kMiB; });
  per_job("itask.recovery.shuffle_retries", "count",
          [](const JobSample& s) { return double(s.metrics.shuffle_retries); });
  per_job("serde.spill_files", "count", [](const JobSample& s) { return double(s.layers.files_written); });
  per_job("serde.write_ms_per_file", "ms", [](const JobSample& s) {
    return s.layers.files_written == 0 ? 0.0 : s.layers.write_ms / double(s.layers.files_written);
  });
  per_job("serde.read_s", "s", [](const JobSample& s) { return s.layers.read_ms / 1e3; });
  per_job("io.read_stall_s", "s", [](const JobSample& s) { return s.layers.read_stall_ns / 1e9; });
  per_job("io.cancelled_write_mb", "MiB",
          [](const JobSample& s) { return s.layers.cancelled_write_bytes / kMiB; });
  per_job("apps.peak_rss_mb", "MiB", [](const JobSample& s) { return s.peak_rss_mb; });

  const Metric traced_job = JobMetric("t", "s", traced, [](const JobSample& s) { return s.job_s; });
  const Metric untraced_job = JobMetric("u", "s", untraced, [](const JobSample& s) { return s.job_s; });
  m.push_back(Metric{"obs.trace_overhead_s", traced_job.value - untraced_job.value, "s",
                     traced_job.n + untraced_job.n});
  m.push_back(JobMetric("obs.events_dropped", "count", traced,
                        [](const JobSample& s) { return double(s.events_dropped); }));

  for (Metric& layer : MeasureLayers(w, seed, workdir)) {
    m.push_back(std::move(layer));
  }
  m.push_back(SoloJobSeconds(w, seed, workdir, want, &correct));

  std::printf("[jobbench] jobs attempted=%zu failed=%zu (traced=%zu untraced=%zu)\n", jobs.size(),
              failed, traced.size(), untraced.size());
  PrintMetricLines(m);
  PrintResult(correct, jobs.size(), failed, m);
  return 0;
}

// ---- Self-test of the result checks ----

// Runs one small job of each app and shows that the check accepts the true
// result and rejects a perturbed one: a word count off by one, a key dropped.
int SelfTest(const std::string& workdir) {
  bool pass = true;
  const auto expect = [&](bool cond, const char* what) {
    std::printf("[selftest] %-58s %s\n", what, cond ? "ok" : "FAILED");
    pass = pass && cond;
  };
  const std::uint64_t seed = InputSeed(7);
  for (const char* app : {"WC", "HS"}) {
    Workload w;
    w.name = std::string("selftest-") + app;
    w.app = app;
    w.heap_bytes = 64 << 20;
    w.input_bytes = 256 << 10;
    itask::cluster::Cluster cluster(MakeClusterConfig(w, workdir));
    const JobSample s = RunJob(cluster, w, seed, /*traced=*/false);
    const Expected want = Reference(w, seed);
    expect(s.ok, (w.app + " job succeeds").c_str());
    expect(Matches(want, s.records, s.checksum), "true result is accepted");
    expect(!Matches(want, s.records + 1, s.checksum), "one record too many is rejected");
    if (w.app == "WC") {
      // One word of the corpus, counted once more than it occurs.
      const auto counts = WordCounts(w.input_bytes, seed);
      const auto& [word, count] = *counts.begin();
      const std::uint64_t off_by_one =
          s.checksum - WordEntryFingerprint(word, count) + WordEntryFingerprint(word, count + 1);
      expect(!Matches(want, s.records, off_by_one), "one word count off by one is rejected");
    } else {
      // The first generated key, dropped from the result.
      std::optional<std::uint64_t> first;
      itask::workloads::ForEachEdge(HeapSortInput(w.input_bytes, seed),
                                    [&](const itask::workloads::Edge& e) {
                                      if (!first) {
                                        first = SortKey(e);
                                      }
                                    });
      expect(!Matches(want, s.records - 1, s.checksum - SortKeyFingerprint(*first)),
             "one key dropped is rejected");
    }
  }
  std::printf("[selftest] %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = "jobbench-work";
  bool selftest = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      a.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--workdir") {
      a.workdir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      return std::nullopt;
    }
  }
  if (!a.selftest && (!have_workload || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1))) {
    return std::nullopt;
  }
  return a;
}

}  // namespace
}  // namespace jobbench

int main(int argc, char** argv) {
  using namespace jobbench;
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: jobbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>]\n       jobbench --selftest [--workdir <dir>]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args->workdir, ec);
  if (ec) {
    std::fprintf(stderr, "jobbench: cannot create %s: %s\n", args->workdir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (args->selftest) {
    return SelfTest(args->workdir);
  }
  const Workload* w = FindWorkload(args->workload);
  if (w == nullptr) {
    std::fprintf(stderr, "jobbench: unknown workload '%s'; known:", args->workload.c_str());
    for (const Workload& known : Workloads()) {
      std::fprintf(stderr, " %s", known.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::uint64_t seed = InputSeed(args->seed);
  PrintStamp(*w, args->seed, seed, args->seconds, args->trace == 1);
  try {
    return args->trace == 1 ? TracedRun(*w, seed, args->seconds, args->workdir)
                            : EndToEndRun(*w, seed, args->seconds, args->workdir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobbench: %s\n", e.what());
    return 1;
  }
}
