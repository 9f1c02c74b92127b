// chaos_run: seeded stress sweep for the IRS interrupt/reactivation path.
//
// For each seed, derives a chaos::FaultPlan (schedule perturbation intensities
// plus the unified fault set: spill-write failures, forced OMEs, pressure
// flips, signal storms, shuffle delays), installs the schedule fuzzer, and
// runs the selected applications on a tiny-heap cluster — small enough that
// every run interrupts, parks, spills and reloads. After each run it checks:
//
//   - the IrsAuditor job-end invariants (conservation, partition state
//     machine, Table-2 counter consistency) and the runtime's in-path
//     violation log are clean,
//   - a completed job reproduces the fault-free result fingerprint,
//   - the job completed at all (an abort or deadline under these fault
//     intensities means the protocol lost data or live-locked).
//
// Exits non-zero at the first failing seed (default) and prints the seed and
// its fault plan so the failure replays:  chaos_run --start <seed> --seeds 1
//
// Node faults (enables the fault-tolerance layer for every run):
//   --kill-node=<id>@<ms>       crash node <id> at <ms> into each job
//   --hang-node=<id>@<ms>       stop node <id>'s heartbeats (zombie)
//   --poison-node=<id>@<ms>     every allocation on node <id> throws OME
//   --disconnect-node=<id>@<ms> known network cut: node parks in the
//                               kDisconnected grace window (pair with heal)
//   --heal-node=<id>@<ms>       heals an earlier disconnect; the node rejoins
//                               with zero lineage re-execution
// Each fault-injected run must still reproduce the fault-free fingerprint and
// the ledger's duplicate counter must stay zero (exactly-once delivery).
//
// Network faults (--net-faults=<spec|seed>, socket transports): installs a
// seeded NetFaultEngine on every link — drop/delay/reorder/duplicate/corrupt/
// truncate/reset probabilities plus timed partitions (see
// net/fault_engine.h for the spec grammar; a bare integer derives a moderate
// always-healing plan from that seed). The run must still reproduce the
// fault-free fingerprint: loss is recovered by ledger ack-timeout
// redelivery, resets by the send-retry backoff, partitions by the
// kDisconnected grace window. When a plan is active the sweep also runs a
// ctrl-plane resume slice (an in-process CtrlServer/CtrlClient pair whose
// socket is severed per the plan's ctrldrop entries, or once by default) and
// reports the resume count as ctrl_reconnects in the JSON summary.
//
// Transport (--transport=inproc|tcp|uds): socket transports route every
// fault-injected run's shuffle deliveries, acks and heartbeats over loopback
// sockets (DESIGN.md §13), and enable the fault-tolerance layer for every run
// — the fabric only exists under the recovery context. The fingerprint checks
// then prove wire framing, batching and redelivery don't change results.
//
// Usage:
//   chaos_run [--seeds N] [--start S] [--apps WC,HS,HJ] [--keep-going]
//             [--heap-kb K] [--dataset-kb K] [--gran-kb K] [--nodes N]
//             [--deadline-ms D]
//             [--kill-node=I@MS] [--hang-node=I@MS] [--poison-node=I@MS]
//             [--disconnect-node=I@MS] [--heal-node=I@MS]
//             [--net-faults=SPEC|SEED]
//             [--transport=inproc|tcp|uds] [--json]
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "apps/hyracks_apps.h"
#include "chaos/chaos.h"
#include "cluster/cluster.h"
#include "cluster/failure_model.h"
#include "common/metrics.h"
#include "net/ctrl.h"
#include "net/fault_engine.h"
#include "net/transport.h"

namespace {

struct Options {
  std::uint64_t seeds = 64;
  std::uint64_t start = 1;
  std::vector<std::string> apps = {"WC", "HS", "HJ"};
  bool keep_going = false;
  std::uint64_t heap_kb = 1536;
  std::uint64_t dataset_kb = 256;
  std::uint64_t gran_kb = 16;
  int nodes = 2;
  double deadline_ms = 60000.0;
  std::vector<itask::cluster::NodeFault> node_faults;
  itask::net::TransportKind transport = itask::net::TransportKind::kInproc;
  bool json = false;
  itask::net::NetFaultPlan net_fault_plan;  // Inactive unless --net-faults.
};

std::vector<std::string> SplitCsv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*p);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Parses "<id>@<ms>" (e.g. --kill-node=1@10).
bool ParseNodeAt(const char* s, int* node, double* at_ms) {
  char* end = nullptr;
  *node = static_cast<int>(std::strtol(s, &end, 10));
  if (end == s || *end != '@') {
    return false;
  }
  *at_ms = std::strtod(end + 1, nullptr);
  return true;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "chaos_run: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    // Node-fault flags accept both --flag=I@MS and --flag I@MS.
    auto fault_flag = [&](const char* name, itask::cluster::FaultKind kind) -> bool {
      const std::size_t len = std::strlen(name);
      const char* spec = nullptr;
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        spec = argv[i] + len + 1;
      } else if (std::strcmp(argv[i], name) == 0) {
        spec = value();
      } else {
        return false;
      }
      int node = 0;
      double at_ms = 0.0;
      if (!ParseNodeAt(spec, &node, &at_ms)) {
        std::fprintf(stderr, "chaos_run: %s wants <id>@<ms>, got %s\n", name, spec);
        std::exit(2);
      }
      opt->node_faults.push_back({node, at_ms, kind});
      return true;
    };
    if (fault_flag("--kill-node", itask::cluster::FaultKind::kKill) ||
        fault_flag("--hang-node", itask::cluster::FaultKind::kHang) ||
        fault_flag("--poison-node", itask::cluster::FaultKind::kOomPoison) ||
        fault_flag("--disconnect-node", itask::cluster::FaultKind::kDisconnect) ||
        fault_flag("--heal-node", itask::cluster::FaultKind::kHeal)) {
      continue;
    }
    if (std::strncmp(argv[i], "--net-faults=", 13) == 0 ||
        std::strcmp(argv[i], "--net-faults") == 0) {
      const char* spec = argv[i][12] == '=' ? argv[i] + 13 : value();
      bool all_digits = *spec != '\0';
      for (const char* p = spec; *p != '\0'; ++p) {
        all_digits = all_digits && std::isdigit(static_cast<unsigned char>(*p)) != 0;
      }
      if (all_digits) {
        opt->net_fault_plan =
            itask::net::NetFaultPlan::FromSeed(std::strtoull(spec, nullptr, 10));
      } else {
        std::string err;
        if (!itask::net::NetFaultPlan::FromSpec(spec, &opt->net_fault_plan, &err)) {
          std::fprintf(stderr, "chaos_run: %s\n", err.c_str());
          std::exit(2);
        }
      }
      continue;
    }
    if (std::strncmp(argv[i], "--transport=", 12) == 0 ||
        std::strcmp(argv[i], "--transport") == 0) {
      const char* spec = argv[i][11] == '=' ? argv[i] + 12 : value();
      const auto kind = itask::net::ParseTransportKind(spec);
      if (!kind.has_value()) {
        std::fprintf(stderr, "chaos_run: --transport wants inproc|tcp|uds, got %s\n",
                     spec);
        std::exit(2);
      }
      opt->transport = *kind;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt->json = true;
    } else if (std::strcmp(argv[i], "--seeds") == 0) {
      opt->seeds = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--start") == 0) {
      opt->start = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--apps") == 0) {
      opt->apps = SplitCsv(value());
    } else if (std::strcmp(argv[i], "--keep-going") == 0) {
      opt->keep_going = true;
    } else if (std::strcmp(argv[i], "--heap-kb") == 0) {
      opt->heap_kb = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--dataset-kb") == 0) {
      opt->dataset_kb = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--gran-kb") == 0) {
      // Split granularity.
      opt->gran_kb = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      opt->nodes = std::atoi(value());
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      opt->deadline_ms = std::atof(value());
    } else {
      std::fprintf(stderr, "chaos_run: unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

itask::apps::AppConfig MakeAppConfig(const Options& opt) {
  itask::apps::AppConfig config;
  config.dataset_bytes = opt.dataset_kb << 10;
  config.tpch_scale = 0.2;
  config.max_workers = 4;
  config.granularity_bytes = opt.gran_kb << 10;
  config.deadline_ms = opt.deadline_ms;
  // Socket transports require the recovery context: the fabric hangs off the
  // shuffle ledger's delivery path, so every run becomes fault-tolerant.
  config.fault_tolerance = !opt.node_faults.empty() ||
                           opt.transport != itask::net::TransportKind::kInproc ||
                           opt.net_fault_plan.active();
  return config;
}

void JsonEscape(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
}

// Appends ,"name":value for every scalar RunMetrics table field (histograms
// are reported as quantiles by the caller).
void AppendMetricsJson(std::string* out, const itask::common::RunMetrics& m) {
  itask::common::RunMetrics::ForEachField(
      m, [out](const char* name, const auto& field, itask::common::FoldRule) {
        using T = std::decay_t<decltype(field)>;
        if constexpr (!std::is_same_v<T, itask::obs::HistogramSnapshot>) {
          *out += ",\"";
          *out += name;
          *out += "\":";
          if constexpr (std::is_same_v<T, bool>) {
            *out += field ? "true" : "false";
          } else if constexpr (std::is_same_v<T, double>) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%.3f", field);
            *out += buf;
          } else {
            *out += std::to_string(field);
          }
        }
      });
}

itask::cluster::Cluster MakeCluster(const Options& opt, std::uint64_t heap_kb,
                                    const itask::chaos::FaultPlan* plan) {
  itask::cluster::ClusterConfig cc;
  cc.num_nodes = opt.nodes;
  cc.heap.capacity_bytes = heap_kb << 10;
  cc.heap.real_pauses = false;  // Pause accounting without burning CPU.
  cc.net.kind = opt.transport;
  if (plan != nullptr && plan->spill_write_fail_p > 0.0) {
    cc.io.failure.write_probability = plan->spill_write_fail_p;
    cc.io.failure.seed = plan->spill_fail_seed;
  }
  // Network faults apply to chaos runs only (plan != nullptr), never to the
  // fault-free reference runs the fingerprints come from.
  if (plan != nullptr) {
    cc.net.fault_plan = opt.net_fault_plan;
  }
  return itask::cluster::Cluster(cc);
}

// Ctrl-plane resume slice: an in-process driver + daemon pair whose ctrl
// socket is severed server-side per the plan's ctrldrop entries (once, at
// elapsed 0, when the plan has none). The daemon's heartbeat thread must
// notice each cut and resume its session under the original node id; the
// return value is how many resumes completed (the JSON gate asserts >= 1).
std::uint64_t RunCtrlResumeSlice(const itask::net::NetFaultPlan& plan) {
  itask::net::CtrlServer server(0);
  itask::net::CtrlClient client;
  const int id = client.Join("127.0.0.1", server.port(), "chaos-resume-probe",
                             /*heap_capacity=*/1ULL << 20);
  if (id < 0) {
    std::fprintf(stderr, "chaos_run: ctrl resume slice failed to join\n");
    return 0;
  }
  client.StartHeartbeats(/*interval_ms=*/5,
                         [] { return std::make_pair(std::uint64_t{0},
                                                    std::uint64_t{1} << 20); });
  std::size_t drops = plan.ctrl_drops.empty() ? 1 : plan.ctrl_drops.size();
  for (std::size_t i = 0; i < drops; ++i) {
    const std::uint64_t target = client.reconnects() + 1;
    server.DropPeer(id);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (client.reconnects() < target &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const std::uint64_t resumed = client.reconnects();
  if (resumed != server.ctrl_reconnects()) {
    std::fprintf(stderr,
                 "chaos_run: ctrl resume count mismatch (client %llu, server %llu)\n",
                 static_cast<unsigned long long>(resumed),
                 static_cast<unsigned long long>(server.ctrl_reconnects()));
  }
  server.Shutdown();
  return resumed;
}

struct Failure {
  std::uint64_t seed;
  std::string app;
  std::string what;
};

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }

  // Reference fingerprints from fault-free, pressure-free runs (audit on:
  // the invariants must hold on the happy path too).
  itask::chaos::SetAuditEnabled(true);
  std::map<std::string, itask::apps::AppResult> reference;
  for (const std::string& app : opt.apps) {
    auto cluster = MakeCluster(opt, /*heap_kb=*/64 << 10, nullptr);
    const auto result =
        itask::apps::RunHyracksApp(app, cluster, MakeAppConfig(opt), itask::apps::Mode::kITask);
    if (!result.metrics.succeeded || !result.audit_violations.empty() ||
        itask::chaos::ViolationCount() > 0) {
      std::fprintf(stderr, "chaos_run: reference run for %s failed: %s\n", app.c_str(),
                   result.metrics.Summary().c_str());
      for (const auto& v : itask::chaos::DrainViolations()) {
        std::fprintf(stderr, "  %s\n", v.c_str());
      }
      return 1;
    }
    reference[app] = result;
    std::printf("[ref] %s checksum=%016llx records=%llu\n", app.c_str(),
                static_cast<unsigned long long>(result.checksum),
                static_cast<unsigned long long>(result.records));
  }

  // Per-job rollups across all seeds: every RunMetrics field folded by its
  // table rule, so multi-tenant audits can attribute chaos findings to the
  // job that produced them instead of one global blob.
  struct JobRollup {
    std::uint64_t runs = 0;
    itask::common::RunMetrics metrics;
    bool fingerprints_matched = true;  // Every run reproduced the reference.
  };
  std::map<std::string, JobRollup> per_job;

  std::vector<Failure> failures;
  std::uint64_t runs = 0;
  std::uint64_t last_points = 0;
  // When every scheduled node fault is a disconnect/heal pair, the grace
  // window must absorb all of them: any lineage re-execution is spurious.
  bool only_link_faults = !opt.node_faults.empty();
  for (const auto& fault : opt.node_faults) {
    only_link_faults = only_link_faults &&
                       (fault.kind == itask::cluster::FaultKind::kDisconnect ||
                        fault.kind == itask::cluster::FaultKind::kHeal);
  }
  for (std::uint64_t seed = opt.start; seed < opt.start + opt.seeds; ++seed) {
    const itask::chaos::FaultPlan plan = itask::chaos::FaultPlan::FromSeed(seed);
    for (const std::string& app : opt.apps) {
      auto cluster = MakeCluster(opt, opt.heap_kb, &plan);
      itask::chaos::ScheduleFuzzer fuzzer(plan.fuzz);
      itask::chaos::Install(&fuzzer);
      itask::cluster::FailureModel failure_model;
      for (const auto& fault : opt.node_faults) {
        failure_model.Add(fault);
      }
      itask::apps::AppConfig app_config = MakeAppConfig(opt);
      if (app_config.fault_tolerance) {
        app_config.failure_model = &failure_model;
      }
      const auto result =
          itask::apps::RunHyracksApp(app, cluster, app_config, itask::apps::Mode::kITask);
      itask::chaos::Uninstall();
      last_points = fuzzer.points_hit();
      ++runs;

      const bool matched = result.checksum == reference[app].checksum &&
                           result.records == reference[app].records;
      JobRollup& rollup = per_job[app];
      if (rollup.runs++ == 0) {
        rollup.metrics = result.metrics;
      } else {
        rollup.metrics.Merge(result.metrics);
      }
      rollup.fingerprints_matched = rollup.fingerprints_matched && matched;

      std::string what;
      const auto in_path = itask::chaos::DrainViolations();
      if (!result.audit_violations.empty()) {
        what = "audit: " + result.audit_violations.front();
      } else if (!in_path.empty()) {
        what = "in-path: " + in_path.front();
      } else if (!result.metrics.succeeded) {
        what = "job did not complete: " + result.metrics.Summary();
      } else if (!matched) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "result mismatch: checksum %016llx != %016llx",
                      static_cast<unsigned long long>(result.checksum),
                      static_cast<unsigned long long>(reference[app].checksum));
        what = buf;
      } else if (result.metrics.duplicate_tuples_dropped != 0) {
        // The recovery ledger observed (and suppressed) a duplicate shuffle
        // delivery — exactly-once bookkeeping failed somewhere upstream.
        what = "dedup audit: " +
               std::to_string(result.metrics.duplicate_tuples_dropped) +
               " duplicate tuples dropped";
      } else if (only_link_faults && result.metrics.splits_reexecuted != 0) {
        what = "spurious lineage re-execution: " +
               std::to_string(result.metrics.splits_reexecuted) +
               " splits re-executed under disconnects that healed";
      }
      if (!what.empty()) {
        failures.push_back({seed, app, what});
        std::fprintf(stderr, "[FAIL] seed=%llu app=%s %s\n  plan: %s\n",
                     static_cast<unsigned long long>(seed), app.c_str(), what.c_str(),
                     plan.Describe().c_str());
        if (!opt.keep_going) {
          std::fprintf(stderr, "first failing seed: %llu (replay: chaos_run --start %llu "
                               "--seeds 1 --apps %s)\n",
                       static_cast<unsigned long long>(seed),
                       static_cast<unsigned long long>(seed), app.c_str());
          return 1;
        }
      }
    }
    if ((seed - opt.start + 1) % 16 == 0) {
      std::printf("[chaos] %llu/%llu seeds, %llu runs, %zu failures, %llu points hit last run\n",
                  static_cast<unsigned long long>(seed - opt.start + 1),
                  static_cast<unsigned long long>(opt.seeds),
                  static_cast<unsigned long long>(runs), failures.size(),
                  static_cast<unsigned long long>(last_points));
      std::fflush(stdout);
    }
  }

  // Ctrl-plane resume slice: exercised whenever a network-fault plan is
  // active, so the chaos gate can assert reconnects happened even though the
  // in-process sweep itself has no daemon sockets to sever.
  std::uint64_t ctrl_reconnects = 0;
  if (opt.net_fault_plan.active()) {
    ctrl_reconnects = RunCtrlResumeSlice(opt.net_fault_plan);
    if (ctrl_reconnects == 0) {
      failures.push_back({0, "ctrl", "ctrl resume slice completed no reconnects"});
    }
  }

  if (opt.json) {
    // Machine-readable summary (one object on stdout) for CI scrapers.
    std::string out = "{\"runs\":" + std::to_string(runs);
    out += ",\"seeds\":" + std::to_string(opt.seeds);
    out += ",\"nodes\":" + std::to_string(opt.nodes);
    out += ",\"node_faults\":" + std::to_string(opt.node_faults.size());
    out += std::string(",\"transport\":\"") +
           itask::net::TransportKindName(opt.transport) + "\"";
    out += ",\"net_fault_plan\":\"";
    JsonEscape(&out, opt.net_fault_plan.active() ? opt.net_fault_plan.Describe() : "");
    out += "\"";
    out += ",\"ctrl_reconnects\":" + std::to_string(ctrl_reconnects);
    itask::common::RunMetrics total;
    for (const auto& [app, rollup] : per_job) {
      total.Merge(rollup.metrics);
    }
    out += ",\"net_faults_injected\":" + std::to_string(total.net_faults_injected);
    out += ",\"partitions_healed\":" + std::to_string(total.partitions_healed);
    out += ",\"backoff_retries\":" + std::to_string(total.backoff_retries);
    out += ",\"backoff_giveups\":" + std::to_string(total.backoff_giveups);
    out += ",\"apps\":[";
    for (std::size_t i = 0; i < opt.apps.size(); ++i) {
      out += (i > 0 ? ",\"" : "\"") + opt.apps[i] + "\"";
    }
    out += "],\"per_job\":{";
    bool first_job = true;
    for (const auto& [app, rollup] : per_job) {
      out += first_job ? "\"" : ",\"";
      first_job = false;
      JsonEscape(&out, app);
      out += "\":{\"runs\":" + std::to_string(rollup.runs);
      out += std::string(",\"fingerprints_matched\":") +
             (rollup.fingerprints_matched ? "true" : "false");
      // result_checksum folds by XOR, so identical runs would cancel out:
      // report the reference fingerprint every run was checked against.
      itask::common::RunMetrics metrics = rollup.metrics;
      metrics.result_checksum = reference[app].checksum;
      AppendMetricsJson(&out, metrics);
      char q[96];
      std::snprintf(q, sizeof(q), ",\"interrupt_p99_us\":%.2f,\"gc_p99_us\":%.2f}",
                    rollup.metrics.interrupt_latency_hist.Quantile(0.99) / 1e3,
                    rollup.metrics.gc_pause_hist.Quantile(0.99) / 1e3);
      out += q;
    }
    out += "},\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out += i > 0 ? "," : "";
      out += "{\"seed\":" + std::to_string(failures[i].seed) + ",\"app\":\"";
      JsonEscape(&out, failures[i].app);
      out += "\",\"what\":\"";
      JsonEscape(&out, failures[i].what);
      out += "\"}";
    }
    out += std::string("],\"ok\":") + (failures.empty() ? "true" : "false") + "}";
    std::printf("%s\n", out.c_str());
  }
  if (!failures.empty()) {
    std::fprintf(stderr, "chaos_run: %zu failing runs; first failing seed %llu (%s)\n",
                 failures.size(), static_cast<unsigned long long>(failures.front().seed),
                 failures.front().app.c_str());
    return 1;
  }
  if (!opt.json) {
    std::printf("chaos_run: %llu runs clean (%llu seeds x %zu apps)\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(opt.seeds), opt.apps.size());
  }
  return 0;
}
