// Tests for the obs subsystem: tracer concurrency and ring semantics, the
// metrics registry, histogram math, and the Chrome trace_event exporter
// (including a golden-file check of the exact JSON; regenerate with
// OBS_TEST_REGEN=1 ./obs_test).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/event.h"
#include "obs/flight_recorder.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"

namespace itask::obs {
namespace {

TEST(TracerTest, StartsDisabledAndEmitsNothing) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.Emit(EventKind::kGc, 0, 1, 2, 3);
  EXPECT_TRUE(tracer.Snapshot().empty());
  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.emitted, 0u);
  EXPECT_EQ(stats.threads, 0u);  // Disabled emits never register a ring.
}

TEST(TracerTest, ConcurrentEmissionLosesNothing) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  Tracer tracer(1 << 14);
  tracer.set_enabled(true);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tracer.Emit(EventKind::kSpillWrite, /*node=*/7, /*a=*/static_cast<std::uint64_t>(t),
                    /*b=*/i);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }

  const std::vector<Event> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.emitted, kThreads * kPerThread);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.threads, static_cast<std::uint64_t>(kThreads));

  // No torn or reordered events: each emitter's sequence numbers come back
  // complete and in emission order, and every event keeps its payload intact.
  std::map<std::uint64_t, std::vector<std::uint64_t>> seqs_by_emitter;
  std::map<std::uint64_t, std::uint16_t> tid_by_emitter;
  for (const Event& event : events) {
    EXPECT_EQ(event.kind, EventKind::kSpillWrite);
    EXPECT_EQ(event.node, 7u);
    seqs_by_emitter[event.a].push_back(event.b);
    const auto [it, inserted] = tid_by_emitter.emplace(event.a, event.tid);
    if (!inserted) {
      EXPECT_EQ(it->second, event.tid) << "emitter " << event.a << " spread across rings";
    }
  }
  ASSERT_EQ(seqs_by_emitter.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [emitter, seqs] : seqs_by_emitter) {
    ASSERT_EQ(seqs.size(), kPerThread) << "emitter " << emitter;
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      // Equal timestamps sort stably within a ring, so order is preserved.
      ASSERT_EQ(seqs[i], i) << "emitter " << emitter;
    }
  }
}

TEST(TracerTest, RingWrapKeepsNewestAndCountsDrops) {
  constexpr std::uint64_t kCapacity = 1024;
  constexpr std::uint64_t kEmitted = 5000;
  Tracer tracer(kCapacity);
  for (std::uint64_t i = 0; i < kEmitted; ++i) {
    tracer.EmitAt(/*t_ns=*/i, EventKind::kSpillRead, /*node=*/0, /*tid=*/0, /*a=*/i);
  }
  const std::vector<Event> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  EXPECT_EQ(events.front().a, kEmitted - kCapacity);  // Oldest survivors gone.
  EXPECT_EQ(events.back().a, kEmitted - 1);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, events[i - 1].a + 1);
  }
  const TracerStats stats = tracer.stats();
  EXPECT_EQ(stats.emitted, kEmitted);
  EXPECT_EQ(stats.dropped, kEmitted - kCapacity);
}

TEST(TracerTest, ClearResetsRings) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.Emit(EventKind::kGc, 1);
  ASSERT_EQ(tracer.Snapshot().size(), 1u);
  tracer.Clear();
  EXPECT_TRUE(tracer.Snapshot().empty());
  EXPECT_EQ(tracer.stats().emitted, 0u);
  tracer.Emit(EventKind::kGc, 1);  // The thread's cached ring still works.
  EXPECT_EQ(tracer.Snapshot().size(), 1u);
}

TEST(TracerTest, SnapshotMergesThreadsInTimestampOrder) {
  Tracer tracer;
  tracer.EmitAt(30, EventKind::kSignalReduce, 0, /*tid=*/2);
  tracer.EmitAt(10, EventKind::kSignalGrow, 0, /*tid=*/1);
  tracer.EmitAt(20, EventKind::kPressureOn, 0, /*tid=*/0);
  const std::vector<Event> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, EventKind::kSignalGrow);
  EXPECT_EQ(events[1].kind, EventKind::kPressureOn);
  EXPECT_EQ(events[2].kind, EventKind::kSignalReduce);
}

TEST(MetricsRegistryTest, FindOrCreateAndRead) {
  MetricsRegistry registry;
  Counter& c = registry.counter("test.bytes");
  c.Add(5);
  registry.counter("test.bytes").Add(7);  // Same instance.
  EXPECT_EQ(registry.CounterValue("test.bytes"), 12u);
  EXPECT_EQ(registry.CounterValue("absent"), 0u);

  registry.gauge("test.level").Set(-3);
  EXPECT_EQ(registry.gauge("test.level").value(), -3);

  Histogram& h = registry.histogram("test.lat", {10, 100, 1000});
  h.Observe(5);
  h.Observe(50);
  h.Observe(5000);
  const HistogramSnapshot snap = registry.HistogramValue("test.lat");
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.max, 5000u);
  EXPECT_TRUE(registry.HistogramValue("absent").empty());

  std::ostringstream os;
  registry.Render(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("test.bytes"), std::string::npos);
  EXPECT_NE(text.find("test.lat"), std::string::npos);
}

TEST(HistogramTest, QuantilesInterpolateWithinBuckets) {
  Histogram hist({100, 200, 400});
  for (int i = 0; i < 100; ++i) {
    hist.Observe(150);  // All in the (100, 200] bucket.
  }
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_GT(snap.Quantile(0.5), 100.0);
  EXPECT_LE(snap.Quantile(0.5), 200.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 150.0);
}

TEST(HistogramTest, QuantilesNeverExceedObservedMax) {
  // A few interrupt latencies just above 100 ms land low in the coarse
  // (100 ms, 500 ms] bucket; interpolating inside it would report a p99 near
  // 500 ms that nothing reached.
  Histogram hist(InterruptLatencyBoundsNs());
  for (const std::uint64_t ms : {120, 150, 180, 210}) {
    hist.Observe(ms * 1'000'000);
  }
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.max, 210'000'000u);
  EXPECT_LE(snap.Quantile(0.99), static_cast<double>(snap.max));
  EXPECT_LE(snap.Quantile(1.0), static_cast<double>(snap.max));
  EXPECT_GT(snap.Quantile(0.5), 100'000'000.0);  // Still inside the bucket.
}

TEST(HistogramTest, MergeIsBucketwiseForMatchingBounds) {
  Histogram a({10, 20});
  Histogram b({10, 20});
  a.Observe(5);
  b.Observe(15);
  b.Observe(100);
  HistogramSnapshot merged = a.snapshot();
  merged.Merge(b.snapshot());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 120u);
  EXPECT_EQ(merged.max, 100u);
  ASSERT_EQ(merged.counts.size(), 3u);
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[1], 1u);
  EXPECT_EQ(merged.counts[2], 1u);

  // Mismatched bounds degrade to scalar-only stats instead of garbage buckets.
  Histogram c({1000});
  c.Observe(500);
  merged.Merge(c.snapshot());
  EXPECT_EQ(merged.count, 4u);
  EXPECT_TRUE(merged.counts.empty());
  EXPECT_DOUBLE_EQ(merged.Quantile(0.5), static_cast<double>(merged.max));
}

// Deterministic fixture shared by the golden and round-trip tests: one of
// each interesting export shape (GC slice with LUGC, rule-attributed
// interrupts, spill I/O, Fig-11c samples).
std::vector<Event> GoldenFixture() {
  Tracer tracer;
  tracer.EmitAt(1'000'000, EventKind::kRuntimeStart, 0, 0);
  tracer.EmitAt(2'500'000, EventKind::kGc, 0, 1, /*a=*/1 << 20, /*b=*/3 << 20,
                /*aux=*/1500, /*flags=*/0);
  tracer.EmitAt(4'000'000, EventKind::kGc, 0, 1, /*a=*/1024, /*b=*/(4 << 20),
                /*aux=*/2000, kFlagLugc);
  tracer.EmitAt(4'100'000, EventKind::kPressureOn, 0, 1);
  tracer.EmitAt(4'200'000, EventKind::kSignalReduce, 0, 1, /*a=*/2 << 20);
  tracer.EmitAt(4'300'000, EventKind::kVictimSelect, 0, 1, /*a=*/321, /*b=*/0, /*aux=*/2,
                static_cast<std::uint8_t>(InterruptRule::kFinishLine));
  tracer.EmitAt(4'900'000, EventKind::kTaskInterrupt, 0, 2, /*a=*/600'000, /*b=*/0, /*aux=*/2,
                static_cast<std::uint8_t>(InterruptRule::kFinishLine));
  tracer.EmitAt(5'000'000, EventKind::kPartitionSerialized, 0, 2, /*a=*/512 << 10, /*b=*/3,
                /*aux=*/11);
  tracer.EmitAt(5'100'000, EventKind::kSpillWrite, 0, 2, /*a=*/512 << 10);
  tracer.EmitAt(6'000'000, EventKind::kActiveSample, 0, 3, /*a=*/5, /*b=*/0, /*aux=*/1);
  tracer.EmitAt(6'000'000, EventKind::kActiveSpecCount, 0, 3, /*a=*/0, /*b=*/3, /*aux=*/1);
  tracer.EmitAt(6'000'000, EventKind::kActiveSpecCount, 0, 3, /*a=*/1, /*b=*/2, /*aux=*/1);
  tracer.EmitAt(7'000'000, EventKind::kRuntimeStop, 0, 0, /*a=*/6'000'000);
  return tracer.Snapshot();
}

TEST(TraceExportTest, ChromeTraceMatchesGoldenFile) {
  const std::string json = ChromeTraceJson(GoldenFixture());
  const std::string golden_path = std::string(OBS_TEST_GOLDEN_DIR) + "/chrome_trace_golden.json";
  if (std::getenv("OBS_TEST_REGEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << json;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " (run with OBS_TEST_REGEN=1 to create)";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(json, ss.str()) << "exporter output drifted from the golden file; "
                               "verify in chrome://tracing, then OBS_TEST_REGEN=1";
}

TEST(TraceExportTest, ChromeTraceRoundTrips) {
  const std::vector<Event> fixture = GoldenFixture();
  const std::string json = ChromeTraceJson(fixture);

  std::vector<ParsedEvent> parsed;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), fixture.size());
  for (std::size_t i = 0; i < fixture.size(); ++i) {
    EXPECT_EQ(parsed[i].name, EventKindName(fixture[i].kind));
    EXPECT_EQ(parsed[i].pid, fixture[i].node);
    EXPECT_EQ(parsed[i].tid, fixture[i].tid);
    if (fixture[i].kind == EventKind::kGc) {
      EXPECT_EQ(parsed[i].ph, "X");
      EXPECT_DOUBLE_EQ(parsed[i].dur_us, static_cast<double>(fixture[i].aux));
      // The slice spans [t - pause, t]: ts was shifted back by the duration.
      EXPECT_NEAR(parsed[i].ts_us + parsed[i].dur_us,
                  static_cast<double>(fixture[i].t_ns) / 1000.0, 1e-6);
    } else {
      EXPECT_EQ(parsed[i].ph, "i");
      EXPECT_NEAR(parsed[i].ts_us, static_cast<double>(fixture[i].t_ns) / 1000.0, 1e-6);
    }
  }
}

TEST(TraceExportTest, ParserRejectsMalformedInput) {
  std::vector<ParsedEvent> parsed;
  std::string error;
  EXPECT_FALSE(ParseChromeTrace("[]", &parsed, &error));
  EXPECT_NE(error.find("envelope"), std::string::npos);
  EXPECT_FALSE(ParseChromeTrace("{\"traceEvents\":[\n{\"name\":\"gc\"\n]}", &parsed, &error));
  EXPECT_NE(error.find("braces"), std::string::npos);
}

TEST(TraceExportTest, SummaryAggregatesHeadlines) {
  std::ostringstream os;
  const TracerStats stats{13, 0, 4};
  WriteTraceSummary(os, GoldenFixture(), &stats);
  const std::string text = os.str();
  EXPECT_NE(text.find("13 events"), std::string::npos);
  EXPECT_NE(text.find("emitted=13"), std::string::npos);
  EXPECT_NE(text.find("gc detail: lugc=1"), std::string::npos);
  EXPECT_NE(text.find("finish_line=1"), std::string::npos);
  EXPECT_NE(text.find("written=524288B"), std::string::npos);
}

TEST(TraceExportTest, TimelineTruncatesAtMaxLines) {
  std::ostringstream os;
  WriteTraceTimeline(os, GoldenFixture(), /*max_lines=*/2);
  const std::string text = os.str();
  EXPECT_NE(text.find("runtime_start"), std::string::npos);
  EXPECT_NE(text.find("more)"), std::string::npos);
  EXPECT_EQ(text.find("runtime_stop"), std::string::npos);
}

TEST(SpanTest, IdsAreDeterministicAndFieldSensitive) {
  const std::uint64_t trace = TraceIdFromSeed(42);
  EXPECT_NE(trace, 0u);
  EXPECT_EQ(trace, TraceIdFromSeed(42));
  EXPECT_NE(trace, TraceIdFromSeed(43));

  const std::uint64_t base = SpanId(trace, 0, 1, 2, 3, 4, 5);
  EXPECT_NE(base, 0u);
  EXPECT_EQ(base, SpanId(trace, 0, 1, 2, 3, 4, 5));
  // Every input field participates in the hash: a change to any one of them
  // must move the id, or two different hops would share a flow line.
  EXPECT_NE(base, SpanId(trace + 1, 0, 1, 2, 3, 4, 5));
  EXPECT_NE(base, SpanId(trace, 1, 1, 2, 3, 4, 5));
  EXPECT_NE(base, SpanId(trace, 0, 2, 2, 3, 4, 5));
  EXPECT_NE(base, SpanId(trace, 0, 1, 3, 3, 4, 5));
  EXPECT_NE(base, SpanId(trace, 0, 1, 2, 4, 4, 5));
  EXPECT_NE(base, SpanId(trace, 0, 1, 2, 3, 5, 5));
  EXPECT_NE(base, SpanId(trace, 0, 1, 2, 3, 4, 6));
}

TEST(HistogramTest, LiveMergeIsBucketExact) {
  Histogram a({10, 100});
  Histogram b({10, 100});
  a.Observe(5);
  b.Observe(50);
  b.Observe(500);
  ASSERT_TRUE(a.Merge(b.snapshot()));
  const HistogramSnapshot merged = a.snapshot();
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 555u);
  EXPECT_EQ(merged.max, 500u);
  ASSERT_EQ(merged.counts.size(), 3u);
  EXPECT_EQ(merged.counts[0], 1u);
  EXPECT_EQ(merged.counts[1], 1u);
  EXPECT_EQ(merged.counts[2], 1u);

  // An empty snapshot is a no-op success; a mismatched ladder is a refused
  // no-op — the histogram must be bit-identical afterwards either way.
  ASSERT_TRUE(a.Merge(HistogramSnapshot{}));
  Histogram mismatched({7});
  mismatched.Observe(3);
  ASSERT_FALSE(a.Merge(mismatched.snapshot()));
  const HistogramSnapshot after = a.snapshot();
  EXPECT_EQ(after.count, merged.count);
  EXPECT_EQ(after.sum, merged.sum);
  EXPECT_EQ(after.counts, merged.counts);
}

TEST(HistogramTest, MergedQuantilesStayMonotonic) {
  Histogram a(InterruptLatencyBoundsNs());
  Histogram b(InterruptLatencyBoundsNs());
  for (int i = 0; i < 200; ++i) {
    a.Observe(static_cast<std::uint64_t>(1000 + i * 997));
    b.Observe(static_cast<std::uint64_t>(50'000 + i * 40'013));
  }
  ASSERT_TRUE(a.Merge(b.snapshot()));
  const HistogramSnapshot merged = a.snapshot();
  EXPECT_EQ(merged.count, 400u);
  double prev = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double v = merged.Quantile(q);
    EXPECT_GE(v, prev) << "quantile regressed at q=" << q;
    prev = v;
  }
  // Quantile interpolates within the covering bucket but clamps to the
  // observed max, so Quantile(1.0) never exceeds it (see
  // QuantilesNeverExceedObservedMax); the clamp keeps the merged quantiles
  // monotonic.
}

TEST(TraceExportTest, FlowEventsExportAsSendRecvPairs) {
  const std::uint64_t trace = TraceIdFromSeed(7);
  const std::uint64_t span = SpanId(trace, /*msg_kind=*/0, 0, 1, 3, 0, 9);
  Tracer tracer;
  tracer.EmitAt(1'000'000, EventKind::kMsgSend, 0, 0, span, /*b=*/2048,
                FlowAux(/*peer=*/1, /*msg_kind=*/0));
  tracer.EmitAt(2'000'000, EventKind::kMsgRecv, 1, 0, span, /*b=*/2048,
                FlowAux(/*peer=*/0, /*msg_kind=*/0));
  tracer.EmitAt(3'000'000, EventKind::kMsgSend, 1, 0, span + 1, /*b=*/4096,
                FlowAux(/*peer=*/0, /*msg_kind=*/1));
  const std::string json = ChromeTraceJson(tracer.Snapshot());
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("flow_shuffle"), std::string::npos);
  EXPECT_NE(json.find("flow_shuffle_ack"), std::string::npos);

  std::vector<ParsedEvent> parsed;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].ph, "s");
  EXPECT_EQ(parsed[1].ph, "f");
  EXPECT_FALSE(parsed[0].id.empty());
  EXPECT_EQ(parsed[0].id, parsed[1].id);  // Same span: one flow line.
  EXPECT_NE(parsed[0].id, parsed[2].id);
  EXPECT_EQ(parsed[0].a, span);
  EXPECT_EQ(parsed[0].b, 2048u);
  EXPECT_EQ(FlowPeer(parsed[0].aux), 1);
  EXPECT_EQ(FlowMsgKind(parsed[0].aux), 0);
  EXPECT_EQ(FlowMsgKind(parsed[2].aux), 1);
}

TEST(TraceExportTest, NetEventsDecodeEndpointField) {
  Tracer tracer;
  // Wire encoding is endpoint+1 (0 = "no endpoint"); the exporter must give
  // back the real endpoint, not the off-by-one wire value.
  tracer.EmitAt(1'000'000, EventKind::kNetStall, 0, 0, /*a=*/5'000, /*b=*/8,
                /*aux=*/3);
  tracer.EmitAt(2'000'000, EventKind::kNetFlush, 0, 0, /*a=*/12, /*b=*/4096,
                /*aux=*/1);
  const std::vector<Event> events = tracer.Snapshot();
  const std::string json = ChromeTraceJson(events);
  EXPECT_NE(json.find("\"dst\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dst\":0"), std::string::npos);
  std::ostringstream timeline;
  WriteTraceTimeline(timeline, events);
  EXPECT_NE(timeline.str().find("dst=2"), std::string::npos);
}

TEST(TraceExportTest, ExportParsesUnderConcurrentWriters) {
  Tracer tracer(1 << 10);  // Small rings: wraps (drops) happen mid-export.
  tracer.set_enabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&tracer, &stop, t] {
      std::uint64_t i = 0;
      // do-while: each writer lands at least one event even if the main
      // thread's export rounds finish before this thread gets scheduled.
      do {
        tracer.Emit(EventKind::kSpillWrite, static_cast<std::uint16_t>(t), i++);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  // Snapshots taken while emitters run must still export parseable JSON —
  // this is exactly what the flight recorder does at trigger time.
  for (int round = 0; round < 20; ++round) {
    const std::string json = ChromeTraceJson(tracer.Snapshot());
    std::vector<ParsedEvent> parsed;
    std::string error;
    ASSERT_TRUE(ParseChromeTrace(json, &parsed, &error)) << error;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : writers) {
    th.join();
  }
  const std::string final_json = ChromeTraceJson(tracer.Snapshot());
  std::vector<ParsedEvent> parsed;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(final_json, &parsed, &error)) << error;
  EXPECT_FALSE(parsed.empty());
}

// Two per-process fixture traces for the merge tests: a "driver" whose epoch
// is 1000us into the cluster timeline and a "worker" at 1500us. One flow
// (span A) goes driver->worker, another (span B) worker->driver, and the
// worker also carries a local GC slice.
std::pair<std::string, std::string> MergeFixtureJsons() {
  const std::uint64_t trace = TraceIdFromSeed(11);
  const std::uint64_t span_a = SpanId(trace, 5, -1, 0, -1, 0, 0);
  const std::uint64_t span_b = SpanId(trace, 6, 0, -1, -1, 0, 0);

  Tracer driver;
  driver.EmitAt(2'000'000, EventKind::kMsgSend, 0, 0, span_a, 128, FlowAux(0, 5));
  driver.EmitAt(9'000'000, EventKind::kMsgRecv, 0, 0, span_b, 64, FlowAux(0, 6));
  TraceProcessMeta driver_meta;
  driver_meta.name = "driver";
  driver_meta.epoch_us = 1000;
  driver_meta.events_dropped = 1;

  Tracer worker;
  worker.EmitAt(3'000'000, EventKind::kMsgRecv, 0, 0, span_a, 128, FlowAux(-1, 5));
  worker.EmitAt(5'000'000, EventKind::kGc, 0, 1, 1 << 20, 2 << 20, /*aux=*/1500);
  worker.EmitAt(8'000'000, EventKind::kMsgSend, 0, 0, span_b, 64, FlowAux(-1, 6));
  TraceProcessMeta worker_meta;
  worker_meta.name = "worker";
  worker_meta.epoch_us = 1500;
  worker_meta.events_dropped = 2;

  return {ChromeTraceJson(driver.Snapshot(), &driver_meta),
          ChromeTraceJson(worker.Snapshot(), &worker_meta)};
}

TEST(TraceMergeTest, StitchesFilesAndCountsFlowPairs) {
  const auto [driver_json, worker_json] = MergeFixtureJsons();
  std::ostringstream merged;
  MergedTraceStats stats;
  std::string error;
  ASSERT_TRUE(MergeChromeTraces({driver_json, worker_json}, merged, &stats, &error))
      << error;
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.events, 5u);
  EXPECT_EQ(stats.flow_pairs, 2u);
  EXPECT_EQ(stats.cross_process_pairs, 2u);
  EXPECT_EQ(stats.unmatched_flows, 0u);
  EXPECT_EQ(stats.events_dropped, 3u);  // 1 (driver) + 2 (worker).

  // The merged file must round-trip through the same parser, carry the summed
  // drop count, and keep per-file pid lanes distinct.
  ParsedTrace trace;
  ASSERT_TRUE(ParseChromeTrace(merged.str(), &trace, &error)) << error;
  ASSERT_TRUE(trace.has_meta);
  EXPECT_EQ(trace.events_dropped, 3u);
  EXPECT_EQ(trace.epoch_us, 1000u);  // Earliest epoch wins.
  std::set<int> pids;
  for (const ParsedEvent& e : trace.events) {
    pids.insert(e.pid);
  }
  EXPECT_EQ(pids.count(0), 1u);                 // Driver lane.
  EXPECT_EQ(pids.count(kMergePidStride), 1u);   // Worker lane block.

  // Epoch alignment: the worker's recv at local 3ms sits at epoch 1500us, so
  // on the merged (driver-epoch) timeline it lands at 3ms + 500us.
  bool found_recv = false;
  for (const ParsedEvent& e : trace.events) {
    if (e.ph == "f" && e.pid >= kMergePidStride && e.a != 0 && e.ts_us < 4000.0) {
      EXPECT_NEAR(e.ts_us, 3500.0, 1e-6);
      found_recv = true;
    }
  }
  EXPECT_TRUE(found_recv);
}

TEST(TraceMergeTest, MergedTraceMatchesGoldenFile) {
  const auto [driver_json, worker_json] = MergeFixtureJsons();
  std::ostringstream merged;
  MergedTraceStats stats;
  std::string error;
  ASSERT_TRUE(MergeChromeTraces({driver_json, worker_json}, merged, &stats, &error))
      << error;
  const std::string golden_path =
      std::string(OBS_TEST_GOLDEN_DIR) + "/merged_trace_golden.json";
  if (std::getenv("OBS_TEST_REGEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    out << merged.str();
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " (run with OBS_TEST_REGEN=1 to create)";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(merged.str(), ss.str())
      << "merged-trace output drifted from the golden file; verify in "
         "chrome://tracing, then OBS_TEST_REGEN=1";
}

TEST(TraceExportTest, MetaHeaderRoundTrips) {
  Tracer tracer;
  tracer.EmitAt(1'000'000, EventKind::kRuntimeStart, 0, 0);
  TraceProcessMeta meta;
  meta.name = "worker-3";
  meta.epoch_us = 777;
  meta.events_dropped = 12;
  const std::string json = ChromeTraceJson(tracer.Snapshot(), &meta);
  ParsedTrace trace;
  std::string error;
  ASSERT_TRUE(ParseChromeTrace(json, &trace, &error)) << error;
  ASSERT_TRUE(trace.has_meta);
  EXPECT_EQ(trace.process_name, "worker-3");
  EXPECT_EQ(trace.epoch_us, 777u);
  EXPECT_EQ(trace.events_dropped, 12u);
  ASSERT_EQ(trace.events.size(), 1u);  // Meta lines are not events.
}

TEST(FlightRecorderTest, TriggerDumpsRegisteredTracers) {
  // The singleton reads its knobs once, at first use — set them before any
  // Instance() call in this binary (no other obs test touches the recorder).
  const std::string dir =
      (std::filesystem::temp_directory_path() / "itask_obs_fr_test").string();
  std::filesystem::remove_all(dir);
  ::setenv("ITASK_FLIGHT_RECORDER", "1", 1);
  ::setenv("ITASK_FLIGHT_RECORDER_DIR", dir.c_str(), 1);

  FlightRecorder& recorder = FlightRecorder::Instance();
  ASSERT_TRUE(recorder.armed());
  Tracer tracer;
  recorder.Register(&tracer, "unit test tracer");
  EXPECT_TRUE(tracer.enabled());  // Armed registration force-enables capture.
  tracer.Emit(EventKind::kOmeInterrupt, 0, 123);

  const std::string bundle = recorder.Trigger("unit-test");
  ASSERT_FALSE(bundle.empty());
  EXPECT_TRUE(std::filesystem::exists(bundle + "/MANIFEST.txt"));
  bool found_trace = false;
  for (const auto& entry : std::filesystem::directory_iterator(bundle)) {
    if (entry.path().extension() == ".json") {
      std::ifstream in(entry.path());
      std::ostringstream ss;
      ss << in.rdbuf();
      ParsedTrace trace;
      std::string error;
      ASSERT_TRUE(ParseChromeTrace(ss.str(), &trace, &error)) << error;
      found_trace = trace.has_meta || !trace.events.empty() || found_trace;
    }
  }
  EXPECT_TRUE(found_trace);
  EXPECT_GE(recorder.trigger_count(), 1u);
  recorder.Unregister(&tracer);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace itask::obs
