// Tests for the crfs::obs subsystem: histogram bucket/percentile math,
// registry snapshot consistency under concurrent writers, TraceRing
// wraparound, Chrome-trace JSON well-formedness (parsed back with
// json_lite), and the pipeline integration contract — per-stage
// histograms fill during a multi-file checkpoint, span events appear only
// when Config::enable_tracing is set — plus the telemetry plane shared by
// the mount and the DES (journal listener composition, cold-sink
// journaling, its own knobs) and the registry as the only counter store.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/mem_backend.h"
#include "backend/wrappers.h"
#include "common/units.h"
#include "crfs/crfs.h"
#include "crfs/fuse_shim.h"
#include "obs/chrome_trace.h"
#include "obs/epoch.h"
#include "obs/health.h"
#include "obs/journal.h"
#include "obs/json_lite.h"
#include "obs/metrics.h"
#include "obs/plane.h"
#include "obs/prom.h"
#include "obs/sampler.h"
#include "obs/slow_store.h"
#include "obs/trace.h"
#include "sim/crfs_sim.h"
#include "sim/engine.h"

namespace crfs {
namespace {

using obs::HistogramSnapshot;
using obs::LatencyHistogram;

// ------------------------------------------------------------ histograms

TEST(LatencyHistogram, BucketBoundaries) {
  // Bucket 0 holds only 0; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(LatencyHistogram::bucket_index(0), 0);
  EXPECT_EQ(LatencyHistogram::bucket_index(1), 1);
  EXPECT_EQ(LatencyHistogram::bucket_index(2), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(3), 2);
  EXPECT_EQ(LatencyHistogram::bucket_index(4), 3);
  EXPECT_EQ(LatencyHistogram::bucket_index(7), 3);
  EXPECT_EQ(LatencyHistogram::bucket_index(8), 4);
  EXPECT_EQ(LatencyHistogram::bucket_index(1023), 10);
  EXPECT_EQ(LatencyHistogram::bucket_index(1024), 11);
  EXPECT_EQ(LatencyHistogram::bucket_index(~std::uint64_t{0}), 64);

  for (int i = 0; i <= 64; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::bucket_lo(i)), i);
    EXPECT_EQ(LatencyHistogram::bucket_index(LatencyHistogram::bucket_hi(i)), i);
  }
  EXPECT_EQ(LatencyHistogram::bucket_lo(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_hi(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucket_lo(11), 1024u);
  EXPECT_EQ(LatencyHistogram::bucket_hi(11), 2047u);
}

TEST(LatencyHistogram, CountSumMax) {
  LatencyHistogram h;
  h.record(5);
  h.record(100);
  h.record(0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 105u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_EQ(s.buckets[0], 1u);                                  // the 0
  EXPECT_EQ(s.buckets[LatencyHistogram::bucket_index(5)], 1u);
  EXPECT_EQ(s.buckets[LatencyHistogram::bucket_index(100)], 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 35.0);
}

TEST(LatencyHistogram, PercentilesLandInTheRightBucket) {
  LatencyHistogram h;
  // 90 fast ops (bucket of 100) and 10 slow ones (bucket of 10000).
  for (int i = 0; i < 90; ++i) h.record(100);
  for (int i = 0; i < 10; ++i) h.record(10000);
  const HistogramSnapshot s = h.snapshot();

  const double p50 = s.p50();
  EXPECT_GE(p50, LatencyHistogram::bucket_lo(LatencyHistogram::bucket_index(100)));
  EXPECT_LE(p50, LatencyHistogram::bucket_hi(LatencyHistogram::bucket_index(100)));

  const double p99 = s.p99();
  EXPECT_GE(p99, LatencyHistogram::bucket_lo(LatencyHistogram::bucket_index(10000)));
  EXPECT_LE(p99, 10000.0);  // clamped by the recorded max

  // Quantiles are monotone in q.
  EXPECT_LE(s.quantile(0.1), s.quantile(0.5));
  EXPECT_LE(s.quantile(0.5), s.quantile(0.9));
  EXPECT_LE(s.quantile(0.9), s.quantile(1.0));
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10000.0);
}

TEST(LatencyHistogram, EmptyQuantileIsZero) {
  const HistogramSnapshot s = LatencyHistogram{}.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p50(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// -------------------------------------------------------------- registry

TEST(Registry, GetOrCreateReturnsStableReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("crfs.test.counter");
  obs::Counter& b = reg.counter("crfs.test.counter");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);

  reg.gauge("crfs.test.gauge").set(-7);
  reg.gauge_fn("crfs.test.sampled", [] { return std::int64_t{42}; });
  reg.histogram("crfs.test.lat_ns").record(10);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "crfs.test.counter");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 2u);  // plain gauge + callback gauge
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 1u);
  // Callback gauge was sampled at snapshot time.
  bool saw_sampled = false;
  for (const auto& [name, v] : snap.gauges) {
    if (name == "crfs.test.sampled") {
      saw_sampled = true;
      EXPECT_EQ(v, 42);
    }
  }
  EXPECT_TRUE(saw_sampled);
}

TEST(Registry, SnapshotConsistentUnderConcurrentWriters) {
  obs::Registry reg;
  obs::Counter& counter = reg.counter("c");
  LatencyHistogram& hist = reg.histogram("h");

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.add(1);
        hist.record(static_cast<std::uint64_t>(i % 1000));
      }
    });
  }
  // Snapshot continuously while writers run: counts must be monotone and
  // internally consistent (quantile math never sees count > bucket sum).
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load()) {
      const auto snap = reg.snapshot();
      EXPECT_GE(snap.counters[0].second, last);
      last = snap.counters[0].second;
      const HistogramSnapshot hs = snap.histograms[0].second;
      std::uint64_t bucketed = 0;
      for (auto b : hs.buckets) bucketed += b;
      EXPECT_LE(hs.count, bucketed);
      (void)hs.p99();  // must not crash or hang mid-race
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  const auto final_snap = reg.snapshot();
  EXPECT_EQ(final_snap.counters[0].second,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(final_snap.histograms[0].second.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Registry, JsonRendersAndParses) {
  obs::Registry reg;
  reg.counter("crfs.io.pwrite_bytes").add(4096);
  reg.gauge("crfs.queue.depth").set(2);
  reg.histogram("crfs.io.pwrite_ns").record(1500);
  const std::string json = reg.snapshot().to_json();
  auto parsed = obs::json::parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  const auto* counters = parsed->get("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->get("crfs.io.pwrite_bytes"), nullptr);
  EXPECT_DOUBLE_EQ(counters->get("crfs.io.pwrite_bytes")->number, 4096.0);
  const auto* hists = parsed->get("histograms");
  ASSERT_NE(hists, nullptr);
  const auto* pwrite = hists->get("crfs.io.pwrite_ns");
  ASSERT_NE(pwrite, nullptr);
  EXPECT_DOUBLE_EQ(pwrite->get("count")->number, 1.0);
  EXPECT_DOUBLE_EQ(pwrite->get("max")->number, 1500.0);
}

// ------------------------------------------------------------- TraceRing

TEST(TraceRing, RecordsAndSnapshotsInOrder) {
  obs::TraceRing ring(7, 16);
  ring.record("a", 100, 10);
  ring.record("b", 200, 20);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[0].ts_ns, 100u);
  EXPECT_EQ(events[0].dur_ns, 10u);
  EXPECT_EQ(events[0].tid, 7u);
  EXPECT_STREQ(events[1].name, "b");
}

TEST(TraceRing, WraparoundKeepsTheLatestEvents) {
  constexpr std::size_t kCapacity = 64;
  obs::TraceRing ring(0, kCapacity);
  constexpr std::uint64_t kTotal = 1000;
  for (std::uint64_t i = 0; i < kTotal; ++i) ring.record("e", i, 1);
  EXPECT_EQ(ring.recorded(), kTotal);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), kCapacity);
  // Oldest-first, covering exactly the last kCapacity timestamps.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts_ns, kTotal - kCapacity + i);
  }
}

TEST(TraceCollector, PerThreadRingsMergeSorted) {
  obs::TraceCollector collector(128);
  collector.set_enabled(true);
  std::thread t1([&] { collector.ring().record("t1", 50, 5); });
  std::thread t2([&] { collector.ring().record("t2", 10, 5); });
  t1.join();
  t2.join();
  collector.ring().record("main", 30, 5);
  EXPECT_EQ(collector.ring_count(), 3u);
  const auto events = collector.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].ts_ns, 10u);  // sorted by begin time
  EXPECT_EQ(events[1].ts_ns, 30u);
  EXPECT_EQ(events[2].ts_ns, 50u);
  // Distinct rings got distinct lane ids.
  EXPECT_NE(events[0].tid, events[2].tid);
}

TEST(TraceSpan, NoOpWhenDisabled) {
  obs::TraceCollector collector(16);
  { obs::TraceSpan span(collector, "skipped"); }
  EXPECT_EQ(collector.total_recorded(), 0u);
  EXPECT_EQ(collector.ring_count(), 0u);  // not even a ring allocated
  collector.set_enabled(true);
  { obs::TraceSpan span(collector, "kept"); }
  EXPECT_EQ(collector.total_recorded(), 1u);
}

// ---------------------------------------------------------- Chrome trace

TEST(ChromeTrace, EmitsWellFormedTraceEventJson) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"write", 0, 1500, 2500});
  events.push_back({"pwrite", 1, 3000, 10000});
  const std::string json = obs::to_chrome_json(events);

  auto parsed = obs::json::parse(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  ASSERT_TRUE(parsed->is_object());
  const auto* trace_events = parsed->get("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  ASSERT_TRUE(trace_events->is_array());
  ASSERT_EQ(trace_events->array->size(), 2u);

  // Schema check: every event carries the fields chrome://tracing and
  // Perfetto require for a complete ("X") event.
  for (const auto& ev : *trace_events->array) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_NE(ev.get("name"), nullptr);
    EXPECT_TRUE(ev.get("name")->is_string());
    ASSERT_NE(ev.get("ph"), nullptr);
    EXPECT_EQ(ev.get("ph")->string, "X");
    for (const char* field : {"pid", "tid", "ts", "dur"}) {
      ASSERT_NE(ev.get(field), nullptr) << field;
      EXPECT_TRUE(ev.get(field)->is_number()) << field;
    }
  }
  // Microsecond conversion: 1500 ns -> 1.5 us.
  EXPECT_DOUBLE_EQ((*trace_events->array)[0].get("ts")->number, 1.5);
  EXPECT_DOUBLE_EQ((*trace_events->array)[0].get("dur")->number, 2.5);
}

TEST(ChromeTrace, WritesFileThatParsesBack) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"drain", 2, 0, 42});
  const std::string path = ::testing::TempDir() + "crfs_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, events).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  auto parsed = obs::json::parse(content);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get("traceEvents")->array->size(), 1u);
}

// ----------------------------------------------- pipeline integration

// Multi-file checkpoint through FuseShim with small chunks so every stage
// (copy, queue wait, pwrite, drain) sees real traffic.
std::unique_ptr<Crfs> run_checkpoint(bool tracing) {
  Config cfg;
  cfg.chunk_size = 64 * KiB;
  cfg.pool_size = 256 * KiB;
  cfg.io_threads = 2;
  cfg.enable_tracing = tracing;
  cfg.trace_ring_events = 4096;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  EXPECT_TRUE(fs.ok());
  FuseShim shim(*fs.value(), FuseOptions{});

  std::vector<std::thread> ranks;
  for (int r = 0; r < 3; ++r) {
    ranks.emplace_back([&, r] {
      const std::string path = "rank" + std::to_string(r) + ".ckpt";
      std::vector<std::byte> record(32 * KiB, static_cast<std::byte>(r));
      auto h = shim.open(path, {.create = true, .truncate = true, .write = true});
      ASSERT_TRUE(h.ok());
      for (std::size_t off = 0; off < 2 * MiB; off += record.size()) {
        ASSERT_TRUE(shim.write(h.value(), record, off).ok());
      }
      ASSERT_TRUE(shim.fsync(h.value()).ok());
      ASSERT_TRUE(shim.close(h.value()).ok());
    });
  }
  for (auto& t : ranks) t.join();
  return std::move(fs.value());
}

TEST(PipelineObs, StageHistogramsFillDuringCheckpoint) {
  auto fs = run_checkpoint(/*tracing=*/true);

  // 3 ranks x 2 MiB / 64 KiB chunks = 96 full chunks (+ drain partials).
  const auto snap = fs->metrics().snapshot();
  auto hist = [&](const std::string& name) -> const HistogramSnapshot* {
    for (const auto& [n, h] : snap.histograms) {
      if (n == name) return &h;
    }
    return nullptr;
  };
  const auto* queue_wait = hist("crfs.queue.wait_ns");
  ASSERT_NE(queue_wait, nullptr);
  EXPECT_GE(queue_wait->count, 96u);
  const auto* pwrite = hist("crfs.io.pwrite_ns");
  ASSERT_NE(pwrite, nullptr);
  // One record per BACKEND CALL: batched dequeue coalesces up to io_batch
  // adjacent chunks into a single call, so the floor is 96 / io_batch.
  EXPECT_GE(pwrite->count, 96u / fs->config().io_batch);
  const auto* batch_hist = hist("crfs.io.batch_chunks");
  ASSERT_NE(batch_hist, nullptr);
  EXPECT_GE(batch_hist->count, 1u);  // one record per write batch popped
  const auto* copy = hist("crfs.write.copy_ns");
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->count, 3u * (2 * MiB / (32 * KiB)));  // one per app write
  const auto* drain = hist("crfs.drain.wait_ns");
  ASSERT_NE(drain, nullptr);
  EXPECT_GE(drain->count, 3u);  // one per fsync and close at least

  // Counters agree with the data volume.
  bool saw_bytes = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "crfs.io.pwrite_bytes") {
      saw_bytes = true;
      EXPECT_EQ(v, 3u * 2 * MiB);
    }
  }
  EXPECT_TRUE(saw_bytes);

  // Span events captured for every instrumented stage.
  const auto events = fs->trace().snapshot();
  ASSERT_FALSE(events.empty());
  bool saw_write = false, saw_pwrite = false, saw_drain = false, saw_flush = false;
  for (const auto& ev : events) {
    const std::string name = ev.name;
    saw_write |= name == "write";
    saw_pwrite |= name == "pwrite";
    saw_drain |= name == "drain";
    saw_flush |= name == "flush";
  }
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_pwrite);
  EXPECT_TRUE(saw_drain);
  EXPECT_TRUE(saw_flush);

  // The exported trace passes the same schema check as ChromeTrace above.
  const std::string path = ::testing::TempDir() + "crfs_pipeline_trace.json";
  ASSERT_TRUE(fs->export_trace(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  char buf[65536];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  auto parsed = obs::json::parse(content);
  ASSERT_TRUE(parsed.has_value());
  const auto* trace_events = parsed->get("traceEvents");
  ASSERT_NE(trace_events, nullptr);
  EXPECT_EQ(trace_events->array->size(), events.size());
}

TEST(PipelineObs, TracingOffLeavesSpansEmptyButCountersOn) {
  auto fs = run_checkpoint(/*tracing=*/false);

  // Spans: exactly none — no ring was even allocated.
  EXPECT_EQ(fs->trace().snapshot().size(), 0u);
  EXPECT_EQ(fs->trace().total_recorded(), 0u);

  // Counters and histograms: still fully populated.
  EXPECT_EQ(fs->metrics().counter("crfs.mount.app_bytes").value(), 3u * 2 * MiB);
  const auto snap = fs->metrics().snapshot();
  for (const auto& [name, h] : snap.histograms) {
    if (name == "crfs.queue.wait_ns" || name == "crfs.io.pwrite_ns" ||
        name == "crfs.write.copy_ns") {
      EXPECT_GT(h.count, 0u) << name;
    }
  }
}

TEST(PipelineObs, StatsReportAndJson) {
  auto fs = run_checkpoint(/*tracing=*/false);
  const std::string report = fs->stats_report();
  EXPECT_NE(report.find("app_writes"), std::string::npos);
  EXPECT_NE(report.find("crfs.io.pwrite_ns"), std::string::npos);
  EXPECT_NE(report.find("crfs.queue.wait_ns"), std::string::npos);
  EXPECT_NE(report.find("p99"), std::string::npos);

  auto parsed = obs::json::parse(fs->stats_json());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->get("mount"), nullptr);
  EXPECT_DOUBLE_EQ(parsed->get("mount")->get("app_bytes")->number,
                   static_cast<double>(3u * 2 * MiB));
  ASSERT_NE(parsed->get("pipeline"), nullptr);
  EXPECT_NE(parsed->get("pipeline")->get("histograms"), nullptr);
}

// ------------------------------------------------------------ sim engine

// --------------------------------------------------------------- sampler

TEST(Sampler, TickComputesWindowedRates) {
  obs::Registry reg;
  obs::Counter& bytes = reg.counter("crfs.io.pwrite_bytes");
  LatencyHistogram& lat = reg.histogram("crfs.io.pwrite_ns");
  obs::Sampler sampler(reg);

  bytes.add(1000);
  lat.record(50);
  const obs::Sample s0 = sampler.tick(1'000'000'000);
  EXPECT_EQ(s0.seq, 0u);
  EXPECT_EQ(s0.dt_ns, 0u);  // first frame has no window
  ASSERT_NE(s0.counter_rate("crfs.io.pwrite_bytes"), nullptr);
  EXPECT_EQ(s0.counter_rate("crfs.io.pwrite_bytes")->delta, 0u);

  bytes.add(4096);
  lat.record(60);
  lat.record(70);
  const obs::Sample s1 = sampler.tick(2'000'000'000);  // 1 s later
  EXPECT_EQ(s1.seq, 1u);
  EXPECT_EQ(s1.dt_ns, 1'000'000'000u);
  const obs::Rate* br = s1.counter_rate("crfs.io.pwrite_bytes");
  ASSERT_NE(br, nullptr);
  EXPECT_EQ(br->delta, 4096u);
  EXPECT_DOUBLE_EQ(br->per_sec, 4096.0);
  const obs::Rate* hr = s1.histogram_rate("crfs.io.pwrite_ns");
  ASSERT_NE(hr, nullptr);
  EXPECT_EQ(hr->delta, 2u);  // two pwrites completed in the window
  EXPECT_DOUBLE_EQ(hr->per_sec, 2.0);

  EXPECT_EQ(s1.counter_rate("no.such.metric"), nullptr);
  EXPECT_EQ(s1.gauge("no.such.metric"), std::nullopt);
  EXPECT_EQ(sampler.samples_taken(), 2u);
}

TEST(Sampler, GaugeAndHistogramLookups) {
  obs::Registry reg;
  reg.gauge("crfs.queue.depth").set(7);
  reg.gauge_fn("crfs.pool.free_chunks", [] { return std::int64_t{3}; });
  reg.histogram("crfs.io.pwrite_ns").record(123);
  obs::Sampler sampler(reg);
  const obs::Sample s = sampler.tick(1);
  EXPECT_EQ(s.gauge("crfs.queue.depth"), 7);
  EXPECT_EQ(s.gauge("crfs.pool.free_chunks"), 3);
  const obs::HistogramSnapshot* h = s.histogram("crfs.io.pwrite_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 1u);
}

TEST(Sampler, RingEvictsOldestFrames) {
  obs::Registry reg;
  obs::Sampler sampler(reg, obs::SamplerOptions{.ring_capacity = 4});
  for (std::uint64_t i = 0; i < 10; ++i) sampler.tick(i * 1000);
  EXPECT_EQ(sampler.samples_taken(), 10u);
  const auto win = sampler.window(100);
  ASSERT_EQ(win.size(), 4u);  // bounded by capacity
  EXPECT_EQ(win.front().seq, 6u);
  EXPECT_EQ(win.back().seq, 9u);  // oldest-first
  ASSERT_TRUE(sampler.latest().has_value());
  EXPECT_EQ(sampler.latest()->seq, 9u);
  EXPECT_EQ(sampler.window(2).size(), 2u);
}

TEST(Sampler, BackgroundThreadTicksAndStops) {
  obs::Registry reg;
  reg.counter("c").add(1);
  obs::Sampler sampler(reg);
  EXPECT_FALSE(sampler.running());
  sampler.start(std::chrono::milliseconds(1));
  EXPECT_TRUE(sampler.running());
  for (int i = 0; i < 500 && sampler.samples_taken() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(sampler.samples_taken(), 3u);
  const std::uint64_t after_stop = sampler.samples_taken();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(sampler.samples_taken(), after_stop);  // really stopped
  sampler.stop();                                  // idempotent
}

// ---------------------------------------------------------------- health

// Synthetic telemetry source: health rules read gauges/counters we control
// directly, ticked on a hand-rolled virtual clock.
struct HealthRig {
  obs::Registry reg;
  std::int64_t free_chunks = 8;
  std::int64_t depth = 0;
  obs::LatencyHistogram* pwrite_ns = nullptr;
  obs::Counter* errors = nullptr;
  obs::EventBuffer events;
  obs::Sampler sampler;
  obs::HealthMonitor monitor;
  std::uint64_t now_ns = 0;

  explicit HealthRig(obs::HealthConfig cfg)
      : events(64), sampler(reg), monitor(cfg, events) {
    reg.gauge_fn("crfs.pool.free_chunks", [this] { return free_chunks; });
    reg.gauge_fn("crfs.queue.depth", [this] { return depth; });
    pwrite_ns = &reg.histogram("crfs.io.pwrite_ns");
    errors = &reg.counter("crfs.io.pwrite_errors");
    sampler.set_health_monitor(&monitor);
  }

  void tick() {
    now_ns += 10'000'000;  // 10 ms frames
    sampler.tick(now_ns);
  }

  std::vector<obs::Event> fired(const std::string& rule) const {
    std::vector<obs::Event> out;
    for (const auto& e : events.snapshot()) {
      if (e.rule == rule) out.push_back(e);
    }
    return out;
  }
};

TEST(HealthMonitor, PoolStarvationIsEdgeTriggeredWithHysteresis) {
  HealthRig rig({.starvation_samples = 3});
  rig.tick();  // healthy baseline
  rig.free_chunks = 0;
  rig.tick();
  rig.tick();
  EXPECT_EQ(rig.fired("pool_starvation").size(), 0u);  // run of 2 < 3
  rig.tick();
  ASSERT_EQ(rig.fired("pool_starvation").size(), 1u);  // fires on 3rd
  const obs::Event ev = rig.fired("pool_starvation")[0];
  EXPECT_EQ(ev.severity, obs::Severity::kWarning);
  EXPECT_DOUBLE_EQ(ev.threshold, 3.0);
  EXPECT_GT(ev.ts_ns, 0u);

  // Still starved: no re-fire while the condition holds.
  for (int i = 0; i < 10; ++i) rig.tick();
  EXPECT_EQ(rig.fired("pool_starvation").size(), 1u);

  // Recovery re-arms; a fresh run fires again.
  rig.free_chunks = 4;
  rig.tick();
  rig.free_chunks = 0;
  for (int i = 0; i < 3; ++i) rig.tick();
  EXPECT_EQ(rig.fired("pool_starvation").size(), 2u);
}

TEST(HealthMonitor, QueueStallNeedsDepthAndZeroCompletions) {
  HealthRig rig({.stall_samples = 2});
  rig.tick();
  rig.depth = 5;
  rig.tick();
  rig.tick();
  ASSERT_EQ(rig.fired("queue_stall").size(), 1u);
  EXPECT_EQ(rig.fired("queue_stall")[0].severity, obs::Severity::kCritical);

  // Progress (a pwrite completion in the window) clears the run even
  // though depth stays positive.
  rig.pwrite_ns->record(100);
  rig.tick();
  rig.tick();  // no completion this window, run restarts at 1
  EXPECT_EQ(rig.fired("queue_stall").size(), 1u);
  rig.tick();  // run reaches 2 again -> second stall
  EXPECT_EQ(rig.fired("queue_stall").size(), 2u);

  // Empty queue never stalls, no matter how idle.
  HealthRig idle({.stall_samples = 2});
  for (int i = 0; i < 10; ++i) idle.tick();
  EXPECT_EQ(idle.fired("queue_stall").size(), 0u);
}

TEST(HealthMonitor, SlowPwriteComparesP99AgainstThreshold) {
  HealthRig rig({.slow_pwrite_p99_ns = 1'000'000});
  for (int i = 0; i < 100; ++i) rig.pwrite_ns->record(10'000);  // 10 us: fine
  rig.tick();
  EXPECT_EQ(rig.fired("slow_pwrite").size(), 0u);
  for (int i = 0; i < 100; ++i) rig.pwrite_ns->record(50'000'000);  // 50 ms
  rig.tick();
  ASSERT_EQ(rig.fired("slow_pwrite").size(), 1u);
  EXPECT_GT(rig.fired("slow_pwrite")[0].value, 1'000'000.0);
  rig.tick();  // p99 still high: hysteresis, no second event
  EXPECT_EQ(rig.fired("slow_pwrite").size(), 1u);

  // Disabled by default (threshold 0).
  HealthRig off({});
  for (int i = 0; i < 100; ++i) off.pwrite_ns->record(50'000'000);
  off.tick();
  EXPECT_EQ(off.fired("slow_pwrite").size(), 0u);
}

TEST(HealthMonitor, ErrorBurstIsPerWindow) {
  HealthRig rig({.error_burst = 2});
  rig.tick();
  rig.errors->add(1);
  rig.tick();  // 1 new error < 2
  EXPECT_EQ(rig.fired("error_burst").size(), 0u);
  rig.errors->add(3);
  rig.tick();  // 3 new errors >= 2
  ASSERT_EQ(rig.fired("error_burst").size(), 1u);
  EXPECT_DOUBLE_EQ(rig.fired("error_burst")[0].value, 3.0);
  rig.tick();  // no new errors: totals stay high but the window is clean
  EXPECT_EQ(rig.fired("error_burst").size(), 1u);
  rig.errors->add(2);
  rig.tick();  // bursts are per-window, not edge-triggered
  EXPECT_EQ(rig.fired("error_burst").size(), 2u);
}

TEST(HealthMonitor, IdenticalConsecutiveSamplesNeverDuplicateEvents) {
  // Arm every edge-triggered rule at once, then freeze the world: with
  // nothing changing between samples, each rule must have fired exactly
  // once no matter how many identical frames follow.
  HealthRig rig({.starvation_samples = 2,
                 .stall_samples = 2,
                 .slow_pwrite_p99_ns = 1'000'000});
  rig.tick();  // healthy baseline
  rig.free_chunks = 0;
  rig.depth = 3;
  for (int i = 0; i < 100; ++i) rig.pwrite_ns->record(50'000'000);
  rig.tick();  // sees the pwrite burst: slow_pwrite fires, stall run resets
  rig.tick();  // starvation run reaches 2 and fires
  rig.tick();  // stall run reaches 2 (no completions since) and fires
  ASSERT_EQ(rig.fired("pool_starvation").size(), 1u);
  ASSERT_EQ(rig.fired("queue_stall").size(), 1u);
  ASSERT_EQ(rig.fired("slow_pwrite").size(), 1u);

  const std::uint64_t total_after_fire = rig.events.total();
  for (int i = 0; i < 50; ++i) rig.tick();  // identical frames
  EXPECT_EQ(rig.events.total(), total_after_fire);
  EXPECT_EQ(rig.fired("pool_starvation").size(), 1u);
  EXPECT_EQ(rig.fired("queue_stall").size(), 1u);
  EXPECT_EQ(rig.fired("slow_pwrite").size(), 1u);
}

TEST(HealthMonitor, EdgeStateSurvivesSamplerRestart) {
  // The fired/cleared hysteresis lives in the HealthMonitor, not the
  // Sampler: tearing the sampler down mid-incident and attaching a fresh
  // one (crfsctl watch reconnecting, say) must not re-report the same
  // still-standing condition.
  HealthRig rig({.starvation_samples = 2});
  rig.tick();
  rig.free_chunks = 0;
  rig.tick();
  rig.tick();
  ASSERT_EQ(rig.fired("pool_starvation").size(), 1u);

  // Fresh sampler, same registry + monitor; the pool is still starved.
  obs::Sampler restarted(rig.reg);
  restarted.set_health_monitor(&rig.monitor);
  for (int i = 0; i < 10; ++i) {
    rig.now_ns += 10'000'000;
    restarted.tick(rig.now_ns);
  }
  EXPECT_EQ(rig.fired("pool_starvation").size(), 1u);  // no duplicate

  // Recovery observed by the restarted sampler re-arms the rule...
  rig.free_chunks = 4;
  rig.now_ns += 10'000'000;
  restarted.tick(rig.now_ns);
  // ...so a fresh starvation run fires a second event.
  rig.free_chunks = 0;
  for (int i = 0; i < 2; ++i) {
    rig.now_ns += 10'000'000;
    restarted.tick(rig.now_ns);
  }
  EXPECT_EQ(rig.fired("pool_starvation").size(), 2u);
}

TEST(EventBuffer, BoundedWithTotalCount) {
  obs::EventBuffer buf(2);
  for (int i = 0; i < 5; ++i) {
    buf.push(obs::Event{obs::Severity::kInfo, "r" + std::to_string(i), "", 0, 0,
                        static_cast<std::uint64_t>(i)});
  }
  EXPECT_EQ(buf.total(), 5u);
  EXPECT_EQ(buf.size(), 2u);
  const auto evs = buf.snapshot();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].rule, "r3");  // oldest dropped, order preserved
  EXPECT_EQ(evs[1].rule, "r4");
}

TEST(EventBuffer, EventsRenderAsJson) {
  obs::Event ev{obs::Severity::kCritical, "pwrite_error", "f.ckpt offset=0 errno=5",
                5.0, 0.0, 42};
  auto parsed = obs::json::parse(ev.to_json());
  ASSERT_TRUE(parsed.has_value()) << ev.to_json();
  EXPECT_EQ(parsed->get("severity")->string, "critical");
  EXPECT_EQ(parsed->get("rule")->string, "pwrite_error");
  EXPECT_DOUBLE_EQ(parsed->get("value")->number, 5.0);
  EXPECT_DOUBLE_EQ(parsed->get("ts_ns")->number, 42.0);

  auto arr = obs::json::parse(obs::events_to_json({ev, ev}));
  ASSERT_TRUE(arr.has_value());
  ASSERT_TRUE(arr->is_array());
  EXPECT_EQ(arr->array->size(), 2u);
}

// ------------------------------------------------------------ prometheus

// Minimal exposition-format reader for the round-trip schema check:
// returns the value of the first sample line whose name+labels prefix
// matches `key` exactly.
std::optional<double> prom_value(const std::string& text, const std::string& key) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    if (line.substr(0, sp) == key) return std::stod(line.substr(sp + 1));
  }
  return std::nullopt;
}

TEST(Prometheus, NameSanitization) {
  EXPECT_EQ(obs::prometheus_name("crfs.io.pwrite_ns"), "crfs_io_pwrite_ns");
  EXPECT_EQ(obs::prometheus_name("crfs.pool.free_chunks"), "crfs_pool_free_chunks");
}

TEST(Prometheus, ExpositionRoundTripsSchemaCheck) {
  obs::Registry reg;
  reg.counter("crfs.io.pwrite_bytes").add(123456);
  reg.gauge("crfs.queue.depth").set(-2);
  LatencyHistogram& h = reg.histogram("crfs.io.pwrite_ns");
  h.record(0);
  h.record(100);
  h.record(1000);
  h.record(1000000);

  const std::string text = obs::to_prometheus(reg.snapshot());

  // Counters carry the _total suffix; gauges may be negative.
  EXPECT_EQ(prom_value(text, "crfs_io_pwrite_bytes_total"), 123456.0);
  EXPECT_EQ(prom_value(text, "crfs_queue_depth"), -2.0);

  // Histogram schema: cumulative _bucket series, monotone nondecreasing,
  // ending in +Inf, with +Inf == _count and _sum present.
  std::vector<double> cumulative;
  std::optional<double> inf;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("crfs_io_pwrite_ns_bucket{", 0) != 0) continue;
    const double v = std::stod(line.substr(line.rfind(' ') + 1));
    if (line.find("le=\"+Inf\"") != std::string::npos) {
      inf = v;
    } else {
      cumulative.push_back(v);
    }
  }
  ASSERT_FALSE(cumulative.empty());
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]) << "bucket " << i;
  }
  ASSERT_TRUE(inf.has_value()) << text;
  EXPECT_GE(*inf, cumulative.back());
  EXPECT_EQ(prom_value(text, "crfs_io_pwrite_ns_count"), *inf);
  EXPECT_EQ(*inf, 4.0);
  EXPECT_EQ(prom_value(text, "crfs_io_pwrite_ns_sum"), 1001100.0);

  // TYPE declarations for all three metric kinds.
  EXPECT_NE(text.find("# TYPE crfs_io_pwrite_bytes_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crfs_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE crfs_io_pwrite_ns histogram"), std::string::npos);
}

TEST(Prometheus, LabelValueEscaping) {
  EXPECT_EQ(obs::prometheus_label_value("plain-label_1"), "plain-label_1");
  EXPECT_EQ(obs::prometheus_label_value("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::prometheus_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::prometheus_label_value("two\nlines"), "two\\nlines");
  EXPECT_EQ(obs::prometheus_label_value("\\\"\n"), "\\\\\\\"\\n");
  EXPECT_EQ(obs::prometheus_label_value(""), "");
}

TEST(Prometheus, EpochLabelsAreEscapedInExposition) {
  // Epoch labels are user strings (epoch_begin / the control file); a
  // hostile one must not break the text exposition format.
  obs::EpochRecord rec;
  rec.id = 3;
  rec.label = "evil\"label\\with\nnewline";
  rec.bytes = 7;
  const std::string text = obs::epochs_to_prometheus({rec});
  EXPECT_NE(text.find("label=\"evil\\\"label\\\\with\\nnewline\""), std::string::npos)
      << text;

  // Every non-comment line still parses as `name{labels} value` — in
  // particular no label value smuggled a raw newline into the stream.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    char* end = nullptr;
    (void)std::strtod(line.c_str() + sp + 1, &end);
    EXPECT_EQ(*end, '\0') << "unparseable sample value in: " << line;
    EXPECT_NE(line.find('}'), std::string::npos) << line;
  }
}

// ------------------------------------------- pipeline telemetry plane

TEST(PipelineTelemetry, SamplerOffMeansNoSamplerAtAll) {
  Config cfg;
  cfg.chunk_size = 64 * KiB;
  cfg.pool_size = 1 * MiB;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  ASSERT_TRUE(fs.ok());
  EXPECT_EQ(fs.value()->sampler(), nullptr);  // no object, no thread
  EXPECT_TRUE(fs.value()->events().empty());
}

TEST(PipelineTelemetry, BackgroundSamplerFeedsRatesAndStaysHealthy) {
  Config cfg;
  cfg.chunk_size = 64 * KiB;
  cfg.pool_size = 16 * MiB;  // 256 chunks: starvation impossible here
  cfg.io_threads = 2;
  cfg.sample_ms = 2;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  ASSERT_TRUE(fs.ok());
  ASSERT_NE(fs.value()->sampler(), nullptr);
  EXPECT_TRUE(fs.value()->sampler()->running());

  {
    FuseShim shim(*fs.value(), FuseOptions{});
    std::vector<std::byte> record(64 * KiB, std::byte{0x5a});
    auto h = shim.open("sampled.ckpt", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    for (std::size_t off = 0; off < 4 * MiB; off += record.size()) {
      ASSERT_TRUE(shim.write(h.value(), record, off).ok());
    }
    ASSERT_TRUE(shim.close(h.value()).ok());
  }
  for (int i = 0; i < 1000 && fs.value()->sampler()->samples_taken() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(fs.value()->sampler()->samples_taken(), 3u);

  const auto latest = fs.value()->sampler()->latest();
  ASSERT_TRUE(latest.has_value());
  EXPECT_TRUE(latest->gauge("crfs.pool.free_chunks").has_value());
  EXPECT_TRUE(latest->gauge("crfs.queue.depth").has_value());
  ASSERT_NE(latest->counter_rate("crfs.io.pwrite_bytes"), nullptr);

  // 256 chunks against 64 of data: starvation is impossible, and the
  // backend never errors. (queue_stall CAN legitimately fire when the
  // scheduler starves the IO threads across whole sample windows — e.g.
  // under sanitizers — so real-time runs only pin the impossible rules;
  // SimHealth below covers stall firing/not-firing deterministically.)
  for (const auto& e : fs.value()->events()) {
    EXPECT_NE(e.rule, "pool_starvation") << e.message;
    EXPECT_NE(e.rule, "error_burst") << e.message;
    EXPECT_NE(e.rule, "pwrite_error") << e.message;
  }

  // stats_json carries the events array and the sample count.
  auto parsed = obs::json::parse(fs.value()->stats_json());
  ASSERT_TRUE(parsed.has_value());
  const auto* events = parsed->get("events");
  ASSERT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  ASSERT_NE(parsed->get("samples_taken"), nullptr);
  EXPECT_GE(parsed->get("samples_taken")->number, 3.0);
}

TEST(PipelineTelemetry, FailedPwriteAttachesStructuredEvent) {
  auto faulty = std::make_shared<FaultyBackend>(std::make_shared<MemBackend>());
  faulty->fail_writes_after(0);  // every pwrite fails with EIO
  Config cfg;
  cfg.chunk_size = 64 * KiB;
  cfg.pool_size = 1 * MiB;
  cfg.io_threads = 1;
  // The structured pwrite_error event is an IO-pool artifact; the bypass
  // would fail this chunk-sized write synchronously with no event.
  cfg.large_write_bypass = false;
  auto fs = Crfs::mount(faulty, cfg);
  ASSERT_TRUE(fs.ok());
  {
    FuseShim shim(*fs.value(), FuseOptions{});
    std::vector<std::byte> record(64 * KiB, std::byte{1});
    auto h = shim.open("doomed.ckpt", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    ASSERT_TRUE(shim.write(h.value(), record, 0).ok());  // buffered: still ok
    EXPECT_FALSE(shim.fsync(h.value()).ok());  // sticky error surfaces
    (void)shim.close(h.value());
  }
  const auto events = fs.value()->events();
  ASSERT_FALSE(events.empty());
  const obs::Event& ev = events.front();
  EXPECT_EQ(ev.rule, "pwrite_error");
  EXPECT_EQ(ev.severity, obs::Severity::kCritical);
  EXPECT_NE(ev.message.find("doomed.ckpt"), std::string::npos);
  EXPECT_NE(ev.message.find("offset=0"), std::string::npos);
  EXPECT_NE(ev.message.find("errno=" + std::to_string(EIO)), std::string::npos);
  EXPECT_DOUBLE_EQ(ev.value, static_cast<double>(EIO));
  // The event also reaches the rendered report.
  EXPECT_NE(fs.value()->stats_report().find("pwrite_error"), std::string::npos);
}

// -------------------------------------------- deterministic sim health

// Fixed-bandwidth backend: every chunk write takes len/bw virtual
// seconds, close is free. Slow enough and the pipeline exhibits exactly
// the pathologies the health rules watch for — on the virtual clock, so
// the test is bit-for-bit deterministic.
class FixedRateBackend final : public sim::BackendSim {
 public:
  FixedRateBackend(sim::Simulation& sim, double bytes_per_sec)
      : sim_(sim), bw_(bytes_per_sec) {}
  sim::Task write_call(unsigned, sim::FileId, std::uint64_t, std::uint64_t len,
                       bool) override {
    co_await sim_.delay(static_cast<double>(len) / bw_);
  }
  sim::Task close_file(unsigned, sim::FileId, bool) override { co_return; }
  void stop() override {}

 private:
  sim::Simulation& sim_;
  double bw_;
};

struct SimHealthRun {
  std::vector<obs::Event> events;
  std::uint64_t samples = 0;
  std::uint64_t pool_waits = 0;
};

sim::Task drive_sim_checkpoint(sim::CrfsSimNode& node, std::uint64_t bytes) {
  co_await node.app_write(0, bytes);
  co_await node.close_file(0);
  node.stop();
}

SimHealthRun run_sim_checkpoint(double backend_bytes_per_sec) {
  sim::Simulation sim;
  sim::Calibration cal;
  FixedRateBackend backend(sim, backend_bytes_per_sec);
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 4 * MiB;  // 4 chunks
  cfg.io_threads = 1;
  sim::CrfsSimNode node(sim, cal, backend, /*node=*/0, cfg, FuseOptions{}, /*ppn=*/1);

  obs::EventBuffer events(64);
  obs::HealthMonitor monitor(obs::HealthConfig{}, events);
  obs::Sampler sampler(node.metrics());
  sampler.set_health_monitor(&monitor);

  node.start();
  sim.spawn(node.sample_loop(sampler, 0.010));  // 10 ms virtual frames
  sim.spawn(drive_sim_checkpoint(node, 16 * MiB));
  sim.run();

  return {events.snapshot(), sampler.samples_taken(), node.pool_waits()};
}

TEST(SimHealth, DegradedBackendFiresStallAndStarvationDeterministically) {
  // 1 MiB/s backend: each 1 MiB chunk pwrite takes a full virtual second,
  // so the 4-chunk pool drains at 1 chunk/s against a writer that fills
  // chunks in milliseconds. Queue depth stays positive across entire
  // seconds with zero completions, and free_chunks pins at 0.
  const SimHealthRun slow = run_sim_checkpoint(1.0 * MiB);
  EXPECT_GT(slow.pool_waits, 0u);
  EXPECT_GT(slow.samples, 100u);  // ~16 virtual seconds of 10 ms frames
  bool saw_stall = false, saw_starvation = false;
  for (const auto& e : slow.events) {
    saw_stall |= e.rule == "queue_stall";
    saw_starvation |= e.rule == "pool_starvation";
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_starvation);

  // Virtual time is deterministic: an identical run fires the identical
  // event sequence (same rules at the same virtual timestamps).
  const SimHealthRun again = run_sim_checkpoint(1.0 * MiB);
  ASSERT_EQ(again.events.size(), slow.events.size());
  for (std::size_t i = 0; i < slow.events.size(); ++i) {
    EXPECT_EQ(again.events[i].rule, slow.events[i].rule);
    EXPECT_EQ(again.events[i].ts_ns, slow.events[i].ts_ns);
  }

  // A fast backend (10 GiB/s) never congests: no events at all.
  const SimHealthRun fast = run_sim_checkpoint(10.0 * GiB);
  EXPECT_EQ(fast.events.size(), 0u);
}

// ------------------------------------------------------------ sim engine

TEST(SimTrace, VirtualTimeSpansShareTheSchema) {
  sim::Simulation sim;
  sim.enable_tracing();
  sim.trace_complete("write", 0, 0.001, 0.003);
  sim.trace_complete("pwrite", 101, 0.002, 0.010);
  const auto& events = sim.trace_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts_ns, 1000000u);  // 1 ms of virtual time
  EXPECT_EQ(events[0].dur_ns, 2000000u);

  const std::string json = obs::to_chrome_json(events);
  auto parsed = obs::json::parse(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get("traceEvents")->array->size(), 2u);

  // Disabled by default: spans are dropped.
  sim::Simulation quiet;
  quiet.trace_complete("write", 0, 0.0, 1.0);
  EXPECT_TRUE(quiet.trace_events().empty());
}

// ------------------------------------------------- causal trace chains

TEST(CausalTrace, ChunkChainStitchesAcrossThreads) {
  auto fs = run_checkpoint(/*tracing=*/true);
  const auto events = fs->trace().snapshot();
  ASSERT_FALSE(events.empty());

  // Group spans by causal id: every traced chunk must show its app-side
  // birth ("write", recorded by the writer thread) and its IO-side
  // stages ("queue"/"submit"/"pwrite", retro-recorded by the worker) —
  // the cross-thread stitch is exactly these ids matching.
  std::unordered_map<std::uint64_t, std::vector<std::string>> chains;
  for (const auto& ev : events) {
    if (ev.trace_id != 0) chains[ev.trace_id].emplace_back(ev.name);
  }
  ASSERT_FALSE(chains.empty());
  bool full_chain = false;
  bool io_side = false;
  for (const auto& [id, names] : chains) {
    const auto has = [&](const char* n) {
      return std::find(names.begin(), names.end(), n) != names.end();
    };
    if (has("queue")) io_side = true;
    if (has("write") && has("queue") && has("pwrite")) full_chain = true;
  }
  EXPECT_TRUE(io_side);
  EXPECT_TRUE(full_chain);

  // IO-side spans carry the interned file path as their tag.
  bool tagged = false;
  for (const auto& ev : events) {
    if (std::string(ev.name) == "pwrite" && ev.tag != nullptr &&
        std::string(ev.tag).find("rank") != std::string::npos) {
      tagged = true;
    }
  }
  EXPECT_TRUE(tagged);

  // Ids are attached to the Chrome export as span args.
  const std::string json = obs::to_chrome_json(events);
  EXPECT_NE(json.find("\"trace_id\":"), std::string::npos);
}

TEST(TraceCollector, DroppedCountsOverwrittenSpans) {
  obs::TraceCollector collector(/*ring_capacity=*/8);
  collector.set_enabled(true);
  obs::TraceRing& ring = collector.ring();
  for (std::uint64_t i = 0; i < 20; ++i) ring.record("x", i, 1);
  EXPECT_EQ(collector.dropped(), 12u);  // 20 recorded, 8 retained
  EXPECT_EQ(collector.snapshot().size(), 8u);
}

// --------------------------------------------- tail-latency forensics

TEST(SlowStore, ThresholdGateAndBoundedRing) {
  obs::SlowStore store(/*capacity=*/2, /*threshold_ns=*/1'000'000);
  EXPECT_FALSE(store.over_threshold(999'999, 0));
  EXPECT_TRUE(store.over_threshold(1'000'000, 0));       // lag trips it
  EXPECT_TRUE(store.over_threshold(0, 2'000'000));       // pwrite time trips it
  for (std::uint64_t id = 1; id <= 3; ++id) {
    obs::SlowExemplar ex;
    ex.trace_id = id;
    ex.path = "f" + std::to_string(id);
    store.capture(std::move(ex));
  }
  EXPECT_EQ(store.size(), 2u);       // bounded: oldest evicted
  EXPECT_EQ(store.captured(), 3u);   // lifetime total survives eviction
  const auto snap = store.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.front().trace_id, 2u);
  EXPECT_EQ(snap.back().trace_id, 3u);

  // 0 disables the gate entirely.
  store.set_threshold_ns(0);
  EXPECT_FALSE(store.over_threshold(~std::uint64_t{0}, ~std::uint64_t{0}));

  auto doc = obs::json::parse(store.to_json());
  ASSERT_TRUE(doc.has_value());
  EXPECT_DOUBLE_EQ(doc->get("capacity")->number, 2.0);
  EXPECT_DOUBLE_EQ(doc->get("captured")->number, 3.0);
  ASSERT_NE(doc->get("exemplars"), nullptr);
  EXPECT_EQ(doc->get("exemplars")->array->size(), 2u);
}

TEST(SlowStoreMount, ThrottledBackendCapturesFullCausalChain) {
  // 16 MiB/s backend: each 256 KiB chunk pwrite takes ~16 ms against a
  // 5 ms capture threshold, so every chunk becomes an exemplar. Tracing
  // is on so the exemplar ids can be matched against the span chains.
  Config cfg;
  cfg.chunk_size = 256 * KiB;
  cfg.pool_size = 1 * MiB;
  cfg.io_threads = 1;
  cfg.enable_tracing = true;
  cfg.slow_capture_ms = 5;
  auto fs = Crfs::mount(
      std::make_shared<ThrottledBackend>(std::make_shared<MemBackend>(), 16.0 * MiB),
      cfg);
  ASSERT_TRUE(fs.ok());
  {
    FuseShim shim(*fs.value(), FuseOptions{});
    auto h = shim.open("slow.ckpt", {.create = true, .truncate = true, .write = true});
    ASSERT_TRUE(h.ok());
    std::vector<std::byte> record(64 * KiB, std::byte{7});
    for (std::size_t off = 0; off < MiB; off += record.size()) {
      ASSERT_TRUE(shim.write(h.value(), record, off).ok());
    }
    ASSERT_TRUE(shim.fsync(h.value()).ok());
    ASSERT_TRUE(shim.close(h.value()).ok());
  }

  const auto exemplars = fs.value()->slow_store().snapshot();
  ASSERT_FALSE(exemplars.empty());
  for (const auto& ex : exemplars) {
    EXPECT_GT(ex.trace_id, 0u);
    EXPECT_EQ(ex.path, "slow.ckpt");
    // Monotone stamp chain, copy-in -> durable.
    EXPECT_GT(ex.born_ns, 0u);
    EXPECT_GE(ex.enqueue_ns, ex.born_ns);
    EXPECT_GE(ex.dequeue_ns, ex.enqueue_ns);
    EXPECT_GE(ex.submit_ns, ex.dequeue_ns);
    EXPECT_GT(ex.durable_ns, ex.submit_ns);
    // Disjoint stages telescope back to the total lag.
    EXPECT_EQ(ex.fill_ns + ex.queue_ns + ex.submit_wait_ns + ex.device_ns,
              ex.total_lag_ns);
    EXPECT_GE(ex.fill_ns, ex.pool_stall_ns);  // fill = stall + copy residency
    EXPECT_GE(ex.device_ns, 5'000'000u);      // the throttle is the culprit
  }

  // The exemplar ids resolve against the span chains: the same id appears
  // on the app-side "write" span and the worker-side "queue" span.
  const auto events = fs.value()->trace().snapshot();
  std::unordered_map<std::uint64_t, std::vector<std::string>> chains;
  for (const auto& ev : events) {
    if (ev.trace_id != 0) chains[ev.trace_id].emplace_back(ev.name);
  }
  bool stitched = false;
  for (const auto& ex : exemplars) {
    auto it = chains.find(ex.trace_id);
    if (it == chains.end()) continue;
    const auto has = [&](const char* n) {
      return std::find(it->second.begin(), it->second.end(), n) != it->second.end();
    };
    if (has("write") && has("queue")) stitched = true;
  }
  EXPECT_TRUE(stitched);

  // Self-health surfaces: lifetime capture counter and occupancy gauge.
  const auto snap = fs.value()->metrics().snapshot();
  std::uint64_t captured = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "crfs.slow.captured") captured = v;
  }
  EXPECT_EQ(captured, fs.value()->slow_store().captured());
  bool saw_gauge = false;
  for (const auto& [name, v] : snap.gauges) {
    if (name == "crfs.slow.exemplars") {
      saw_gauge = true;
      EXPECT_EQ(static_cast<std::size_t>(v), exemplars.size());
    }
    if (name == "crfs.trace.dropped_spans") EXPECT_GE(v, 0);
  }
  EXPECT_TRUE(saw_gauge);

  // And the store is part of the stats_json schema.
  auto doc = obs::json::parse(fs.value()->stats_json());
  ASSERT_TRUE(doc.has_value());
  const auto* slow = doc->get("slow");
  ASSERT_TRUE(slow != nullptr && slow->is_object());
  EXPECT_GT(slow->get("exemplars")->array->size(), 0u);
}

// ------------------------------------------ sim mirror: slow exemplars

struct SimSlowRun {
  std::string slow_json;
  std::vector<obs::SlowExemplar> exemplars;
  std::vector<obs::EpochRecord> epochs;
};

SimSlowRun run_sim_slow_checkpoint() {
  sim::Simulation sim;
  sim::Calibration cal;
  FixedRateBackend backend(sim, 1.0 * MiB);  // 1 MiB chunk = 1 virtual second
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 4 * MiB;
  cfg.io_threads = 1;
  cfg.slow_capture_ms = 100;  // every 1 s device write trips it
  sim::CrfsSimNode node(sim, cal, backend, /*node=*/0, cfg, FuseOptions{}, /*ppn=*/1);
  node.epoch_begin("sim-ckpt");
  node.start();
  sim.spawn(drive_sim_checkpoint(node, 4 * MiB));
  sim.run();
  node.epoch_end();
  return {node.slow_json(), node.slow_store().snapshot(), node.epochs()};
}

TEST(SimSlowExemplars, DeterministicChainsAreByteIdenticalAcrossReplays) {
  const SimSlowRun a = run_sim_slow_checkpoint();
  ASSERT_FALSE(a.exemplars.empty());
  for (const auto& ex : a.exemplars) {
    EXPECT_GT(ex.trace_id, 0u);
    EXPECT_GE(ex.enqueue_ns, ex.born_ns);
    EXPECT_GE(ex.dequeue_ns, ex.enqueue_ns);
    EXPECT_GE(ex.submit_ns, ex.dequeue_ns);
    EXPECT_GT(ex.durable_ns, ex.submit_ns);
    EXPECT_EQ(ex.fill_ns + ex.queue_ns + ex.submit_wait_ns + ex.device_ns,
              ex.total_lag_ns);
    EXPECT_GE(ex.device_ns, 900'000'000u);  // ~1 virtual second per chunk
  }
  // Byte-identical replay: same workload, same virtual clock, same ids.
  const SimSlowRun b = run_sim_slow_checkpoint();
  EXPECT_EQ(a.slow_json, b.slow_json);
}

TEST(SimEpochStages, CriticalPathDecompositionTracksWallTime) {
  // Single-chunk epoch on one worker: the chunk's stages are the epoch's
  // critical path, so copy + stall + queue + submit + device must land
  // within 5% of the epoch's wall time (the §IV-C barrier overlaps the
  // device stage and is reported beside the sum, not inside it).
  sim::Simulation sim;
  sim::Calibration cal;
  FixedRateBackend backend(sim, 1.0 * MiB);
  Config cfg;
  cfg.chunk_size = 1 * MiB;
  cfg.pool_size = 4 * MiB;
  cfg.io_threads = 1;
  sim::CrfsSimNode node(sim, cal, backend, /*node=*/0, cfg, FuseOptions{}, /*ppn=*/1);
  node.epoch_begin("one-chunk");
  node.start();
  sim.spawn(drive_sim_checkpoint(node, 1 * MiB));
  sim.run();
  node.epoch_end();

  const auto records = node.epochs();
  ASSERT_EQ(records.size(), 1u);
  const obs::EpochRecord& rec = records.front();
  EXPECT_EQ(rec.chunks, 1u);
  const double wall_ns = static_cast<double>(rec.end_ns - rec.start_ns);
  ASSERT_GT(wall_ns, 0.0);
  const double stage_sum =
      static_cast<double>(rec.copy_ns + rec.pool_stall_ns + rec.queue_residency_ns +
                          rec.submit_wait_ns + rec.device_ns);
  EXPECT_NEAR(stage_sum, wall_ns, wall_ns * 0.05);
  EXPECT_GT(rec.device_ns, 900'000'000u);  // the 1 s backend write dominates
  EXPECT_GT(rec.barrier_ns, 0u);           // close blocked on the §IV-C drain
}

// ------------------------------------------------ mount counters = registry

// The registry is the only counter store: after a workload that reopens,
// partial-flushes, bypasses and reads, every numeric stats_json "mount"
// key equals the registry counter it is rendered from.
TEST(MountCounters, StatsJsonMountKeysEqualRegistryCounters) {
  Config cfg;
  cfg.chunk_size = 16 * KiB;
  cfg.pool_size = 4 * 16 * KiB;
  auto fs = Crfs::mount(std::make_shared<MemBackend>(), cfg);
  ASSERT_TRUE(fs.ok());
  Crfs& crfs = *fs.value();

  auto h1 = crfs.open("f.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h1.ok());
  auto h2 = crfs.open("f.bin", {.create = false, .truncate = false, .write = true});
  ASSERT_TRUE(h2.ok());  // reopen
  const std::vector<std::byte> small(100, std::byte{1});
  ASSERT_TRUE(crfs.write(h1.value(), small, 0).ok());
  ASSERT_TRUE(crfs.write(h1.value(), small, 5000).ok());  // non-contiguous: partial flush
  ASSERT_TRUE(crfs.close(h2.value()).ok());
  ASSERT_TRUE(crfs.close(h1.value()).ok());
  auto h3 = crfs.open("big.bin", {.create = true, .truncate = true, .write = true});
  ASSERT_TRUE(h3.ok());
  const std::vector<std::byte> big(cfg.chunk_size, std::byte{2});
  ASSERT_TRUE(crfs.write(h3.value(), big, 0).ok());  // chunk-sized: bypass
  std::vector<std::byte> buf(64);
  ASSERT_TRUE(crfs.read(h3.value(), buf, 0).ok());
  ASSERT_TRUE(crfs.close(h3.value()).ok());

  const std::map<std::string, std::string> source = {
      {"app_writes", "crfs.mount.app_writes"},
      {"app_bytes", "crfs.mount.app_bytes"},
      {"full_flushes", "crfs.mount.full_flushes"},
      {"partial_flushes", "crfs.mount.partial_flushes"},
      {"reopens", "crfs.mount.reopens"},
      {"chunk_steals", "crfs.mount.chunk_steals"},
      {"bypass_writes", "crfs.mount.bypass_writes"},
      {"reads", "crfs.read.ops"},
      {"read_bytes", "crfs.read.bytes"}};
  auto parsed = obs::json::parse(crfs.stats_json());
  ASSERT_TRUE(parsed.has_value());
  const auto* mount = parsed->get("mount");
  ASSERT_NE(mount, nullptr);
  std::size_t numeric = 0;
  for (const auto& [key, value] : *mount->object) {
    if (!value.is_number()) continue;
    ++numeric;
    ASSERT_EQ(source.count(key), 1u) << "unmapped mount key " << key;
    EXPECT_EQ(value.number,
              static_cast<double>(crfs.metrics().counter(source.at(key)).value()))
        << key;
  }
  EXPECT_EQ(numeric, source.size());
  // The workload reached every path it claims to.
  for (const char* key : {"reopens", "partial_flushes", "bypass_writes", "reads"}) {
    EXPECT_GT(mount->get(key)->number, 0.0) << key;
  }
  EXPECT_EQ(mount->get("app_writes")->number, 3.0);
  EXPECT_EQ(mount->get("read_bytes")->number, 64.0);
}

// --------------------------------------------------------- telemetry plane

// Decodes a journal directory into per-type frame counts.
std::map<obs::FrameType, int> frame_counts(const std::string& dir) {
  std::map<obs::FrameType, int> out;
  for (const auto& rec : obs::JournalReader::read_dir(dir).records) out[rec.type] += 1;
  return out;
}

// On virtual time the plane journals every finished epoch and captured
// exemplar exactly once (on the tick after it appears, or at finish), and
// flushes only on sample timestamps.
TEST(ObsPlane, VirtualTimeJournalsEachEpochAndExemplarOnce) {
  const std::string dir = ::testing::TempDir() + "crfs_plane_vt_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  Config cfg;
  cfg.journal_dir = dir;
  cfg.slow_capture_ms = 1;
  std::uint64_t now = 1'000'000;
  obs::Plane plane(cfg, [&now] { return now; }, obs::Plane::TimeBase::kVirtual);
  ASSERT_NE(plane.journal(), nullptr);
  ASSERT_NE(plane.epochs(), nullptr);
  EXPECT_EQ(plane.slo(), nullptr);
  obs::Sampler sampler(plane.metrics());

  const auto capture = [&plane](std::uint64_t durable_ns) {
    obs::SlowExemplar ex;
    ex.durable_ns = durable_ns;
    ex.total_lag_ns = 5'000'000;
    plane.slow().capture(std::move(ex));
  };
  plane.epochs()->begin("one", now);
  now += 10'000'000;
  plane.epochs()->end(now);
  capture(now);
  plane.on_sample(sampler.tick(now));
  plane.on_sample(sampler.tick(now + 1'000'000));  // nothing new: no frames
  auto counts = frame_counts(dir);
  EXPECT_EQ(counts[obs::FrameType::kEpoch], 1);
  EXPECT_EQ(counts[obs::FrameType::kSlow], 1);
  EXPECT_EQ(counts[obs::FrameType::kSample], 2);

  // finish(): the open epoch is finalized, then it and the trailing
  // exemplar are journaled, and the journal is flushed.
  plane.epochs()->begin("two", now);
  capture(now + 2'000'000);
  bool settled = false;
  plane.finish(now + 3'000'000, [&] {
    settled = true;
    EXPECT_EQ(plane.epochs()->total_finalized(), 2u);  // finalized before settle
  });
  EXPECT_TRUE(settled);
  counts = frame_counts(dir);
  EXPECT_EQ(counts[obs::FrameType::kEpoch], 2);
  EXPECT_EQ(counts[obs::FrameType::kSlow], 2);
  const auto meta = obs::json::parse(obs::JournalReader::read_dir(dir).meta_json);
  ASSERT_TRUE(meta.has_value());
  EXPECT_DOUBLE_EQ(meta->get("crfs_journal")->number, 1.0);
  std::filesystem::remove_all(dir);
}

// The event listener journals every event; events pushed from several
// threads each reach the journal exactly once (TSan covers the listener).
TEST(ObsPlane, EventsReachJournalFromManyThreads) {
  const std::string dir = ::testing::TempDir() + "crfs_plane_ev_" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  Config cfg;
  cfg.journal_dir = dir;
  cfg.event_capacity = 16;
  {
    obs::Plane plane(cfg, obs::now_ns, obs::Plane::TimeBase::kWall);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&plane, t] {
        for (int i = 0; i < 25; ++i) {
          obs::Event ev;
          ev.rule = "t" + std::to_string(t);
          ev.ts_ns = obs::now_ns();
          plane.events().push(std::move(ev));
        }
      });
    }
    for (auto& th : threads) th.join();
    plane.finish(obs::now_ns());
  }
  EXPECT_EQ(frame_counts(dir)[obs::FrameType::kEvent], 100);
  std::filesystem::remove_all(dir);
}

// The plane's own knobs tune the plane's sinks, identically on both sides.
TEST(ObsPlane, OwnKnobsTuneSlowStoreAndEpochGap) {
  Config cfg;
  cfg.epoch_tracking = false;
  obs::Plane plane(cfg, obs::now_ns, obs::Plane::TimeBase::kWall);
  const auto defs = plane.knobs().defs();
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].name, "epoch_gap_ms");
  EXPECT_EQ(defs[1].name, "slow_capture_ms");
  EXPECT_TRUE(plane.knobs().tune("slow_capture_ms", 7).ok());
  EXPECT_TRUE(plane.slow().over_threshold(7'000'000, 0));
  EXPECT_FALSE(plane.slow().over_threshold(6'999'999, 0));
  const TuneResult gap = plane.knobs().tune("epoch_gap_ms", 50);
  EXPECT_EQ(gap.outcome, "vetoed");
  EXPECT_NE(gap.reason.find("no_epochs"), std::string::npos);
  // No epochs: the shared sections still carry the epoch keys.
  std::string out = "{\"x\":0";
  plane.append_sections(out);
  out += "}";
  auto parsed = obs::json::parse(out);
  ASSERT_TRUE(parsed.has_value()) << out;
  EXPECT_TRUE(parsed->get("epochs")->is_array());
  EXPECT_DOUBLE_EQ(parsed->get("epochs_completed")->number, 0.0);
  EXPECT_FALSE(parsed->get("journal")->get("enabled")->boolean);
}

}  // namespace
}  // namespace crfs
