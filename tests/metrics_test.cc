// Tests for the observability layer: striped counter/gauge/histogram
// merge correctness (including under a concurrent writer fleet — the
// ThreadSanitizer target for this subsystem), histogram bucket edges,
// deterministic trace spans under a ManualClock, ring-buffer eviction,
// and the locked determinism contract: instrumentation toggled on or off
// must not move a single digest bit.
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "search/engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "tests/test_helpers.h"
#include "topicmodel/inference.h"
#include "util/deadline.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace toppriv::util {
namespace {

using toppriv::testing::World;

// Every test gets a private registry so the process-wide Default() (which
// product instrumentation writes to) never leaks state across tests.
class MetricsTest : public ::testing::Test {
 protected:
  MetricsRegistry registry_;
};

TEST_F(MetricsTest, CounterSumsAcrossStripes) {
  Counter* c = registry_.GetCounter("c");
  EXPECT_EQ(c->Sum(), 0u);
  c->Add(5);
  c->Increment();
  EXPECT_EQ(c->Sum(), 6u);
  c->Reset();
  EXPECT_EQ(c->Sum(), 0u);
}

TEST_F(MetricsTest, RegistryReturnsStablePointers) {
  Counter* a = registry_.GetCounter("same");
  Counter* b = registry_.GetCounter("same");
  EXPECT_EQ(a, b);
  EXPECT_NE(registry_.GetCounter("other"), a);
  // First registration wins for histogram bounds.
  Histogram* h = registry_.GetHistogram("h", {1, 2, 3});
  Histogram* again = registry_.GetHistogram("h", {10, 20});
  EXPECT_EQ(h, again);
  EXPECT_EQ(again->bounds(), (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(MetricsTest, ConcurrentWritersLoseNoIncrements) {
  // The striped write path's core claim: relaxed per-stripe adds merge to
  // the exact total. 8 threads x 100k increments, no locks anywhere.
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  Counter* c = registry_.GetCounter("concurrent");
  Gauge* g = registry_.GetGauge("level");
  Histogram* h = registry_.GetHistogram("obs", {10, 100});
  std::vector<std::thread> writers;
  for (size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c->Add(1);
        h->Observe(t);
      }
      g->Add(1);
      g->Add(-1);
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(c->Sum(), kThreads * kPerThread);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_GE(g->Peak(), 1);
  Histogram::Snapshot snap = h->Snap();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  // Every observed value (thread index 0..7) lands in the <=10 bucket.
  EXPECT_EQ(snap.counts[0], kThreads * kPerThread);
}

TEST_F(MetricsTest, GaugeTracksPeakWatermark) {
  Gauge* g = registry_.GetGauge("queue");
  g->Add(3);
  g->Add(4);   // level 7, peak 7
  g->Add(-5);  // level 2
  g->Add(1);   // level 3: below the watermark, peak stays
  EXPECT_EQ(g->Value(), 3);
  EXPECT_EQ(g->Peak(), 7);
  g->Set(100);
  EXPECT_EQ(g->Peak(), 100);
  g->Set(1);
  EXPECT_EQ(g->Peak(), 100);
}

TEST_F(MetricsTest, HistogramBucketBoundariesAreUpperInclusive) {
  Histogram* h = registry_.GetHistogram("lat", {10, 100, 1000});
  h->Observe(0);     // <= 10
  h->Observe(10);    // <= 10 (inclusive edge)
  h->Observe(11);    // <= 100
  h->Observe(100);   // <= 100 (inclusive edge)
  h->Observe(1000);  // <= 1000
  h->Observe(1001);  // overflow
  h->Observe(~0ull); // overflow
  Histogram::Snapshot snap = h->Snap();
  ASSERT_EQ(snap.counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 2u);
  EXPECT_EQ(snap.counts[2], 1u);
  EXPECT_EQ(snap.counts[3], 2u);
  EXPECT_EQ(snap.count, 7u);
  EXPECT_EQ(snap.sum, 0u + 10 + 11 + 100 + 1000 + 1001 + ~0ull);
}

TEST_F(MetricsTest, ExponentialBucketLadders) {
  EXPECT_EQ(ExponentialBuckets(1, 2, 4), (std::vector<uint64_t>{1, 2, 4, 8}));
  // The canonical ladders are strictly increasing (Observe's scan relies
  // on it) and sized as documented.
  for (const std::vector<uint64_t>* ladder :
       {&LatencyBucketsUs(), &CountBuckets()}) {
    for (size_t i = 1; i < ladder->size(); ++i) {
      EXPECT_LT((*ladder)[i - 1], (*ladder)[i]);
    }
  }
  EXPECT_EQ(LatencyBucketsUs().size(), 12u);
  EXPECT_EQ(CountBuckets().front(), 1u);
  EXPECT_EQ(CountBuckets().back(), 1024u);
}

TEST_F(MetricsTest, SnapshotAndJsonExportCoverEveryMetric) {
  registry_.GetCounter("a")->Add(2);
  registry_.GetGauge("b")->Set(-3);
  registry_.GetHistogram("c", {1})->Observe(1);
  MetricsRegistry::Snapshot snap = registry_.Snap();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "a");
  EXPECT_EQ(snap.counters[0].value, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -3);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].snap.count, 1u);

  JsonWriter w;
  registry_.ExportJson(&w);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"a\":2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);

  registry_.ResetAll();
  EXPECT_EQ(registry_.Snap().counters[0].value, 0u);
  EXPECT_EQ(registry_.Snap().histograms[0].snap.count, 0u);
}

// ------------------------------------------------------------------ traces --

TEST(TraceTest, NestedSpansAreDeterministicUnderManualClock) {
  ManualClock clock;
  TraceSink sink(/*capacity=*/16, &clock);
  {
    TraceSpan root(&sink, "cycle");
    clock.Advance(10);
    {
      TraceSpan child(&sink, "query");
      clock.Advance(5);
      {
        TraceSpan grandchild(&sink, "segment");
        clock.Advance(1);
      }
      clock.Advance(2);
    }
    clock.Advance(3);
  }
  std::vector<TraceEvent> events = sink.Events();
  // Completion order: deepest first, root last.
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "segment");
  EXPECT_EQ(events[1].name, "query");
  EXPECT_EQ(events[2].name, "cycle");
  // Ids are allocated in creation order starting at 1; all three spans
  // share the root's trace id; parent links reconstruct the nesting.
  EXPECT_EQ(events[2].span_id, 1u);
  EXPECT_EQ(events[1].span_id, 2u);
  EXPECT_EQ(events[0].span_id, 3u);
  for (const TraceEvent& e : events) EXPECT_EQ(e.trace_id, 1u);
  EXPECT_EQ(events[2].parent_id, 0u);  // root
  EXPECT_EQ(events[1].parent_id, 1u);
  EXPECT_EQ(events[0].parent_id, 2u);
  // ManualClock timestamps, bit-exact.
  EXPECT_EQ(events[2].start_nanos, 0);
  EXPECT_EQ(events[2].end_nanos, 21);
  EXPECT_EQ(events[1].start_nanos, 10);
  EXPECT_EQ(events[1].end_nanos, 18);
  EXPECT_EQ(events[0].start_nanos, 15);
  EXPECT_EQ(events[0].end_nanos, 16);
  // Parent intervals contain child intervals.
  EXPECT_LE(events[2].start_nanos, events[1].start_nanos);
  EXPECT_GE(events[2].end_nanos, events[1].end_nanos);
}

TEST(TraceTest, SiblingRootsStartFreshTraces) {
  ManualClock clock;
  TraceSink sink(8, &clock);
  { TraceSpan a(&sink, "first"); }
  { TraceSpan b(&sink, "second"); }
  std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].parent_id, 0u);
  EXPECT_EQ(events[1].parent_id, 0u);
  EXPECT_NE(events[0].trace_id, events[1].trace_id);
}

TEST(TraceTest, RingEvictsOldestAndCountsDrops) {
  ManualClock clock;
  TraceSink sink(2, &clock);
  for (int i = 0; i < 5; ++i) {
    TraceSpan s(&sink, i % 2 == 0 ? "even" : "odd");
  }
  std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(sink.dropped(), 3u);
  // Oldest-first: spans 4 and 5 survive.
  EXPECT_EQ(events[0].span_id, 4u);
  EXPECT_EQ(events[1].span_id, 5u);
  sink.Clear();
  EXPECT_TRUE(sink.Events().empty());
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceTest, NullSinkIsInert) {
  // The default production state: no global sink, spans cost nothing and
  // record nothing. Must not crash, allocate ids, or touch any clock.
  TraceSpan orphan(nullptr, "nothing");
  EXPECT_EQ(orphan.span_id(), 0u);
  EXPECT_EQ(orphan.trace_id(), 0u);
}

TEST(TraceTest, JsonExportNestsSpansByParentId) {
  ManualClock clock;
  TraceSink sink(8, &clock);
  {
    TraceSpan root(&sink, "root");
    clock.Advance(2);
    TraceSpan child(&sink, "child");
    clock.Advance(1);
  }
  JsonWriter w;
  sink.ExportJson(&w);
  const std::string json = w.str();
  EXPECT_NE(json.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"child\""), std::string::npos);
  EXPECT_NE(json.find("\"parent_id\":1"), std::string::npos);  // child -> root
  EXPECT_NE(json.find("\"start_ns\":2"), std::string::npos);
}

TEST(TraceTest, ConcurrentSpansKeepPerThreadNesting) {
  // Many threads open root+child spans against one sink. Ids interleave
  // (allocation is global) but every child must link to ITS thread's root
  // and inherit its trace id — the thread-local stack does not leak across
  // threads. Also the TSan workout for Record's ring buffer.
  ManualClock clock;
  TraceSink sink(4096, &clock);
  constexpr size_t kThreads = 8;
  constexpr size_t kSpansPerThread = 64;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (size_t i = 0; i < kSpansPerThread; ++i) {
        TraceSpan root(&sink, "root");
        TraceSpan child(&sink, "child");
        EXPECT_EQ(child.trace_id(), root.trace_id());
      }
    });
  }
  for (std::thread& t : workers) t.join();
  std::vector<TraceEvent> events = sink.Events();
  ASSERT_EQ(events.size(), kThreads * kSpansPerThread * 2);
  EXPECT_EQ(sink.dropped(), 0u);
  std::set<uint64_t> span_ids;
  std::set<uint64_t> root_ids;
  for (const TraceEvent& e : events) {
    EXPECT_TRUE(span_ids.insert(e.span_id).second) << "duplicate span id";
    if (e.parent_id == 0) root_ids.insert(e.span_id);
  }
  for (const TraceEvent& e : events) {
    if (e.parent_id != 0) {
      // A child's parent is a real root and its trace id is that root.
      EXPECT_TRUE(root_ids.count(e.parent_id));
      EXPECT_EQ(e.trace_id, e.parent_id);
    }
  }
}

// ------------------------------------------------------- determinism gate --

serving::ServingReport RunDriver() {
  topicmodel::LdaInferencer inferencer(World().model);
  search::SearchEngine engine(World().corpus, World().index,
                              search::MakeBm25Scorer());
  std::vector<std::vector<text::TermId>> queries;
  for (size_t i = 0; i < 6; ++i) {
    queries.push_back(World().workload[i].term_ids);
  }
  serving::DriverOptions options;
  options.num_threads = 2;
  options.seed = 7;
  serving::SessionDriver driver(World().model, inferencer, engine, options);
  return driver.Run(serving::DealSessions(queries, 3));
}

TEST(MetricsDeterminismTest, DigestsIdenticalWithInstrumentationOnAndOff) {
  // The contract every instrumentation site must honor: metrics and traces
  // observe the request path without perturbing it. Run the serving driver
  // fully instrumented (registry enabled + a live global trace sink), then
  // fully quiesced — the per-session digests must be bit-identical, and
  // under a TOPPRIV_METRICS=ON build the instrumented run must actually
  // have recorded something (the test would pass vacuously otherwise).
  MetricsRegistry& registry = MetricsRegistry::Default();
  const bool was_enabled = registry.enabled();

  registry.set_enabled(true);
  TraceSink sink(1 << 16);
  TraceSink::SetGlobal(&sink);
  serving::ServingReport instrumented = RunDriver();
  TraceSink::SetGlobal(nullptr);

  registry.set_enabled(false);
  serving::ServingReport quiesced = RunDriver();
  registry.set_enabled(was_enabled);

  ASSERT_EQ(instrumented.sessions.size(), quiesced.sessions.size());
  for (size_t s = 0; s < instrumented.sessions.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(instrumented.sessions[s].digest, quiesced.sessions[s].digest);
    EXPECT_EQ(instrumented.sessions[s].exposure_after_sum,
              quiesced.sessions[s].exposure_after_sum);
  }

#ifdef TOPPRIV_METRICS
  // Non-vacuity: the instrumented run recorded cycles and spans.
  uint64_t cycles = 0;
  for (const auto& c : registry.Snap().counters) {
    if (c.name == "serving.cycles") cycles = c.value;
  }
  EXPECT_GT(cycles, 0u);
  EXPECT_FALSE(sink.Events().empty());
  // Spans nest: at least one serving.query under a serving.cycle.
  bool found_child = false;
  for (const TraceEvent& e : sink.Events()) {
    if (e.name == "serving.query" && e.parent_id != 0) found_child = true;
  }
  EXPECT_TRUE(found_child);
#endif
}

TEST(MetricsDeterminismTest, RuntimeDisableStopsRecording) {
  MetricsRegistry& registry = MetricsRegistry::Default();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(false);
  TOPPRIV_COUNTER_ADD("metrics_test.disabled_counter", 100);
  registry.set_enabled(true);
  TOPPRIV_COUNTER_ADD("metrics_test.disabled_counter", 1);
  registry.set_enabled(was_enabled);
  uint64_t value = 0;
  bool registered = false;
  for (const auto& c : registry.Snap().counters) {
    if (c.name == "metrics_test.disabled_counter") {
      value = c.value;
      registered = true;
    }
  }
#ifdef TOPPRIV_METRICS
  ASSERT_TRUE(registered);
  EXPECT_EQ(value, 1u);  // only the enabled-time add landed
#else
  EXPECT_FALSE(registered);  // macros compiled away entirely
  EXPECT_EQ(value, 0u);
#endif
}

}  // namespace
}  // namespace toppriv::util
