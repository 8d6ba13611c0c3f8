// Tests for the multi-session serving layer: thread-count-independent
// results, session independence, workload dealing, and the mixed
// read/write phase (concurrent sessions over a live SearchEngine while the
// corpus streams in).
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "tests/test_helpers.h"
#include "topicmodel/inference.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace toppriv::serving {
namespace {

using toppriv::testing::World;

class SessionDriverTest : public ::testing::Test {
 protected:
  SessionDriverTest()
      : inferencer_(World().model),
        engine_(World().corpus, World().index, search::MakeBm25Scorer()) {}

  std::vector<SessionWorkload> MakeSessions(size_t num_sessions,
                                            size_t queries_each) {
    std::vector<std::vector<text::TermId>> queries;
    for (size_t i = 0; i < num_sessions * queries_each; ++i) {
      queries.push_back(World().workload[i % World().workload.size()].term_ids);
    }
    return DealSessions(queries, num_sessions);
  }

  ServingReport RunWith(size_t num_threads,
                        const std::vector<SessionWorkload>& sessions,
                        uint64_t seed = 7) {
    DriverOptions options;
    options.num_threads = num_threads;
    options.seed = seed;
    SessionDriver driver(World().model, inferencer_, engine_, options);
    return driver.Run(sessions);
  }

  topicmodel::LdaInferencer inferencer_;
  search::SearchEngine engine_;
};

TEST_F(SessionDriverTest, RunsEverySessionAndQuery) {
  std::vector<SessionWorkload> sessions = MakeSessions(3, 2);
  ServingReport report = RunWith(1, sessions);
  ASSERT_EQ(report.sessions.size(), 3u);
  EXPECT_EQ(report.total_cycles, 6u);
  for (const SessionStats& s : report.sessions) {
    EXPECT_EQ(s.cycles, 2u);
    // Every cycle submits at least the genuine query.
    EXPECT_GE(s.queries_submitted, s.cycles);
    EXPECT_EQ(s.queries_submitted, s.cycles + s.ghosts);
    EXPECT_NE(s.digest, 0u);
  }
  EXPECT_EQ(report.total_queries,
            report.sessions[0].queries_submitted +
                report.sessions[1].queries_submitted +
                report.sessions[2].queries_submitted);
  EXPECT_GT(report.cycles_per_second, 0.0);
}

TEST_F(SessionDriverTest, ResultsIndependentOfThreadCount) {
  // The tentpole determinism property: per-session output must not depend
  // on how many workers the driver uses or which worker ran which session.
  std::vector<SessionWorkload> sessions = MakeSessions(5, 2);
  ServingReport one = RunWith(1, sessions);
  ServingReport four = RunWith(4, sessions);
  ServingReport hw = RunWith(0, sessions);  // hardware concurrency
  ASSERT_EQ(one.sessions.size(), four.sessions.size());
  ASSERT_EQ(one.sessions.size(), hw.sessions.size());
  for (size_t s = 0; s < one.sessions.size(); ++s) {
    SCOPED_TRACE(s);
    EXPECT_EQ(one.sessions[s].digest, four.sessions[s].digest);
    EXPECT_EQ(one.sessions[s].digest, hw.sessions[s].digest);
    EXPECT_EQ(one.sessions[s].cycles, four.sessions[s].cycles);
    EXPECT_EQ(one.sessions[s].queries_submitted,
              four.sessions[s].queries_submitted);
    EXPECT_EQ(one.sessions[s].ghosts, four.sessions[s].ghosts);
    EXPECT_EQ(one.sessions[s].met_epsilon2, four.sessions[s].met_epsilon2);
    // Bit-identical, not approximately equal: same RNG stream, same FP ops.
    EXPECT_EQ(one.sessions[s].exposure_after_sum,
              four.sessions[s].exposure_after_sum);
  }
}

TEST_F(SessionDriverTest, SessionsHaveIndependentRandomness) {
  // Two sessions given the SAME queries must produce different cycles
  // (forked RNG streams), else ghost traffic would be trivially linkable.
  std::vector<std::vector<text::TermId>> queries = {
      World().workload[0].term_ids, World().workload[0].term_ids};
  std::vector<SessionWorkload> sessions = DealSessions(queries, 2);
  ASSERT_EQ(sessions[0].queries, sessions[1].queries);
  ServingReport report = RunWith(1, sessions);
  EXPECT_NE(report.sessions[0].digest, report.sessions[1].digest);
}

TEST_F(SessionDriverTest, SeedChangesOutput) {
  std::vector<SessionWorkload> sessions = MakeSessions(2, 2);
  ServingReport a = RunWith(1, sessions, 7);
  ServingReport b = RunWith(1, sessions, 8);
  EXPECT_NE(a.sessions[0].digest, b.sessions[0].digest);
}

TEST_F(SessionDriverTest, RepeatedRunsAreIdentical) {
  std::vector<SessionWorkload> sessions = MakeSessions(2, 2);
  ServingReport a = RunWith(2, sessions);
  ServingReport b = RunWith(2, sessions);
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    EXPECT_EQ(a.sessions[s].digest, b.sessions[s].digest);
  }
}

// Registry totals of the per-cycle privacy metrics (0 when never observed).
struct PrivacyTotals {
  uint64_t exposure_observations = 0;
  uint64_t ghost_observations = 0;
  uint64_t eps2_unmet = 0;
};

PrivacyTotals ReadPrivacyTotals() {
  PrivacyTotals totals;
  const util::MetricsRegistry::Snapshot snap =
      util::MetricsRegistry::Default().Snap();
  for (const auto& c : snap.counters) {
    if (c.name == "toppriv.eps2_unmet") totals.eps2_unmet = c.value;
  }
  for (const auto& h : snap.histograms) {
    if (h.name == "toppriv.exposure_after_bp") {
      totals.exposure_observations = h.snap.count;
    } else if (h.name == "toppriv.ghosts_per_cycle") {
      totals.ghost_observations = h.snap.count;
    }
  }
  return totals;
}

TEST_F(SessionDriverTest, PrivacyMetricsCountEveryServedCycle) {
  std::vector<SessionWorkload> sessions = MakeSessions(3, 4);
  DriverOptions options;
  options.num_threads = 1;
  options.seed = 7;
  // One ghost per cycle leaves some cycles above epsilon2, so the unmet
  // counter has something to count.
  options.spec.fixed_ghost_count = 1;
  SessionDriver driver(World().model, inferencer_, engine_, options);

  const PrivacyTotals before = ReadPrivacyTotals();
  const ServingReport closed = driver.Run(sessions);
  const PrivacyTotals mid = ReadPrivacyTotals();
  size_t unmet = 0;
  for (const SessionStats& s : closed.sessions) {
    unmet += s.cycles - s.met_epsilon2;
  }
  EXPECT_GT(unmet, 0u);

  // On one thread each arrival is served before the next is admitted, so
  // none is shed or degraded, and arrival i serves session i % 3's next
  // query: the closed loop's cycles again, on the same RNG streams.
  OpenLoopOptions open;
  open.arrival_qps = 1e6;
  open.num_arrivals = closed.total_cycles;
  const OpenLoopReport report = driver.RunOpenLoop(sessions, open);
  const PrivacyTotals after = ReadPrivacyTotals();
  ASSERT_EQ(report.admitted, closed.total_cycles);
  ASSERT_EQ(report.degraded_admissions, 0u);

#ifdef TOPPRIV_METRICS
  const uint64_t served[] = {closed.total_cycles, report.admitted};
#else
  const uint64_t served[] = {0, 0};
  unmet = 0;
#endif
  const PrivacyTotals* windows[][2] = {{&before, &mid}, {&mid, &after}};
  for (size_t i = 0; i < 2; ++i) {
    const PrivacyTotals& from = *windows[i][0];
    const PrivacyTotals& to = *windows[i][1];
    EXPECT_EQ(to.exposure_observations - from.exposure_observations,
              served[i])
        << (i == 0 ? "Run" : "RunOpenLoop");
    EXPECT_EQ(to.ghost_observations - from.ghost_observations, served[i]);
    EXPECT_EQ(to.eps2_unmet - from.eps2_unmet, unmet);
  }
}

// The mixed read/write phase: a session fleet serves ghost-query cycles
// over a live SearchEngine WHILE a writer streams the rest of the corpus in
// (with background merges on a shared pool) — the live-traffic scenario
// the static engines cannot model, and the serving-side ThreadSanitizer
// target for the new subsystem. Mid-stream results depend on snapshot
// timing (inherently schedule-dependent), so the deterministic assertion
// is convergence: once ingest completes, a fresh driver run over the live
// engine produces digests bit-identical to the same driver over the
// static engine.
TEST(LiveServingTest, MixedIngestAndServingConvergesToStaticDigests) {
  const auto& world = World();
  topicmodel::LdaInferencer inferencer(world.model);

  util::ThreadPool merge_pool(2);
  index::live::LiveIndexOptions live_options;
  live_options.max_writer_docs = 64;
  live_options.merge_pool = &merge_pool;
  index::live::LiveIndex live(live_options);
  live.EnsureTermSpace(world.corpus.vocabulary_size());

  // Half the corpus is ingested up-front, the rest streams during serving.
  const size_t upfront = world.corpus.num_documents() / 2;
  std::vector<std::vector<text::TermId>> batch;
  for (size_t d = 0; d < upfront; ++d) {
    batch.push_back(world.corpus.documents()[d].tokens);
  }
  live.Ingest(batch);
  live.Refresh();

  search::SearchEngine engine(world.corpus, live, search::MakeBm25Scorer());
  std::vector<std::vector<text::TermId>> queries;
  for (size_t i = 0; i < 8; ++i) {
    queries.push_back(world.workload[i % world.workload.size()].term_ids);
  }
  std::vector<SessionWorkload> sessions = DealSessions(queries, 4);

  DriverOptions options;
  options.num_threads = 4;
  options.seed = 33;
  SessionDriver driver(world.model, inferencer, engine, options);

  std::thread writer([&] {
    index::live::StreamCorpus(world.corpus, upfront,
                              world.corpus.num_documents(), /*batch_size=*/20,
                              &live);
  });
  ServingReport mixed = driver.Run(sessions);  // races the writer by design
  writer.join();
  live.WaitForMerges();
  live.Refresh();
  EXPECT_EQ(mixed.sessions.size(), 4u);
  EXPECT_GT(mixed.total_queries, 0u);

  // Post-convergence determinism: live vs static digests, bit for bit.
  search::SearchEngine static_engine(world.corpus, world.index,
                                     search::MakeBm25Scorer());
  SessionDriver static_driver(world.model, inferencer, static_engine, options);
  SessionDriver live_driver(world.model, inferencer, engine, options);
  ServingReport want = static_driver.Run(sessions);
  ServingReport got = live_driver.Run(sessions);
  ASSERT_EQ(got.sessions.size(), want.sessions.size());
  for (size_t s = 0; s < got.sessions.size(); ++s) {
    EXPECT_EQ(got.sessions[s].digest, want.sessions[s].digest) << s;
    EXPECT_EQ(got.sessions[s].queries_submitted,
              want.sessions[s].queries_submitted);
  }
}

TEST(DealSessionsTest, RoundRobinAssignment) {
  std::vector<std::vector<text::TermId>> queries = {
      {0}, {1}, {2}, {3}, {4}};
  std::vector<SessionWorkload> sessions = DealSessions(queries, 2);
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].queries,
            (std::vector<std::vector<text::TermId>>{{0}, {2}, {4}}));
  EXPECT_EQ(sessions[1].queries,
            (std::vector<std::vector<text::TermId>>{{1}, {3}}));
}

TEST(DealSessionsTest, MoreSessionsThanQueriesLeavesSomeEmpty) {
  std::vector<std::vector<text::TermId>> queries = {{0}};
  std::vector<SessionWorkload> sessions = DealSessions(queries, 3);
  ASSERT_EQ(sessions.size(), 3u);
  EXPECT_EQ(sessions[0].queries.size(), 1u);
  EXPECT_TRUE(sessions[1].queries.empty());
  EXPECT_TRUE(sessions[2].queries.empty());
}

}  // namespace
}  // namespace toppriv::serving
