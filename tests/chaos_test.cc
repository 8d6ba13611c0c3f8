// Deterministic chaos harness — scripted fault schedules composed across
// the failure-domain layers.
//
// Three fault planes, all deterministic (no wall clock, no real sleeps):
//
//  * storage:  util::FaultInjectingFileSystem fails/short-writes the n-th
//    filesystem op, degrading the LiveIndex (WAL self-healing under test);
//  * query:    search::FaultInjectingEngine fails/delays/hangs the n-th
//    evaluation, with virtual time on a shared util::ManualClock so a
//    "stuck shard" is a modelable event rather than a real hang;
//  * time:     util::Deadline built on the same ManualClock, so expiry is
//    a pure function of the fault schedule.
//
// The invariants asserted everywhere:
//  1. an ACCEPTED query returns results bit-identical to the no-fault run
//     (the deadline/fault machinery may reject work, never perturb it);
//  2. a REJECTED call carries a typed status (kDeadlineExceeded,
//     kUnavailable, kResourceExhausted) — no crashes, no empty-success
//     lies;
//  3. a degraded index refuses mutations with kUnavailable, keeps serving
//     reads, and Repair() returns it to Healthy with nothing acknowledged
//     lost.
//
// ChaosSmoke.* runs a FIXED schedule and compares an order-sensitive
// digest against a reference computed from the unwrapped engine — the
// Release CI step executes exactly that filter and fails on divergence.
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/corpus.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "index/sharded_index.h"
#include "search/engine.h"
#include "search/fault_injecting_engine.h"
#include "search/scorer.h"
#include "util/deadline.h"
#include "util/filesystem.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace toppriv {
namespace {

using index::InvertedIndex;
using index::ShardedIndex;
using index::live::DurabilityPolicy;
using index::live::LiveIndex;
using index::live::LiveIndexOptions;
using search::EngineFault;
using search::FaultInjectingEngine;
using search::ScoredDoc;
using util::Deadline;
using util::FaultInjectingFileSystem;
using util::ManualClock;
using FaultMode = util::FaultInjectingFileSystem::FaultMode;
using Doc = std::vector<text::TermId>;

constexpr char kDir[] = "db";

// ----------------------------------------------------------- tiny world --

Doc SynthDoc(util::Rng& rng, size_t vocab, size_t min_len = 3,
             size_t max_len = 9) {
  const size_t len = min_len + rng.UniformInt(uint64_t{max_len - min_len});
  Doc d;
  d.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    d.push_back(static_cast<text::TermId>(rng.UniformInt(uint64_t{vocab})));
  }
  return d;
}

corpus::Corpus SynthCorpus(size_t vocab, size_t num_docs, uint64_t seed) {
  util::Rng rng(seed);
  corpus::Corpus c;
  text::Vocabulary& v = c.mutable_vocabulary();
  for (size_t t = 0; t < vocab; ++t) v.AddTerm("t" + std::to_string(t));
  for (size_t d = 0; d < num_docs; ++d) {
    c.AddDocument("d" + std::to_string(d), SynthDoc(rng, vocab));
  }
  return c;
}

std::vector<Doc> SynthQueries(size_t vocab, size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Doc> queries;
  for (size_t q = 0; q < n; ++q) queries.push_back(SynthDoc(rng, vocab, 1, 4));
  return queries;
}

void ExpectBitIdentical(const std::vector<ScoredDoc>& got,
                        const std::vector<ScoredDoc>& want,
                        const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << context << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

uint64_t MixResults(uint64_t h, const std::vector<ScoredDoc>& docs) {
  for (const ScoredDoc& sd : docs) {
    h = util::Fnv1aStep(h, sd.doc);
    uint64_t bits;
    std::memcpy(&bits, &sd.score, sizeof(bits));
    h = util::Fnv1aStep(h, bits);
  }
  return h;
}

/// Current value of a process-wide counter (0 if never registered). The
/// chaos scenarios assert counter DELTAS across a fault schedule, so other
/// suites' traffic in the same binary cannot interfere.
uint64_t CounterNow(const std::string& name) {
  for (const auto& c : util::MetricsRegistry::Default().Snap().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

// ------------------------------------------------- query-plane schedules --

TEST(ChaosEngineTest, AcceptedCallsAreBitIdenticalRejectionsAreTyped) {
  const size_t vocab = 16;
  corpus::Corpus corpus = SynthCorpus(vocab, 24, 0xBEEF);
  InvertedIndex index = InvertedIndex::Build(corpus);
  search::SearchEngine inner(corpus, index, search::MakeBm25Scorer());
  ManualClock clock;
  FaultInjectingEngine chaos(&inner, &clock);
  const std::vector<Doc> queries = SynthQueries(vocab, 8, 0xF00D);
  const uint64_t faults_before = CounterNow("chaos.faults_injected");
  const uint64_t expired_before = CounterNow("search.deadline_exceeded");

  // Schedule: errors, a hang (expires any finite deadline), and a delay
  // short enough to make the deadline anyway.
  chaos.ScheduleFault({/*at_call=*/2, EngineFault::Kind::kError, 0});
  chaos.ScheduleFault({/*at_call=*/5, EngineFault::Kind::kHang, 0});
  EngineFault delay;
  delay.at_call = 9;
  delay.kind = EngineFault::Kind::kDelay;
  delay.delay_nanos = 2'000'000;  // 2ms against a 50ms deadline
  chaos.ScheduleFault(delay);

  size_t accepted = 0, unavailable = 0, expired = 0;
  for (size_t call = 0; call < 16; ++call) {
    const Doc& q = queries[call % queries.size()];
    Deadline deadline = Deadline::After(0.05, &clock);
    search::QueryOptions options;
    options.deadline = &deadline;
    auto result = chaos.EvaluateWithOptions(q, 5, options);
    const std::string context = "call=" + std::to_string(call);
    if (result.ok()) {
      ++accepted;
      // Invariant 1: the wrapper (and a survivable delay) never perturbs
      // an accepted query's results.
      ExpectBitIdentical(*result, inner.Evaluate(q, 5), context);
    } else if (result.status().code() == util::StatusCode::kUnavailable) {
      ++unavailable;
      EXPECT_EQ(call, 2u) << context;
    } else {
      ASSERT_EQ(result.status().code(),
                util::StatusCode::kDeadlineExceeded) << context;
      ++expired;
      EXPECT_EQ(call, 5u) << context;
    }
  }
  EXPECT_EQ(accepted, 14u);
  EXPECT_EQ(unavailable, 1u);
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(chaos.calls(), 16u);
  EXPECT_EQ(chaos.faults_fired(), 3u);
#ifdef TOPPRIV_METRICS
  // The observability layer saw the same story the statuses told: every
  // fired fault counted, and the hang's expiry recorded as a
  // deadline-exceeded rejection at the engine layer.
  EXPECT_EQ(CounterNow("chaos.faults_injected") - faults_before, 3u);
  EXPECT_EQ(CounterNow("search.deadline_exceeded") - expired_before, 1u);
#else
  (void)faults_before;
  (void)expired_before;
#endif

  // A hang under an INFINITE deadline still completes bit-identically —
  // the wrapper models lost time, never lost work.
  chaos.ScheduleFault({/*at_call=*/16, EngineFault::Kind::kHang, 0});
  auto result = chaos.EvaluateWithOptions(queries[0], 5, search::QueryOptions());
  ASSERT_TRUE(result.ok());
  ExpectBitIdentical(*result, inner.Evaluate(queries[0], 5), "infinite");
}

TEST(ChaosEngineTest, ExpiredDeadlineRejectsAcrossEveryEngineShape) {
  const size_t vocab = 16;
  corpus::Corpus corpus = SynthCorpus(vocab, 24, 0xBEEF);
  InvertedIndex index = InvertedIndex::Build(corpus);
  ShardedIndex sharded = ShardedIndex::Build(corpus, 3);
  LiveIndex live{LiveIndexOptions()};
  live.EnsureTermSpace(corpus.vocabulary().size());
  for (size_t d = 0; d < corpus.num_documents(); ++d) {
    live.Ingest({corpus.document(d).tokens});
  }
  live.Refresh();

  search::SearchEngine mono(corpus, index, search::MakeBm25Scorer());
  search::SearchEngine fanout(corpus, sharded, search::MakeBm25Scorer(), 2);
  search::SearchEngine over_live(corpus, live, search::MakeBm25Scorer());
  ManualClock clock;
  Deadline dead = Deadline::After(0.001, &clock);
  clock.Advance(2'000'000);  // 2ms past a 1ms deadline: expired before work
  search::QueryOptions options;
  options.deadline = &dead;
  const Doc query = {0, 1};
  for (search::QueryEngine* engine :
       std::initializer_list<search::QueryEngine*>{&mono, &fanout,
                                                   &over_live}) {
    auto result = engine->EvaluateWithOptions(query, 5, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDeadlineExceeded);
  }
  // The same engines, same query, no deadline: full parity.
  ExpectBitIdentical(*fanout.EvaluateWithOptions(query, 5, {}),
                     mono.Evaluate(query, 5), "fanout-parity");
  ExpectBitIdentical(*over_live.EvaluateWithOptions(query, 5, {}),
                     mono.Evaluate(query, 5), "live-parity");
}

TEST(ChaosEngineTest, ConcurrentFleetSurvivesScriptedFaults) {
  const size_t vocab = 16;
  corpus::Corpus corpus = SynthCorpus(vocab, 24, 0xBEEF);
  ShardedIndex sharded = ShardedIndex::Build(corpus, 3);
  search::SearchEngine inner(corpus, sharded, search::MakeBm25Scorer(),
                             /*num_threads=*/2);
  ManualClock clock;
  FaultInjectingEngine chaos(&inner, &clock);
  const std::vector<Doc> queries = SynthQueries(vocab, 8, 0xF00D);
  // Reference results per query, from the unwrapped engine.
  std::vector<std::vector<ScoredDoc>> want;
  for (const Doc& q : queries) want.push_back(inner.Evaluate(q, 5));

  constexpr size_t kThreads = 4;
  constexpr size_t kCallsPerThread = 25;
  constexpr size_t kTotalCalls = kThreads * kCallsPerThread;
  size_t scheduled = 0;
  for (uint64_t call = 0; call < kTotalCalls; ++call) {
    if (call % 11 == 4) {
      chaos.ScheduleFault({call, EngineFault::Kind::kError, 0});
      ++scheduled;
    } else if (call % 13 == 6) {
      chaos.ScheduleFault({call, EngineFault::Kind::kHang, 0});
      ++scheduled;
    }
  }

  // Which THREAD draws which fault is scheduling-dependent; the assertions
  // are per-call-outcome, so the test is race-proof: every accepted call
  // must be bit-identical FOR ITS QUERY, every rejection typed.
  std::vector<size_t> accepted(kThreads, 0), rejected(kThreads, 0);
  std::vector<std::thread> fleet;
  for (size_t w = 0; w < kThreads; ++w) {
    fleet.emplace_back([&, w] {
      for (size_t i = 0; i < kCallsPerThread; ++i) {
        const size_t qi = (w * kCallsPerThread + i) % queries.size();
        Deadline deadline = Deadline::After(0.05, &clock);
        search::QueryOptions options;
        options.deadline = &deadline;
        auto result = chaos.EvaluateWithOptions(queries[qi], 5, options);
        if (result.ok()) {
          ++accepted[w];
          ExpectBitIdentical(*result, want[qi],
                             "worker=" + std::to_string(w) +
                                 " call=" + std::to_string(i));
        } else {
          ++rejected[w];
          const util::StatusCode code = result.status().code();
          EXPECT_TRUE(code == util::StatusCode::kUnavailable ||
                      code == util::StatusCode::kDeadlineExceeded)
              << result.status().ToString();
        }
      }
    });
  }
  for (std::thread& t : fleet) t.join();
  size_t total_accepted = 0, total_rejected = 0;
  for (size_t w = 0; w < kThreads; ++w) {
    total_accepted += accepted[w];
    total_rejected += rejected[w];
  }
  EXPECT_EQ(chaos.calls(), kTotalCalls);
  EXPECT_EQ(chaos.faults_fired(), scheduled);
  // Every fault rejects its own call, and a hang's clock jump can ALSO
  // expire sibling in-flight deadlines (a wedged shard stalls the virtual
  // world — collateral expiry is the cancellation doing its job), so the
  // rejection count is bounded below by the schedule, not equal to it.
  EXPECT_GE(total_rejected, scheduled);
  EXPECT_EQ(total_accepted + total_rejected, kTotalCalls);
  EXPECT_GT(total_accepted, 0u);
}

// ----------------------------------------------- storage-plane schedules --

LiveIndexOptions DurableOptions() {
  LiveIndexOptions options;
  options.durability = DurabilityPolicy::kPerBatch;
  options.max_writer_docs = 4;
  options.merge_factor = 2;
  return options;
}

TEST(ChaosWalTest, DegradedIndexHealsAndLosesNothingAcknowledged) {
  FaultInjectingFileSystem fs;
  const LiveIndexOptions options = DurableOptions();
  const uint64_t degraded_before =
      CounterNow("live.health.degraded_transitions");
  const uint64_t repaired_before =
      CounterNow("live.health.repaired_transitions");
  auto live = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(live.ok()) << live.status().message();
  (*live)->EnsureTermSpace(16);
  auto first = (*live)->IngestChecked({{0, 1, 2}, {1, 2, 3}});
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->size(), 2u);
  EXPECT_EQ((*live)->health(), LiveIndex::Health::kHealthy);
  EXPECT_TRUE((*live)->last_error().ok());
  auto before = (*live)->Refresh();

  // The degrading event: the next WAL append dies.
  fs.ArmFault(0, FaultMode::kFailOp);
  auto doomed = (*live)->IngestChecked({{3, 4}});
  ASSERT_FALSE(doomed.ok());
  EXPECT_EQ(doomed.status().code(), util::StatusCode::kUnavailable);
  ASSERT_TRUE(fs.fault_fired());
  fs.DisarmFault();
  EXPECT_EQ((*live)->health(), LiveIndex::Health::kDegraded);
  EXPECT_FALSE((*live)->last_error().ok());
#ifdef TOPPRIV_METRICS
  // The Healthy->Degraded EDGE counted exactly once — the refused
  // mutations below re-latch the same error without re-counting.
  EXPECT_EQ(CounterNow("live.health.degraded_transitions") - degraded_before,
            1u);
#endif

  // Degraded: every mutation refused with a TYPED status, reads still
  // serve the pre-fault state.
  EXPECT_EQ((*live)->IngestChecked({{5}}).status().code(),
            util::StatusCode::kUnavailable);
  EXPECT_EQ((*live)->DeleteChecked(0).code(), util::StatusCode::kUnavailable);
  EXPECT_EQ((*live)->Acquire()->num_documents(), before->num_documents());

  // Repair: re-checkpoints memory into a fresh generation + empty WAL.
  ManualClock clock;
  util::RetryPolicy policy;
  const uint64_t degraded_generation = (*live)->wal_generation();
  ASSERT_TRUE((*live)->Repair(policy, &clock).ok());
  EXPECT_EQ((*live)->health(), LiveIndex::Health::kHealthy);
  EXPECT_GT((*live)->wal_generation(), degraded_generation);
#ifdef TOPPRIV_METRICS
  EXPECT_EQ(CounterNow("live.health.degraded_transitions") - degraded_before,
            1u);
  EXPECT_EQ(CounterNow("live.health.repaired_transitions") - repaired_before,
            1u);
#else
  (void)degraded_before;
  (void)repaired_before;
#endif
  // last_error is STICKY across repair — the post-mortem survives.
  EXPECT_FALSE((*live)->last_error().ok());
  EXPECT_TRUE((*live)->wal_status().ok());

  // Healed: mutations flow again, with exact semantics.
  auto again = (*live)->IngestChecked({{3, 4}});
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE((*live)->DeleteChecked(0).ok());
  EXPECT_EQ((*live)->DeleteChecked(999).code(), util::StatusCode::kNotFound);

  // The crash image after the whole ordeal recovers every acknowledged
  // mutation: docs {1,2,3} and {3,4} live, doc0 deleted, doomed batch out.
  live->reset();
  fs.PowerCut();
  auto recovered = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_TRUE((*recovered)->healthy());
  auto snapshot = (*recovered)->Refresh();
  EXPECT_EQ(snapshot->num_documents(), 2u);
  EXPECT_EQ(snapshot->DocFreq(1), 1u);   // only {1,2,3} carries term 1
  EXPECT_EQ(snapshot->DocFreq(4), 1u);   // only {3,4} carries term 4
  EXPECT_EQ(snapshot->DocFreq(0), 0u);   // doc0 deleted; doomed batch absent
  EXPECT_EQ(snapshot->DocFreq(3), 2u);
}

TEST(ChaosWalTest, RepairBacksOffDeterministicallyUntilTheDiskHeals) {
  FaultInjectingFileSystem fs;
  const LiveIndexOptions options = DurableOptions();
  auto live = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(live.ok());
  (*live)->EnsureTermSpace(8);
  ASSERT_TRUE((*live)->IngestChecked({{0, 1}, {1, 2}}).ok());

  fs.ArmFault(0, FaultMode::kFailOp);
  ASSERT_FALSE((*live)->IngestChecked({{2, 3}}).ok());
  ASSERT_TRUE(fs.fault_fired());
  fs.DisarmFault();

  // Doom the FIRST repair attempt too (the checkpoint's tmp write); the
  // one-shot fault then clears and the retry must succeed.
  fs.ArmFault(0, FaultMode::kFailOp);
  ManualClock clock;
  util::RetryPolicy policy;
  policy.max_attempts = 3;
  ASSERT_TRUE((*live)->Repair(policy, &clock).ok());
  EXPECT_EQ((*live)->health(), LiveIndex::Health::kHealthy);
  // Exactly one backoff sleep happened (before attempt 1), and its length
  // is the policy's deterministic jittered value — virtual time proves it.
  EXPECT_EQ(clock.NowNanos(), policy.BackoffNanos(0));

  // A healthy index repairs as a no-op; an in-memory one is refused.
  const uint64_t generation = (*live)->wal_generation();
  EXPECT_TRUE((*live)->Repair(policy, &clock).ok());
  EXPECT_EQ((*live)->wal_generation(), generation);
  LiveIndex in_memory{LiveIndexOptions()};
  EXPECT_EQ(in_memory.Repair(policy, &clock).code(),
            util::StatusCode::kFailedPrecondition);
}

TEST(ChaosWalTest, ConcurrentMutatorFleetDegradesCleanlyAndHeals) {
  constexpr size_t kThreads = 4;
  constexpr size_t kDocsPerThread = 24;
  const size_t vocab = kThreads * kDocsPerThread;
  FaultInjectingFileSystem fs;
  LiveIndexOptions options = DurableOptions();
  options.max_writer_docs = 8;
  auto live = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(live.ok());
  (*live)->EnsureTermSpace(vocab);

  // Storage fails partway through a 4-writer ingest storm. Writers record
  // which calls were acknowledged; acked ⊆ recovered is the contract, and
  // each doc's term is unique to (writer, i) so the final image proves
  // every call individually.
  fs.ArmFault(120, FaultMode::kFailOp);
  std::vector<std::vector<bool>> acked(kThreads,
                                       std::vector<bool>(kDocsPerThread));
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kThreads; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kDocsPerThread; ++i) {
        const text::TermId term =
            static_cast<text::TermId>(w * kDocsPerThread + i);
        auto r = (*live)->IngestChecked({{term, term}});
        if (r.ok()) {
          acked[w][i] = true;
        } else {
          EXPECT_EQ(r.status().code(), util::StatusCode::kUnavailable);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  fs.DisarmFault();
  ASSERT_TRUE(fs.fault_fired());
  EXPECT_EQ((*live)->health(), LiveIndex::Health::kDegraded);

  ManualClock clock;
  ASSERT_TRUE((*live)->Repair(util::RetryPolicy(), &clock).ok());
  EXPECT_EQ((*live)->health(), LiveIndex::Health::kHealthy);

  // After healing, every acknowledged write is present and queryable, and
  // post-repair traffic lands on top. A REFUSED write may also be present:
  // when the armed fault lands on the group-commit fsync (rather than an
  // append), the batch was already logged and applied before the sync
  // verdict, so the refusal is indeterminate — standard WAL semantics.
  // The contract is therefore acked ⊆ visible ⊆ submitted, not equality.
  auto extra = (*live)->IngestChecked({{0, 1, 2}});
  ASSERT_TRUE(extra.ok());
  auto snapshot = (*live)->Refresh();
  size_t total_acked = 0;
  for (size_t w = 0; w < kThreads; ++w) {
    for (size_t i = 0; i < kDocsPerThread; ++i) {
      const text::TermId term =
          static_cast<text::TermId>(w * kDocsPerThread + i);
      if (acked[w][i]) {
        ++total_acked;
        EXPECT_GE(snapshot->DocFreq(term), 1u) << "term " << term;
      }
    }
  }
  EXPECT_GE(snapshot->num_documents(), total_acked + 1);
  EXPECT_LE(snapshot->num_documents(), kThreads * kDocsPerThread + 1);

  // And the crash image agrees with the healed live image EXACTLY: Repair
  // re-checkpointed everything memory held and the post-repair batch was
  // acked per-batch, so the crash may neither lose nor resurrect a doc.
  const size_t live_docs = snapshot->num_documents();
  live->reset();
  fs.PowerCut();
  auto recovered = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->Refresh()->num_documents(), live_docs);
}

// --------------------------------------------------- fixed-schedule smoke --
// The Release CI job runs --gtest_filter=ChaosSmoke.* and fails the build
// on digest divergence. Single-threaded on purpose: the accepted set is a
// pure function of the schedule, so ONE digest covers results, statuses,
// fault accounting and the health state machine.

TEST(ChaosSmoke, FixedScheduleDigestMatchesNoFaultReference) {
  const size_t vocab = 16;
  corpus::Corpus corpus = SynthCorpus(vocab, 24, 0xBEEF);
  InvertedIndex index = InvertedIndex::Build(corpus);
  search::SearchEngine inner(corpus, index, search::MakeBm25Scorer());
  ManualClock clock;
  FaultInjectingEngine chaos(&inner, &clock);
  const std::vector<Doc> queries = SynthQueries(vocab, 8, 0xF00D);

  // The fixed schedule.
  chaos.ScheduleFault({3, EngineFault::Kind::kError, 0});
  chaos.ScheduleFault({7, EngineFault::Kind::kHang, 0});
  EngineFault delay;
  delay.at_call = 11;
  delay.kind = EngineFault::Kind::kDelay;
  delay.delay_nanos = 2'000'000;
  chaos.ScheduleFault(delay);
  chaos.ScheduleFault({15, EngineFault::Kind::kError, 0});

  constexpr size_t kCalls = 24;
  uint64_t digest = util::kFnv1aOffsetBasis;
  for (size_t call = 0; call < kCalls; ++call) {
    const Doc& q = queries[call % queries.size()];
    Deadline deadline = Deadline::After(0.05, &clock);
    search::QueryOptions options;
    options.deadline = &deadline;
    auto result = chaos.EvaluateWithOptions(q, 5, options);
    if (result.ok()) {
      digest = util::Fnv1aStep(digest, 1);
      digest = MixResults(digest, *result);
    } else {
      digest = util::Fnv1aStep(digest, 0);
      digest = util::Fnv1aStep(digest,
                               static_cast<uint64_t>(result.status().code()));
    }
  }
  EXPECT_EQ(chaos.calls(), kCalls);
  EXPECT_EQ(chaos.faults_fired(), 4u);

  // Reference: the unwrapped engine plus the schedule's known outcomes.
  uint64_t want = util::kFnv1aOffsetBasis;
  for (size_t call = 0; call < kCalls; ++call) {
    const Doc& q = queries[call % queries.size()];
    if (call == 3 || call == 15) {
      want = util::Fnv1aStep(want, 0);
      want = util::Fnv1aStep(
          want, static_cast<uint64_t>(util::StatusCode::kUnavailable));
    } else if (call == 7) {
      want = util::Fnv1aStep(want, 0);
      want = util::Fnv1aStep(
          want, static_cast<uint64_t>(util::StatusCode::kDeadlineExceeded));
    } else {
      want = util::Fnv1aStep(want, 1);
      want = MixResults(want, inner.Evaluate(q, 5));
    }
  }
  EXPECT_EQ(digest, want) << "chaos digest diverged from the no-fault "
                             "reference: an accepted query's bits changed "
                             "or a rejection lost its typed status";
}

TEST(ChaosSmoke, FixedStorageScheduleHealsToHealthy) {
  FaultInjectingFileSystem fs;
  const LiveIndexOptions options = DurableOptions();
  auto live = LiveIndex::Recover(&fs, kDir, options);
  ASSERT_TRUE(live.ok());
  (*live)->EnsureTermSpace(8);
  ASSERT_TRUE((*live)->IngestChecked({{0, 1}, {2, 3}}).ok());
  fs.ArmFault(0, FaultMode::kFailOp);
  ASSERT_EQ((*live)->IngestChecked({{4, 5}}).status().code(),
            util::StatusCode::kUnavailable);
  fs.DisarmFault();
  ASSERT_EQ((*live)->health(), LiveIndex::Health::kDegraded);
  ManualClock clock;
  ASSERT_TRUE((*live)->Repair(util::RetryPolicy(), &clock).ok());
  ASSERT_EQ((*live)->health(), LiveIndex::Health::kHealthy);
  ASSERT_TRUE((*live)->IngestChecked({{4, 5}}).ok());
  EXPECT_EQ((*live)->Refresh()->num_documents(), 3u);
}

}  // namespace
}  // namespace toppriv
