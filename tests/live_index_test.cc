// Parity/property suite for the live indexing subsystem.
//
// The contract under test: ingesting a corpus in ANY batch splits, with ANY
// interleaving of merges and deletes-then-reinserts, is INVISIBLE — the
// live SearchEngine returns bit-identical results to the monolithic engine
// over a static InvertedIndex::Build of the final collection, the
// snapshot's ComputeStats() equals the static build's exactly, snapshots
// are isolated from concurrent churn, and hostile serialized manifests die
// with clean errors instead of corrupting memory.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "tests/test_helpers.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace toppriv {
namespace {

using index::IndexStats;
using index::InvertedIndex;
using index::live::IndexSnapshot;
using index::live::LiveIndex;
using index::live::LiveIndexOptions;
using index::live::StableId;
using search::ScoredDoc;
using toppriv::testing::World;

using Doc = std::vector<text::TermId>;

std::unique_ptr<search::Scorer> MakeScorer(int which) {
  switch (which) {
    case 0:
      return search::MakeBm25Scorer();
    case 1:
      return search::MakeTfIdfScorer();
    default:
      return std::make_unique<search::LmDirichletScorer>();
  }
}

const search::EvalStrategy kStrategies[] = {search::EvalStrategy::kTAAT,
                                            search::EvalStrategy::kMaxScore};

void ExpectBitIdentical(const std::vector<ScoredDoc>& got,
                        const std::vector<ScoredDoc>& want,
                        const char* context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << context << " rank " << i;
    // Bit equality: the live engine runs the identical floating-point ops
    // in the identical order as the static engine.
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

void ExpectStatsEqual(const IndexStats& got, const IndexStats& want) {
  EXPECT_EQ(got.num_terms, want.num_terms);
  EXPECT_EQ(got.num_documents, want.num_documents);
  EXPECT_EQ(got.total_postings, want.total_postings);
  EXPECT_EQ(got.max_list_length, want.max_list_length);
  EXPECT_EQ(got.encoded_bytes, want.encoded_bytes);
  EXPECT_EQ(got.pir_padded_bytes, want.pir_padded_bytes);
  EXPECT_DOUBLE_EQ(got.avg_list_length, want.avg_list_length);
}

// A corpus holding exactly `docs` over a `vocab_size`-term vocabulary
// (synthetic surface forms; only ids matter to the index and engines).
corpus::Corpus CorpusFromDocs(size_t vocab_size, const std::vector<Doc>& docs) {
  corpus::Corpus c;
  text::Vocabulary& vocab = c.mutable_vocabulary();
  for (size_t t = 0; t < vocab_size; ++t) {
    vocab.AddTerm("t" + std::to_string(t));
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    c.AddDocument("d" + std::to_string(d), docs[d]);
  }
  return c;
}

std::vector<Doc> WorldDocs() {
  std::vector<Doc> docs;
  for (const corpus::Document& d : World().corpus.documents()) {
    docs.push_back(d.tokens);
  }
  return docs;
}

// Fan-out threads for the pooled parity dimension (each pooled engine owns
// a pool of this size).
constexpr size_t kEvalThreads = 3;

// THE parity check: the live index's current state must be
// indistinguishable — results (all scorers × both strategies × sequential
// and pooled per-segment scatter) and stats — from a static build of
// `final_docs`. MaxScore runs over the engine's cached per-segment impact
// bounds (queries after the first serve from the cache), so every call
// here also locks down cached-bounds parity.
void ExpectLiveMatchesStatic(LiveIndex& live, const std::vector<Doc>& final_docs,
                             size_t vocab_size,
                             const std::vector<Doc>& queries, size_t k,
                             const char* context) {
  corpus::Corpus expected = CorpusFromDocs(vocab_size, final_docs);
  InvertedIndex static_index = InvertedIndex::Build(expected);
  std::shared_ptr<const IndexSnapshot> snapshot = live.Refresh();
  ASSERT_EQ(snapshot->num_documents(), static_index.num_documents()) << context;
  ExpectStatsEqual(snapshot->ComputeStats(), static_index.ComputeStats());
  for (int scorer_kind = 0; scorer_kind < 3; ++scorer_kind) {
    for (search::EvalStrategy strategy : kStrategies) {
      search::SearchEngine mono(expected, static_index,
                                MakeScorer(scorer_kind), strategy);
      search::SearchEngine engine(expected, live, MakeScorer(scorer_kind),
                                  strategy);
      search::SearchEngine pooled(expected, live, MakeScorer(scorer_kind),
                                  strategy, kEvalThreads);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        SCOPED_TRACE(::testing::Message()
                     << context << " scorer=" << scorer_kind << " strategy="
                     << search::EvalStrategyName(strategy) << " query=" << qi);
        const std::vector<ScoredDoc> want = mono.Evaluate(queries[qi], k);
        ExpectBitIdentical(engine.Evaluate(queries[qi], k), want, context);
        ExpectBitIdentical(pooled.Evaluate(queries[qi], k), want, context);
      }
    }
  }
}

// Workload queries, optionally truncated (the full grid is expensive).
std::vector<Doc> WorldQueries(size_t limit) {
  std::vector<Doc> queries;
  const auto& workload = World().workload;
  for (size_t i = 0; i < workload.size() && i < limit; ++i) {
    queries.push_back(workload[i].term_ids);
  }
  return queries;
}

// ----------------------------------------------------------- bit parity --

TEST(LiveIndexTest, EmptyIndexAnswersNothing) {
  LiveIndex live;
  std::shared_ptr<const IndexSnapshot> snapshot = live.Acquire();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->num_documents(), 0u);
  corpus::Corpus empty = CorpusFromDocs(4, {});
  search::SearchEngine engine(empty, live, search::MakeBm25Scorer());
  EXPECT_TRUE(engine.Evaluate({0, 1}, 10).empty());
  EXPECT_TRUE(engine.Evaluate({}, 10).empty());
  EXPECT_TRUE(engine.Evaluate({0}, 0).empty());
}

TEST(LiveIndexParityTest, BatchSplitSchedulesMatchStaticBuild) {
  const std::vector<Doc> docs = WorldDocs();
  const size_t vocab = World().corpus.vocabulary_size();
  const std::vector<Doc> queries = WorldQueries(10);
  // Three deliberately different split schedules (the acceptance floor),
  // plus a seeded random one: whole-corpus, a prime stride that never
  // divides the corpus, and tiny batches that force many auto-seals.
  struct Schedule {
    const char* name;
    size_t batch;
    size_t max_writer_docs;
  };
  const Schedule schedules[] = {{"one-batch", docs.size(), 1u << 20},
                                {"prime-97", 97, 1u << 20},
                                {"tiny-7", 7, 32}};
  for (const Schedule& schedule : schedules) {
    SCOPED_TRACE(schedule.name);
    LiveIndexOptions options;
    options.max_writer_docs = schedule.max_writer_docs;
    LiveIndex live(options);
    live.EnsureTermSpace(vocab);
    for (size_t begin = 0; begin < docs.size(); begin += schedule.batch) {
      const size_t end = std::min(docs.size(), begin + schedule.batch);
      live.Ingest(std::vector<Doc>(docs.begin() + begin, docs.begin() + end));
      live.Refresh();  // every batch boundary becomes a snapshot boundary
    }
    EXPECT_GT(live.num_segments(), 0u);
    ExpectLiveMatchesStatic(live, docs, vocab, queries, 10, schedule.name);
  }
  // Random split sizes, still covering the whole corpus.
  util::Rng rng(271828);
  LiveIndex live;
  live.EnsureTermSpace(vocab);
  size_t begin = 0;
  while (begin < docs.size()) {
    const size_t batch = 1 + rng.UniformInt(uint64_t{60});
    const size_t end = std::min(docs.size(), begin + batch);
    live.Ingest(std::vector<Doc>(docs.begin() + begin, docs.begin() + end));
    if (rng.UniformInt(uint64_t{3}) == 0) live.Refresh();
    begin = end;
  }
  ExpectLiveMatchesStatic(live, docs, vocab, queries, 10, "random-splits");
}

TEST(LiveIndexParityTest, FullWorkloadParityAfterStreamedIngest) {
  // One schedule, the FULL workload, under the default strategy/scorer
  // pairing the serving layer uses most.
  const std::vector<Doc> docs = WorldDocs();
  const size_t vocab = World().corpus.vocabulary_size();
  LiveIndexOptions options;
  options.max_writer_docs = 64;
  LiveIndex live(options);
  live.EnsureTermSpace(vocab);
  for (size_t begin = 0; begin < docs.size(); begin += 41) {
    const size_t end = std::min(docs.size(), begin + 41);
    live.Ingest(std::vector<Doc>(docs.begin() + begin, docs.begin() + end));
    live.Refresh();
  }
  corpus::Corpus expected = CorpusFromDocs(vocab, docs);
  InvertedIndex static_index = InvertedIndex::Build(expected);
  search::SearchEngine mono(expected, static_index, search::MakeBm25Scorer());
  search::SearchEngine engine(expected, live, search::MakeBm25Scorer());
  for (size_t qi = 0; qi < World().workload.size(); ++qi) {
    SCOPED_TRACE(qi);
    ExpectBitIdentical(engine.Evaluate(World().workload[qi].term_ids, 10),
                       mono.Evaluate(World().workload[qi].term_ids, 10),
                       "full-workload");
  }
}

TEST(LiveIndexParityTest, TieredMergesPreserveParityAndBoundSegments) {
  const std::vector<Doc> docs = WorldDocs();
  const size_t vocab = World().corpus.vocabulary_size();
  LiveIndexOptions options;
  options.max_writer_docs = 16;
  options.merge_factor = 2;  // aggressive: merges cascade constantly
  LiveIndex live(options);
  live.EnsureTermSpace(vocab);
  for (size_t begin = 0; begin < docs.size(); begin += 10) {
    const size_t end = std::min(docs.size(), begin + 10);
    live.Ingest(std::vector<Doc>(docs.begin() + begin, docs.begin() + end));
    live.Refresh();
  }
  // 500 docs / 16-doc seals with factor-2 tiering: the policy must keep
  // the segment list logarithmic, not linear (~32 sealed segments raw).
  EXPECT_GT(live.num_segments(), 0u);
  EXPECT_LT(live.num_segments(), 12u);
  ExpectLiveMatchesStatic(live, docs, vocab, WorldQueries(10), 10, "tiered");

  live.ForceMerge();
  EXPECT_EQ(live.num_segments(), 1u);
  ExpectLiveMatchesStatic(live, docs, vocab, WorldQueries(10), 10,
                          "force-merged");
}

TEST(LiveIndexParityTest, DeleteThenReinsertMatchesStaticBuildOfFinalCorpus) {
  const std::vector<Doc> docs = WorldDocs();
  const size_t vocab = World().corpus.vocabulary_size();
  LiveIndexOptions options;
  options.max_writer_docs = 100;
  LiveIndex live(options);
  live.EnsureTermSpace(vocab);
  std::vector<StableId> ids = live.Ingest(docs);
  live.Refresh();

  // Delete a scatter of documents, force a merge mid-way (so some
  // tombstones are compacted away and some survive), then reinsert the
  // deleted documents' content — they re-enter at the END of the stable
  // order, exactly where a static build of the final corpus puts them.
  const size_t kDeleted[] = {0, 7, 99, 100, 255, 256, 257, 480, 499};
  std::vector<Doc> final_docs;
  for (size_t d = 0; d < docs.size(); ++d) {
    bool deleted = false;
    for (size_t x : kDeleted) deleted = deleted || x == d;
    if (!deleted) final_docs.push_back(docs[d]);
  }
  size_t half = 0;
  for (size_t x : kDeleted) {
    ASSERT_TRUE(live.Delete(ids[x])) << x;
    if (++half == 4) live.ForceMerge();  // compact the first four away
  }
  std::vector<Doc> reinserted;
  for (size_t x : kDeleted) reinserted.push_back(docs[x]);
  live.Ingest(reinserted);
  for (size_t x : kDeleted) final_docs.push_back(docs[x]);

  ExpectLiveMatchesStatic(live, final_docs, vocab, WorldQueries(10), 10,
                          "delete-reinsert");
}

// The cached-bounds protocol's hard edges, exercised through PERSISTENT
// engines whose caches live across the mutations (fresh engines per stage
// would never hold a stale table):
//   - a delete dropping a term's df to zero,
//   - EnsureTermSpace growth followed by docs using the new term ids,
//   - a merge commit swapping the segment list under cached tables
//     (df-neutral: the version must NOT move, yet the merge output's
//     tables recompute on first use via segment identity).
// Every stage checks all engines bit-identical against a static build of
// the stage's corpus, evaluating twice so the second call serves from the
// cache.
TEST(LiveIndexParityTest, DfVersionEdgesKeepCachedBoundsExact) {
  const size_t kFinalVocab = 12;
  // Long-lived corpus for the engines to borrow (the live engines score
  // from snapshots; the corpus only backs corpus() consumers, so the full
  // final vocabulary up-front is safe at every stage).
  corpus::Corpus host = CorpusFromDocs(kFinalVocab, {});

  LiveIndexOptions options;
  options.max_writer_docs = 2;  // small segments → many bound tables
  options.merge_factor = 4;
  LiveIndex live(options);
  live.EnsureTermSpace(8);

  search::SearchEngine seq_max(host, live, search::MakeBm25Scorer(),
                               search::EvalStrategy::kMaxScore);
  search::SearchEngine pooled_max(host, live, search::MakeBm25Scorer(),
                                  search::EvalStrategy::kMaxScore,
                                  kEvalThreads);
  search::SearchEngine taat(host, live, search::MakeBm25Scorer(),
                            search::EvalStrategy::kTAAT);

  std::vector<Doc> final_docs;  // mirror of the live collection
  auto check_stage = [&](size_t stage_vocab,
                         const std::vector<Doc>& queries,
                         const char* stage) {
    live.Refresh();
    corpus::Corpus expected = CorpusFromDocs(stage_vocab, final_docs);
    InvertedIndex static_index = InvertedIndex::Build(expected);
    search::SearchEngine mono(expected, static_index,
                              search::MakeBm25Scorer(),
                              search::EvalStrategy::kMaxScore);
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE(::testing::Message() << stage << " query=" << qi);
      const std::vector<ScoredDoc> want = mono.Evaluate(queries[qi], 8);
      // Twice: the first call (re)builds the stage's tables, the second
      // must serve them from the cache with identical results.
      ExpectBitIdentical(seq_max.Evaluate(queries[qi], 8), want, stage);
      ExpectBitIdentical(seq_max.Evaluate(queries[qi], 8), want, stage);
      ExpectBitIdentical(pooled_max.Evaluate(queries[qi], 8), want, stage);
      ExpectBitIdentical(taat.Evaluate(queries[qi], 8), want, stage);
    }
  };

  // Stage 0 — baseline: populate the collection and the bound caches.
  // Term 5 appears in exactly one document (doc "1"), so deleting that
  // document later drops df[5] to zero.
  const std::vector<Doc> baseline = {
      {0, 1, 2, 2}, {3, 5, 5, 1}, {2, 4, 0}, {1, 3, 3}, {4, 4, 2, 0}};
  std::vector<StableId> ids = live.Ingest(baseline);
  for (const Doc& d : baseline) final_docs.push_back(d);
  check_stage(8, {{1, 2}, {5}, {0, 3, 4}}, "baseline");

  // Stage 1 — delete the ONLY holder of term 5: df[5] 1 → 0. A cached
  // table treating term 5 as scoreable would disagree with the static
  // build where the term simply does not occur.
  const uint64_t v_baseline = live.Acquire()->df_version();
  ASSERT_TRUE(live.Delete(ids[1]));
  final_docs.erase(final_docs.begin() + 1);
  EXPECT_GT(live.Refresh()->df_version(), v_baseline)
      << "delete must bump the df-version";
  check_stage(8, {{1, 2}, {5}, {5, 3}, {0, 3, 4}}, "df-to-zero");

  // Stage 2 — grow the term space mid-stream and ingest docs carrying the
  // new ids: cached tables are too SHORT for the new vocabulary.
  const uint64_t v_delete = live.Acquire()->df_version();
  live.EnsureTermSpace(kFinalVocab);
  const std::vector<Doc> growth = {{9, 10, 1}, {11, 11, 2, 9}, {8, 0}};
  live.Ingest(growth);
  for (const Doc& d : growth) final_docs.push_back(d);
  EXPECT_GT(live.Refresh()->df_version(), v_delete)
      << "term-space growth must bump the df-version";
  check_stage(kFinalVocab, {{9, 11}, {1, 10}, {8, 2}, {0, 4, 11}}, "growth");

  // Stage 3 — merge: the doc set (and so every df) is untouched, the
  // version must NOT move, but the segment list the cached tables were
  // keyed to is swapped out wholesale. Identity keying makes the merge
  // output recompute on first use; results stay bit-identical.
  const uint64_t v_growth = live.Acquire()->df_version();
  ASSERT_GT(live.Acquire()->num_segments(), 1u);
  live.ForceMerge();
  std::shared_ptr<const IndexSnapshot> merged = live.Refresh();
  EXPECT_EQ(merged->df_version(), v_growth)
      << "a merge preserves the live doc set and must be df-neutral";
  EXPECT_EQ(merged->num_segments(), 1u);
  check_stage(kFinalVocab, {{9, 11}, {1, 10}, {5}, {0, 4, 11}}, "merged");
}

TEST(LiveIndexTest, DeleteSemantics) {
  corpus::Corpus tiny = toppriv::testing::TinyCorpus();
  std::vector<Doc> docs;
  for (const corpus::Document& d : tiny.documents()) docs.push_back(d.tokens);

  LiveIndexOptions options;
  options.max_writer_docs = 2;
  LiveIndex live(options);
  live.EnsureTermSpace(tiny.vocabulary_size());
  std::vector<StableId> ids = live.Ingest(docs);
  ASSERT_EQ(ids.size(), 4u);

  EXPECT_FALSE(live.Delete(99));        // never assigned
  EXPECT_TRUE(live.Delete(ids[1]));     // sealed segment
  EXPECT_FALSE(live.Delete(ids[1]));    // already tombstoned
  EXPECT_TRUE(live.Delete(ids[3]));     // still buffered: flush-then-delete
  live.ForceMerge();                    // compacts both tombstones away
  EXPECT_FALSE(live.Delete(ids[1]));    // gone entirely
  EXPECT_FALSE(live.Delete(ids[3]));

  std::shared_ptr<const IndexSnapshot> snapshot = live.Refresh();
  EXPECT_EQ(snapshot->num_documents(), 2u);
  // Survivors keep their stable identity through the merge.
  EXPECT_EQ(snapshot->ToStableId(0), ids[0]);
  EXPECT_EQ(snapshot->ToStableId(1), ids[2]);
}

TEST(LiveIndexTest, FullyTombstonedSegmentIsDropped) {
  corpus::Corpus tiny = toppriv::testing::TinyCorpus();
  std::vector<Doc> docs;
  for (const corpus::Document& d : tiny.documents()) docs.push_back(d.tokens);

  LiveIndexOptions options;
  options.max_writer_docs = 2;       // two docs per segment
  options.compact_deleted_ratio = 0.51;  // a half-dead segment survives...
  LiveIndex live(options);
  live.EnsureTermSpace(tiny.vocabulary_size());
  std::vector<StableId> ids = live.Ingest(docs);
  live.Refresh();
  ASSERT_EQ(live.num_segments(), 2u);
  // ...but a fully-dead one compacts to nothing.
  EXPECT_TRUE(live.Delete(ids[0]));
  EXPECT_TRUE(live.Delete(ids[1]));
  EXPECT_EQ(live.num_segments(), 1u);
  std::vector<Doc> final_docs = {docs[2], docs[3]};
  ExpectLiveMatchesStatic(live, final_docs, tiny.vocabulary_size(),
                          {{0}, {1}, {2}, {3}, {0, 2}}, 4, "drop-dead-segment");
}

// ---------------------------------------------------- snapshot isolation --

TEST(LiveIndexTest, SnapshotsAreIsolatedFromChurn) {
  const std::vector<Doc> docs = WorldDocs();
  const size_t vocab = World().corpus.vocabulary_size();
  LiveIndex live;
  live.EnsureTermSpace(vocab);
  std::vector<StableId> ids =
      live.Ingest(std::vector<Doc>(docs.begin(), docs.begin() + 300));
  std::shared_ptr<const IndexSnapshot> pinned = live.Refresh();

  corpus::Corpus expected =
      CorpusFromDocs(vocab, std::vector<Doc>(docs.begin(), docs.begin() + 300));
  search::SearchEngine engine(expected, live, search::MakeBm25Scorer());
  const std::vector<Doc> queries = WorldQueries(8);
  std::vector<std::vector<ScoredDoc>> before;
  for (const Doc& q : queries) before.push_back(engine.EvaluateOn(*pinned, q, 10));
  IndexStats stats_before = pinned->ComputeStats();

  // Churn: more ingest, deletes, merges, refreshes.
  live.Ingest(std::vector<Doc>(docs.begin() + 300, docs.end()));
  for (size_t x : {0u, 5u, 17u}) ASSERT_TRUE(live.Delete(ids[x]));
  live.Refresh();
  live.ForceMerge();

  // The pinned snapshot must not have moved a bit.
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(engine.EvaluateOn(*pinned, queries[i], 10), before[i],
                       "pinned-snapshot");
  }
  ExpectStatsEqual(pinned->ComputeStats(), stats_before);
  EXPECT_EQ(pinned->num_documents(), 300u);
  // While the current snapshot sees everything.
  EXPECT_EQ(live.Acquire()->num_documents(), docs.size() - 3);
}

// ----------------------------------------------------------- properties --

// Randomized delete/reinsert/merge schedules across 16 RNG streams: a
// reference model (the live docs in stable order) is maintained in
// parallel, and the live index must match a static build of the model at
// every checkpoint.
TEST(LiveIndexPropertyTest, RandomSchedulesAcross16Streams) {
  const size_t kVocab = 60;
  for (uint64_t stream = 0; stream < 16; ++stream) {
    SCOPED_TRACE(::testing::Message() << "stream=" << stream);
    util::Rng rng = util::Rng(977).Fork(stream);
    LiveIndexOptions options;
    options.max_writer_docs = 8;
    options.merge_factor = 2;  // constant merge churn
    LiveIndex live(options);
    live.EnsureTermSpace(kVocab);

    // Model: live (stable id, tokens) pairs in stable order.
    std::vector<std::pair<StableId, Doc>> model;
    std::vector<Doc> graveyard;  // content available for reinsertion

    auto random_doc = [&]() {
      Doc d;
      const size_t len = 2 + rng.UniformInt(uint64_t{10});
      for (size_t i = 0; i < len; ++i) {
        d.push_back(static_cast<text::TermId>(rng.UniformInt(uint64_t{kVocab})));
      }
      return d;
    };

    for (int op = 0; op < 140; ++op) {
      const uint64_t kind = rng.UniformInt(uint64_t{10});
      if (kind < 5 || model.empty()) {
        // Ingest a fresh batch.
        std::vector<Doc> batch;
        const size_t n = 1 + rng.UniformInt(uint64_t{6});
        for (size_t i = 0; i < n; ++i) batch.push_back(random_doc());
        std::vector<StableId> ids = live.Ingest(batch);
        for (size_t i = 0; i < batch.size(); ++i) {
          model.emplace_back(ids[i], batch[i]);
        }
      } else if (kind < 8) {
        // Delete a random live doc.
        const size_t pick = rng.UniformInt(uint64_t{model.size()});
        ASSERT_TRUE(live.Delete(model[pick].first));
        graveyard.push_back(model[pick].second);
        model.erase(model.begin() + pick);
      } else if (kind == 8 && !graveyard.empty()) {
        // Reinsert previously deleted content (fresh stable id, goes to
        // the end — the delete-then-reinsert pattern).
        const size_t pick = rng.UniformInt(uint64_t{graveyard.size()});
        Doc tokens = graveyard[pick];
        graveyard.erase(graveyard.begin() + pick);
        std::vector<StableId> ids = live.Ingest({tokens});
        model.emplace_back(ids[0], tokens);
      } else {
        if (rng.UniformInt(uint64_t{4}) == 0) {
          live.ForceMerge();
        } else {
          live.Refresh();
        }
      }
    }

    // Checkpoint: full parity against a static build of the model.
    std::vector<Doc> final_docs;
    for (const auto& [sid, tokens] : model) final_docs.push_back(tokens);
    std::vector<Doc> queries;
    for (int q = 0; q < 12; ++q) {
      Doc query;
      const size_t len = 1 + rng.UniformInt(uint64_t{4});
      for (size_t i = 0; i < len; ++i) {
        // Draw past the vocabulary now and then to hit empty lists.
        query.push_back(static_cast<text::TermId>(
            rng.UniformInt(uint64_t{kVocab + (q % 2 ? 10 : 0)})));
      }
      queries.push_back(query);
    }
    ExpectLiveMatchesStatic(live, final_docs, kVocab, queries, 7, "property");
  }
}

// -------------------------------------------------------- serialization --

// A small live index with multiple segments and a live tombstone, the
// baseline for the hostile-mutation tests.
std::string SmallLiveBlob() {
  corpus::Corpus tiny = toppriv::testing::TinyCorpus();
  LiveIndexOptions options;
  options.max_writer_docs = 2;
  options.compact_deleted_ratio = 1.1;  // keep tombstones in the manifest
  LiveIndex live(options);
  live.EnsureTermSpace(tiny.vocabulary_size());
  std::vector<Doc> docs;
  for (const corpus::Document& d : tiny.documents()) docs.push_back(d.tokens);
  std::vector<StableId> ids = live.Ingest(docs);
  live.Delete(ids[2]);
  return live.Serialize();
}

TEST(LiveIndexSerializationTest, RoundTripPreservesEverything) {
  std::string bytes = SmallLiveBlob();
  auto restored = LiveIndex::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // Byte-stable: re-serializing reproduces the identical blob.
  EXPECT_EQ((*restored)->Serialize(), bytes);

  corpus::Corpus tiny = toppriv::testing::TinyCorpus();
  std::vector<Doc> final_docs;
  for (size_t d = 0; d < tiny.num_documents(); ++d) {
    if (d != 2) final_docs.push_back(tiny.documents()[d].tokens);
  }
  ExpectLiveMatchesStatic(**restored, final_docs, tiny.vocabulary_size(),
                          {{0}, {1}, {2}, {3}, {0, 1, 2, 3}}, 4, "roundtrip");
  // The restored index keeps ingesting where the original left off.
  std::vector<StableId> ids = (*restored)->Ingest({{0, 2}});
  EXPECT_EQ(ids[0], 4u);
}

TEST(LiveIndexSerializationTest, FormatTagVersioning) {
  // Serialize leads with a format-version tag.
  const std::string tagged = SmallLiveBlob();
  util::BinaryReader reader(tagged);
  uint64_t tag = 0;
  ASSERT_TRUE(reader.ReadVarint(&tag).ok());
  EXPECT_EQ(tag, (uint64_t{1} << 32) | 1);

  // A pre-versioning blob (no tag) is refused: its leading num_terms is
  // not a format tag.
  const std::string legacy = tagged.substr(reader.position());
  auto from_legacy = LiveIndex::Deserialize(legacy);
  ASSERT_FALSE(from_legacy.ok());
  EXPECT_EQ(from_legacy.status().code(), util::StatusCode::kDataLoss);

  // A tag from a future format version is refused outright — never
  // misparsed as data.
  std::string future;
  util::AppendVarint((uint64_t{2} << 32) | 1, &future);
  future += legacy;
  auto result = LiveIndex::Deserialize(future);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexSerializationTest, TruncatedBlobsNeverCrash) {
  std::string bytes = SmallLiveBlob();
  ASSERT_TRUE(LiveIndex::Deserialize(bytes).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto result = LiveIndex::Deserialize(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut " << cut;
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss)
        << "cut " << cut;
  }
}

TEST(LiveIndexSerializationTest, TrailingBytesRejected) {
  std::string bytes = SmallLiveBlob() + "x";
  auto result = LiveIndex::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexSerializationTest, ByteFlipSweepNeverCrashes) {
  std::string bytes = SmallLiveBlob();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    LiveIndex::Deserialize(mutated);  // must not crash or OOM
  }
  SUCCEED();
}

// Hand-built hostile manifests. Layout mirrors LiveIndex::Serialize: a
// two-doc segment of TinyCorpus docs {0,1} re-framed with attacker-chosen
// manifest fields.
struct HostileParts {
  uint64_t num_terms = 4;
  uint64_t next_stable = 4;
  std::vector<uint64_t> seg1_stable_deltas = {0, 1};  // ids {0, 1}
  uint64_t seg1_begin = 0;
  std::vector<uint64_t> seg2_stable_deltas = {0, 1};  // ids {2, 3}
  uint64_t seg2_begin = 2;
  std::vector<uint64_t> tombstone_deltas;  // segment 2's deleted locals
};

std::string BuildHostileBlob(const HostileParts& parts) {
  corpus::Corpus tiny = toppriv::testing::TinyCorpus();
  // Two honest per-segment indexes: docs {0,1} and {2,3}.
  InvertedIndex seg1 = InvertedIndex::BuildRange(tiny, 0, 2);
  InvertedIndex seg2 = InvertedIndex::BuildRange(tiny, 2, 4);
  util::BinaryWriter w;
  w.WriteVarint((uint64_t{1} << 32) | 1);  // format tag
  w.WriteVarint(parts.num_terms);
  w.WriteVarint(parts.next_stable);
  w.WriteVarint(2);  // segments
  w.WriteVarint(parts.seg1_begin);
  w.WriteVarint(parts.seg1_stable_deltas.size());
  for (uint64_t d : parts.seg1_stable_deltas) w.WriteVarint(d);
  w.WriteVarint(0);  // no tombstones in segment 1
  w.WriteString(seg1.Serialize());
  w.WriteVarint(parts.seg2_begin);
  w.WriteVarint(parts.seg2_stable_deltas.size());
  for (uint64_t d : parts.seg2_stable_deltas) w.WriteVarint(d);
  w.WriteVarint(parts.tombstone_deltas.size());
  for (uint64_t d : parts.tombstone_deltas) w.WriteVarint(d);
  w.WriteString(seg2.Serialize());
  return w.data();
}

TEST(LiveIndexHostileTest, HonestHandBuiltBlobLoads) {
  ASSERT_TRUE(LiveIndex::Deserialize(BuildHostileBlob(HostileParts())).ok());
}

TEST(LiveIndexHostileTest, OverlappingSegmentRangesRejected) {
  HostileParts parts;
  parts.seg2_begin = 1;  // overlaps segment 1's ids {0, 1}
  auto result = LiveIndex::Deserialize(BuildHostileBlob(parts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, OutOfOrderSegmentRangesRejected) {
  HostileParts parts;
  parts.seg1_begin = 2;
  parts.seg2_begin = 0;  // second segment behind the first
  auto result = LiveIndex::Deserialize(BuildHostileBlob(parts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, NonAscendingStableIdsRejected) {
  HostileParts parts;
  parts.seg2_stable_deltas = {0, 0};  // duplicate stable id
  auto result = LiveIndex::Deserialize(BuildHostileBlob(parts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, StableIdBeyondDeclaredSpaceRejected) {
  HostileParts parts;
  parts.seg2_stable_deltas = {0, 7};  // id 9 >= next_stable 4
  auto result = LiveIndex::Deserialize(BuildHostileBlob(parts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, StaleTombstoneOutOfRangeRejected) {
  HostileParts parts;
  parts.tombstone_deltas = {5};  // local id 5 in a two-doc segment
  auto result = LiveIndex::Deserialize(BuildHostileBlob(parts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, StaleTombstoneDuplicateRejected) {
  HostileParts parts;
  parts.tombstone_deltas = {1, 0};  // local 1 twice (zero delta)
  auto result = LiveIndex::Deserialize(BuildHostileBlob(parts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, MoreTombstonesThanDocsRejected) {
  HostileParts parts;
  parts.tombstone_deltas = {0, 1, 1};  // three deletes, two docs
  auto result = LiveIndex::Deserialize(BuildHostileBlob(parts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, SegmentTermSpaceExceedingManifestRejected) {
  HostileParts parts;
  parts.num_terms = 2;  // segments genuinely hold 4 terms
  auto result = LiveIndex::Deserialize(BuildHostileBlob(parts));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, ImplausibleTermSpaceRejectedBeforeAlloc) {
  util::BinaryWriter w;
  w.WriteVarint(uint64_t{1} << 40);  // df table would be terabytes
  w.WriteVarint(0);
  w.WriteVarint(0);
  auto result = LiveIndex::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LiveIndexHostileTest, ZeroDocSegmentRejected) {
  util::BinaryWriter w;
  w.WriteVarint(4);  // terms
  w.WriteVarint(4);  // next stable
  w.WriteVarint(1);  // one segment
  w.WriteVarint(0);  // begin
  w.WriteVarint(0);  // zero docs
  auto result = LiveIndex::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

// ----------------------------------------------------------- edge cases --

TEST(LiveIndexTest, EmptyBatchIngestIsInvisible) {
  const std::vector<Doc> docs = {{0, 1}, {1, 2, 3}, {0, 3}};
  LiveIndexOptions options;
  options.max_writer_docs = 2;
  LiveIndex live(options);
  live.EnsureTermSpace(4);
  EXPECT_TRUE(live.Ingest({}).empty());  // empty batch on an empty index
  live.Ingest({docs[0]});
  EXPECT_TRUE(live.Ingest({}).empty());  // empty batch mid-stream
  live.Ingest({docs[1], docs[2]});
  EXPECT_TRUE(live.Ingest({}).empty());  // empty batch after an auto-seal
  EXPECT_EQ(live.next_stable_id(), 3u);  // no phantom ids were assigned
  ExpectLiveMatchesStatic(live, docs, 4, {{0}, {1}, {2}, {3}, {0, 1, 2, 3}}, 3,
                          "empty-batches");
}

TEST(LiveIndexTest, DeleteOfNeverIngestedIdIsRefusedWithoutDamage) {
  const std::vector<Doc> docs = {{0, 1}, {1, 2}};
  LiveIndex live;
  live.EnsureTermSpace(3);
  EXPECT_FALSE(live.Delete(0));  // nothing ingested yet
  std::vector<StableId> ids = live.Ingest(docs);
  EXPECT_FALSE(live.Delete(ids.back() + 1));    // one past the assigned space
  EXPECT_FALSE(live.Delete(ids.back() + 100));  // far past it
  ExpectLiveMatchesStatic(live, docs, 3, {{0}, {1}, {2}, {0, 1, 2}}, 2,
                          "bogus-deletes");
}

TEST(LiveIndexTest, FlushOnEmptyWriterIsIdempotent) {
  const std::vector<Doc> docs = {{0, 1, 2}, {2, 0}};
  LiveIndex live;
  live.EnsureTermSpace(3);
  live.Flush();  // nothing buffered: must not create a segment
  EXPECT_EQ(live.num_segments(), 0u);
  live.Ingest(docs);
  live.Flush();
  const size_t sealed = live.num_segments();
  live.Flush();  // writer already empty: segmentation must not change
  live.Flush();
  EXPECT_EQ(live.num_segments(), sealed);
  ExpectLiveMatchesStatic(live, docs, 3, {{0}, {1}, {2}, {0, 1, 2}}, 2,
                          "redundant-flushes");
}

// ---------------------------------------------------- snapshot lifetime --

// A snapshot is a self-contained refcounted view: dropping the LiveIndex
// that published it must leave every byte the snapshot points at alive.
// The ASan CI job turns any violation into a use-after-free report.
TEST(LiveIndexTest, SnapshotOutlivesItsLiveIndex) {
  const std::vector<Doc> docs = {{0, 1, 2}, {1, 2, 3}, {0, 3}, {2, 2, 1}};
  corpus::Corpus corpus_ref = CorpusFromDocs(4, docs);
  std::shared_ptr<const IndexSnapshot> snapshot;
  std::vector<ScoredDoc> before;
  IndexStats stats_before;
  auto live = std::make_unique<LiveIndex>();
  live->EnsureTermSpace(4);
  std::vector<StableId> ids = live->Ingest(docs);
  live->Delete(ids[1]);
  snapshot = live->Refresh();
  search::SearchEngine engine(corpus_ref, *live, search::MakeBm25Scorer());
  before = engine.EvaluateOn(*snapshot, {0, 1, 2, 3}, 4);
  stats_before = snapshot->ComputeStats();
  ASSERT_FALSE(before.empty());

  live.reset();  // the index dies; the snapshot must not care

  EXPECT_EQ(snapshot->num_documents(), 3u);
  ExpectStatsEqual(snapshot->ComputeStats(), stats_before);
  std::vector<ScoredDoc> after = engine.EvaluateOn(*snapshot, {0, 1, 2, 3}, 4);
  ExpectBitIdentical(after, before, "snapshot-outlives-index");
  for (const ScoredDoc& sd : after) {
    EXPECT_LT(snapshot->ToStableId(sd.doc), 4u);
    EXPECT_GT(snapshot->DocLength(sd.doc), 0u);
  }
}

// ------------------------------------------------------- mixed workload --

// Concurrent ingest + delete + merge + query: the race surface the
// ThreadSanitizer job exists for. Readers hammer the engine while a writer
// streams the corpus in and tombstones every 40th doc; the final state
// must equal the static build of the surviving docs.
TEST(LiveIndexConcurrencyTest, ConcurrentIngestQueryMergeIsSafeAndConverges) {
  const std::vector<Doc> docs = WorldDocs();
  const size_t vocab = World().corpus.vocabulary_size();
  util::ThreadPool merge_pool(2);
  LiveIndexOptions options;
  options.max_writer_docs = 32;
  options.merge_pool = &merge_pool;
  LiveIndex live(options);
  live.EnsureTermSpace(vocab);

  corpus::Corpus corpus_ref = CorpusFromDocs(vocab, docs);
  search::SearchEngine engine(corpus_ref, live, search::MakeBm25Scorer());
  const std::vector<Doc> queries = WorldQueries(12);

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::atomic<uint64_t> sink{0};
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      uint64_t local = 0;
      size_t qi = static_cast<size_t>(r);
      while (!done.load(std::memory_order_relaxed)) {
        std::vector<ScoredDoc> results =
            engine.Evaluate(queries[qi % queries.size()], 10);
        local += results.size();
        for (const ScoredDoc& sd : results) local += sd.doc;
        ++qi;
      }
      sink.fetch_add(local, std::memory_order_relaxed);
    });
  }

  std::vector<Doc> final_docs;
  std::vector<StableId> deleted;
  for (size_t begin = 0; begin < docs.size(); begin += 25) {
    const size_t end = std::min(docs.size(), begin + 25);
    std::vector<StableId> ids =
        live.Ingest(std::vector<Doc>(docs.begin() + begin, docs.begin() + end));
    for (size_t i = 0; i < ids.size(); ++i) {
      const size_t d = begin + i;
      if (d % 40 == 17) {
        ASSERT_TRUE(live.Delete(ids[i]));
        deleted.push_back(ids[i]);
      } else {
        final_docs.push_back(docs[d]);
      }
    }
    live.Refresh();
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  live.WaitForMerges();
  EXPECT_GT(sink.load(), 0u);

  ExpectLiveMatchesStatic(live, final_docs, vocab, WorldQueries(10), 10,
                          "concurrent-converged");
}

// Regression for the snapshot-publication refactor: Acquire() takes only
// the snapshot pointer lock, so readers must keep making progress while
// Refresh() runs its O(segments × terms) aggregation off the writer mutex.
// Readers hammer Acquire in a tight loop and assert the generations they
// observe never move backwards — the publish-race invariant — while a
// writer publishes after every tiny batch to maximize rebuild pressure.
// The TSan job turns any mutex-discipline slip in this path into a report.
TEST(LiveIndexConcurrencyTest, AcquireDuringRefreshMakesProgressAndIsOrdered) {
  const std::vector<Doc> docs = WorldDocs();
  const size_t vocab = World().corpus.vocabulary_size();
  util::ThreadPool merge_pool(2);
  LiveIndexOptions options;
  options.max_writer_docs = 8;  // many segments → expensive publishes
  options.merge_factor = 2;
  options.merge_pool = &merge_pool;
  LiveIndex live(options);
  live.EnsureTermSpace(vocab);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> acquires{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      uint64_t last_generation = 0;
      uint64_t local = 0;
      while (!done.load(std::memory_order_relaxed)) {
        std::shared_ptr<const IndexSnapshot> snap = live.Acquire();
        // Published snapshots are monotone: a reader can never observe
        // the generation clock running backwards, no matter which of two
        // racing publishers wins.
        EXPECT_GE(snap->generation(), last_generation);
        last_generation = snap->generation();
        ++local;
      }
      acquires.fetch_add(local, std::memory_order_relaxed);
    });
  }

  for (size_t begin = 0; begin < docs.size(); begin += 4) {
    const size_t end = std::min(docs.size(), begin + 4);
    live.Ingest(std::vector<Doc>(docs.begin() + begin, docs.begin() + end));
    live.Refresh();  // publish per tiny batch: maximal rebuild churn
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  live.WaitForMerges();

  // Rough progress floor: with Acquire reduced to a pointer copy, readers
  // lap the writer's publishes by orders of magnitude; a deadlock or a
  // reader serialized behind every rebuild would land far below this.
  EXPECT_GT(acquires.load(), docs.size());
  ExpectLiveMatchesStatic(live, docs, vocab, WorldQueries(10), 10,
                          "acquire-hammer");
}

// Concurrent readers on a monolithic and a live engine, both built with
// MaxScore, evaluate while a writer ingests and refreshes. The live
// engine's bound cache is republished on every df-version bump the writer
// causes, so the TSan job turns any race in that publication into a
// report. Monolithic results must match the reference throughout; live
// results are compared once the writer has finished, when the live
// collection equals the reference's.
TEST(LiveIndexConcurrencyTest, MaxScoreReadersRaceIngestWithoutDataRaces) {
  const std::vector<Doc> docs = WorldDocs();
  const size_t vocab = World().corpus.vocabulary_size();
  corpus::Corpus corpus_ref = CorpusFromDocs(vocab, docs);
  InvertedIndex static_index = InvertedIndex::Build(corpus_ref);
  search::SearchEngine mono(corpus_ref, static_index,
                            search::MakeBm25Scorer(),
                            search::EvalStrategy::kMaxScore);

  LiveIndex live;
  live.EnsureTermSpace(vocab);
  const size_t upfront = docs.size() / 2;
  live.Ingest(std::vector<Doc>(docs.begin(), docs.begin() + upfront));
  live.Refresh();
  search::SearchEngine live_engine(corpus_ref, live, search::MakeBm25Scorer(),
                                   search::EvalStrategy::kMaxScore,
                                   kEvalThreads);

  const std::vector<Doc> queries = WorldQueries(8);
  std::vector<std::vector<ScoredDoc>> want;
  for (const Doc& q : queries) want.push_back(mono.Evaluate(q, 10));

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t begin = upfront; begin < docs.size(); begin += 8) {
      const size_t end = std::min(docs.size(), begin + 8);
      live.Ingest(std::vector<Doc>(docs.begin() + begin, docs.begin() + end));
      live.Refresh();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      size_t checked = 0;  // live comparisons after the writer finished
      for (size_t iter = 0; checked < 16; ++iter) {
        const size_t qi = (static_cast<size_t>(r) + iter) % queries.size();
        ExpectBitIdentical(mono.Evaluate(queries[qi], 10), want[qi],
                           "mono under ingest");
        // Read before evaluating: done is stored after the final Refresh,
        // so a query started after seeing it runs on the final snapshot.
        const bool converged = done.load();
        std::vector<ScoredDoc> got = live_engine.Evaluate(queries[qi], 10);
        if (converged) {
          ExpectBitIdentical(got, want[qi], "live after ingest");
          ++checked;
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
}

}  // namespace
}  // namespace toppriv
