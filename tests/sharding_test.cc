// Parity/property suite for the sharded retrieval subsystem.
//
// The contract under test: document-partitioning the index and
// scatter-gathering queries across the shards is INVISIBLE — for any shard
// count and any thread count, the sharded engine returns bit-identical
// results to the monolithic engine, the aggregated statistics equal the
// monolithic statistics exactly, and hostile serialized blobs die with
// clean errors instead of corrupting memory.
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "index/sharded_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "tests/test_helpers.h"
#include "topicmodel/inference.h"
#include "util/io.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace toppriv {
namespace {

using index::IndexStats;
using index::InvertedIndex;
using index::ShardedIndex;
using index::ShardRange;
using search::ScoredDoc;
using toppriv::testing::World;

// Shard counts the suite sweeps: 1 (degenerate), even splits, and a prime
// that does not divide the corpus (uneven ranges).
const size_t kShardCounts[] = {1, 2, 4, 7};

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

void ExpectBitIdentical(const std::vector<ScoredDoc>& got,
                        const std::vector<ScoredDoc>& want,
                        const char* context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << context << " rank " << i;
    // Bit equality, not EXPECT_NEAR: the shards run the identical
    // floating-point ops in the identical order.
    EXPECT_EQ(got[i].score, want[i].score) << context << " rank " << i;
  }
}

// ----------------------------------------------------------- bit parity --

TEST(ShardingParityTest, EveryWorkloadQueryMatchesMonolithicBitForBit) {
  const auto& world = World();
  // All three scorers: LmDirichlet is the one whose Normalize depends on
  // collection statistics, so it would catch a shard-local stats leak the
  // other two cannot.
  for (int scorer_kind = 0; scorer_kind < 3; ++scorer_kind) {
    search::SearchEngine mono(world.corpus, world.index,
                              MakeScorer(scorer_kind));
    for (size_t num_shards : kShardCounts) {
      ShardedIndex sharded = ShardedIndex::Build(world.corpus, num_shards);
      for (size_t threads : {size_t{1}, size_t{4}}) {
        search::SearchEngine engine(world.corpus, sharded,
                                    MakeScorer(scorer_kind),
                                    search::EvalStrategy::kTAAT, threads);
        for (size_t qi = 0; qi < world.workload.size(); ++qi) {
          SCOPED_TRACE(::testing::Message()
                       << "scorer=" << scorer_kind << " shards=" << num_shards
                       << " threads=" << threads << " query=" << qi);
          std::vector<ScoredDoc> want =
              mono.Evaluate(world.workload[qi].term_ids, 10);
          std::vector<ScoredDoc> got =
              engine.Evaluate(world.workload[qi].term_ids, 10);
          ExpectBitIdentical(got, want, "workload");
        }
      }
    }
  }
}

TEST(ShardingParityTest, MaxScoreMatchesTaatAcrossShardGrid) {
  // The evaluation-strategy face of the parity invariant: for K ∈
  // {1, 2, 4, 7} shards × both strategies, every workload query returns
  // the bit-identical top-k the monolithic TAAT engine returns. MaxScore
  // prunes per shard against per-shard thresholds, so this also proves
  // pruning composes with the scatter-gather merge.
  const auto& world = World();
  search::SearchEngine mono(world.corpus, world.index,
                            search::MakeBm25Scorer());
  search::SearchEngine mono_maxscore(world.corpus, world.index,
                                     search::MakeBm25Scorer(),
                                     search::EvalStrategy::kMaxScore);
  for (size_t num_shards : kShardCounts) {
    ShardedIndex sharded = ShardedIndex::Build(world.corpus, num_shards);
    for (search::EvalStrategy strategy :
         {search::EvalStrategy::kTAAT, search::EvalStrategy::kMaxScore}) {
      search::SearchEngine engine(world.corpus, sharded,
                                  search::MakeBm25Scorer(), strategy,
                                  /*num_threads=*/1);
      ASSERT_EQ(engine.eval_strategy(), strategy);
      for (size_t qi = 0; qi < world.workload.size(); ++qi) {
        SCOPED_TRACE(::testing::Message()
                     << "shards=" << num_shards << " strategy="
                     << search::EvalStrategyName(strategy) << " query=" << qi);
        std::vector<ScoredDoc> want =
            mono.Evaluate(world.workload[qi].term_ids, 10);
        ExpectBitIdentical(engine.Evaluate(world.workload[qi].term_ids, 10),
                           want, "strategy-grid");
        ExpectBitIdentical(
            mono_maxscore.Evaluate(world.workload[qi].term_ids, 10), want,
            "mono-maxscore");
      }
    }
  }
}

TEST(ShardingParityTest, RandomQueriesIncludingRepeatsAndUnknownTerms) {
  const auto& world = World();
  search::SearchEngine mono(world.corpus, world.index, search::MakeBm25Scorer());
  util::Rng rng(4242);
  for (size_t num_shards : {size_t{2}, size_t{7}}) {
    ShardedIndex sharded = ShardedIndex::Build(world.corpus, num_shards);
    search::SearchEngine engine(world.corpus, sharded,
                                search::MakeBm25Scorer());
    for (int trial = 0; trial < 40; ++trial) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << num_shards << " trial=" << trial);
      size_t len = 1 + rng.UniformInt(uint64_t{6});
      std::vector<text::TermId> query;
      for (size_t i = 0; i < len; ++i) {
        // Every other trial draws past the vocabulary to hit empty lists.
        uint64_t space = world.corpus.vocabulary_size() + (trial % 2 ? 50 : 0);
        query.push_back(static_cast<text::TermId>(rng.UniformInt(space)));
      }
      // Duplicate a term half the time: qtf collapse must match too.
      if (len > 1 && trial % 2 == 0) query.push_back(query[0]);
      ExpectBitIdentical(engine.Evaluate(query, 15), mono.Evaluate(query, 15),
                         "random");
    }
  }
}

TEST(ShardingParityTest, KLargerThanCorpusLeavesEmptyShards) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  InvertedIndex mono_index = InvertedIndex::Build(c);
  search::SearchEngine mono(c, mono_index, search::MakeBm25Scorer());
  ShardedIndex sharded = ShardedIndex::Build(c, 7);  // 4 docs, 7 shards
  ASSERT_EQ(sharded.num_shards(), 7u);
  EXPECT_EQ(sharded.num_documents(), 4u);
  search::SearchEngine engine(c, sharded, search::MakeBm25Scorer());
  for (text::TermId t = 0; t < 4; ++t) {
    ExpectBitIdentical(engine.Evaluate({t}, 10), mono.Evaluate({t}, 10),
                       "tiny");
  }
}

TEST(ShardingParityTest, EmptyQueryAndZeroKReturnNothing) {
  const auto& world = World();
  ShardedIndex sharded = ShardedIndex::Build(world.corpus, 4);
  search::SearchEngine engine(world.corpus, sharded,
                              search::MakeBm25Scorer());
  EXPECT_TRUE(engine.Evaluate({}, 10).empty());
  EXPECT_TRUE(engine.Evaluate({0}, 0).empty());
}

TEST(ShardingParityTest, SearchLogsLikeMonolithic) {
  const auto& world = World();
  ShardedIndex sharded = ShardedIndex::Build(world.corpus, 2);
  search::SearchEngine engine(world.corpus, sharded,
                              search::MakeBm25Scorer());
  engine.Search({1, 2}, 5, /*cycle_id=*/9);
  engine.Evaluate({3}, 5);  // must NOT log
  ASSERT_EQ(engine.query_log().size(), 1u);
  EXPECT_EQ(engine.query_log().entries()[0].cycle_id, 9u);
  EXPECT_EQ(engine.query_log().entries()[0].terms,
            (std::vector<text::TermId>{1, 2}));
}

// ------------------------------------------------------------ tie-break --

// Regression for doc-id-deterministic merge ordering: construct documents
// with IDENTICAL content in DIFFERENT shards, so their scores tie exactly
// (same tf, same length, same collection statistics → same double bits).
// The merged ranking must order them by doc id no matter how many shards
// evaluated them or in which order the shard results arrived.
TEST(ShardingTieBreakTest, ExactCrossShardTiesOrderByDocId) {
  corpus::Corpus c;
  text::Vocabulary& vocab = c.mutable_vocabulary();
  text::TermId a = vocab.AddTerm("alpha");
  text::TermId b = vocab.AddTerm("beta");
  text::TermId filler = vocab.AddTerm("filler");
  // Six docs; docs 0, 2 and 5 are identical (same tf, same length → the
  // same BM25 double bits); doc 3 matches but is longer, so it scores
  // strictly lower.
  c.AddDocument("d0", {a, b});
  c.AddDocument("d1", {filler, filler});
  c.AddDocument("d2", {a, b});
  c.AddDocument("d3", {a, filler, filler});
  c.AddDocument("d4", {filler});
  c.AddDocument("d5", {a, b});

  InvertedIndex mono_index = InvertedIndex::Build(c);
  search::SearchEngine mono(c, mono_index, search::MakeBm25Scorer());
  std::vector<ScoredDoc> want = mono.Evaluate({a}, 6);
  // The tie really is exact: three equal leading scores.
  ASSERT_GE(want.size(), 3u);
  ASSERT_EQ(want[0].score, want[1].score);
  ASSERT_EQ(want[1].score, want[2].score);
  EXPECT_EQ(want[0].doc, 0u);
  EXPECT_EQ(want[1].doc, 2u);
  EXPECT_EQ(want[2].doc, 5u);

  for (size_t num_shards : {size_t{2}, size_t{3}, size_t{6}}) {
    SCOPED_TRACE(num_shards);
    ShardedIndex sharded = ShardedIndex::Build(c, num_shards);
    // The tied docs must actually span shards for the test to bite.
    if (num_shards > 1) {
      EXPECT_NE(sharded.ShardOf(0), sharded.ShardOf(5));
    }
    search::SearchEngine engine(c, sharded, search::MakeBm25Scorer());
    ExpectBitIdentical(engine.Evaluate({a}, 6), want, "tie/full");
    // Truncation through the tie must keep the lower doc ids.
    std::vector<ScoredDoc> top2 = engine.Evaluate({a}, 2);
    ASSERT_EQ(top2.size(), 2u);
    EXPECT_EQ(top2[0].doc, 0u);
    EXPECT_EQ(top2[1].doc, 2u);
  }
}

// ------------------------------------------------------- parallel build --

void ExpectStatsEqual(const IndexStats& got, const IndexStats& want);

// Shard construction fans out over ThreadPool::ParallelFor (shards are
// independent doc ranges). The pooled build must be indistinguishable from
// the serial one: identical serialized bytes, identical stats, identical
// query results.
TEST(ShardingParallelBuildTest, PooledBuildMatchesSerialBitForBit) {
  const auto& world = World();
  util::ThreadPool pool(4);
  for (size_t num_shards : kShardCounts) {
    SCOPED_TRACE(num_shards);
    ShardedIndex serial = ShardedIndex::Build(world.corpus, num_shards);
    ShardedIndex pooled = ShardedIndex::Build(world.corpus, num_shards, &pool);
    // Byte equality implies every shard's postings, lengths and manifest
    // agree exactly; stats equality re-checks the aggregates.
    EXPECT_EQ(pooled.Serialize(), serial.Serialize());
    ExpectStatsEqual(pooled.ComputeStats(), serial.ComputeStats());
    search::SearchEngine serial_engine(world.corpus, serial,
                                       search::MakeBm25Scorer());
    search::SearchEngine pooled_engine(world.corpus, pooled,
                                       search::MakeBm25Scorer());
    for (size_t qi = 0; qi < 10; ++qi) {
      ExpectBitIdentical(
          pooled_engine.Evaluate(world.workload[qi].term_ids, 10),
          serial_engine.Evaluate(world.workload[qi].term_ids, 10),
          "parallel-build");
    }
  }
}

// ------------------------------------------------------ stats properties --

void ExpectStatsEqual(const IndexStats& got, const IndexStats& want) {
  EXPECT_EQ(got.num_terms, want.num_terms);
  EXPECT_EQ(got.num_documents, want.num_documents);
  EXPECT_EQ(got.total_postings, want.total_postings);
  EXPECT_EQ(got.max_list_length, want.max_list_length);
  EXPECT_EQ(got.encoded_bytes, want.encoded_bytes);
  EXPECT_EQ(got.pir_padded_bytes, want.pir_padded_bytes);
  EXPECT_DOUBLE_EQ(got.avg_list_length, want.avg_list_length);
}

TEST(ShardingStatsTest, AggregatedStatsEqualMonolithicExactly) {
  const auto& world = World();
  IndexStats want = world.index.ComputeStats();
  for (size_t num_shards : kShardCounts) {
    SCOPED_TRACE(num_shards);
    ShardedIndex sharded = ShardedIndex::Build(world.corpus, num_shards);
    // Every aggregate — including encoded_bytes, which cannot be recovered
    // by summing shard ByteSize()s (each shard re-anchors its first
    // posting) — must match the monolithic index exactly: the paper's §II
    // PIR arithmetic is partition-invariant.
    ExpectStatsEqual(sharded.ComputeStats(), want);
    // Collection-level accessors too.
    EXPECT_EQ(sharded.num_documents(), world.index.num_documents());
    EXPECT_EQ(sharded.num_terms(), world.index.num_terms());
    EXPECT_EQ(sharded.total_tokens(), world.index.total_tokens());
    EXPECT_DOUBLE_EQ(sharded.avg_doc_length(), world.index.avg_doc_length());
  }
}

TEST(ShardingStatsTest, PerShardPostingsSumToMonolithic) {
  const auto& world = World();
  for (size_t num_shards : kShardCounts) {
    SCOPED_TRACE(num_shards);
    ShardedIndex sharded = ShardedIndex::Build(world.corpus, num_shards);
    uint64_t postings = 0;
    size_t docs = 0;
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      IndexStats shard_stats = sharded.shard(s).ComputeStats();
      postings += shard_stats.total_postings;
      docs += shard_stats.num_documents;
      EXPECT_EQ(shard_stats.num_documents,
                sharded.manifest().ranges[s].size());
    }
    IndexStats want = world.index.ComputeStats();
    EXPECT_EQ(postings, want.total_postings);
    EXPECT_EQ(docs, want.num_documents);
  }
}

TEST(ShardingStatsTest, DocFreqAndDocLengthRoundTripThroughShardMapping) {
  const auto& world = World();
  util::Rng rng(1337);
  for (size_t num_shards : kShardCounts) {
    SCOPED_TRACE(num_shards);
    ShardedIndex sharded = ShardedIndex::Build(world.corpus, num_shards);
    for (int trial = 0; trial < 200; ++trial) {
      text::TermId term = static_cast<text::TermId>(
          rng.UniformInt(uint64_t{world.corpus.vocabulary_size()}));
      EXPECT_EQ(sharded.DocFreq(term), world.index.DocFreq(term))
          << "term " << term;
      // Per-shard dfs must additionally SUM to the global df.
      uint32_t sum = 0;
      for (size_t s = 0; s < sharded.num_shards(); ++s) {
        sum += sharded.shard(s).DocFreq(term);
      }
      EXPECT_EQ(sum, world.index.DocFreq(term)) << "term " << term;

      corpus::DocId doc = static_cast<corpus::DocId>(
          rng.UniformInt(uint64_t{world.corpus.num_documents()}));
      EXPECT_EQ(sharded.DocLength(doc), world.index.DocLength(doc))
          << "doc " << doc;
      // The owning shard really owns it.
      size_t s = sharded.ShardOf(doc);
      const ShardRange& range = sharded.manifest().ranges[s];
      EXPECT_GE(doc, range.begin);
      EXPECT_LT(doc, range.end);
    }
    // Out-of-vocabulary terms have zero frequency everywhere.
    EXPECT_EQ(sharded.DocFreq(static_cast<text::TermId>(
                  world.corpus.vocabulary_size() + 3)),
              0u);
  }
}

TEST(ShardingStatsTest, RangesTileTheDocSpace) {
  const auto& world = World();
  for (size_t num_shards : kShardCounts) {
    SCOPED_TRACE(num_shards);
    ShardedIndex sharded = ShardedIndex::Build(world.corpus, num_shards);
    ASSERT_EQ(sharded.manifest().ranges.size(), num_shards);
    corpus::DocId expected_begin = 0;
    for (const ShardRange& r : sharded.manifest().ranges) {
      EXPECT_EQ(r.begin, expected_begin);
      EXPECT_LE(r.begin, r.end);
      expected_begin = r.end;
    }
    EXPECT_EQ(expected_begin, world.corpus.num_documents());
  }
}

// ---------------------------------------------------------- serialization --

TEST(ShardedIndexSerializationTest, RoundTripPreservesEverything) {
  const auto& world = World();
  for (size_t num_shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(num_shards);
    ShardedIndex original = ShardedIndex::Build(world.corpus, num_shards);
    std::string bytes = original.Serialize();
    auto restored = ShardedIndex::Deserialize(bytes);
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    // Byte-stable: re-serializing reproduces the identical blob.
    EXPECT_EQ(restored->Serialize(), bytes);
    ExpectStatsEqual(restored->ComputeStats(), original.ComputeStats());
    // Query results survive the round trip bit for bit.
    search::SearchEngine before(world.corpus, original,
                                search::MakeBm25Scorer());
    search::SearchEngine after(world.corpus, *restored,
                               search::MakeBm25Scorer());
    for (size_t qi = 0; qi < 10; ++qi) {
      ExpectBitIdentical(after.Evaluate(world.workload[qi].term_ids, 10),
                         before.Evaluate(world.workload[qi].term_ids, 10),
                         "roundtrip");
    }
  }
}

// Builds a syntactically valid sharded blob for TinyCorpus (4 docs) with
// hand-controlled manifest fields, for hostile-mutation tests.
std::string TinyShardedBlob() {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  return ShardedIndex::Build(c, 2).Serialize();
}

// Re-encodes a 2-shard TinyCorpus blob with attacker-chosen ranges.
std::string BlobWithRanges(uint64_t b0, uint64_t e0, uint64_t b1, uint64_t e1,
                           uint64_t declared_docs) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  ShardedIndex honest = ShardedIndex::Build(c, 2);
  util::BinaryWriter w;
  w.WriteVarint(2);                          // shard count
  w.WriteVarint(honest.num_terms());         // term space
  w.WriteVarint(declared_docs);              // document count
  w.WriteVarint(b0);
  w.WriteVarint(e0);
  w.WriteVarint(b1);
  w.WriteVarint(e1);
  w.WriteString(honest.shard(0).Serialize());
  w.WriteString(honest.shard(1).Serialize());
  return w.data();
}

TEST(ShardedIndexHostileTest, TruncatedBlobsNeverCrash) {
  std::string bytes = TinyShardedBlob();
  ASSERT_TRUE(ShardedIndex::Deserialize(bytes).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto result = ShardedIndex::Deserialize(bytes.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "cut " << cut;
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss)
        << "cut " << cut;
  }
}

TEST(ShardedIndexHostileTest, ZeroShardsRejected) {
  util::BinaryWriter w;
  w.WriteVarint(0);
  auto result = ShardedIndex::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, ShardCountExceedingPayloadRejectedBeforeAlloc) {
  // A few bytes claiming billions of shards must die at the bound check,
  // not after a giant reserve.
  util::BinaryWriter w;
  w.WriteVarint(uint64_t{1} << 40);
  auto result = ShardedIndex::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, InvertedRangeRejected) {
  auto result = ShardedIndex::Deserialize(BlobWithRanges(2, 0, 2, 4, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, OverlappingRangesRejected) {
  auto result = ShardedIndex::Deserialize(BlobWithRanges(0, 3, 2, 4, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, GappedRangesRejected) {
  auto result = ShardedIndex::Deserialize(BlobWithRanges(0, 1, 2, 4, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, RangesNotCoveringDeclaredCountRejected) {
  auto result = ShardedIndex::Deserialize(BlobWithRanges(0, 2, 2, 3, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, RangeBeyondDocIdSpaceRejected) {
  auto result = ShardedIndex::Deserialize(
      BlobWithRanges(0, 2, 2, (uint64_t{1} << 33), uint64_t{1} << 33));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, ShardPayloadRangeMismatchRejected) {
  // Ranges claim shard 0 owns three docs, but its blob holds two.
  auto result = ShardedIndex::Deserialize(BlobWithRanges(0, 3, 3, 4, 4));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, ShardTermSpaceMismatchRejected) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  ShardedIndex honest = ShardedIndex::Build(c, 2);
  util::BinaryWriter w;
  w.WriteVarint(2);
  w.WriteVarint(honest.num_terms() + 1);  // lie about the term space
  w.WriteVarint(4);
  w.WriteVarint(0);
  w.WriteVarint(2);
  w.WriteVarint(2);
  w.WriteVarint(4);
  w.WriteString(honest.shard(0).Serialize());
  w.WriteString(honest.shard(1).Serialize());
  auto result = ShardedIndex::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, TrailingBytesRejected) {
  std::string bytes = TinyShardedBlob() + "x";
  auto result = ShardedIndex::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(ShardedIndexHostileTest, CorruptShardBlobPropagatesShardHardening) {
  // Flip bytes inside the first shard's payload: either the inner
  // (hardened) InvertedIndex deserializer rejects it, or the manifest
  // cross-checks do. Nothing may crash.
  std::string bytes = TinyShardedBlob();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x5a);
    ShardedIndex::Deserialize(mutated);  // must not crash or OOM
  }
  SUCCEED();
}

// ------------------------------------------------------- serving parity --

// The full-stack invariant: a SessionDriver serving many concurrent
// sessions over a sharded fleet produces digests bit-identical to the same
// driver over the monolithic engine, at every driver thread count × shard
// fan-out combination. This is also the suite's ThreadSanitizer target for
// the scatter path (concurrent sessions share one shard pool).
TEST(ShardedServingTest, DriverDigestsMatchMonolithicAcrossThreadCounts) {
  const auto& world = World();
  topicmodel::LdaInferencer inferencer(world.model);

  std::vector<std::vector<text::TermId>> queries;
  for (size_t i = 0; i < 8; ++i) {
    queries.push_back(world.workload[i % world.workload.size()].term_ids);
  }
  std::vector<serving::SessionWorkload> sessions =
      serving::DealSessions(queries, 4);

  auto run = [&](const search::QueryEngine& engine, size_t driver_threads) {
    serving::DriverOptions options;
    options.num_threads = driver_threads;
    options.seed = 21;
    serving::SessionDriver driver(world.model, inferencer, engine, options);
    return driver.Run(sessions);
  };

  search::SearchEngine mono(world.corpus, world.index,
                            search::MakeBm25Scorer());
  serving::ServingReport want = run(mono, 1);

  ShardedIndex sharded = ShardedIndex::Build(world.corpus, 4);
  for (size_t engine_threads : {size_t{1}, size_t{4}}) {
    for (search::EvalStrategy strategy :
         {search::EvalStrategy::kTAAT, search::EvalStrategy::kMaxScore}) {
    search::SearchEngine engine(world.corpus, sharded,
                                search::MakeBm25Scorer(), strategy,
                                engine_threads);
    for (size_t driver_threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(::testing::Message() << "engine_threads=" << engine_threads
                                        << " strategy="
                                        << search::EvalStrategyName(strategy)
                                        << " driver_threads="
                                        << driver_threads);
      serving::ServingReport got = run(engine, driver_threads);
      ASSERT_EQ(got.sessions.size(), want.sessions.size());
      for (size_t s = 0; s < got.sessions.size(); ++s) {
        EXPECT_EQ(got.sessions[s].digest, want.sessions[s].digest)
            << "session " << s;
        EXPECT_EQ(got.sessions[s].queries_submitted,
                  want.sessions[s].queries_submitted);
      }
    }
    }
  }
}

}  // namespace
}  // namespace toppriv
