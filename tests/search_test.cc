// Unit and property tests for the search engine substrate.
#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "search/engine.h"
#include "search/eval.h"
#include "search/scorer.h"
#include "search/topk.h"
#include "tests/scorer_oracle.h"
#include "tests/test_helpers.h"
#include "util/rng.h"

namespace toppriv::search {
namespace {

using toppriv::testing::OracleScorer;

// ------------------------------------------------------------------ TopK --

TEST(TopKTest, KeepsHighestScores) {
  TopK topk(3);
  topk.Offer(0, 1.0);
  topk.Offer(1, 5.0);
  topk.Offer(2, 3.0);
  topk.Offer(3, 4.0);
  topk.Offer(4, 0.5);
  std::vector<ScoredDoc> out = topk.Finish();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].doc, 1u);
  EXPECT_EQ(out[1].doc, 3u);
  EXPECT_EQ(out[2].doc, 2u);
}

TEST(TopKTest, TiesBreakTowardsLowerDocIds) {
  TopK topk(2);
  topk.Offer(9, 1.0);
  topk.Offer(3, 1.0);
  topk.Offer(5, 1.0);
  std::vector<ScoredDoc> out = topk.Finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 3u);
  EXPECT_EQ(out[1].doc, 5u);
}

TEST(TopKTest, FewerThanK) {
  TopK topk(10);
  topk.Offer(1, 2.0);
  topk.Offer(0, 1.0);
  std::vector<ScoredDoc> out = topk.Finish();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].doc, 1u);
}

class TopKProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(TopKProperty, MatchesNaiveSort) {
  util::Rng rng(GetParam() * 31 + 7);
  const size_t n = 500;
  std::vector<ScoredDoc> all;
  TopK topk(GetParam());
  for (size_t i = 0; i < n; ++i) {
    double score = rng.Uniform() * 10.0;
    // Duplicate scores occasionally to exercise tie-breaking.
    if (rng.Bernoulli(0.3)) score = std::floor(score);
    all.push_back({static_cast<corpus::DocId>(i), score});
    topk.Offer(static_cast<corpus::DocId>(i), score);
  }
  std::sort(all.begin(), all.end(), [](const ScoredDoc& a, const ScoredDoc& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc < b.doc;
  });
  all.resize(std::min(GetParam(), n));
  std::vector<ScoredDoc> got = topk.Finish();
  ASSERT_EQ(got.size(), all.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, all[i].doc) << "rank " << i;
    EXPECT_DOUBLE_EQ(got[i].score, all[i].score);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TopKProperty,
                         ::testing::Values(1, 2, 5, 10, 50, 499, 500, 600));

// ---------------------------------------------------------------- Scorers --

TEST(ScorerTest, Bm25MonotoneInTf) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  CollectionStats stats = CollectionStats::Of(index);
  const Bm25Scorer::Kernel kernel =
      Bm25Scorer().PrepareTerm(stats, /*df=*/2, /*qtf=*/1);
  double s1 = kernel.Score(index.DocLength(0), 1);
  double s2 = kernel.Score(index.DocLength(0), 3);
  EXPECT_GT(s2, s1);
  EXPECT_GT(s1, 0.0);
}

TEST(ScorerTest, Bm25RarerTermsScoreHigher) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  CollectionStats stats = CollectionStats::Of(index);
  Bm25Scorer scorer;
  double rare = scorer.PrepareTerm(stats, 1, 1).Score(index.DocLength(0), 2);
  double common = scorer.PrepareTerm(stats, 4, 1).Score(index.DocLength(0), 2);
  EXPECT_GT(rare, common);
}

TEST(ScorerTest, TfIdfNormalizationDividesBySqrtLength) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  TfIdfCosineScorer scorer;
  // doc 2 has length 5.
  EXPECT_NEAR(scorer.Normalize(index.DocLength(2), 10.0),
              10.0 / std::sqrt(5.0), 1e-12);
}

TEST(ScorerTest, TfIdfZeroDfIsZero) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  EXPECT_DOUBLE_EQ(TfIdfCosineScorer()
                       .PrepareTerm(CollectionStats::Of(index), /*df=*/0, 1)
                       .Score(index.DocLength(0), 3),
                   0.0);
}

TEST(ScorerTest, LmDirichletPrefersMatchingDocs) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  LmDirichletScorer scorer(100.0);
  double with_term = scorer.PrepareTerm(CollectionStats::Of(index), 3, 1)
                         .Score(index.DocLength(0), 2);
  EXPECT_GT(with_term, 0.0);
}

TEST(ScorerTest, Names) {
  EXPECT_EQ(TfIdfCosineScorer().Name(), "tfidf-cosine");
  EXPECT_EQ(Bm25Scorer().Name(), "bm25");
  EXPECT_EQ(LmDirichletScorer().Name(), "lm-dirichlet");
}

// ----------------------------------------------------------------- Engine --

TEST(EngineTest, FindsMatchingDocuments) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  SearchEngine engine(c, index, MakeBm25Scorer());
  text::TermId tank = c.vocabulary().Lookup("tank");
  std::vector<ScoredDoc> results = engine.Search({tank}, 10);
  // Docs 0, 1, 3 contain "tank"; doc 2 does not.
  ASSERT_EQ(results.size(), 3u);
  for (const ScoredDoc& sd : results) EXPECT_NE(sd.doc, 2u);
  // war1 has tank twice in 3 tokens: highest score.
  EXPECT_EQ(results[0].doc, 0u);
}

std::unique_ptr<Scorer> ScorerByKind(int which) {
  switch (which) {
    case 0:
      return MakeBm25Scorer();
    case 1:
      return MakeTfIdfScorer();
    default:
      return std::make_unique<LmDirichletScorer>();
  }
}

TEST(EngineTest, MatchesBruteForceScoring) {
  // Every document scored from its raw tokens with the one-shot oracle
  // formulas, summed in ascending term order (std::map), then normalized.
  // That is the canonical CollapseQuery accumulation order, so the engine
  // must match the score BITS, not just approximately: an arithmetic change
  // made to both strategies at once passes every cross-strategy parity test
  // but not this one.
  const auto& world = toppriv::testing::World();
  const CollectionStats stats = CollectionStats::Of(world.index);
  for (int kind = 0; kind < 3; ++kind) {
    SearchEngine engine(world.corpus, world.index, ScorerByKind(kind));
    const OracleScorer reference = OracleScorer::Of(engine.scorer().kind());

    util::Rng rng(71);
    for (int trial = 0; trial < 10; ++trial) {
      // Random 3-term query over the vocabulary. Odd trials repeat the
      // first term twice more: qtf = 3 is the first query frequency whose
      // product does not round the same in every association order.
      std::vector<text::TermId> query;
      for (int i = 0; i < 3; ++i) {
        query.push_back(static_cast<text::TermId>(
            rng.UniformInt(uint64_t{world.corpus.vocabulary_size()})));
      }
      if (trial % 2 == 1) query.insert(query.end(), 2, query[0]);
      std::vector<ScoredDoc> got = engine.Evaluate(query, 20);

      // Brute force: score every document directly.
      std::map<text::TermId, uint32_t> qtf;
      for (text::TermId t : query) ++qtf[t];
      TopK expected(20);
      for (const corpus::Document& d : world.corpus.documents()) {
        std::map<text::TermId, uint32_t> tf;
        for (text::TermId t : d.tokens) ++tf[t];
        const uint32_t dl = world.index.DocLength(d.id);
        double score = 0.0;
        bool any = false;
        for (const auto& [term, qcount] : qtf) {
          auto it = tf.find(term);
          if (it == tf.end()) continue;
          any = true;
          score += reference.TermScore(stats, dl, it->second,
                                       world.index.DocFreq(term), qcount);
        }
        if (any) expected.Offer(d.id, reference.Normalize(dl, score));
      }
      std::vector<ScoredDoc> want = expected.Finish();
      ASSERT_EQ(got.size(), want.size())
          << engine.scorer().Name() << " trial " << trial;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].doc, want[i].doc)
            << engine.scorer().Name() << " trial " << trial << " rank " << i;
        EXPECT_EQ(got[i].score, want[i].score)
            << engine.scorer().Name() << " trial " << trial << " rank " << i;
      }
    }
  }
}

// Reference implementation of Evaluate as it existed before the contiguous
// accumulator: term-at-a-time into an unordered_map. Uses the same
// canonical CollapseQuery term order, so the floating-point accumulation
// order is identical and the comparison below can demand bit equality.
std::vector<ScoredDoc> MapBasedEvaluate(const index::InvertedIndex& index,
                                        const OracleScorer& scorer,
                                        const std::vector<text::TermId>& terms,
                                        size_t k) {
  if (terms.empty() || k == 0) return {};
  CollectionStats stats = CollectionStats::Of(index);
  std::unordered_map<corpus::DocId, double> accumulators;
  for (const QueryTerm& qt : CollapseQuery(terms)) {
    const index::PostingList& list = index.Postings(qt.term);
    uint32_t df = list.size();
    if (df == 0) continue;
    for (auto it = list.begin(); it.Valid(); it.Next()) {
      const index::Posting& p = it.Get();
      accumulators[p.doc] +=
          scorer.TermScore(stats, index.DocLength(p.doc), p.tf, df, qt.qtf);
    }
  }
  TopK topk(k);
  for (const auto& [doc, acc] : accumulators) {
    topk.Offer(doc, scorer.Normalize(index.DocLength(doc), acc));
  }
  return topk.Finish();
}

// The evaluation core over a whole index with a caller-owned scratch: what
// SearchEngine runs per part, minus the engine's thread-local scratch.
std::vector<ScoredDoc> CoreEvaluate(EvalStrategy strategy,
                                    const index::InvertedIndex& index,
                                    const Scorer& scorer,
                                    const std::vector<text::TermId>& terms,
                                    size_t k, EvalScratch* scratch,
                                    const std::vector<double>* term_bounds =
                                        nullptr) {
  const std::vector<QueryTerm> query = CollapseQuery(terms);
  std::vector<uint32_t> dfs;
  for (const QueryTerm& qt : query) dfs.push_back(index.DocFreq(qt.term));
  return EvaluateTopK(strategy, index, CollectionStats::Of(index), scorer,
                      query, dfs, k, scratch, term_bounds);
}

TEST(EngineTest, ContiguousAccumulatorMatchesMapBasedEvaluateBitForBit) {
  // Parity lock for the accumulator rewrite: same generated corpus, same
  // queries, identical ranked results — docs, order, and score BITS.
  const auto& world = toppriv::testing::World();
  for (int s = 0; s < 2; ++s) {
    SearchEngine engine(world.corpus, world.index,
                        s == 0 ? MakeBm25Scorer() : MakeTfIdfScorer());
    EvalScratch reused_scratch;
    util::Rng rng(911 + s);
    for (int trial = 0; trial < 30; ++trial) {
      // Mix workload queries with random ones (incl. repeated terms).
      std::vector<text::TermId> query;
      if (trial < 10) {
        query = world.workload[trial].term_ids;
      } else {
        size_t len = 1 + rng.UniformInt(uint64_t{6});
        for (size_t i = 0; i < len; ++i) {
          query.push_back(static_cast<text::TermId>(
              rng.UniformInt(uint64_t{world.corpus.vocabulary_size()})));
        }
      }
      std::vector<ScoredDoc> want =
          MapBasedEvaluate(world.index,
                           OracleScorer::Of(engine.scorer().kind()), query, 15);
      std::vector<ScoredDoc> got = engine.Evaluate(query, 15);
      // Also through the core with a caller-owned scratch reused across all
      // trials: reuse must not leak state between queries.
      std::vector<ScoredDoc> got_reused =
          CoreEvaluate(EvalStrategy::kTAAT, world.index, engine.scorer(),
                       query, 15, &reused_scratch);
      ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].doc, want[i].doc) << "trial " << trial;
        // Bit equality, not EXPECT_NEAR: the rewrite promises the identical
        // accumulation order.
        EXPECT_EQ(got[i].score, want[i].score) << "trial " << trial;
        EXPECT_EQ(got_reused[i].doc, want[i].doc) << "trial " << trial;
        EXPECT_EQ(got_reused[i].score, want[i].score) << "trial " << trial;
      }
    }
  }
}

// ---------------------------------------------------- MaxScore vs TAAT --

TEST(MaxScoreTest, UpperBoundDominatesEveryPostingScore) {
  // The safety premise of MaxScore pruning: for every term, the list-level
  // (and block-level) TermUpperBound is >= the kernel Score of every
  // posting, compared as exact doubles.
  const auto& world = toppriv::testing::World();
  CollectionStats stats = CollectionStats::Of(world.index);
  for (int kind = 0; kind < 3; ++kind) {
    std::unique_ptr<Scorer> scorer = ScorerByKind(kind);
    VisitScorer(*scorer, [&](const auto& s) {
      for (text::TermId t = 0; t < world.index.num_terms(); ++t) {
        const index::PostingList& list = world.index.Postings(t);
        if (list.empty()) continue;
        const uint32_t df = world.index.DocFreq(t);
        for (uint32_t qtf : {1u, 3u}) {
          const auto kernel = s.PrepareTerm(stats, df, qtf);
          const double list_ub = TermUpperBound(kernel, list.max_tf());
          size_t b = 0;
          index::PostingBlock block;
          for (; b < list.num_blocks(); ++b) {
            const double block_ub =
                TermUpperBound(kernel, list.block(b).max_tf);
            EXPECT_LE(block_ub, list_ub) << "term " << t << " block " << b;
            list.DecodeBlock(b, &block);
            for (uint32_t i = 0; i < block.count; ++i) {
              const double v = kernel.Score(
                  world.index.DocLength(block.docs[i]), block.tfs[i]);
              ASSERT_LE(v, block_ub)
                  << s.Name() << " term " << t << " doc " << block.docs[i];
            }
          }
        }
      }
    });
  }
}

TEST(MaxScoreTest, MatchesTaatBitForBitOnWorkloadAndRandomQueries) {
  // The tentpole parity lock: document-at-a-time MaxScore returns the
  // IDENTICAL top-k — documents, order, score bits — as term-at-a-time,
  // for every scorer, across k values that exercise both the unfilled-heap
  // (no pruning) and tight-threshold (heavy pruning) regimes.
  const auto& world = toppriv::testing::World();
  for (int kind = 0; kind < 3; ++kind) {
    SearchEngine taat(world.corpus, world.index, ScorerByKind(kind),
                      EvalStrategy::kTAAT);
    SearchEngine maxscore(world.corpus, world.index, ScorerByKind(kind),
                          EvalStrategy::kMaxScore);
    ASSERT_EQ(maxscore.eval_strategy(), EvalStrategy::kMaxScore);
    EvalScratch reused;
    const std::vector<double> bounds = ComputeTermImpactBounds(
        world.index, CollectionStats::Of(world.index), maxscore.scorer());
    util::Rng rng(1234 + kind);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<text::TermId> query;
      if (trial < static_cast<int>(world.workload.size())) {
        query = world.workload[trial].term_ids;
      } else {
        size_t len = 1 + rng.UniformInt(uint64_t{7});
        for (size_t i = 0; i < len; ++i) {
          // Draw past the vocabulary every other trial (empty lists).
          uint64_t space =
              world.corpus.vocabulary_size() + (trial % 2 ? 40 : 0);
          query.push_back(static_cast<text::TermId>(rng.UniformInt(space)));
        }
        if (len > 1 && trial % 3 == 0) query.push_back(query[0]);  // dup
      }
      for (size_t k : {size_t{1}, size_t{3}, size_t{10}, size_t{400}}) {
        SCOPED_TRACE(::testing::Message() << "scorer=" << kind << " trial="
                                          << trial << " k=" << k);
        std::vector<ScoredDoc> want = taat.Evaluate(query, k);
        std::vector<ScoredDoc> got = maxscore.Evaluate(query, k);
        std::vector<ScoredDoc> got_reused =
            CoreEvaluate(EvalStrategy::kMaxScore, world.index,
                         maxscore.scorer(), query, k, &reused, &bounds);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].doc, want[i].doc) << "rank " << i;
          // Bit equality: same canonical accumulation order per document.
          EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
          EXPECT_EQ(got_reused[i].doc, want[i].doc) << "rank " << i;
          EXPECT_EQ(got_reused[i].score, want[i].score) << "rank " << i;
        }
      }
    }
  }
}

TEST(MaxScoreTest, StrategyNamesAndEnvParsing) {
  EXPECT_STREQ(EvalStrategyName(EvalStrategy::kTAAT), "taat");
  EXPECT_STREQ(EvalStrategyName(EvalStrategy::kMaxScore), "maxscore");
  ::setenv("TOPPRIV_EVAL_STRATEGY", "maxscore", 1);
  EXPECT_EQ(EvalStrategyFromEnv(), EvalStrategy::kMaxScore);
  ::setenv("TOPPRIV_EVAL_STRATEGY", "taat", 1);
  EXPECT_EQ(EvalStrategyFromEnv(), EvalStrategy::kTAAT);
  ::setenv("TOPPRIV_EVAL_STRATEGY", "garbage", 1);
  EXPECT_EQ(EvalStrategyFromEnv(), EvalStrategy::kTAAT);
  ::unsetenv("TOPPRIV_EVAL_STRATEGY");
  EXPECT_EQ(EvalStrategyFromEnv(), EvalStrategy::kTAAT);
}

TEST(EngineTest, EmptyQueryReturnsNothing) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  SearchEngine engine(c, index, MakeBm25Scorer());
  EXPECT_TRUE(engine.Search({}, 10).empty());
  EXPECT_TRUE(engine.Evaluate({0}, 0).empty());
}

TEST(EngineTest, QueryLogRecordsEverything) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  SearchEngine engine(c, index, MakeBm25Scorer());
  engine.Search({0}, 5, /*cycle_id=*/1);
  engine.Search({1, 2}, 5, /*cycle_id=*/1);
  engine.Search({3}, 5, /*cycle_id=*/2);
  const QueryLog& log = engine.query_log();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.entries()[0].cycle_id, 1u);
  EXPECT_EQ(log.entries()[1].cycle_id, 1u);
  EXPECT_EQ(log.entries()[2].cycle_id, 2u);
  EXPECT_EQ(log.entries()[1].terms, (std::vector<text::TermId>{1, 2}));
  EXPECT_EQ(log.entries()[0].sequence, 0u);
  EXPECT_EQ(log.entries()[2].sequence, 2u);
  engine.mutable_query_log().Clear();
  EXPECT_EQ(engine.query_log().size(), 0u);
}

TEST(EngineTest, EvaluateDoesNotLog) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  index::InvertedIndex index = index::InvertedIndex::Build(c);
  SearchEngine engine(c, index, MakeBm25Scorer());
  engine.Evaluate({0}, 5);
  EXPECT_EQ(engine.query_log().size(), 0u);
}

// ------------------------------------------------------------------- Eval --

TEST(EvalTest, PrecisionRecallKnownCase) {
  std::vector<ScoredDoc> ranked = {{1, .9}, {2, .8}, {3, .7}, {4, .6}};
  std::vector<corpus::DocId> relevant = {2, 4, 9};
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 2), 0.5);
  EXPECT_DOUBLE_EQ(PrecisionAtK(ranked, relevant, 4), 0.5);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 2), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(RecallAtK(ranked, relevant, 4), 2.0 / 3.0);
}

TEST(EvalTest, AveragePrecisionKnownCase) {
  std::vector<ScoredDoc> ranked = {{1, .9}, {2, .8}, {3, .7}};
  std::vector<corpus::DocId> relevant = {1, 3};
  // Hits at ranks 1 and 3: AP = (1/1 + 2/3) / 2.
  EXPECT_NEAR(AveragePrecision(ranked, relevant), (1.0 + 2.0 / 3.0) / 2.0,
              1e-12);
}

TEST(EvalTest, NdcgPerfectRankingIsOne) {
  std::vector<ScoredDoc> ranked = {{1, .9}, {2, .8}, {3, .7}};
  std::vector<corpus::DocId> relevant = {1, 2};
  EXPECT_NEAR(NdcgAtK(ranked, relevant, 3), 1.0, 1e-12);
  // Relevant docs at the bottom score lower.
  std::vector<ScoredDoc> bad = {{3, .9}, {1, .8}, {2, .7}};
  EXPECT_LT(NdcgAtK(bad, relevant, 3), 1.0);
}

TEST(EvalTest, EmptyInputs) {
  EXPECT_DOUBLE_EQ(PrecisionAtK({}, {1}, 0), 0.0);
  EXPECT_DOUBLE_EQ(RecallAtK({{1, 1.0}}, {}, 5), 0.0);
  EXPECT_DOUBLE_EQ(AveragePrecision({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(NdcgAtK({}, {}, 5), 0.0);
}

TEST(EvalTest, SameRanking) {
  std::vector<ScoredDoc> a = {{1, 1.0}, {2, 0.5}};
  std::vector<ScoredDoc> b = {{1, 1.0 + 1e-12}, {2, 0.5}};
  std::vector<ScoredDoc> c = {{2, 1.0}, {1, 0.5}};
  EXPECT_TRUE(SameRanking(a, b, 1e-9));
  EXPECT_FALSE(SameRanking(a, c, 1e-9));
  EXPECT_FALSE(SameRanking(a, {}, 1e-9));
}

TEST(EvalTest, RetrievalQualityOnTopicalQueries) {
  // Sanity check of the whole retrieval substrate: for a topical query, the
  // top results should be documents whose ground-truth mixture favors the
  // query's intent topic.
  const auto& world = toppriv::testing::World();
  SearchEngine engine(world.corpus, world.index, MakeBm25Scorer());
  size_t good = 0, total = 0;
  for (size_t qi = 0; qi < 10; ++qi) {
    const corpus::BenchmarkQuery& q = world.workload[qi];
    std::vector<ScoredDoc> results = engine.Evaluate(q.term_ids, 5);
    for (const ScoredDoc& sd : results) {
      const corpus::Document& d = world.corpus.document(sd.doc);
      float intent_mass = 0.f;
      for (uint32_t t : q.intent_topics) intent_mass += d.true_mixture[t];
      ++total;
      if (intent_mass > 0.2f) ++good;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(good) / static_cast<double>(total), 0.7);
}

}  // namespace
}  // namespace toppriv::search
