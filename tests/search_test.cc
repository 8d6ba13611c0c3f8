// Unit and property tests for the search engine substrate.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "index/live/live_index.h"
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

using Docs = std::vector<std::vector<text::TermId>>;

/// Top-k of `docs` (doc id = position) scored from raw tokens with the
/// oracle formulas, summed in ascending term order, with the collection
/// statistics computed here from the tokens.
std::vector<ScoredDoc> BruteForceTopK(const Docs& docs,
                                      const OracleScorer& oracle,
                                      const std::vector<text::TermId>& query,
                                      size_t k) {
  CollectionStats stats;
  stats.num_documents = docs.size();
  std::map<text::TermId, uint32_t> df;
  for (const auto& d : docs) {
    stats.total_tokens += d.size();
    std::vector<text::TermId> unique = d;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    for (text::TermId t : unique) ++df[t];
  }
  stats.avg_doc_length = docs.empty()
                             ? 0.0
                             : static_cast<double>(stats.total_tokens) /
                                   static_cast<double>(docs.size());
  std::map<text::TermId, uint32_t> qtf;
  for (text::TermId t : query) ++qtf[t];
  TopK topk(k);
  for (size_t d = 0; d < docs.size(); ++d) {
    std::map<text::TermId, uint32_t> tf;
    for (text::TermId t : docs[d]) ++tf[t];
    const uint32_t dl = static_cast<uint32_t>(docs[d].size());
    double score = 0.0;
    bool any = false;
    for (const auto& [term, q] : qtf) {
      auto it = tf.find(term);
      if (it == tf.end()) continue;
      any = true;
      score += oracle.TermScore(stats, dl, it->second, df[term], q);
    }
    if (any) {
      topk.Offer(static_cast<corpus::DocId>(d), oracle.Normalize(dl, score));
    }
  }
  return topk.Finish();
}

void ExpectSameBits(const std::vector<ScoredDoc>& got,
                    const std::vector<ScoredDoc>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << what << " rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " rank " << i;
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
  Docs docs;
  for (const corpus::Document& d : world.corpus.documents()) {
    docs.push_back(d.tokens);
  }
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
      ExpectSameBits(engine.Evaluate(query, 20),
                     BruteForceTopK(docs, reference, query, 20),
                     engine.scorer().Name() + " trial " +
                         std::to_string(trial));
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
std::vector<ScoredDoc> CoreEvaluate(const index::InvertedIndex& index,
                                    const Scorer& scorer,
                                    const std::vector<text::TermId>& terms,
                                    size_t k, EvalScratch* scratch) {
  const std::vector<QueryTerm> query = CollapseQuery(terms);
  std::vector<uint32_t> dfs;
  for (const QueryTerm& qt : query) dfs.push_back(index.DocFreq(qt.term));
  return EvaluateTopK(index, CollectionStats::Of(index), scorer, query, dfs,
                      k, scratch);
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
          CoreEvaluate(world.index, engine.scorer(), query, 15,
                       &reused_scratch);
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

// ------------------------------------------------------- BM25 norm table --

constexpr text::TermId kNormVocab = 12;

/// `n` documents over a kNormVocab-term vocabulary. Lengths are mostly
/// short, scaled by `scale`, plus documents on both sides of the norm
/// table's edge and a few far past it.
Docs NormTableDocs(uint64_t seed, size_t n, uint64_t scale) {
  util::Rng rng(seed);
  const uint32_t edge = EvalScratch::kNormTableSize;
  Docs docs;
  for (size_t i = 0; i < n; ++i) {
    uint32_t len = 1 + static_cast<uint32_t>(rng.UniformInt(scale));
    if (i % 10 == 3) len = edge - 1 + static_cast<uint32_t>(i % 3);
    if (i % 17 == 5) len = 3 * edge;
    std::vector<text::TermId> tokens(len);
    for (text::TermId& t : tokens) {
      t = static_cast<text::TermId>(rng.UniformInt(uint64_t{kNormVocab}));
    }
    docs.push_back(std::move(tokens));
  }
  return docs;
}

corpus::Corpus CorpusOf(const Docs& docs) {
  corpus::Corpus c;
  for (text::TermId t = 0; t < kNormVocab; ++t) {
    c.mutable_vocabulary().AddTerm("t" + std::to_string(t));
  }
  for (size_t d = 0; d < docs.size(); ++d) {
    c.AddDocument("d" + std::to_string(d), docs[d]);
  }
  return c;
}

std::vector<text::TermId> RandomNormQuery(util::Rng* rng) {
  std::vector<text::TermId> query(1 + rng->UniformInt(uint64_t{4}));
  for (text::TermId& t : query) {
    t = static_cast<text::TermId>(rng->UniformInt(uint64_t{kNormVocab}));
  }
  return query;
}

TEST(EngineTest, Bm25NormTableFollowsIndexAndParameters) {
  // One thread, hence one scratch and one norm table, alternates two
  // indexes with different avgdl and three BM25 parameter sets. Every query
  // must still score with its own (k1, b, avgdl): a table cached under a
  // key that misses any of them would hand the next engine stale norms.
  const Docs short_docs = NormTableDocs(5, 300, 60);
  const Docs long_docs = NormTableDocs(6, 200, 700);
  const corpus::Corpus short_corpus = CorpusOf(short_docs);
  const corpus::Corpus long_corpus = CorpusOf(long_docs);
  const index::InvertedIndex short_index =
      index::InvertedIndex::Build(short_corpus);
  const index::InvertedIndex long_index =
      index::InvertedIndex::Build(long_corpus);
  ASSERT_NE(short_index.avg_doc_length(), long_index.avg_doc_length());

  // For each of k1, b and avgdl, some two consecutive cases differ in it
  // alone.
  struct Case {
    const Docs* docs;
    const corpus::Corpus* corpus;
    const index::InvertedIndex* index;
    double k1;
    double b;
  };
  const std::vector<Case> cases = {
      {&short_docs, &short_corpus, &short_index, 1.2, 0.75},
      {&short_docs, &short_corpus, &short_index, 0.9, 0.75},
      {&short_docs, &short_corpus, &short_index, 0.9, 0.4},
      {&long_docs, &long_corpus, &long_index, 0.9, 0.4},
  };
  std::vector<std::unique_ptr<SearchEngine>> engines;
  for (const Case& c : cases) {
    engines.push_back(std::make_unique<SearchEngine>(
        *c.corpus, *c.index, MakeBm25Scorer(c.k1, c.b)));
  }
  util::Rng rng(404);
  for (int trial = 0; trial < 12; ++trial) {
    const std::vector<text::TermId> query = RandomNormQuery(&rng);
    for (size_t i = 0; i < cases.size(); ++i) {
      OracleScorer oracle = OracleScorer::Of(Scorer::Kind::kBm25);
      oracle.k1 = cases[i].k1;
      oracle.b = cases[i].b;
      ExpectSameBits(engines[i]->Evaluate(query, 25),
                     BruteForceTopK(*cases[i].docs, oracle, query, 25),
                     "case " + std::to_string(i) + " trial " +
                         std::to_string(trial));
    }
  }
}

TEST(EngineTest, Bm25NormTableFollowsALiveIndexAcrossRefresh) {
  // Each refresh moves the live view's avgdl; queries after it, and a
  // static engine's queries in between, must each use their own norms.
  const Docs first = NormTableDocs(7, 150, 60);
  const Docs second = NormTableDocs(8, 120, 900);
  const Docs static_docs = NormTableDocs(9, 100, 300);
  const corpus::Corpus static_corpus = CorpusOf(static_docs);
  const index::InvertedIndex static_index =
      index::InvertedIndex::Build(static_corpus);
  SearchEngine static_engine(static_corpus, static_index, MakeBm25Scorer());

  index::live::LiveIndex live;
  live.EnsureTermSpace(kNormVocab);
  SearchEngine live_engine(static_corpus, live, MakeBm25Scorer());
  const OracleScorer oracle = OracleScorer::Of(Scorer::Kind::kBm25);

  Docs ingested;
  util::Rng rng(505);
  double last_avgdl = -1.0;
  for (const Docs* batch : {&first, &second, &first}) {
    live.Ingest(*batch);
    live.Refresh();
    ingested.insert(ingested.end(), batch->begin(), batch->end());
    ASSERT_NE(live.Acquire()->avg_doc_length(), last_avgdl);
    last_avgdl = live.Acquire()->avg_doc_length();
    for (int trial = 0; trial < 6; ++trial) {
      const std::vector<text::TermId> query = RandomNormQuery(&rng);
      ExpectSameBits(live_engine.Evaluate(query, 25),
                     BruteForceTopK(ingested, oracle, query, 25),
                     "live after " + std::to_string(ingested.size()) +
                         " docs, trial " + std::to_string(trial));
      ExpectSameBits(static_engine.Evaluate(query, 25),
                     BruteForceTopK(static_docs, oracle, query, 25),
                     "static, trial " + std::to_string(trial));
    }
  }
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
