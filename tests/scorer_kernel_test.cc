// Bit-parity of the per-term scoring kernels against the one-shot oracle
// formulas (tests/scorer_oracle.h).
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "search/engine.h"
#include "search/scorer.h"
#include "tests/scorer_oracle.h"

namespace toppriv::search {
namespace {

using toppriv::testing::OracleScorer;

constexpr uint32_t kNormTableSize = EvalScratch::kNormTableSize;

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// One statistics case of the grid. `dense_tfs` sweeps every tf in
/// [1, 2^16]; the edge cases, which only gate constant paths, sweep powers
/// of two and their neighbours.
struct StatsCase {
  std::string name;
  CollectionStats stats;
  bool dense_tfs;
};

std::vector<StatsCase> StatsCases() {
  return {
      {"typical", CollectionStats{20000, 137.25, 2745000}, true},
      {"avg_doc_length_zero", CollectionStats{1000, 0.0, 5000}, false},
      {"total_tokens_zero", CollectionStats{1000, 12.5, 0}, false},
      {"empty_collection", CollectionStats{0, 0.0, 0}, false},
  };
}

std::vector<uint32_t> DocLengths(const CollectionStats& stats) {
  return {0, 1, static_cast<uint32_t>(stats.avg_doc_length),
          std::numeric_limits<uint32_t>::max()};
}

std::vector<uint32_t> Dfs(const CollectionStats& stats) {
  const uint32_t n = static_cast<uint32_t>(stats.num_documents);
  return {0, 1, n / 2, n};
}

std::vector<uint32_t> Tfs(bool dense) {
  std::vector<uint32_t> tfs;
  if (dense) {
    for (uint32_t tf = 1; tf <= (1u << 16); ++tf) tfs.push_back(tf);
    return tfs;
  }
  for (uint32_t p = 1; p <= (1u << 16); p <<= 1) {
    tfs.push_back(p);
    tfs.push_back(p + 1);
  }
  return tfs;
}

/// Runs the full grid for one concrete scorer against its oracle.
template <typename S>
void ExpectKernelMatchesOracle(const S& scorer, const OracleScorer& oracle) {
  for (const StatsCase& sc : StatsCases()) {
    SCOPED_TRACE(scorer.Name() + " stats=" + sc.name);
    const std::vector<uint32_t> tfs = Tfs(sc.dense_tfs);
    for (uint32_t df : Dfs(sc.stats)) {
      for (uint32_t qtf = 1; qtf <= 4; ++qtf) {
        const typename S::Kernel kernel = scorer.PrepareTerm(sc.stats, df, qtf);
        for (uint32_t dl : DocLengths(sc.stats)) {
          for (uint32_t tf : tfs) {
            const double want = oracle.TermScore(sc.stats, dl, tf, df, qtf);
            const double got = kernel.Score(dl, tf);
            if (Bits(got) != Bits(want)) {
              ADD_FAILURE() << "Score df=" << df << " qtf=" << qtf
                            << " dl=" << dl << " tf=" << tf << ": " << got
                            << " vs oracle " << want;
              return;
            }
          }
        }
      }
    }
    for (uint32_t dl : DocLengths(sc.stats)) {
      for (double acc : {0.0, 1.0, 3.75, 123456.789, -2.5}) {
        EXPECT_EQ(Bits(scorer.Normalize(dl, acc)),
                  Bits(oracle.Normalize(dl, acc)))
            << "Normalize dl=" << dl << " acc=" << acc;
      }
    }
  }
}

TEST(ScorerKernelTest, TfIdfMatchesOracleBitForBit) {
  ExpectKernelMatchesOracle(TfIdfCosineScorer(),
                            OracleScorer::Of(Scorer::Kind::kTfIdfCosine));
}

TEST(ScorerKernelTest, Bm25MatchesOracleBitForBit) {
  ExpectKernelMatchesOracle(Bm25Scorer(),
                            OracleScorer::Of(Scorer::Kind::kBm25));
  OracleScorer tuned = OracleScorer::Of(Scorer::Kind::kBm25);
  tuned.k1 = 0.9;
  tuned.b = 0.4;
  ExpectKernelMatchesOracle(Bm25Scorer(0.9, 0.4), tuned);
}

/// The doc lengths the BM25 norm table splits on: both ends of the table,
/// the first length past it, and the extremes.
std::vector<uint32_t> NormTableDocLengths(const CollectionStats& stats) {
  std::vector<uint32_t> dls = DocLengths(stats);
  for (uint32_t dl : {kNormTableSize - 1, kNormTableSize,
                      kNormTableSize + 1}) {
    dls.push_back(dl);
  }
  return dls;
}

void ExpectBm25NormSplitMatchesOracle(const Bm25Scorer& scorer,
                                      const OracleScorer& oracle) {
  for (const StatsCase& sc : StatsCases()) {
    SCOPED_TRACE("stats=" + sc.name);
    for (uint32_t df : Dfs(sc.stats)) {
      for (uint32_t qtf = 1; qtf <= 3; ++qtf) {
        const Bm25Scorer::Kernel kernel = scorer.PrepareTerm(sc.stats, df, qtf);
        for (uint32_t dl : NormTableDocLengths(sc.stats)) {
          const double norm = kernel.Norm(dl);
          for (uint32_t tf : Tfs(/*dense=*/false)) {
            const double want = oracle.TermScore(sc.stats, dl, tf, df, qtf);
            ASSERT_EQ(Bits(kernel.ScoreWithNorm(norm, tf)), Bits(want))
                << "df=" << df << " qtf=" << qtf << " dl=" << dl
                << " tf=" << tf;
            ASSERT_EQ(Bits(kernel.Score(dl, tf)), Bits(want));
          }
        }
      }
    }
  }
}

TEST(ScorerKernelTest, Bm25NormSplitMatchesOracleBitForBit) {
  // The evaluator scores BM25 as ScoreWithNorm(table[dl], tf), the table
  // filled with Norm(dl); both halves together must be the oracle's bits,
  // on both sides of the table edge and with avgdl == 0.
  ExpectBm25NormSplitMatchesOracle(Bm25Scorer(),
                                   OracleScorer::Of(Scorer::Kind::kBm25));
  OracleScorer tuned = OracleScorer::Of(Scorer::Kind::kBm25);
  tuned.k1 = 2.0;
  tuned.b = 0.3;
  ExpectBm25NormSplitMatchesOracle(Bm25Scorer(2.0, 0.3), tuned);
}

TEST(ScorerKernelTest, Bm25NormIgnoresDocLengthWhenAvgdlIsZero) {
  const Bm25Scorer::Kernel kernel =
      Bm25Scorer().PrepareTerm(CollectionStats{10, 0.0, 0}, 3, 1);
  for (uint32_t dl : {0u, 1u, kNormTableSize, UINT32_MAX}) {
    EXPECT_EQ(Bits(kernel.Norm(dl)), Bits(kernel.Norm(0))) << "dl=" << dl;
  }
}

TEST(ScorerKernelTest, LmDirichletMatchesOracleBitForBit) {
  ExpectKernelMatchesOracle(LmDirichletScorer(),
                            OracleScorer::Of(Scorer::Kind::kLmDirichlet));
  OracleScorer small_mu = OracleScorer::Of(Scorer::Kind::kLmDirichlet);
  small_mu.mu = 100.0;
  ExpectKernelMatchesOracle(LmDirichletScorer(100.0), small_mu);
}

/// True when VisitScorer hands `scorer` to its callback as an `Expected`.
template <typename Expected>
bool VisitsAs(const Scorer& scorer) {
  return VisitScorer(scorer, [](const auto& s) {
    return std::is_same_v<std::decay_t<decltype(s)>, Expected>;
  });
}

TEST(ScorerKernelTest, VisitScorerReachesTheConcreteType) {
  EXPECT_TRUE(VisitsAs<TfIdfCosineScorer>(*MakeTfIdfScorer()));
  EXPECT_TRUE(VisitsAs<Bm25Scorer>(*MakeBm25Scorer()));
  EXPECT_TRUE(VisitsAs<LmDirichletScorer>(LmDirichletScorer()));
  EXPECT_EQ(MakeBm25Scorer()->kind(), Scorer::Kind::kBm25);
}

}  // namespace
}  // namespace toppriv::search
