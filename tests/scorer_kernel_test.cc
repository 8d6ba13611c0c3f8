// Bit-parity of the per-term scoring kernels against the one-shot oracle
// formulas (tests/scorer_oracle.h), plus the monotonicity contract the
// MaxScore bounds rely on.
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "search/scorer.h"
#include "tests/scorer_oracle.h"

namespace toppriv::search {
namespace {

using toppriv::testing::OracleScorer;

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
        for (uint32_t max_tf : {0u, 1u, 2u, 7u, 128u, 1u << 16}) {
          EXPECT_EQ(Bits(TermUpperBound(kernel, max_tf)),
                    Bits(oracle.UpperBound(sc.stats, df, max_tf, qtf)))
              << "UpperBound df=" << df << " qtf=" << qtf
              << " max_tf=" << max_tf;
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

TEST(ScorerKernelTest, LmDirichletMatchesOracleBitForBit) {
  ExpectKernelMatchesOracle(LmDirichletScorer(),
                            OracleScorer::Of(Scorer::Kind::kLmDirichlet));
  OracleScorer small_mu = OracleScorer::Of(Scorer::Kind::kLmDirichlet);
  small_mu.mu = 100.0;
  ExpectKernelMatchesOracle(LmDirichletScorer(100.0), small_mu);
}

// The contract TermUpperBound relies on: through the exact floating-point
// operations, Score is non-decreasing in tf and non-increasing in doc
// length.
template <typename S>
void ExpectMonotone(const S& scorer) {
  const CollectionStats stats{20000, 137.25, 2745000};
  const std::vector<uint32_t> dls = {0, 1, 2, 50, 137, 138, 1000, 1u << 20,
                                     std::numeric_limits<uint32_t>::max()};
  for (uint32_t df : {1u, 10u, 10000u, 20000u}) {
    for (uint32_t qtf : {1u, 3u}) {
      const typename S::Kernel kernel = scorer.PrepareTerm(stats, df, qtf);
      for (size_t d = 0; d < dls.size(); ++d) {
        double prev = kernel.Score(dls[d], 1);
        for (uint32_t tf = 2; tf <= 4096; ++tf) {
          const double s = kernel.Score(dls[d], tf);
          ASSERT_GE(s, prev) << scorer.Name() << " df=" << df << " tf=" << tf;
          prev = s;
        }
        if (d == 0) continue;
        for (uint32_t tf : {1u, 2u, 17u, 4096u}) {
          ASSERT_LE(kernel.Score(dls[d], tf), kernel.Score(dls[d - 1], tf))
              << scorer.Name() << " df=" << df << " dl=" << dls[d];
        }
      }
    }
  }
}

TEST(ScorerKernelTest, ScoresAreMonotoneInTfAndDocLength) {
  ExpectMonotone(TfIdfCosineScorer());
  ExpectMonotone(Bm25Scorer());
  ExpectMonotone(LmDirichletScorer());
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
