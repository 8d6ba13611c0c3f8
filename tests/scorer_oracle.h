// Test-only oracle: the one-shot scoring formulas as they stood before the
// per-term kernel split, kept verbatim so tests can demand that the kernels
// (search/scorer.h) and every evaluation path built on them reproduce them
// bit for bit. Each function recomputes everything per call — IDF log
// included — exactly as the old virtual Scorer::TermScore did.
#ifndef TOPPRIV_TESTS_SCORER_ORACLE_H_
#define TOPPRIV_TESTS_SCORER_ORACLE_H_

#include <cmath>
#include <cstdint>

#include "search/scorer.h"

namespace toppriv::testing {

/// The reference formulas of one scorer configuration.
struct OracleScorer {
  search::Scorer::Kind kind = search::Scorer::Kind::kBm25;
  double k1 = 1.2;
  double b = 0.75;
  double mu = 1000.0;

  static OracleScorer Of(search::Scorer::Kind kind) {
    OracleScorer oracle;
    oracle.kind = kind;
    return oracle;
  }

  double TermScore(const search::CollectionStats& stats, uint32_t doc_length,
                   uint32_t tf, uint32_t df, uint32_t qtf) const {
    switch (kind) {
      case search::Scorer::Kind::kTfIdfCosine: {
        if (df == 0) return 0.0;
        double n = static_cast<double>(stats.num_documents);
        double idf = std::log(1.0 + n / static_cast<double>(df));
        double dtf = 1.0 + std::log(static_cast<double>(tf));
        double qw = static_cast<double>(qtf) * idf;
        return dtf * qw;
      }
      case search::Scorer::Kind::kBm25: {
        if (df == 0) return 0.0;
        double n = static_cast<double>(stats.num_documents);
        double idf =
            std::log(1.0 + (n - static_cast<double>(df) + 0.5) /
                               (static_cast<double>(df) + 0.5));
        double dl = static_cast<double>(doc_length);
        double avgdl = stats.avg_doc_length;
        double denom = static_cast<double>(tf) +
                       k1 * (1.0 - b + b * (avgdl > 0.0 ? dl / avgdl : 1.0));
        double tf_part = static_cast<double>(tf) * (k1 + 1.0) / denom;
        return idf * tf_part * static_cast<double>(qtf);
      }
      case search::Scorer::Kind::kLmDirichlet:
        break;
    }
    double total = static_cast<double>(stats.total_tokens);
    if (total <= 0.0) return 0.0;
    double p_coll = static_cast<double>(df > 0 ? df : 1) / total;
    return static_cast<double>(qtf) *
           std::log(1.0 + static_cast<double>(tf) / (mu * p_coll));
  }

  double Normalize(uint32_t doc_length, double accumulated) const {
    switch (kind) {
      case search::Scorer::Kind::kTfIdfCosine: {
        double len = static_cast<double>(doc_length);
        if (len <= 0.0) return 0.0;
        return accumulated / std::sqrt(len);
      }
      case search::Scorer::Kind::kBm25:
        return accumulated;
      case search::Scorer::Kind::kLmDirichlet:
        break;
    }
    double dl = static_cast<double>(doc_length);
    return accumulated + std::log(mu / (dl + mu));
  }
};

}  // namespace toppriv::testing

#endif  // TOPPRIV_TESTS_SCORER_ORACLE_H_
