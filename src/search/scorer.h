// Similarity scoring functions for the vector space model.
//
// The paper assumes a conventional similarity engine ("the classical vector
// space model [7]"); we provide TF-IDF cosine, Okapi BM25 and a Dirichlet-
// smoothed query-likelihood scorer so the substrate matches what enterprise
// engines actually run. Scorers are stateless w.r.t. queries and consume
// COLLECTION-level statistics only, passed explicitly as a CollectionStats:
// with a sharded index each shard scores against the global statistics
// (distributed-IR "global IDF"), which is what keeps sharded rankings
// bit-identical to the monolithic engine's.
//
// KERNELS. Scoring is split in two steps. `PrepareTerm(stats, df, qtf)`
// runs once per (index part, query term) and folds everything that does
// not depend on the posting into a small concrete kernel: BM25's IDF and
// k1 + 1, TF-IDF's qtf·idf, LM-Dirichlet's mu·p(w|C). `Kernel::Score(dl,
// tf)` is the per-posting remainder. The evaluation core dispatches once
// per part on the concrete scorer (VisitScorer, over the closed set of
// three), so the posting loop makes no virtual call and no per-posting IDF
// log.
//
// PARITY RULE. A kernel evaluates the SAME floating-point expression, in
// the same order, as the one-shot formula it replaces; only identical
// subexpressions are precomputed. BM25 stays (idf·tf_part)·qtf — idf·qtf
// is never folded into one constant, which would round differently. That
// is what keeps every score bit-identical across the split, and
// tests/scorer_kernel_test.cc checks it against a copy of the one-shot
// formulas over a grid of doc lengths, tfs, dfs, qtfs and edge statistics.
//
// Kernel domain: tf >= 1 (postings never carry tf 0). A term with df == 0
// (TF-IDF, BM25) or a collection with total_tokens == 0 (LM-Dirichlet)
// yields a kernel whose Score is exactly +0.0.
//
// Positivity contract: for df >= 1 (every term the evaluation core scores)
// each posting's Score is > 0, which the core relies on to read a zero
// accumulator slot as "not yet touched" (EvalScratch). BM25: idf > 0 for
// df <= N, and tf_part > 0 for k1 >= 0 and 0 <= b <= 1. TF-IDF: at least
// qtf·log(1 + N/df). LM-Dirichlet: qtf·log(1 + tf/(mu·p)) > 0. A sum of
// positive numbers never returns to 0. The constructors check those
// parameter ranges. Extreme values inside them can still round a
// contribution to 0 (a mu near 1e16 underflows the log); the core checks
// its touched count per block, so that aborts instead of overrunning.
#ifndef TOPPRIV_SEARCH_SCORER_H_
#define TOPPRIV_SEARCH_SCORER_H_

#include <cmath>
#include <memory>
#include <string>

#include "index/inverted_index.h"

namespace toppriv::search {

/// Collection-wide statistics a scorer consumes. For a monolithic index
/// these mirror the index's own accessors; for a sharded index they are the
/// manifest's aggregates over every shard.
struct CollectionStats {
  size_t num_documents = 0;
  double avg_doc_length = 0.0;
  uint64_t total_tokens = 0;

  static CollectionStats Of(const index::InvertedIndex& index) {
    return CollectionStats{index.num_documents(), index.avg_doc_length(),
                           index.total_tokens()};
  }
};

class TfIdfCosineScorer;
class Bm25Scorer;
class LmDirichletScorer;

/// The scorer a SearchEngine is configured with. The set is closed (the
/// constructor is private to the three scorers below) so the engine can
/// dispatch once per part to concrete kernels with VisitScorer.
///
/// Every concrete scorer S provides:
///  - `S::Kernel S::PrepareTerm(const CollectionStats&, uint32_t df,
///    uint32_t qtf) const` — the per-term constants;
///  - `double S::Kernel::Score(uint32_t doc_length, uint32_t tf) const` —
///    one posting's contribution;
///  - `double S::Normalize(uint32_t doc_length, double accumulated) const`
///    — the per-document normalization applied after accumulation.
class Scorer {
 public:
  enum class Kind { kTfIdfCosine, kBm25, kLmDirichlet };

  virtual ~Scorer() = default;

  Kind kind() const { return kind_; }

  /// Scorer name for logs and benches.
  virtual std::string Name() const = 0;

 private:
  friend class TfIdfCosineScorer;
  friend class Bm25Scorer;
  friend class LmDirichletScorer;
  explicit Scorer(Kind kind) : kind_(kind) {}

  const Kind kind_;
};

/// Classic lnc.ltc-style TF-IDF with cosine length normalization
/// (approximated by document token length).
class TfIdfCosineScorer final : public Scorer {
 public:
  struct Kernel {
    /// qtf · log(1 + N / df); 0 when df == 0.
    double qw = 0.0;

    double Score(uint32_t doc_length, uint32_t tf) const {
      (void)doc_length;
      const double dtf = 1.0 + std::log(static_cast<double>(tf));
      return dtf * qw;
    }
  };

  TfIdfCosineScorer() : Scorer(Kind::kTfIdfCosine) {}
  Kernel PrepareTerm(const CollectionStats& stats, uint32_t df,
                     uint32_t qtf) const;
  double Normalize(uint32_t doc_length, double accumulated) const {
    const double len = static_cast<double>(doc_length);
    if (len <= 0.0) return 0.0;
    return accumulated / std::sqrt(len);
  }
  std::string Name() const override { return "tfidf-cosine"; }
};

/// Okapi BM25 with standard parameters.
class Bm25Scorer final : public Scorer {
 public:
  struct Kernel {
    /// log(1 + (N - df + 0.5) / (df + 0.5)); 0 when df == 0.
    double idf = 0.0;
    double k1 = 0.0;
    double k1_plus_1 = 0.0;
    double one_minus_b = 0.0;
    double b = 0.0;
    double avgdl = 0.0;
    double qtf = 0.0;

    /// The length norm k1·(1−b+b·dl/avgdl): the only part of Score that
    /// reads the document, and it reads only its length. It reads k1,
    /// one_minus_b, b and avgdl, none of which depends on the term, so one
    /// table of it serves every term of every query over the same
    /// statistics (EvalScratch keeps one).
    double Norm(uint32_t doc_length) const {
      const double dl = static_cast<double>(doc_length);
      return k1 * (one_minus_b + b * (avgdl > 0.0 ? dl / avgdl : 1.0));
    }

    /// Score given `norm` == Norm(doc_length).
    double ScoreWithNorm(double norm, uint32_t tf) const {
      const double denom = static_cast<double>(tf) + norm;
      const double tf_part = static_cast<double>(tf) * k1_plus_1 / denom;
      return idf * tf_part * qtf;
    }

    double Score(uint32_t doc_length, uint32_t tf) const {
      return ScoreWithNorm(Norm(doc_length), tf);
    }
  };

  /// Requires a finite k1 >= 0 and 0 <= b <= 1 (the positivity contract).
  explicit Bm25Scorer(double k1 = 1.2, double b = 0.75);
  Kernel PrepareTerm(const CollectionStats& stats, uint32_t df,
                     uint32_t qtf) const;
  double Normalize(uint32_t doc_length, double accumulated) const {
    (void)doc_length;
    return accumulated;
  }
  std::string Name() const override { return "bm25"; }

 private:
  double k1_;
  double b_;
};

/// Dirichlet-smoothed query likelihood (language modeling approach). The
/// collection language model comes from CollectionStats::total_tokens.
class LmDirichletScorer final : public Scorer {
 public:
  struct Kernel {
    /// The query term frequency; 0 when the collection has no tokens.
    double qtf = 0.0;
    /// mu · p(w|C).
    double mu_p_coll = 1.0;

    double Score(uint32_t doc_length, uint32_t tf) const {
      (void)doc_length;
      return qtf * std::log(1.0 + static_cast<double>(tf) / mu_p_coll);
    }
  };

  /// Requires a finite mu > 0.
  explicit LmDirichletScorer(double mu = 1000.0);
  Kernel PrepareTerm(const CollectionStats& stats, uint32_t df,
                     uint32_t qtf) const;
  double Normalize(uint32_t doc_length, double accumulated) const {
    const double dl = static_cast<double>(doc_length);
    return accumulated + std::log(mu_ / (dl + mu_));
  }
  std::string Name() const override { return "lm-dirichlet"; }

 private:
  double mu_;
};

/// Calls `fn` with `scorer` downcast to its concrete type and returns what
/// it returns. Every instantiation of `fn` must return the same type.
template <typename Fn>
auto VisitScorer(const Scorer& scorer, Fn&& fn) {
  switch (scorer.kind()) {
    case Scorer::Kind::kTfIdfCosine:
      return fn(static_cast<const TfIdfCosineScorer&>(scorer));
    case Scorer::Kind::kBm25:
      return fn(static_cast<const Bm25Scorer&>(scorer));
    case Scorer::Kind::kLmDirichlet:
      break;
  }
  return fn(static_cast<const LmDirichletScorer&>(scorer));
}

/// Factory helpers.
std::unique_ptr<Scorer> MakeTfIdfScorer();
std::unique_ptr<Scorer> MakeBm25Scorer(double k1 = 1.2, double b = 0.75);

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_SCORER_H_
