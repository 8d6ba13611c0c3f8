// Test-only reference for LdaInferencer::InferQuery: the dense fold-in
// sampler, kept verbatim from before the certified sparse sampler replaced
// it. Every Gibbs step builds the full T-topic CDF with a serial prefix sum
// and binary-searches it. The production sampler promises the same draws
// from the same RNG stream, so its posterior must equal this one bit for
// bit (topicmodel_test, lda_model_fuzz, fuzz_corpus_test).
#ifndef TOPPRIV_TESTS_FOLD_IN_ORACLE_H_
#define TOPPRIV_TESTS_FOLD_IN_ORACLE_H_

#include <cstdint>
#include <vector>

#include "text/vocabulary.h"
#include "topicmodel/inference.h"
#include "topicmodel/lda_model.h"
#include "util/check.h"
#include "util/hash.h"
#include "util/rng.h"

namespace toppriv::testing {

// FNV-1a over the term ids, so identical queries share an RNG stream.
inline uint64_t OracleHashTerms(const std::vector<text::TermId>& terms) {
  uint64_t h = util::kFnv1aOffsetBasis;
  for (text::TermId t : terms) h = util::Fnv1aStep(h, t);
  return h;
}

/// The dense fold-in sampler: Pr(t|q) for `terms` under `model`.
inline std::vector<double> DenseInferQuery(
    const topicmodel::LdaModel& model,
    const topicmodel::InferenceOptions& options,
    const std::vector<text::TermId>& terms) {
  using topicmodel::TopicId;
  const size_t num_topics = model.num_topics();
  const double alpha = model.alpha();

  // Keep only in-vocabulary tokens.
  std::vector<text::TermId> tokens;
  tokens.reserve(terms.size());
  for (text::TermId t : terms) {
    if (t < model.vocab_size()) tokens.push_back(t);
  }
  if (tokens.empty()) {
    return std::vector<double>(num_topics, 1.0 / static_cast<double>(num_topics));
  }

  util::Rng rng(options.seed ^ OracleHashTerms(tokens));

  std::vector<uint32_t> counts(num_topics, 0);
  std::vector<uint16_t> z(tokens.size());
  TOPPRIV_CHECK_LE(num_topics, 65535u);

  // Random init.
  for (size_t i = 0; i < tokens.size(); ++i) {
    uint16_t t = static_cast<uint16_t>(rng.UniformInt(num_topics));
    z[i] = t;
    ++counts[t];
  }

  std::vector<double> cdf(num_topics);
  std::vector<double> accum(num_topics, 0.0);
  size_t samples = 0;

  for (size_t iter = 0; iter < options.iterations; ++iter) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      uint16_t old_t = z[i];
      --counts[old_t];
      const text::TermId w = tokens[i];
      double total = 0.0;
      for (size_t t = 0; t < num_topics; ++t) {
        double p = (static_cast<double>(counts[t]) + alpha) *
                   model.Phi(static_cast<TopicId>(t), w);
        total += p;
        cdf[t] = total;
      }
      uint16_t new_t;
      if (total <= 0.0) {
        new_t = static_cast<uint16_t>(rng.UniformInt(num_topics));
      } else {
        double r = rng.Uniform() * total;
        size_t lo = 0, hi = num_topics - 1;
        while (lo < hi) {
          size_t mid = (lo + hi) / 2;
          if (cdf[mid] > r) {
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
        new_t = static_cast<uint16_t>(lo);
      }
      z[i] = new_t;
      ++counts[new_t];
    }
    if (iter >= options.burn_in) {
      ++samples;
      double denom = static_cast<double>(tokens.size()) +
                     static_cast<double>(num_topics) * alpha;
      for (size_t t = 0; t < num_topics; ++t) {
        accum[t] += (static_cast<double>(counts[t]) + alpha) / denom;
      }
    }
  }

  TOPPRIV_CHECK_GT(samples, 0u);
  for (double& v : accum) v /= static_cast<double>(samples);
  return accum;
}

}  // namespace toppriv::testing

#endif  // TOPPRIV_TESTS_FOLD_IN_ORACLE_H_
