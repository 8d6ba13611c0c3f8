// Query-time LDA inference: Pr(t|q) for unseen word bags, and the cycle
// posterior of paper Eq. 2.
//
// Inference folds the query into the trained model by Gibbs-sampling topic
// assignments for the query tokens with phi held fixed — the same
// "inference mode" the paper uses GibbsLDA++ for.
#ifndef TOPPRIV_TOPICMODEL_INFERENCE_H_
#define TOPPRIV_TOPICMODEL_INFERENCE_H_

#include <cstdint>
#include <vector>

#include "text/vocabulary.h"
#include "topicmodel/lda_model.h"

namespace toppriv::topicmodel {

/// Inference knobs.
struct InferenceOptions {
  /// Gibbs sweeps over the query tokens.
  size_t iterations = 30;
  /// Initial sweeps discarded before averaging.
  size_t burn_in = 10;
  /// Base seed; combined with a hash of the query so that the same query
  /// always yields the same posterior (deterministic, thread-compatible).
  uint64_t seed = 11;
};

/// Reusable Gibbs scratch buffers for InferQuery. One inference uses eight
/// vectors; on the serving hot path (one inference per candidate ghost)
/// allocating them per call would dominate, so callers in a loop keep a
/// workspace alive across calls. Not thread-safe: use one workspace per
/// thread (the workspace-less InferQuery overload does exactly that).
struct InferenceWorkspace {
  std::vector<text::TermId> tokens;
  std::vector<uint32_t> counts;
  std::vector<uint16_t> z;
  /// Topics with a nonzero count, ascending. During a draw it also still
  /// holds the drawn token's old topic, whose count may have dropped to 0.
  std::vector<uint16_t> nonzero;
  /// Topics whose count has been nonzero during this call, and a flag per
  /// topic for membership. Only these hold their own burn-in sum.
  std::vector<uint16_t> touched;
  std::vector<uint8_t> is_touched;
  /// Running burn-in sums of the touched topics.
  std::vector<double> accum;
  /// The dense CDF, built only by draws that take the exact path.
  std::vector<double> cdf;
};

/// Fold-in Gibbs inferencer over a fixed trained model.
///
/// Each Gibbs step draws a topic from p_t = (n_t + alpha) * Pr(w|t) by
/// inverting its CDF. The draw is exactly the one a dense sampler makes (a
/// serial prefix sum over all T topics, then a binary search), from the
/// same RNG stream, but is found in O(T/16 + 16 + |nonzero|): the CDF is
/// split into the smoothing part alpha * Pr(w|t), precomputed per word at
/// 16-topic block ends, and the count part n_t * Pr(w|t) over the few
/// topics holding tokens (the SparseLDA bucket split, Yao, Mimno &
/// McCallum, KDD 2009, without reordering the topics). A draw is accepted
/// only when both CDF values around it lie farther from the target than
/// a bound on the rounding gap between the two computations; otherwise
/// that one draw is redone with the dense loop (`lda.exact_fallbacks`).
class LdaInferencer {
 public:
  /// The inferencer borrows `model`, which must outlive it. Builds the
  /// per-word block table (vocab_size * ceil(T/16) doubles) in one pass
  /// over phi.
  explicit LdaInferencer(const LdaModel& model, InferenceOptions options = {});

  /// Posterior Pr(t|q) for a query given as a bag of term ids. Unknown ids
  /// (>= vocab_size) are ignored; an effectively-empty query returns the
  /// uniform distribution (the symmetric-alpha posterior). Uses a
  /// thread-local workspace, so it is safe to call concurrently.
  std::vector<double> InferQuery(const std::vector<text::TermId>& terms) const;

  /// Same, reusing the caller's scratch buffers (identical result).
  std::vector<double> InferQuery(const std::vector<text::TermId>& terms,
                                 InferenceWorkspace* workspace) const;

  /// Paper Eq. 2: Pr(t|{q1..qv}) = (1/v) * sum_i Pr(t|qi), treating every
  /// query in the cycle as equally likely to be the genuine one.
  static std::vector<double> CyclePosterior(
      const std::vector<std::vector<double>>& per_query_posteriors);

  const LdaModel& model() const { return model_; }
  const InferenceOptions& options() const { return options_; }

 private:
  const LdaModel& model_;
  InferenceOptions options_;
  size_t num_blocks_ = 0;
  /// Word-major [vocab_size x num_blocks_]: entry (w, b) is
  /// alpha * sum_{t < 16(b+1)} Pr(w|t), summed in double in topic order.
  std::vector<double> smoothing_cdf_;
};

}  // namespace toppriv::topicmodel

#endif  // TOPPRIV_TOPICMODEL_INFERENCE_H_
