// Trained LDA model: the Pr(w|t), Pr(t|d) and prior Pr(t) structures the
// paper's TopPriv framework consumes (Section IV-B, Eq. 1).
#ifndef TOPPRIV_TOPICMODEL_LDA_MODEL_H_
#define TOPPRIV_TOPICMODEL_LDA_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/vocabulary.h"
#include "util/span.h"
#include "util/status.h"

namespace toppriv::topicmodel {

/// Dense topic identifier (0 .. num_topics-1).
using TopicId = uint32_t;

/// A (word, probability) pair for top-word listings (paper Tables II-IV).
struct WordProb {
  text::TermId term = 0;
  double prob = 0.0;
};

/// Immutable trained model. φ is stored word-major, [vocab_size x
/// num_topics]: the fold-in sampler reads Pr(w|t) for every topic of one
/// word per token, so that row is contiguous. The serialized form stays
/// topic-major and is transposed on load.
class LdaModel {
 public:
  LdaModel() = default;

  LdaModel(const LdaModel&) = delete;
  LdaModel& operator=(const LdaModel&) = delete;
  LdaModel(LdaModel&&) = default;
  LdaModel& operator=(LdaModel&&) = default;

  /// Constructs from estimated parameters. `phi` is topic-major, row-major
  /// [num_topics x vocab_size] with rows summing to 1, and is transposed
  /// into the word-major store; `theta` is row-major
  /// [num_docs x num_topics]; `alpha`/`beta` are the training
  /// hyperparameters (needed again at inference time). Every phi/theta
  /// entry must be finite and non-negative, and alpha/beta finite and
  /// positive (CHECKed).
  static LdaModel Create(size_t num_topics, size_t vocab_size,
                         std::vector<float> phi, std::vector<float> theta,
                         double alpha, double beta);

  size_t num_topics() const { return num_topics_; }
  size_t vocab_size() const { return vocab_size_; }
  size_t num_docs() const {
    return num_topics_ == 0 ? 0 : theta_.size() / num_topics_;
  }
  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

  /// Pr(w|t): probability of term `w` under topic `t`.
  double Phi(TopicId t, text::TermId w) const {
    return phi_[static_cast<size_t>(w) * num_topics_ + t];
  }
  /// Pr(w|t) for every topic t of one word, in topic order.
  util::Span<const float> PhiWord(text::TermId w) const {
    return {phi_.data() + static_cast<size_t>(w) * num_topics_, num_topics_};
  }

  /// Pr(t|d) for a training document.
  double Theta(size_t doc, TopicId t) const {
    return theta_[doc * num_topics_ + t];
  }

  /// Prior belief Pr(t) = (1/|D|) sum_d Pr(t|d)  (paper Eq. 1).
  const std::vector<double>& prior() const { return prior_; }

  /// Top-k most probable terms of a topic (descending probability).
  std::vector<WordProb> TopWords(TopicId t, size_t k) const;

  /// Byte footprint of the model structures (phi + theta + prior), the
  /// quantity plotted in the paper's Fig. 6 (its LDA200 was ~140 MB).
  size_t SizeBytes() const;

  /// Serialization (experiment cache). The format writes φ topic-major, as
  /// Create takes it. Deserialize returns DataLoss for inconsistent
  /// dimensions and for values Create would refuse.
  std::string Serialize() const;
  static util::StatusOr<LdaModel> Deserialize(const std::string& bytes);

 private:
  // Finishes a model whose φ is already word-major, from values that
  // Create or Deserialize has validated.
  static LdaModel FromWordMajor(size_t num_topics, size_t vocab_size,
                                std::vector<float> phi,
                                std::vector<float> theta, double alpha,
                                double beta);

  size_t num_topics_ = 0;
  size_t vocab_size_ = 0;
  double alpha_ = 0.0;
  double beta_ = 0.0;
  std::vector<float> phi_;  // word-major [vocab_size x num_topics]
  std::vector<float> theta_;
  std::vector<double> prior_;
};

}  // namespace toppriv::topicmodel

#endif  // TOPPRIV_TOPICMODEL_LDA_MODEL_H_
