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

/// Immutable trained model.
class LdaModel {
 public:
  LdaModel() = default;

  LdaModel(const LdaModel&) = delete;
  LdaModel& operator=(const LdaModel&) = delete;
  LdaModel(LdaModel&&) = default;
  LdaModel& operator=(LdaModel&&) = default;

  /// Constructs from estimated parameters. `phi` is row-major
  /// [num_topics x vocab_size] with rows summing to 1; `theta` is row-major
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
    return phi_[static_cast<size_t>(t) * vocab_size_ + w];
  }
  /// Row view of Pr(.|t).
  util::Span<const float> PhiRow(TopicId t) const {
    return {phi_.data() + static_cast<size_t>(t) * vocab_size_, vocab_size_};
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

  /// Serialization (experiment cache). Deserialize returns DataLoss for
  /// inconsistent dimensions and for values Create would refuse.
  std::string Serialize() const;
  static util::StatusOr<LdaModel> Deserialize(const std::string& bytes);

 private:
  size_t num_topics_ = 0;
  size_t vocab_size_ = 0;
  double alpha_ = 0.0;
  double beta_ = 0.0;
  std::vector<float> phi_;
  std::vector<float> theta_;
  std::vector<double> prior_;
};

}  // namespace toppriv::topicmodel

#endif  // TOPPRIV_TOPICMODEL_LDA_MODEL_H_
