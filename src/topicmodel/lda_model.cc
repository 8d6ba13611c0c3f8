#include "topicmodel/lda_model.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/io.h"

namespace toppriv::topicmodel {

namespace {

// Every weight is a finite probability mass and every hyperparameter a
// finite positive pseudo-count: the fold-in sampler's certified fast path
// relies on both (non-negative terms keep its prefix sums monotone, and
// alpha > 0 keeps every topic reachable).
bool ValidWeights(const std::vector<float>& weights) {
  return std::all_of(weights.begin(), weights.end(),
                     [](float v) { return std::isfinite(v) && v >= 0.0f; });
}

bool ValidHyperparameter(double v) { return std::isfinite(v) && v > 0.0; }

}  // namespace

LdaModel LdaModel::Create(size_t num_topics, size_t vocab_size,
                          std::vector<float> phi, std::vector<float> theta,
                          double alpha, double beta) {
  TOPPRIV_CHECK_GT(num_topics, 0u);
  TOPPRIV_CHECK_GT(vocab_size, 0u);
  TOPPRIV_CHECK_EQ(phi.size(), num_topics * vocab_size);
  TOPPRIV_CHECK_EQ(theta.size() % num_topics, 0u);
  TOPPRIV_CHECK(ValidWeights(phi));
  TOPPRIV_CHECK(ValidWeights(theta));
  TOPPRIV_CHECK(ValidHyperparameter(alpha));
  TOPPRIV_CHECK(ValidHyperparameter(beta));
  LdaModel model;
  model.num_topics_ = num_topics;
  model.vocab_size_ = vocab_size;
  model.alpha_ = alpha;
  model.beta_ = beta;
  model.phi_ = std::move(phi);
  model.theta_ = std::move(theta);

  // Prior belief per Eq. 1: uniform average of Pr(t|d) over documents.
  model.prior_.assign(num_topics, 0.0);
  size_t num_docs = model.num_docs();
  if (num_docs > 0) {
    for (size_t d = 0; d < num_docs; ++d) {
      for (size_t t = 0; t < num_topics; ++t) {
        model.prior_[t] += model.theta_[d * num_topics + t];
      }
    }
    for (double& p : model.prior_) p /= static_cast<double>(num_docs);
  } else {
    for (double& p : model.prior_) p = 1.0 / static_cast<double>(num_topics);
  }
  return model;
}

std::vector<WordProb> LdaModel::TopWords(TopicId t, size_t k) const {
  TOPPRIV_CHECK_LT(t, num_topics_);
  std::vector<WordProb> all;
  all.reserve(vocab_size_);
  util::Span<const float> row = PhiRow(t);
  for (size_t w = 0; w < vocab_size_; ++w) {
    all.push_back(WordProb{static_cast<text::TermId>(w), row[w]});
  }
  size_t keep = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + keep, all.end(),
                    [](const WordProb& a, const WordProb& b) {
                      if (a.prob != b.prob) return a.prob > b.prob;
                      return a.term < b.term;
                    });
  all.resize(keep);
  return all;
}

size_t LdaModel::SizeBytes() const {
  return phi_.size() * sizeof(float) + theta_.size() * sizeof(float) +
         prior_.size() * sizeof(double);
}

std::string LdaModel::Serialize() const {
  util::BinaryWriter w;
  w.WriteVarint(num_topics_);
  w.WriteVarint(vocab_size_);
  w.WriteDouble(alpha_);
  w.WriteDouble(beta_);
  w.WriteFloatVector(phi_);
  w.WriteFloatVector(theta_);
  return w.data();
}

util::StatusOr<LdaModel> LdaModel::Deserialize(const std::string& bytes) {
  util::BinaryReader r(bytes);
  uint64_t num_topics = 0, vocab_size = 0;
  double alpha = 0.0, beta = 0.0;
  TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&num_topics));
  TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&vocab_size));
  TOPPRIV_RETURN_IF_ERROR(r.ReadDouble(&alpha));
  TOPPRIV_RETURN_IF_ERROR(r.ReadDouble(&beta));
  std::vector<float> phi, theta;
  TOPPRIV_RETURN_IF_ERROR(r.ReadFloatVector(&phi));
  TOPPRIV_RETURN_IF_ERROR(r.ReadFloatVector(&theta));
  // Validate phi.size() == num_topics * vocab_size by division: the product
  // of two attacker-controlled uint64 dimensions can wrap and collide with
  // the actual payload size (e.g. 2^32 x 2^32 "equals" an empty phi),
  // smuggling an inconsistent model past the check.
  if (num_topics == 0 || vocab_size == 0 ||
      phi.size() / vocab_size != num_topics ||
      phi.size() % vocab_size != 0 ||
      theta.size() % num_topics != 0) {
    return util::Status::DataLoss("inconsistent LDA model dimensions");
  }
  if (!ValidWeights(phi) || !ValidWeights(theta)) {
    return util::Status::DataLoss("LDA model weight is negative or not finite");
  }
  if (!ValidHyperparameter(alpha) || !ValidHyperparameter(beta)) {
    return util::Status::DataLoss(
        "LDA model alpha or beta is not finite and positive");
  }
  return Create(num_topics, vocab_size, std::move(phi), std::move(theta),
                alpha, beta);
}

}  // namespace toppriv::topicmodel
