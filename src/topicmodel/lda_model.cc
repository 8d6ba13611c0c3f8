#include "topicmodel/lda_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

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

// Edge of the transpose's square tiles: a 32 x 32 tile of floats spans 64
// cache lines on each side, which L1 holds.
constexpr size_t kTile = 32;

// Writes the row-major [rows x cols] float matrix at `src` (raw bytes at any
// alignment) to `dst` as [cols x rows], one tile at a time.
void Transpose(const char* src, size_t rows, size_t cols, float* dst) {
  for (size_t r0 = 0; r0 < rows; r0 += kTile) {
    const size_t r1 = std::min(rows, r0 + kTile);
    for (size_t c0 = 0; c0 < cols; c0 += kTile) {
      const size_t c1 = std::min(cols, c0 + kTile);
      for (size_t c = c0; c < c1; ++c) {
        float* out = dst + c * rows;
        for (size_t r = r0; r < r1; ++r) {
          std::memcpy(&out[r], src + (r * cols + c) * sizeof(float),
                      sizeof(float));
        }
      }
    }
  }
}

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
  std::vector<float> word_major(phi.size());
  Transpose(reinterpret_cast<const char*>(phi.data()), num_topics, vocab_size,
            word_major.data());
  return FromWordMajor(num_topics, vocab_size, std::move(word_major),
                       std::move(theta), alpha, beta);
}

LdaModel LdaModel::FromWordMajor(size_t num_topics, size_t vocab_size,
                                 std::vector<float> phi,
                                 std::vector<float> theta, double alpha,
                                 double beta) {
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
  for (size_t w = 0; w < vocab_size_; ++w) {
    const auto term = static_cast<text::TermId>(w);
    all.push_back(WordProb{term, Phi(t, term)});
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
  std::vector<float> topic_major(phi_.size());
  Transpose(reinterpret_cast<const char*>(phi_.data()), vocab_size_,
            num_topics_, topic_major.data());
  w.WriteFloatVector(topic_major);
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
  size_t phi_size = 0;
  const char* phi_bytes = nullptr;
  std::vector<float> theta;
  TOPPRIV_RETURN_IF_ERROR(r.ReadFloatArray(&phi_size, &phi_bytes));
  TOPPRIV_RETURN_IF_ERROR(r.ReadFloatVector(&theta));
  // Validate phi_size == num_topics * vocab_size by division: the product
  // of two attacker-controlled uint64 dimensions can wrap and collide with
  // the actual payload size (e.g. 2^32 x 2^32 "equals" an empty phi),
  // smuggling an inconsistent model past the check.
  if (num_topics == 0 || vocab_size == 0 ||
      phi_size / vocab_size != num_topics ||
      phi_size % vocab_size != 0 ||
      theta.size() % num_topics != 0) {
    return util::Status::DataLoss("inconsistent LDA model dimensions");
  }
  // Scatter straight from the byte buffer into the word-major store, so the
  // load holds one copy of phi.
  std::vector<float> phi(phi_size);
  Transpose(phi_bytes, num_topics, vocab_size, phi.data());
  if (!ValidWeights(phi) || !ValidWeights(theta)) {
    return util::Status::DataLoss("LDA model weight is negative or not finite");
  }
  if (!ValidHyperparameter(alpha) || !ValidHyperparameter(beta)) {
    return util::Status::DataLoss(
        "LDA model alpha or beta is not finite and positive");
  }
  return FromWordMajor(num_topics, vocab_size, std::move(phi),
                       std::move(theta), alpha, beta);
}

}  // namespace toppriv::topicmodel
