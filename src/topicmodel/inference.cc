#include "topicmodel/inference.h"

#include <algorithm>
#include <limits>

#include "util/check.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace toppriv::topicmodel {

namespace {

// Topics per block of the smoothing table. A draw walks the ceil(T/16)
// block ends, then scans at most 16 topics.
constexpr size_t kBlock = 16;

// Returned by SparseDraw when it cannot certify its pick.
constexpr size_t kNoDraw = std::numeric_limits<size_t>::max();

// The sparse path runs only for totals in [kMinFastTotal, kMaxFastTotal].
// Below it the dense total could underflow to 0, where the dense sampler
// draws UniformInt instead of Uniform; above it the dense total or target
// could overflow.
constexpr double kMinFastTotal = std::numeric_limits<double>::min();
constexpr double kMaxFastTotal = std::numeric_limits<double>::max() / 2;

// FNV-1a over the term ids, so identical queries share an RNG stream.
uint64_t HashTerms(const std::vector<text::TermId>& terms) {
  uint64_t h = util::kFnv1aOffsetBasis;
  for (text::TermId t : terms) h = util::Fnv1aStep(h, t);
  return h;
}

// The dense step: the full prefix-sum CDF over all topics, then a binary
// search for the first entry above u * total. `phi_w` is the token's word
// row of phi; `u` is the uniform this step already drew, or negative if it
// drew none yet.
uint16_t DenseDraw(const float* phi_w, size_t num_topics, double alpha,
                   const std::vector<uint32_t>& counts, double u,
                   util::Rng* rng, std::vector<double>* cdf) {
  double total = 0.0;
  for (size_t t = 0; t < num_topics; ++t) {
    double p = (static_cast<double>(counts[t]) + alpha) *
               static_cast<double>(phi_w[t]);
    total += p;
    (*cdf)[t] = total;
  }
  if (total <= 0.0) {
    // The sparse path draws u only after proving the dense total positive.
    TOPPRIV_CHECK_LT(u, 0.0);
    return static_cast<uint16_t>(rng->UniformInt(num_topics));
  }
  if (u < 0.0) u = rng->Uniform();
  const double r = u * total;
  size_t lo = 0, hi = num_topics - 1;
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if ((*cdf)[mid] > r) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<uint16_t>(lo);
}

// The topic the dense step picks for target r, found from the block table:
// walk the block ends (smoothing part plus the running count part) to the
// first above r, then scan that block with the dense products. The pick t
// is returned only if the partial sums through t-1 and through t are both
// more than `delta` from r. As delta bounds how far these sums and r can
// be from the dense CDF and the dense target, the dense CDF then brackets
// the dense target at t too. Otherwise returns kNoDraw.
size_t SparseDraw(const float* phi_w, size_t num_topics, double alpha,
                  const double* smoothing_cdf, size_t num_blocks,
                  const InferenceWorkspace& ws, double r, double delta) {
  const size_t num_nonzero = ws.nonzero.size();
  size_t b = 0, j = 0;
  double below = 0.0, count_prefix = 0.0;
  for (;; ++b) {
    if (b == num_blocks) return kNoDraw;
    const size_t end = std::min(num_topics, (b + 1) * kBlock);
    for (; j < num_nonzero && ws.nonzero[j] < end; ++j) {
      count_prefix += static_cast<double>(ws.counts[ws.nonzero[j]]) *
                      static_cast<double>(phi_w[ws.nonzero[j]]);
    }
    const double above = smoothing_cdf[b] + count_prefix;
    if (above > r) break;
    below = above;
  }
  const size_t end = std::min(num_topics, (b + 1) * kBlock);
  double sum = below;
  for (size_t t = b * kBlock; t < end; ++t) {
    const double before = sum;
    sum += (static_cast<double>(ws.counts[t]) + alpha) *
           static_cast<double>(phi_w[t]);
    if (sum > r) return r - before > delta && sum - r > delta ? t : kNoDraw;
  }
  return kNoDraw;
}

}  // namespace

LdaInferencer::LdaInferencer(const LdaModel& model, InferenceOptions options)
    : model_(model),
      options_(options),
      num_blocks_((model.num_topics() + kBlock - 1) / kBlock) {
  TOPPRIV_CHECK_GT(options_.iterations, 0u);
  TOPPRIV_CHECK_LT(options_.burn_in, options_.iterations);
  // The sampler stores topic ids as uint16_t.
  TOPPRIV_CHECK_LE(model_.num_topics(), 65535u);

  // One pass per word over its phi row: block b's entry is alpha times the
  // topic-order sum of phi_tw over topics t < 16 (b + 1).
  const size_t num_topics = model_.num_topics();
  const size_t vocab_size = model_.vocab_size();
  smoothing_cdf_.resize(vocab_size * num_blocks_);
  for (size_t w = 0; w < vocab_size; ++w) {
    util::Span<const float> row = model_.PhiWord(static_cast<text::TermId>(w));
    double* out = &smoothing_cdf_[w * num_blocks_];
    double running = 0.0;
    for (size_t t = 0; t < num_topics; ++t) {
      running += row[t];
      if ((t + 1) % kBlock == 0 || t + 1 == num_topics) {
        out[t / kBlock] = model_.alpha() * running;
      }
    }
  }
}

std::vector<double> LdaInferencer::InferQuery(
    const std::vector<text::TermId>& terms) const {
  static thread_local InferenceWorkspace workspace;
  return InferQuery(terms, &workspace);
}

std::vector<double> LdaInferencer::InferQuery(
    const std::vector<text::TermId>& terms,
    InferenceWorkspace* workspace) const {
  const size_t num_topics = model_.num_topics();
  const double alpha = model_.alpha();

  // Keep only in-vocabulary tokens.
  std::vector<text::TermId>& tokens = workspace->tokens;
  tokens.clear();
  tokens.reserve(terms.size());
  for (text::TermId t : terms) {
    if (t < model_.vocab_size()) tokens.push_back(t);
  }
  if (tokens.empty()) {
    return std::vector<double>(num_topics, 1.0 / static_cast<double>(num_topics));
  }

  util::Rng rng(options_.seed ^ HashTerms(tokens));

  std::vector<uint32_t>& counts = workspace->counts;
  counts.assign(num_topics, 0);
  std::vector<uint16_t>& z = workspace->z;
  z.resize(tokens.size());

  // Random init.
  for (size_t i = 0; i < tokens.size(); ++i) {
    uint16_t t = static_cast<uint16_t>(rng.UniformInt(num_topics));
    z[i] = t;
    ++counts[t];
  }

  std::vector<uint16_t>& nonzero = workspace->nonzero;
  std::vector<uint16_t>& touched = workspace->touched;
  std::vector<uint8_t>& is_touched = workspace->is_touched;
  std::vector<double>& accum = workspace->accum;
  nonzero.clear();
  touched.clear();
  is_touched.assign(num_topics, 0);
  accum.resize(num_topics);
  for (size_t t = 0; t < num_topics; ++t) {
    if (counts[t] == 0) continue;
    nonzero.push_back(static_cast<uint16_t>(t));
    touched.push_back(static_cast<uint16_t>(t));
    is_touched[t] = 1;
    accum[t] = 0.0;
  }
  workspace->cdf.resize(num_topics);

  // Every topic whose count has stayed 0 gets the same burn-in addition
  // alpha / denom in the same order, so they all share this one sum; a
  // topic starts its own sum from it when it first gets a token.
  double untouched_sum = 0.0;
  size_t samples = 0;
  uint64_t fallbacks = 0;
  const double denom = static_cast<double>(tokens.size()) +
                       static_cast<double>(num_topics) * alpha;
  // Certification margin. The block sums and the dense prefix sums each
  // carry at most about (2T + 21) unit roundoffs of the total, and the two
  // targets u * total differ by the totals' gap plus one rounding each: in
  // all fewer than 6T + 30 roundoffs (2^-53) of the total, plus as many
  // half-subnormals for products that underflow. 16 (T + 4) covers it.
  const double slack = 16.0 * static_cast<double>(num_topics + 4);
  const double relative_slack = slack * 0x1p-53;
  const double absolute_slack =
      slack * std::numeric_limits<double>::denorm_min();

  for (size_t iter = 0; iter < options_.iterations; ++iter) {
    for (size_t i = 0; i < tokens.size(); ++i) {
      const uint16_t old_t = z[i];
      --counts[old_t];
      const text::TermId w = tokens[i];
      const float* phi_w = model_.PhiWord(w).data();
      const double* smoothing_cdf = &smoothing_cdf_[w * num_blocks_];
      // Summed in the order SparseDraw's block walk repeats, so its last
      // block end is exactly `total`.
      double count_mass = 0.0;
      for (uint16_t t : nonzero) {
        count_mass +=
            static_cast<double>(counts[t]) * static_cast<double>(phi_w[t]);
      }
      const double total = smoothing_cdf[num_blocks_ - 1] + count_mass;
      uint16_t new_t;
      if (total >= kMinFastTotal && total <= kMaxFastTotal) {
        const double u = rng.Uniform();
        const size_t pick = SparseDraw(
            phi_w, num_topics, alpha, smoothing_cdf, num_blocks_, *workspace,
            u * total, relative_slack * total + absolute_slack);
        if (pick != kNoDraw) {
          new_t = static_cast<uint16_t>(pick);
        } else {
          new_t = DenseDraw(phi_w, num_topics, alpha, counts, u, &rng,
                            &workspace->cdf);
          ++fallbacks;
        }
      } else {
        new_t = DenseDraw(phi_w, num_topics, alpha, counts, -1.0, &rng,
                          &workspace->cdf);
        ++fallbacks;
      }
      z[i] = new_t;
      if (new_t != old_t) {
        if (counts[old_t] == 0) {
          nonzero.erase(
              std::lower_bound(nonzero.begin(), nonzero.end(), old_t));
        }
        if (counts[new_t] == 0) {
          nonzero.insert(
              std::lower_bound(nonzero.begin(), nonzero.end(), new_t), new_t);
          if (!is_touched[new_t]) {
            is_touched[new_t] = 1;
            touched.push_back(new_t);
            accum[new_t] = untouched_sum;
          }
        }
      }
      ++counts[new_t];
    }
    if (iter >= options_.burn_in) {
      ++samples;
      for (uint16_t t : touched) {
        accum[t] += (static_cast<double>(counts[t]) + alpha) / denom;
      }
      // (0 + alpha) / denom, bit for bit.
      untouched_sum += alpha / denom;
    }
  }

  TOPPRIV_CHECK_GT(samples, 0u);
  const double n = static_cast<double>(samples);
  std::vector<double> posterior(num_topics, untouched_sum / n);
  for (uint16_t t : touched) posterior[t] = accum[t] / n;
  // One flush per inference call, after the sampler is done: the metrics
  // layer must never interleave with (let alone read) the RNG stream.
  TOPPRIV_COUNTER_INC("lda.inferences");
  TOPPRIV_COUNTER_ADD("lda.gibbs_iterations", options_.iterations);
  TOPPRIV_COUNTER_ADD("lda.gibbs_token_sweeps",
                      options_.iterations * tokens.size());
  TOPPRIV_COUNTER_ADD("lda.exact_fallbacks", fallbacks);
  (void)fallbacks;  // the macro vanishes under TOPPRIV_METRICS=OFF
  return posterior;
}

std::vector<double> LdaInferencer::CyclePosterior(
    const std::vector<std::vector<double>>& per_query_posteriors) {
  TOPPRIV_CHECK(!per_query_posteriors.empty());
  const size_t num_topics = per_query_posteriors.front().size();
  std::vector<double> out(num_topics, 0.0);
  for (const auto& posterior : per_query_posteriors) {
    TOPPRIV_CHECK_EQ(posterior.size(), num_topics);
    for (size_t t = 0; t < num_topics; ++t) out[t] += posterior[t];
  }
  const double inv = 1.0 / static_cast<double>(per_query_posteriors.size());
  for (double& v : out) v *= inv;
  return out;
}

}  // namespace toppriv::topicmodel
