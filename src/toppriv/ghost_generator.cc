#include "toppriv/ghost_generator.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "toppriv/belief.h"
#include "util/check.h"
#include "util/timer.h"

namespace toppriv::core {

namespace {

// Exposure of intention U under the Eq. 2 mixture whose per-topic posterior
// sums are `sum` (over `count` queries), optionally with one more candidate
// posterior appended. This is the running-sum form of CyclePosterior: the
// mixture for topic t is (sum[t] [+ candidate[t]]) / count, accumulated in
// the same order as a from-scratch recomputation, so accept/reject
// decisions are bit-identical to the O(v*T) version this replaces.
double MixtureExposure(const std::vector<double>& sum,
                       const std::vector<double>* candidate, size_t count,
                       const topicmodel::LdaModel& model,
                       const std::vector<topicmodel::TopicId>& intention) {
  if (intention.empty()) return 0.0;
  const std::vector<double>& prior = model.prior();
  const double inv = 1.0 / static_cast<double>(count);
  double worst = 0.0;
  bool first = true;
  for (topicmodel::TopicId t : intention) {
    double mixed = candidate == nullptr ? sum[t] : sum[t] + (*candidate)[t];
    double boost = mixed * inv - prior[t];
    if (first || boost > worst) {
      worst = boost;
      first = false;
    }
  }
  return worst;
}

}  // namespace

TopicCdfTable::TopicCdfTable(const topicmodel::LdaModel& model) {
  // Word-outer, so phi is read in its storage order; each topic's running
  // sum still adds its words in order.
  const size_t num_topics = model.num_topics();
  const size_t vocab_size = model.vocab_size();
  cdfs_.resize(num_topics);
  for (std::vector<double>& cdf : cdfs_) cdf.reserve(vocab_size);
  std::vector<double> acc(num_topics, 0.0);
  for (size_t w = 0; w < vocab_size; ++w) {
    util::Span<const float> row = model.PhiWord(static_cast<text::TermId>(w));
    for (size_t t = 0; t < num_topics; ++t) {
      acc[t] += static_cast<double>(row[t]);
      cdfs_[t].push_back(acc[t]);
    }
  }
}

GhostQueryGenerator::GhostQueryGenerator(
    const topicmodel::LdaModel& model,
    const topicmodel::LdaInferencer& inferencer, PrivacySpec spec,
    GeneratorOptions options)
    : model_(model),
      inferencer_(inferencer),
      spec_(spec),
      options_(std::move(options)) {
  TOPPRIV_CHECK(spec_.Validate().ok());
  // Precompute the sampling CDFs once, eagerly: the previous lazy fill-in
  // under SampleGhostTerms was a data race the moment two threads shared a
  // generator, and cost nothing to hoist here.
  if (options_.coherent_ghosts) {
    if (options_.shared_topic_cdfs != nullptr) {
      TOPPRIV_CHECK_EQ(options_.shared_topic_cdfs->num_topics(),
                       model_.num_topics());
    } else {
      owned_topic_cdfs_ = std::make_unique<TopicCdfTable>(model_);
    }
  } else {
    // Ablation: uniform over the vocabulary (TrackMeNot-style random words).
    const size_t vocab_size = model_.vocab_size();
    uniform_cdf_.reserve(vocab_size);
    for (size_t w = 0; w < vocab_size; ++w) {
      uniform_cdf_.push_back(static_cast<double>(w + 1));
    }
  }
}

const std::vector<double>& GhostQueryGenerator::TopicCdf(
    topicmodel::TopicId topic) const {
  const TopicCdfTable* table = options_.shared_topic_cdfs != nullptr
                                   ? options_.shared_topic_cdfs
                                   : owned_topic_cdfs_.get();
  TOPPRIV_CHECK(table != nullptr);
  TOPPRIV_CHECK_LT(topic, table->num_topics());
  return table->row(topic);
}

std::vector<text::TermId> GhostQueryGenerator::SampleGhostTerms(
    topicmodel::TopicId topic, size_t length, util::Rng* rng) {
  const size_t vocab_size = model_.vocab_size();
  length = std::min(length, vocab_size);

  std::vector<text::TermId>* cached = nullptr;
  std::unordered_set<text::TermId> used;
  std::vector<text::TermId> terms;
  if (options_.ghost_cache != nullptr) {
    cached = &(*options_.ghost_cache)[topic];
    if (cached->size() >= length) {
      // Reuse the memoized ghost but honor the requested length: replaying
      // a wrong-length ghost verbatim would both mismatch |qg| ~ |qu| and
      // hand the adversary a deterministic marker (Section IV-D's defense
      // is the randomized choice).
      return std::vector<text::TermId>(cached->begin(),
                                       cached->begin() + length);
    }
    // Longer request: extend the memoized ghost, keeping it as a prefix so
    // the cover story stays consistent across cycles.
    terms = *cached;
    used.insert(terms.begin(), terms.end());
  }

  const std::vector<double>& cdf =
      options_.coherent_ghosts ? TopicCdf(topic) : uniform_cdf_;

  terms.reserve(length);
  size_t attempts = 0;
  const size_t max_attempts = 60 * length + 200;
  while (terms.size() < length && attempts < max_attempts) {
    ++attempts;
    text::TermId w = static_cast<text::TermId>(rng->DiscreteFromCdf(cdf));
    if (used.insert(w).second) terms.push_back(w);
  }
  if (cached != nullptr && terms.size() > cached->size()) {
    *cached = terms;
  }
  return terms;
}

QueryCycle GhostQueryGenerator::Protect(
    const std::vector<text::TermId>& user_query, util::Rng* rng) {
  util::WallTimer timer;
  const size_t num_topics = model_.num_topics();

  QueryCycle cycle;

  // Step 1: infer Pr(t|qu), extract U.
  BeliefProfile user_profile = MakeBeliefProfile(
      model_, inferencer_.InferQuery(user_query, &workspace_));
  cycle.intention = ExtractIntention(user_profile, spec_.epsilon1);
  cycle.user_boost = user_profile.boost;
  cycle.exposure_before = Exposure(user_profile.boost, cycle.intention);

  // Step 2: C = {qu}; Tm = X = empty. The cycle's Eq. 2 state is the
  // running per-topic posterior sum over the accepted queries.
  std::vector<std::vector<text::TermId>> queries = {user_query};
  std::vector<double> posterior_sum = std::move(user_profile.posterior);
  size_t cycle_queries = 1;
  std::vector<bool> in_u(num_topics, false);
  for (topicmodel::TopicId t : cycle.intention) in_u[t] = true;
  std::vector<bool> in_tm(num_topics, false);
  std::vector<bool> in_x(num_topics, false);

  const bool has_preference = !options_.preferred_masking_topics.empty();

  // Returns the usable masking-topic candidates. When a session cover story
  // is configured, its topics come first IN PREFERENCE ORDER and
  // `use_in_order` is set: the caller must then take the front candidate
  // rather than a random one, so that consecutive cycles exercise the same
  // cover topics (otherwise short cycles would sample random cover subsets
  // and the cover would churn, defeating its purpose).
  auto candidate_topics = [&](bool* use_in_order) {
    std::vector<topicmodel::TopicId> out;
    *use_in_order = false;
    if (has_preference) {
      for (topicmodel::TopicId t : options_.preferred_masking_topics) {
        if (t < num_topics && !in_u[t] && !in_tm[t] && !in_x[t]) {
          out.push_back(t);
        }
      }
      if (!out.empty()) {
        *use_in_order = true;
        return out;
      }
    }
    for (size_t t = 0; t < num_topics; ++t) {
      if (!in_u[t] && !in_tm[t] && !in_x[t]) {
        out.push_back(static_cast<topicmodel::TopicId>(t));
      }
    }
    return out;
  };

  const bool fixed_mode = spec_.fixed_ghost_count > 0;
  // Set once fixed mode exhausts all candidate topics: from then on ghosts
  // are accepted unconditionally so the requested count is always reached.
  bool relax_rejection = false;
  double current_exposure = MixtureExposure(posterior_sum, nullptr,
                                            cycle_queries, model_,
                                            cycle.intention);

  // Step 3: add ghosts until the intention is suppressed below epsilon2
  // (or, in fixed mode, until the requested count is reached).
  for (;;) {
    if (fixed_mode) {
      if (queries.size() - 1 >= spec_.fixed_ghost_count) break;
    } else {
      if (current_exposure <= spec_.epsilon2) break;
    }

    bool use_in_order = false;
    std::vector<topicmodel::TopicId> candidates = candidate_topics(&use_in_order);
    if (candidates.empty()) {
      if (fixed_mode) {
        // Reset X so the fixed count can always be met (the stopping rule
        // here is the count, not the exposure test), and stop rejecting —
        // otherwise the same topics would be rejected forever.
        relax_rejection = true;
        for (size_t t = 0; t < num_topics; ++t) in_x[t] = false;
        candidates = candidate_topics(&use_in_order);
        if (candidates.empty()) {
          // Every topic is in U or already used for a ghost; reuse allowed.
          for (size_t t = 0; t < num_topics; ++t) in_tm[t] = false;
          candidates = candidate_topics(&use_in_order);
        }
        if (candidates.empty()) break;
      } else {
        break;  // all masking topics exhausted (paper: exit the repeat loop)
      }
    }

    // Step 3a: ghost length as a random multiple of |qu|.
    size_t length;
    if (options_.fixed_ghost_length > 0) {
      length = options_.fixed_ghost_length;
    } else {
      double mult =
          rng->Uniform(spec_.min_length_mult, spec_.max_length_mult);
      length = static_cast<size_t>(
          std::lround(mult * static_cast<double>(user_query.size())));
    }
    if (length == 0) length = 1;

    // Step 3b: random masking topic, coherent ghost words.
    topicmodel::TopicId tm =
        use_in_order ? candidates.front()
                     : candidates[rng->UniformInt(candidates.size())];
    std::vector<text::TermId> ghost = SampleGhostTerms(tm, length, rng);
    if (ghost.empty()) {
      in_x[tm] = true;
      cycle.rejected_topics.push_back(tm);
      continue;
    }

    // Step 3c: accept only if the ghost reduces the intention's exposure.
    // One O(T) inference + O(|U|) mixture probe per candidate; the sum is
    // only committed on acceptance.
    std::vector<double> ghost_posterior =
        inferencer_.InferQuery(ghost, &workspace_);
    double new_exposure =
        MixtureExposure(posterior_sum, &ghost_posterior, cycle_queries + 1,
                        model_, cycle.intention);
    bool effective = new_exposure < current_exposure || cycle.intention.empty();
    if (options_.use_rejection_test && !effective && !relax_rejection) {
      in_x[tm] = true;
      cycle.rejected_topics.push_back(tm);
      continue;
    }

    // Step 3d: accept.
    for (size_t t = 0; t < num_topics; ++t) {
      posterior_sum[t] += ghost_posterior[t];
    }
    ++cycle_queries;
    in_tm[tm] = true;
    cycle.masking_topics.push_back(tm);
    queries.push_back(std::move(ghost));
    current_exposure = new_exposure;
  }

  // Final cycle-level belief profile (Eq. 2 mixture from the running sum).
  std::vector<double> mix(num_topics);
  const double inv = 1.0 / static_cast<double>(cycle_queries);
  for (size_t t = 0; t < num_topics; ++t) mix[t] = posterior_sum[t] * inv;
  BeliefProfile cycle_profile = MakeBeliefProfile(model_, std::move(mix));
  cycle.cycle_boost = cycle_profile.boost;
  cycle.exposure_after = Exposure(cycle_profile.boost, cycle.intention);
  cycle.mask_level = MaskLevel(cycle_profile.boost, cycle.intention);
  cycle.met_epsilon2 = cycle.exposure_after <= spec_.epsilon2;

  // Step 4: shuffle, remembering where the user query landed.
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng->Shuffle(&order);
  cycle.queries.resize(queries.size());
  for (size_t i = 0; i < order.size(); ++i) {
    cycle.queries[i] = std::move(queries[order[i]]);
    if (order[i] == 0) cycle.user_index = i;
  }

  cycle.generation_seconds = timer.ElapsedSeconds();
  return cycle;
}

}  // namespace toppriv::core
