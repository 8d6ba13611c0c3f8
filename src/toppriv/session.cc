#include "toppriv/session.h"

#include <algorithm>

#include "util/metrics.h"
#include "util/trace.h"

namespace toppriv::core {

namespace {

GeneratorOptions WithSessionCache(
    GeneratorOptions options,
    std::map<topicmodel::TopicId, std::vector<text::TermId>>* cache) {
  options.ghost_cache = cache;
  return options;
}

}  // namespace

SessionProtector::SessionProtector(const topicmodel::LdaModel& model,
                                   const topicmodel::LdaInferencer& inferencer,
                                   PrivacySpec spec, SessionOptions options)
    : spec_(spec),
      options_(std::move(options)),
      generator_(model, inferencer, spec,
                 WithSessionCache(options_.generator, &ghosts_)) {}

QueryCycle SessionProtector::Protect(
    const std::vector<text::TermId>& user_query, util::Rng* rng) {
  return ProtectImpl(user_query, rng, /*refresh_cover=*/true);
}

QueryCycle SessionProtector::ProtectShedRefresh(
    const std::vector<text::TermId>& user_query, util::Rng* rng) {
  return ProtectImpl(user_query, rng, /*refresh_cover=*/false);
}

QueryCycle SessionProtector::ProtectImpl(
    const std::vector<text::TermId>& user_query, util::Rng* rng,
    bool refresh_cover) {
  TOPPRIV_TRACE_SPAN(protect_span, "toppriv.protect");
  generator_.set_preferred_masking_topics({cover_.begin(), cover_.end()});
  QueryCycle cycle = generator_.Protect(user_query, rng);
  // Def. 4 as the operator sees it, read from the finished cycle (never
  // from the RNG). Exposure is floored to whole basis points; a negative
  // boost counts as 0.
  TOPPRIV_HISTOGRAM_OBSERVE("toppriv.exposure_after_bp",
                            std::max(0.0, cycle.exposure_after * 1e4),
                            util::ExponentialBuckets(1, 2, 15));
  if (!cycle.met_epsilon2) TOPPRIV_COUNTER_INC("toppriv.eps2_unmet");
  TOPPRIV_HISTOGRAM_OBSERVE("toppriv.ghosts_per_cycle", cycle.num_ghosts(),
                            util::CountBuckets());

  // Absorb newly used masking topics into the cover story (bounded).
  // Skipped in degraded mode: the cover story freezes (stale but intact)
  // while the generator above still emitted every ghost — maintenance is
  // shed, protection is not.
  if (refresh_cover) {
    for (topicmodel::TopicId t : cycle.masking_topics) {
      if (cover_.size() >= options_.max_cover_topics && !cover_.count(t)) {
        continue;
      }
      cover_.insert(t);
    }
  }
  return cycle;
}

}  // namespace toppriv::core
