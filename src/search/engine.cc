#include "search/engine.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "index/live/live_index.h"
#include "index/sharded_index.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace toppriv::search {

void EvalScratch::Prepare(size_t num_documents) {
  if (scores_.size() < num_documents) scores_.resize(num_documents, 0.0);
  const size_t slots = num_documents + index::kPostingBlockSize;
  if (touched_.size() < slots) touched_.resize(slots);
}

const double* EvalScratch::Bm25Norms(const Bm25Scorer::Kernel& kernel) {
  std::array<uint64_t, 4> key;
  const double inputs[4] = {kernel.k1, kernel.one_minus_b, kernel.b,
                            kernel.avgdl};
  static_assert(sizeof(inputs) == sizeof(key), "one key word per input");
  std::memcpy(key.data(), inputs, sizeof(key));
  if (norms_.empty() || key != norm_key_) {
    norms_.resize(kNormTableSize);
    for (uint32_t dl = 0; dl < kNormTableSize; ++dl) {
      norms_[dl] = kernel.Norm(dl);
    }
    norm_key_ = key;
  }
  return norms_.data();
}

std::vector<QueryTerm> CollapseQuery(const std::vector<text::TermId>& terms) {
  // Sort then run-length collapse. Queries are a handful of terms, so this
  // beats any hash map — and unlike a hash map its order is canonical, not
  // an artifact of bucket history, which the sharded engine's bit-parity
  // contract relies on.
  std::vector<text::TermId> sorted = terms;
  std::sort(sorted.begin(), sorted.end());
  std::vector<QueryTerm> query;
  query.reserve(sorted.size());
  for (text::TermId t : sorted) {
    if (!query.empty() && query.back().term == t) {
      ++query.back().qtf;
    } else {
      query.push_back(QueryTerm{t, 1});
    }
  }
  return query;
}

std::vector<ScoredDoc> EvaluateTopK(const index::InvertedIndex& index,
                                    const CollectionStats& stats,
                                    const Scorer& scorer,
                                    const std::vector<QueryTerm>& query,
                                    const std::vector<uint32_t>& dfs,
                                    size_t k, EvalScratch* scratch,
                                    const std::vector<char>* exclude,
                                    const util::Deadline* deadline) {
  TOPPRIV_CHECK_EQ(query.size(), dfs.size());
  if (query.empty() || k == 0) return {};
  // Hoisted so the common no-tombstone case (exclude == nullptr, every
  // static index and clean segment) pays one null check per posting.
  const char* excluded = exclude != nullptr ? exclude->data() : nullptr;
  TOPPRIV_DCHECK(exclude == nullptr ||
                 exclude->size() == index.num_documents());

  scratch->Prepare(index.num_documents());

  // Term-at-a-time accumulation over posting lists into the contiguous
  // per-document array; documents containing none of the query terms are
  // never touched (the scalability property the paper's PIR discussion
  // contrasts against). Postings stream through one stack-resident
  // PostingBlock, batch-decoded 128 at a time.
  double* const scores = scratch->scores_.data();
  corpus::DocId* const touched = scratch->touched_.data();
  size_t num_touched = 0;
  const uint32_t* doc_lengths = index.doc_lengths().data();
  const size_t num_documents = index.num_documents();
  // Instrumentation accumulates in locals and flushes ONCE per call:
  // per-posting atomic traffic would swamp the <5% overhead budget.
  uint64_t blocks_decoded = 0;
  uint64_t postings_scored = 0;
  auto flush_metrics = [&]() {
    TOPPRIV_COUNTER_ADD("search.taat.blocks_decoded", blocks_decoded);
    TOPPRIV_COUNTER_ADD("search.taat.postings_scored", postings_scored);
  };
  // Dispatched once to the concrete scorer `s`, so the posting loop calls
  // its kernel directly.
  return VisitScorer(scorer, [&](const auto& s) -> std::vector<ScoredDoc> {
    using ConcreteScorer = std::decay_t<decltype(s)>;
    using Kernel = typename ConcreteScorer::Kernel;
    index::PostingBlock block;
    for (size_t qi = 0; qi < query.size(); ++qi) {
      const index::PostingList& list = index.Postings(query[qi].term);
      if (list.empty() || dfs[qi] == 0) continue;
      const Kernel kernel = s.PrepareTerm(stats, dfs[qi], query[qi].qtf);
      // One posting's contribution; BM25 reads its length norm from the
      // scratch's table (the same double Norm would compute).
      const auto score = [&] {
        if constexpr (std::is_same_v<ConcreteScorer, Bm25Scorer>) {
          const double* norms = scratch->Bm25Norms(kernel);
          return [kernel, norms](uint32_t dl, uint32_t tf) {
            const double norm = dl < EvalScratch::kNormTableSize
                                    ? norms[dl]
                                    : kernel.Norm(dl);
            return kernel.ScoreWithNorm(norm, tf);
          };
        } else {
          return [kernel](uint32_t dl, uint32_t tf) {
            return kernel.Score(dl, tf);
          };
        }
      }();
      for (size_t b = 0; b < list.num_blocks(); ++b) {
        // Cooperative cancellation, one check per 128-posting block. An
        // abandoned query surfaces NOTHING, so a deadline can never leak a
        // partial top-k; it zeroes the slots it touched first.
        if (deadline != nullptr && deadline->Expired()) {
          for (size_t j = 0; j < num_touched; ++j) scores[touched[j]] = 0.0;
          flush_metrics();
          return {};
        }
        list.DecodeBlock(b, &block);
        // Doc ids strictly increase within a block, so bounding the last
        // one bounds every unchecked doc_lengths/scores/excluded access
        // below.
        TOPPRIV_CHECK_LT(block.docs[block.count - 1], num_documents);
        ++blocks_decoded;
        postings_scored += block.count;
        for (uint32_t i = 0; i < block.count; ++i) {
          const corpus::DocId doc = block.docs[i];
          if (excluded != nullptr && excluded[doc]) continue;
          // Branch-free first touch: a zero slot is an untouched document
          // (EvalScratch), and 0.0 + c == c keeps the first score's bits.
          const double contribution = score(doc_lengths[doc], block.tfs[i]);
          TOPPRIV_DCHECK(contribution > 0.0);
          const double prev = scores[doc];
          touched[num_touched] = doc;
          num_touched += prev == 0.0;
          scores[doc] = prev + contribution;
        }
        // Checked in every build, once per block: a zero contribution (an
        // underflow, say) appends its document again on each posting, and
        // the kPostingBlockSize spare slots hold one block of such stores.
        TOPPRIV_CHECK_LE(num_touched, num_documents);
      }
    }

    // Offer in first-touch order and zero each slot behind it, leaving the
    // accumulator all-zero for the next query (O(touched), not O(docs)).
    TopK topk(k);
    for (size_t i = 0; i < num_touched; ++i) {
      const corpus::DocId doc = touched[i];
      topk.Offer(doc, s.Normalize(doc_lengths[doc], scores[doc]));
      scores[doc] = 0.0;
    }
    flush_metrics();
    return topk.Finish();
  });
}

namespace {

/// The deadline bracket shared by every EvaluateWithOptions: expiry checks
/// before and after `evaluate`. The result of an expired call is always
/// discarded — even when the evaluation happened to finish — so the
/// accept/reject decision is a pure function of the deadline, not of how
/// fast the evaluation ran relative to the check sites.
template <typename Fn>
util::StatusOr<std::vector<ScoredDoc>> WithinDeadline(
    const util::Deadline* deadline, const Fn& evaluate) {
  if (deadline != nullptr && deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  std::vector<ScoredDoc> results = evaluate();
  if (deadline != nullptr && deadline->Expired()) {
    TOPPRIV_COUNTER_INC("search.deadline_exceeded");
    return util::Status::DeadlineExceeded("query deadline expired");
  }
  return results;
}

}  // namespace

util::StatusOr<std::vector<ScoredDoc>> QueryEngine::EvaluateWithOptions(
    const std::vector<text::TermId>& terms, size_t k,
    const QueryOptions& options) const {
  // Coarse default for engines without an internal poll point.
  return WithinDeadline(options.deadline, [&] { return Evaluate(terms, k); });
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           std::unique_ptr<Scorer> scorer, size_t num_threads)
    : corpus_(corpus), scorer_(std::move(scorer)) {
  TOPPRIV_CHECK(scorer_ != nullptr);
  if (num_threads == 0) num_threads = util::ThreadPool::HardwareConcurrency();
  if (num_threads > 1) pool_ = std::make_unique<util::ThreadPool>(num_threads);
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           const index::InvertedIndex& index,
                           std::unique_ptr<Scorer> scorer)
    : SearchEngine(corpus, std::move(scorer), /*num_threads=*/1) {
  view_.stats = CollectionStats::Of(index);
  view_.parts.push_back(Part{&index, nullptr, 0, nullptr});
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           const index::ShardedIndex& index,
                           std::unique_ptr<Scorer> scorer, size_t num_threads)
    : SearchEngine(corpus, std::move(scorer), num_threads) {
  TOPPRIV_CHECK_GE(index.num_shards(), 1u);
  view_.stats.num_documents = index.num_documents();
  view_.stats.avg_doc_length = index.avg_doc_length();
  view_.stats.total_tokens = index.total_tokens();
  view_.global_df = &index.manifest().global_df;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    view_.parts.push_back(
        Part{&index.shard(s), nullptr, index.manifest().ranges[s].begin,
             nullptr});
  }
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           const index::live::LiveIndex& live,
                           std::unique_ptr<Scorer> scorer, size_t num_threads)
    : SearchEngine(corpus, std::move(scorer), num_threads) {
  live_ = &live;
}

SearchEngine::~SearchEngine() = default;

std::vector<ScoredDoc> SearchEngine::Search(
    const std::vector<text::TermId>& terms, size_t k, uint64_t cycle_id) {
  log_.Record(cycle_id, terms);
  return Evaluate(terms, k);
}

std::vector<ScoredDoc> SearchEngine::Evaluate(
    const std::vector<text::TermId>& terms, size_t k) const {
  return Run(terms, k, /*deadline=*/nullptr);
}

util::StatusOr<std::vector<ScoredDoc>> SearchEngine::EvaluateWithOptions(
    const std::vector<text::TermId>& terms, size_t k,
    const QueryOptions& options) const {
  return WithinDeadline(options.deadline,
                        [&] { return Run(terms, k, options.deadline); });
}

std::vector<ScoredDoc> SearchEngine::Run(const std::vector<text::TermId>& terms,
                                         size_t k,
                                         const util::Deadline* deadline) const {
  if (live_ != nullptr) {
    return EvaluateOn(*live_->Acquire(), terms, k, deadline);
  }
  return EvaluateView(view_, terms, k, deadline);
}

std::vector<ScoredDoc> SearchEngine::EvaluateOn(
    const index::live::IndexSnapshot& snapshot,
    const std::vector<text::TermId>& terms, size_t k,
    const util::Deadline* deadline) const {
  if (terms.empty() || k == 0) return {};
  // The live view: the snapshot's global live statistics and df, one part
  // per segment with its tombstones and dense-id remap.
  View view;
  view.stats.num_documents = snapshot.num_documents();
  view.stats.avg_doc_length = snapshot.avg_doc_length();
  view.stats.total_tokens = snapshot.total_tokens();
  view.global_df = &snapshot.global_df();
  view.parts.reserve(snapshot.num_segments());
  for (size_t s = 0; s < snapshot.num_segments(); ++s) {
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    view.parts.push_back(Part{&ss.segment->index(), ss.deleted.get(),
                              ss.dense_base, ss.deleted_before.get()});
  }
  return EvaluateView(view, terms, k, deadline);
}

std::vector<ScoredDoc> SearchEngine::EvaluateView(
    const View& view, const std::vector<text::TermId>& terms, size_t k,
    const util::Deadline* deadline) const {
  if (terms.empty() || k == 0) return {};

  // One canonical query plan for every part: same term order, same df.
  const std::vector<QueryTerm> query = CollapseQuery(terms);
  std::vector<uint32_t> dfs(query.size());
  for (size_t qi = 0; qi < query.size(); ++qi) {
    const text::TermId t = query[qi].term;
    if (view.global_df == nullptr) {
      dfs[qi] = view.parts.front().index->DocFreq(t);
    } else {
      dfs[qi] = t < view.global_df->size() ? (*view.global_df)[t] : 0;
    }
  }

  // Scatter: per-part top-k. The global top-k is a subset of the union of
  // per-part top-k lists, so k candidates per part always suffice.
  const size_t n = view.parts.size();
  std::vector<std::vector<ScoredDoc>> per_part(n);
  TOPPRIV_TRACE_SPAN(fanout_span, "search.fanout");
  TOPPRIV_SCOPED_TIMER_US("search.fanout_us");
  TOPPRIV_HISTOGRAM_OBSERVE("search.fanout_width", n, util::CountBuckets());
  auto evaluate_part = [&](size_t p) {
    // One scratch per thread; a worker finishes a part before taking the
    // next, so reuse is race-free even when concurrent queries share the
    // pool. The deadline's cancel flag is shared: the first part to
    // observe expiry latches it and every sibling stops at its next check.
    static thread_local EvalScratch scratch;
    const Part& part = view.parts[p];
    per_part[p] = EvaluateTopK(*part.index, view.stats, *scorer_, query, dfs,
                               k, &scratch, part.exclude, deadline);
  };
  if (pool_ != nullptr && n > 1) {
    pool_->ParallelFor(n, evaluate_part);
  } else {
    for (size_t p = 0; p < n; ++p) evaluate_part(p);
  }

  // Gather: lift local ids into the view's global space and merge in part
  // order through TopK's strict (score desc, doc id asc) order.
  TopK merged(k);
  for (size_t p = 0; p < n; ++p) {
    const Part& part = view.parts[p];
    for (const ScoredDoc& sd : per_part[p]) {
      const uint32_t shift =
          part.deleted_before == nullptr ? 0 : (*part.deleted_before)[sd.doc];
      merged.Offer(part.base + (sd.doc - shift), sd.score);
    }
  }
  return merged.Finish();
}

}  // namespace toppriv::search
