#include "search/engine.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "index/live/live_index.h"
#include "index/sharded_index.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace toppriv::search {

const char* EvalStrategyName(EvalStrategy strategy) {
  switch (strategy) {
    case EvalStrategy::kTAAT:
      return "taat";
    case EvalStrategy::kMaxScore:
      return "maxscore";
  }
  return "unknown";
}

EvalStrategy EvalStrategyFromEnv() {
  const char* v = std::getenv("TOPPRIV_EVAL_STRATEGY");
  if (v != nullptr && std::strcmp(v, "maxscore") == 0) {
    return EvalStrategy::kMaxScore;
  }
  return EvalStrategy::kTAAT;
}

void EvalScratch::Prepare(size_t num_documents) {
  if (scores_.size() < num_documents) {
    // Scores need no initialization: a slot is only read after its
    // first-touch assignment below.
    scores_.resize(num_documents);
    is_touched_.resize(num_documents, 0);
  }
  // Self-healing reset in case a previous query was abandoned mid-flight.
  for (corpus::DocId doc : touched_) is_touched_[doc] = 0;
  touched_.clear();
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

/// The evaluation cores, templated on the concrete scorer type `S` so the
/// posting loops call its kernel directly. A class (not free functions) so
/// one friend declaration gives every instantiation EvalScratch access.
class EvalCore {
 public:
  template <typename S>
  static std::vector<ScoredDoc> Taat(const index::InvertedIndex& index,
                                     const CollectionStats& stats,
                                     const S& scorer,
                                     const std::vector<QueryTerm>& query,
                                     const std::vector<uint32_t>& dfs,
                                     size_t k, EvalScratch* scratch,
                                     const std::vector<char>* exclude,
                                     const util::Deadline* deadline);

  template <typename S>
  static std::vector<ScoredDoc> MaxScore(const index::InvertedIndex& index,
                                         const CollectionStats& stats,
                                         const S& scorer,
                                         const std::vector<QueryTerm>& query,
                                         const std::vector<uint32_t>& dfs,
                                         size_t k, EvalScratch* scratch,
                                         const std::vector<double>* term_bounds,
                                         const std::vector<char>* exclude,
                                         const util::Deadline* deadline);
};

template <typename S>
std::vector<ScoredDoc> EvalCore::Taat(const index::InvertedIndex& index,
                                      const CollectionStats& stats,
                                      const S& scorer,
                                      const std::vector<QueryTerm>& query,
                                      const std::vector<uint32_t>& dfs,
                                      size_t k, EvalScratch* scratch,
                                      const std::vector<char>* exclude,
                                      const util::Deadline* deadline) {
  // Hoisted so the common no-tombstone case (exclude == nullptr, every
  // static index and clean segment) pays one null check per posting.
  const char* excluded = exclude != nullptr ? exclude->data() : nullptr;
  TOPPRIV_DCHECK(exclude == nullptr ||
                 exclude->size() == index.num_documents());

  scratch->Prepare(index.num_documents());

  // Term-at-a-time accumulation over posting lists into the contiguous
  // per-document array; documents containing none of the query terms are
  // never touched (the scalability property the paper's PIR discussion
  // contrasts against). The first touch assigns 0.0 before accumulating so
  // a slot's history cannot leak between queries. Postings stream through
  // one stack-resident PostingBlock, batch-decoded 128 at a time.
  std::vector<double>& scores = scratch->scores_;
  std::vector<char>& is_touched = scratch->is_touched_;
  std::vector<corpus::DocId>& touched = scratch->touched_;
  const uint32_t* doc_lengths = index.doc_lengths().data();
  const size_t num_documents = index.num_documents();
  index::PostingBlock block;
  // Instrumentation accumulates in locals and flushes ONCE per call:
  // per-posting atomic traffic would swamp the <5% overhead budget.
  uint64_t blocks_decoded = 0;
  uint64_t postings_scored = 0;
  for (size_t qi = 0; qi < query.size(); ++qi) {
    const index::PostingList& list = index.Postings(query[qi].term);
    if (list.empty() || dfs[qi] == 0) continue;
    const typename S::Kernel kernel =
        scorer.PrepareTerm(stats, dfs[qi], query[qi].qtf);
    for (size_t b = 0; b < list.num_blocks(); ++b) {
      // Cooperative cancellation, one check per 128-posting block. An
      // abandoned query surfaces NOTHING (the scratch self-heals on the
      // next Prepare), so a deadline can never leak a partial top-k.
      if (deadline != nullptr && deadline->Expired()) {
        TOPPRIV_COUNTER_ADD("search.taat.blocks_decoded", blocks_decoded);
        TOPPRIV_COUNTER_ADD("search.taat.postings_scored", postings_scored);
        return {};
      }
      list.DecodeBlock(b, &block);
      // Doc ids strictly increase within a block, so bounding the last one
      // bounds every unchecked doc_lengths/scores/excluded access below.
      TOPPRIV_CHECK_LT(block.docs[block.count - 1], num_documents);
      ++blocks_decoded;
      postings_scored += block.count;
      for (uint32_t i = 0; i < block.count; ++i) {
        const corpus::DocId doc = block.docs[i];
        if (excluded != nullptr && excluded[doc]) continue;
        if (!is_touched[doc]) {
          is_touched[doc] = 1;
          touched.push_back(doc);
          scores[doc] = 0.0;
        }
        scores[doc] += kernel.Score(doc_lengths[doc], block.tfs[i]);
      }
    }
  }

  TopK topk(k);
  for (corpus::DocId doc : touched) {
    topk.Offer(doc, scorer.Normalize(doc_lengths[doc], scores[doc]));
  }
  // Leave the scratch clean for the next query (O(touched), not O(docs)).
  for (corpus::DocId doc : touched) is_touched[doc] = 0;
  touched.clear();
  TOPPRIV_COUNTER_ADD("search.taat.blocks_decoded", blocks_decoded);
  TOPPRIV_COUNTER_ADD("search.taat.postings_scored", postings_scored);
  return topk.Finish();
}

namespace {

/// Inflates a non-negative bound by a relative margin that dwarfs any
/// floating-point association error a bounds sum can accumulate (queries
/// have a handful of terms; the error is a few ULPs, the margin is 1e-9
/// relative). Pruning compares INFLATED bounds strictly below the
/// threshold, so no rounding-order difference between "sum of bounds" and
/// "sum of actual contributions" can ever prune a document whose true
/// score reaches the threshold — the engineering half of the bit-parity
/// argument (the analytic half is monotone rounding).
inline double InflateBound(double bound) {
  return bound + bound * 1e-9;
}

/// Advances `c` to the first posting with doc id >= target. Returns true
/// and leaves the tf available iff the term contains `target`. Blocks are
/// skipped through the directory (last_doc) without decoding; a block is
/// only decoded when `target` can actually fall inside it. The cached
/// `doc` field makes the common miss (cursor already past the target) one
/// compare.
inline bool CursorAdvanceTo(TermCursor* c, corpus::DocId target) {
  if (c->exhausted) return false;
  if (c->doc > target) return false;
  const index::PostingList& list = *c->list;
  if (c->doc == target) {
    if (!c->block_decoded) {
      // Sitting at an undecoded block whose first doc IS the target:
      // decode for the tf.
      list.DecodeBlock(c->block_idx, &c->block);
      c->block_decoded = true;
      c->pos = 0;
    }
    return true;
  }
  if (c->block_decoded && list.block(c->block_idx).last_doc >= target) {
    // Stays inside the decoded block: forward scan.
    while (c->block.docs[c->pos] < target) {
      ++c->pos;
      TOPPRIV_DCHECK(c->pos < c->block.count);
    }
    c->doc = c->block.docs[c->pos];
    return c->doc == target;
  }
  // Skip whole blocks that end before the target — no decoding.
  if (c->block_decoded) {
    ++c->block_idx;
    c->block_decoded = false;
    c->pos = 0;
    if (c->block_idx >= list.num_blocks()) {
      c->exhausted = true;
      return false;
    }
  }
  while (list.block(c->block_idx).last_doc < target) {
    ++c->block_idx;
    if (c->block_idx >= list.num_blocks()) {
      c->exhausted = true;
      return false;
    }
  }
  const index::PostingList::BlockInfo& info = list.block(c->block_idx);
  if (info.first_doc >= target) {
    // The target is at or before this block's first posting: no decode
    // needed unless it is an exact hit.
    c->doc = info.first_doc;
    if (info.first_doc > target) return false;
    list.DecodeBlock(c->block_idx, &c->block);
    c->block_decoded = true;
    c->pos = 0;
    return true;
  }
  list.DecodeBlock(c->block_idx, &c->block);
  c->block_decoded = true;
  c->pos = 0;
  while (c->block.docs[c->pos] < target) {
    ++c->pos;
    TOPPRIV_DCHECK(c->pos < c->block.count);
  }
  c->doc = c->block.docs[c->pos];
  return c->doc == target;
}

/// Steps past the current posting (used after a candidate is processed;
/// the cursor is decoded and positioned on it).
inline void CursorAdvanceOne(TermCursor* c) {
  TOPPRIV_DCHECK(c->block_decoded && !c->exhausted);
  ++c->pos;
  if (c->pos < c->block.count) {
    c->doc = c->block.docs[c->pos];
    return;
  }
  ++c->block_idx;
  c->block_decoded = false;
  c->pos = 0;
  if (c->block_idx >= c->list->num_blocks()) {
    c->exhausted = true;
    return;
  }
  c->doc = c->list->block(c->block_idx).first_doc;
}

}  // namespace

std::vector<double> ComputeTermImpactBounds(
    const index::InvertedIndex& index, const CollectionStats& stats,
    const Scorer& scorer, const std::vector<uint32_t>* global_dfs) {
  return VisitScorer(scorer, [&](const auto& s) {
    std::vector<double> bounds(index.num_terms(), 0.0);
    const uint32_t* doc_lengths = index.doc_lengths().data();
    index::PostingBlock block;
    for (text::TermId t = 0; t < bounds.size(); ++t) {
      const index::PostingList& list = index.Postings(t);
      if (list.empty()) continue;
      const uint32_t df =
          global_dfs != nullptr
              ? (t < global_dfs->size() ? (*global_dfs)[t] : 0)
              : list.size();
      const auto kernel = s.PrepareTerm(stats, df, /*qtf=*/1);
      double best = 0.0;
      for (size_t b = 0; b < list.num_blocks(); ++b) {
        list.DecodeBlock(b, &block);
        TOPPRIV_CHECK_LT(block.docs[block.count - 1], index.num_documents());
        for (uint32_t i = 0; i < block.count; ++i) {
          best = std::max(
              best, kernel.Score(doc_lengths[block.docs[i]], block.tfs[i]));
        }
      }
      bounds[t] = best;
    }
    return bounds;
  });
}

template <typename S>
std::vector<ScoredDoc> EvalCore::MaxScore(
    const index::InvertedIndex& index, const CollectionStats& stats,
    const S& scorer, const std::vector<QueryTerm>& query,
    const std::vector<uint32_t>& dfs, size_t k, EvalScratch* scratch,
    const std::vector<double>* term_bounds, const std::vector<char>* exclude,
    const util::Deadline* deadline) {
  const char* excluded = exclude != nullptr ? exclude->data() : nullptr;
  TOPPRIV_DCHECK(exclude == nullptr ||
                 exclude->size() == index.num_documents());

  // Active terms, in canonical (CollapseQuery) order, with per-term score
  // bounds. The same skip rule as TAAT: an empty list or a zero global df
  // contributes nothing and must not generate candidates. Cursors live in
  // the scratch so their ~1.5 KiB block buffers are reused, not re-copied,
  // across queries.
  std::vector<TermCursor>& cursors = scratch->cursors_;
  if (cursors.size() < query.size()) cursors.resize(query.size());
  // kernels[i] scores cursor i's term (parallel to `cursors`).
  auto& kernels =
      std::get<std::vector<typename S::Kernel>>(scratch->kernels_);
  kernels.clear();
  size_t m = 0;
  for (size_t qi = 0; qi < query.size(); ++qi) {
    const index::PostingList& list = index.Postings(query[qi].term);
    if (list.empty() || dfs[qi] == 0) continue;
    kernels.push_back(scorer.PrepareTerm(stats, dfs[qi], query[qi].qtf));
    TermCursor& c = cursors[m++];
    c.list = &list;
    c.block_idx = 0;
    c.pos = 0;
    c.block_decoded = false;
    c.exhausted = false;
    c.doc = list.block(0).first_doc;
    if (term_bounds != nullptr) {
      // Exact max impact at qtf = 1, scaled by qtf. The scaling reorders
      // the multiplication relative to the kernel's own, so the inflation
      // margin (applied at every use site) is what keeps it a true bound.
      c.ub = static_cast<double>(query[qi].qtf) * (*term_bounds)[query[qi].term];
    } else {
      c.ub = TermUpperBound(kernels.back(), list.max_tf());
    }
  }
  if (m == 0) return {};

  // Terms sorted by ascending bound: the classic MaxScore partition.
  // sorted_prefix[j] bounds the total score of a document containing ONLY
  // the j cheapest terms; once it falls strictly below the heap threshold
  // those terms stop generating candidates ("non-essential"). The same
  // array is the remaining-terms bound of the bound-descending probe loop.
  std::vector<size_t>& order = scratch->ub_order_;
  order.resize(m);
  for (size_t i = 0; i < m; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (cursors[a].ub != cursors[b].ub) return cursors[a].ub < cursors[b].ub;
    return a < b;  // deterministic tie-break on canonical position
  });
  std::vector<double>& sorted_prefix = scratch->sorted_prefix_ub_;
  sorted_prefix.assign(m + 1, 0.0);
  for (size_t j = 0; j < m; ++j) {
    sorted_prefix[j + 1] =
        InflateBound(sorted_prefix[j] + cursors[order[j]].ub);
  }

  // The essential cursors, kept sorted by current doc id: the pivot is
  // always ess.front(), and the essential terms CONTAINING the pivot are
  // exactly the leading run with that doc id — so per candidate there is
  // no pivot scan and no probing of essential misses at all.
  std::vector<uint32_t>& ess = scratch->essential_;
  ess.clear();
  // One comparator for every ess ordering operation: (doc asc, canonical
  // index asc). Keeping a single definition is part of the determinism
  // story — the pivot order must never depend on which call site sorted.
  auto by_doc = [&](uint32_t a, uint32_t b) {
    if (cursors[a].doc != cursors[b].doc) {
      return cursors[a].doc < cursors[b].doc;
    }
    return a < b;
  };

  // Per-candidate contribution cache: probed in bound order (fastest
  // abandon), re-summed in canonical order for survivors (bit parity).
  std::vector<double>& contrib = scratch->contrib_;
  if (contrib.size() < m) contrib.resize(m);
  // Canonical indices of the terms containing the current candidate.
  std::vector<uint32_t>& hits = scratch->hits_;

  TopK topk(k);
  size_t ne = 0;  // terms order[0..ne) are non-essential
  double threshold = -std::numeric_limits<double>::infinity();

  // Pruning telemetry, accumulated locally and flushed once per call (the
  // prune rate is 1 - offered/considered). Reads nothing the evaluation
  // depends on, writes nothing it reads.
  uint64_t pivots_considered = 0;
  uint64_t pivots_offered = 0;
  uint64_t pivots_abandoned = 0;
  auto flush_metrics = [&]() {
    TOPPRIV_COUNTER_ADD("search.maxscore.pivots_considered",
                        pivots_considered);
    TOPPRIV_COUNTER_ADD("search.maxscore.pivots_offered", pivots_offered);
    TOPPRIV_COUNTER_ADD("search.maxscore.pivots_abandoned", pivots_abandoned);
  };

  // (Re)builds `ess` from order[ne..m), doc-sorted.
  auto rebuild_ess = [&]() {
    ess.clear();
    for (size_t j = ne; j < m; ++j) {
      if (!cursors[order[j]].exhausted) {
        ess.push_back(static_cast<uint32_t>(order[j]));
      }
    }
    std::sort(ess.begin(), ess.end(), by_doc);
  };
  rebuild_ess();

  auto raise_threshold = [&]() {
    if (!topk.AtCapacity()) return;
    threshold = topk.Worst().score;
    const size_t old_ne = ne;
    while (ne < m && sorted_prefix[ne + 1] < threshold) ++ne;
    if (ne != old_ne) rebuild_ess();
  };

  // Re-inserts the advanced leading `h` entries of `ess` into doc order
  // (dropping exhausted ones). The array is tiny (< m entries), so simple
  // erase + upper_bound insertion beats anything clever.
  auto reposition_front = [&](size_t h) {
    std::vector<uint32_t>& moved = scratch->moved_;
    moved.clear();
    for (size_t x = 0; x < h; ++x) {
      if (!cursors[ess[x]].exhausted) moved.push_back(ess[x]);
    }
    ess.erase(ess.begin(), ess.begin() + h);
    for (const uint32_t i : moved) {
      ess.insert(std::upper_bound(ess.begin(), ess.end(), i, by_doc), i);
    }
  };

  while (!ess.empty()) {
    // Cooperative cancellation: one check per pivot iteration (each
    // iteration decodes at most a handful of blocks). Same contract as
    // Taat — an expired query returns empty, never partial.
    if (deadline != nullptr && deadline->Expired()) {
      flush_metrics();
      return {};
    }
    // When a single essential term remains, skip its blocks wholesale:
    // every doc in a block is bounded by the block-max tf bound (capped by
    // the term's own list bound) plus the whole non-essential budget, and
    // no other essential list can resurrect a doc this cursor skips.
    if (ess.size() == 1) {
      TermCursor& e = cursors[ess[0]];
      while (!e.exhausted && topk.AtCapacity()) {
        const auto& info = e.list->block(e.block_idx);
        const double block_ub =
            std::min(e.ub, TermUpperBound(kernels[ess[0]], info.max_tf));
        if (InflateBound(block_ub + sorted_prefix[ne]) >= threshold) break;
        ++e.block_idx;
        e.block_decoded = false;
        e.pos = 0;
        if (e.block_idx >= e.list->num_blocks()) {
          e.exhausted = true;
        } else {
          e.doc = e.list->block(e.block_idx).first_doc;
        }
      }
      if (e.exhausted) break;
    }

    // The pivot and the essential terms containing it drop out of the doc
    // order: ess.front() is minimal, the leading run of equal doc ids is
    // the hit set. Every pivot therefore scores at least one term.
    const corpus::DocId pivot = cursors[ess[0]].doc;
    ++pivots_considered;
    size_t h = 1;
    while (h < ess.size() && cursors[ess[h]].doc == pivot) ++h;

    // A tombstoned pivot is never scored, probed, or offered — its
    // essential cursors just step past it below. Skipping it changes no
    // other candidate's arithmetic (scores are per-document), which is the
    // MaxScore half of the live-index parity argument.
    const bool pivot_live = excluded == nullptr || !excluded[pivot];
    const uint32_t doc_length = index.DocLength(pivot);
    double partial = 0.0;
    hits.clear();
    for (size_t x = 0; x < h; ++x) {
      TermCursor& c = cursors[ess[x]];
      if (!c.block_decoded) {
        // Sitting at an undecoded block whose first doc is the pivot.
        // Decoded even for a tombstoned pivot: CursorAdvanceOne steps by
        // decoded position.
        c.list->DecodeBlock(c.block_idx, &c.block);
        c.block_decoded = true;
        c.pos = 0;
      }
      if (!pivot_live) continue;
      const double v = kernels[ess[x]].Score(doc_length, c.block.tfs[c.pos]);
      partial += v;
      contrib[ess[x]] = v;
      hits.push_back(ess[x]);
    }

    // Probe the non-essential terms in DESCENDING bound order, abandoning
    // as soon as the remaining inflated bounds cannot reach the threshold.
    // Essential misses are gone entirely (they are not in the leading
    // run), which also tightens the first check to the pure non-essential
    // budget. `partial` is a bound-order sum used only inside inflated
    // comparisons, never as the score.
    if (pivot_live) {
      bool abandoned = false;
      for (size_t j = ne; j-- > 0;) {
        if (topk.AtCapacity() &&
            InflateBound(partial + sorted_prefix[j + 1]) < threshold) {
          abandoned = true;
          break;
        }
        const size_t i = order[j];
        TermCursor& c = cursors[i];
        if (CursorAdvanceTo(&c, pivot)) {
          const double v = kernels[i].Score(doc_length, c.block.tfs[c.pos]);
          partial += v;
          contrib[i] = v;
          hits.push_back(static_cast<uint32_t>(i));
        }
      }
      if (abandoned) {
        ++pivots_abandoned;
      } else {
        // Canonical re-accumulation from the cache — the IDENTICAL
        // floating-point sum TAAT computes for this document.
        std::sort(hits.begin(), hits.end());
        double acc = 0.0;
        for (const uint32_t i : hits) acc += contrib[i];
        topk.Offer(pivot, scorer.Normalize(doc_length, acc));
        ++pivots_offered;
        raise_threshold();
      }
    }
    // Step the essential hit cursors past the pivot and restore doc order;
    // non-essential cursors catch up lazily on later probes. When
    // raise_threshold rebuilt `ess`, some (or all) of the pivot's cursors
    // may have left the essential set — only the ones still leading the
    // array need stepping (a demoted cursor parked on the pivot is
    // harmless: later probes walk straight past it).
    if (ess.empty() || cursors[ess[0]].doc != pivot) continue;
    size_t still = 1;
    while (still < ess.size() && cursors[ess[still]].doc == pivot) ++still;
    for (size_t x = 0; x < still; ++x) CursorAdvanceOne(&cursors[ess[x]]);
    reposition_front(still);
  }
  flush_metrics();
  return topk.Finish();
}


std::vector<ScoredDoc> EvaluateTopK(EvalStrategy strategy,
                                    const index::InvertedIndex& index,
                                    const CollectionStats& stats,
                                    const Scorer& scorer,
                                    const std::vector<QueryTerm>& query,
                                    const std::vector<uint32_t>& dfs,
                                    size_t k, EvalScratch* scratch,
                                    const std::vector<double>* term_bounds,
                                    const std::vector<char>* exclude,
                                    const util::Deadline* deadline) {
  TOPPRIV_CHECK_EQ(query.size(), dfs.size());
  if (query.empty() || k == 0) return {};
  return VisitScorer(scorer, [&](const auto& s) {
    if (strategy == EvalStrategy::kMaxScore) {
      return EvalCore::MaxScore(index, stats, s, query, dfs, k, scratch,
                                term_bounds, exclude, deadline);
    }
    return EvalCore::Taat(index, stats, s, query, dfs, k, scratch, exclude,
                          deadline);
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
                           std::unique_ptr<Scorer> scorer,
                           EvalStrategy strategy, size_t num_threads)
    : corpus_(corpus), scorer_(std::move(scorer)), strategy_(strategy) {
  TOPPRIV_CHECK(scorer_ != nullptr);
  if (num_threads == 0) num_threads = util::ThreadPool::HardwareConcurrency();
  if (num_threads > 1) pool_ = std::make_unique<util::ThreadPool>(num_threads);
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           const index::InvertedIndex& index,
                           std::unique_ptr<Scorer> scorer,
                           EvalStrategy strategy)
    : SearchEngine(corpus, std::move(scorer), strategy, /*num_threads=*/1) {
  view_.stats = CollectionStats::Of(index);
  view_.parts.push_back(Part{&index, nullptr, 0, nullptr, nullptr});
  BuildStaticBounds();
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           const index::ShardedIndex& index,
                           std::unique_ptr<Scorer> scorer,
                           EvalStrategy strategy, size_t num_threads)
    : SearchEngine(corpus, std::move(scorer), strategy, num_threads) {
  TOPPRIV_CHECK_GE(index.num_shards(), 1u);
  view_.stats.num_documents = index.num_documents();
  view_.stats.avg_doc_length = index.avg_doc_length();
  view_.stats.total_tokens = index.total_tokens();
  view_.global_df = &index.manifest().global_df;
  for (size_t s = 0; s < index.num_shards(); ++s) {
    view_.parts.push_back(Part{&index.shard(s), nullptr,
                               index.manifest().ranges[s].begin, nullptr,
                               nullptr});
  }
  BuildStaticBounds();
}

SearchEngine::SearchEngine(const corpus::Corpus& corpus,
                           const index::live::LiveIndex& live,
                           std::unique_ptr<Scorer> scorer,
                           EvalStrategy strategy, size_t num_threads)
    : SearchEngine(corpus, std::move(scorer), strategy, num_threads) {
  live_ = &live;
}

SearchEngine::~SearchEngine() = default;

void SearchEngine::BuildStaticBounds() {
  if (strategy_ != EvalStrategy::kMaxScore) return;
  // Priced with the view's df — a shard-local df would produce bounds
  // below real contributions and break the pruning-safety argument.
  static_bounds_.reserve(view_.parts.size());
  for (const Part& part : view_.parts) {
    static_bounds_.push_back(ComputeTermImpactBounds(
        *part.index, view_.stats, *scorer_, view_.global_df));
  }
  for (size_t p = 0; p < view_.parts.size(); ++p) {
    view_.parts[p].term_bounds = &static_bounds_[p];
  }
}

std::vector<std::shared_ptr<const std::vector<double>>>
SearchEngine::SegmentBounds(const index::live::IndexSnapshot& snapshot,
                            const CollectionStats& stats) const {
  const size_t n = snapshot.num_segments();
  std::vector<std::shared_ptr<const std::vector<double>>> tables(n);
  std::shared_ptr<const BoundsCache> cache;
  {
    util::MutexLock lock(&bounds_mu_);
    cache = bounds_cache_;
  }
  // A cache generation is usable only at the exact df-version it was
  // computed at. Segment identity is the second key — a merge creates new
  // segments without bumping the version, so its outputs miss here and
  // compute.
  const bool cache_current =
      cache != nullptr && cache->df_version == snapshot.df_version();
  bool computed = false;
  for (size_t s = 0; s < n; ++s) {
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    if (cache_current) {
      for (const auto& [segment, table] : cache->tables) {
        if (segment.get() == ss.segment.get()) {
          tables[s] = table;
          break;
        }
      }
    }
    if (tables[s] == nullptr) {
      tables[s] = std::make_shared<const std::vector<double>>(
          ComputeTermImpactBounds(ss.segment->index(), stats, *scorer_,
                                  &snapshot.global_df()));
      computed = true;
    }
  }
  if (computed &&
      (cache == nullptr || snapshot.df_version() >= cache->df_version)) {
    // Publish this snapshot's full table set (last writer wins; an
    // EvaluateOn against an OLD pinned snapshot never clobbers a newer
    // cache thanks to the version guard).
    auto fresh = std::make_shared<BoundsCache>();
    fresh->df_version = snapshot.df_version();
    fresh->tables.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      fresh->tables.emplace_back(snapshot.segment(s).segment, tables[s]);
    }
    util::MutexLock lock(&bounds_mu_);
    bounds_cache_ = std::move(fresh);
  }
  return tables;
}

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
  std::vector<std::shared_ptr<const std::vector<double>>> bounds;
  if (strategy_ == EvalStrategy::kMaxScore) {
    bounds = SegmentBounds(snapshot, view.stats);
  }
  view.parts.reserve(snapshot.num_segments());
  for (size_t s = 0; s < snapshot.num_segments(); ++s) {
    const index::live::SnapshotSegment& ss = snapshot.segment(s);
    view.parts.push_back(Part{&ss.segment->index(), ss.deleted.get(),
                              ss.dense_base, ss.deleted_before.get(),
                              bounds.empty() ? nullptr : bounds[s].get()});
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
    per_part[p] = EvaluateTopK(strategy_, *part.index, view.stats, *scorer_,
                               query, dfs, k, &scratch, part.term_bounds,
                               part.exclude, deadline);
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
