// The enterprise text search engine (the paper's SE) plus the query log the
// curious adversary analyzes after the fact.
#ifndef TOPPRIV_SEARCH_ENGINE_H_
#define TOPPRIV_SEARCH_ENGINE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/corpus.h"
#include "index/inverted_index.h"
#include "search/scorer.h"
#include "search/topk.h"
#include "text/vocabulary.h"
#include "util/deadline.h"
#include "util/status.h"

namespace toppriv::index {
class ShardedIndex;
namespace live {
class IndexSnapshot;
class LiveIndex;
}  // namespace live
}  // namespace toppriv::index

namespace toppriv::util {
class ThreadPool;
}  // namespace toppriv::util

namespace toppriv::search {

/// One query term after collapsing duplicates: the term and its query term
/// frequency.
struct QueryTerm {
  text::TermId term = 0;
  uint32_t qtf = 0;
};

/// The one evaluation strategy, term-at-a-time. perfbench is its only
/// reader; the benchmark change of ROADMAP item 5 removes it.
enum class EvalStrategy { kTAAT };

/// Reusable evaluation scratch: a contiguous score accumulator with one
/// slot per document, plus the touched-document list that makes clearing
/// O(touched) instead of O(num_documents). Reusing one scratch across
/// queries removes the per-query hash-map allocation that used to dominate
/// Evaluate. Not thread-safe: one scratch per thread (SearchEngine keeps a
/// thread-local one).
///
/// It also caches BM25's length norm (Bm25Scorer::Kernel::Norm) for every
/// document length below kNormTableSize, so the posting loop reads a table
/// entry instead of dividing by avgdl. The table is keyed by the bits of
/// every kernel field Norm reads (k1, 1−b, b, avgdl) and rebuilt only when
/// the key changes: once per thread on a static view, after a refresh on a
/// live one. Each entry is the same Norm call the loop would make, so
/// scores keep their bits. Its size is fixed (8 KiB), never per document.
class EvalScratch {
 public:
  /// Document lengths below this read the norm from the table; longer
  /// documents compute it directly.
  static constexpr uint32_t kNormTableSize = 1024;

  EvalScratch() = default;
  EvalScratch(const EvalScratch&) = delete;
  EvalScratch& operator=(const EvalScratch&) = delete;

 private:
  friend std::vector<ScoredDoc> EvaluateTopK(
      const index::InvertedIndex& index, const CollectionStats& stats,
      const Scorer& scorer, const std::vector<QueryTerm>& query,
      const std::vector<uint32_t>& dfs, size_t k, EvalScratch* scratch,
      const std::vector<char>* exclude, const util::Deadline* deadline);

  /// Grows the accumulator to cover `num_documents` and resets any state a
  /// previous (possibly abandoned) query left behind.
  void Prepare(size_t num_documents);

  /// Norm(dl) for every dl < kNormTableSize under `kernel`.
  const double* Bm25Norms(const Bm25Scorer::Kernel& kernel);

  std::vector<double> scores_;
  std::vector<char> is_touched_;
  std::vector<corpus::DocId> touched_;
  /// Bits of (k1, one_minus_b, b, avgdl) norms_ was built for.
  std::array<uint64_t, 4> norm_key_{};
  /// Empty until the first BM25 query on this scratch.
  std::vector<double> norms_;
};

/// Collapses a bag of term ids to unique (term, qtf) pairs in ascending
/// term order. The sorted order fixes the floating-point accumulation order
/// of every part of every view, so results are bit-identical across index
/// shapes (and independent of any hash-map iteration order).
std::vector<QueryTerm> CollapseQuery(const std::vector<text::TermId>& terms);

/// Evaluates `query` against one index part and returns its top `k`: the
/// core every part of every view runs. `stats` are the collection-wide
/// statistics and `dfs` the per-term document frequencies (parallel to
/// `query`; a one-part view passes the index's own df, a multi-part view
/// the GLOBAL df so every part scores identically). Result doc ids are
/// local to `index`; SearchEngine lifts them into its view's global id
/// space before merging.
///
/// The scorer is dispatched ONCE here (VisitScorer) to a loop over its
/// concrete kernel type; each query term's kernel is prepared once, so the
/// posting loop makes no virtual call. Evaluation is term-at-a-time: every
/// posting of every query term accumulates into `scratch`'s contiguous
/// per-document array, in the canonical term order of CollapseQuery, and
/// each touched document is normalized and offered to a TopK.
///
/// `exclude`, when given, is a per-document tombstone mask (parallel to
/// `index`'s local doc-id space; nonzero = excluded): masked documents are
/// never scored or offered. The live index evaluates sealed segments with
/// their delete bitmaps here; since scoring a document reads only its own
/// posting tf, its own length and the collection-wide stats/df, skipping
/// masked documents changes no surviving document's score bits — which is
/// what keeps a live view bit-identical to a static build of the surviving
/// corpus.
///
/// `deadline`, when given, is polled once per decoded block. On expiry the
/// core abandons the query and returns an EMPTY list — a partial top-k is
/// never surfaced, so accepted (non-expired) queries stay bit-identical to
/// a run with no deadline at all. Callers that passed a deadline must
/// re-check Expired() afterward and map the abandonment to
/// kDeadlineExceeded (EvaluateWithOptions does).
std::vector<ScoredDoc> EvaluateTopK(const index::InvertedIndex& index,
                                    const CollectionStats& stats,
                                    const Scorer& scorer,
                                    const std::vector<QueryTerm>& query,
                                    const std::vector<uint32_t>& dfs,
                                    size_t k, EvalScratch* scratch,
                                    const std::vector<char>* exclude =
                                        nullptr,
                                    const util::Deadline* deadline =
                                        nullptr);

/// One entry in the engine-side query log: the adversary's view. Queries
/// arrive as bags of term ids; the engine cannot tell user queries from
/// ghost queries (that is the point of TopPriv).
struct LoggedQuery {
  uint64_t sequence = 0;
  /// Cycle tag: queries submitted together share a tag. The paper's threat
  /// model lets the adversary group a cycle (they arrive back-to-back), so
  /// the log keeps the grouping explicit; adversary/log_segmentation.h
  /// additionally models an adversary who must RECOVER the grouping from
  /// arrival times alone.
  uint64_t cycle_id = 0;
  /// Arrival time in seconds (simulation clock; 0 when untimed).
  double timestamp = 0.0;
  std::vector<text::TermId> terms;
};

/// Append-only log of everything the engine processed.
class QueryLog {
 public:
  /// Takes the term vector by value and moves it into the entry: an lvalue
  /// caller pays exactly one copy (into the parameter), an rvalue caller
  /// none — the old const-ref signature forced a copy into a temporary
  /// LoggedQuery on every call.
  void Record(uint64_t cycle_id, std::vector<text::TermId> terms,
              double timestamp = 0.0) {
    log_.push_back(
        LoggedQuery{next_seq_++, cycle_id, timestamp, std::move(terms)});
  }
  /// Pre-grows the log for a known batch (a protection cycle, a workload
  /// replay) so bulk submission does not re-allocate per query.
  void Reserve(size_t additional) { log_.reserve(log_.size() + additional); }
  const std::vector<LoggedQuery>& entries() const { return log_; }
  size_t size() const { return log_.size(); }
  void Clear() {
    log_.clear();
    next_seq_ = 0;
  }

 private:
  std::vector<LoggedQuery> log_;
  uint64_t next_seq_ = 0;
};

/// Per-call knobs for the failure-aware evaluation entry point.
struct QueryOptions {
  /// Cooperative deadline/cancellation, polled at block-decode granularity
  /// inside the eval core and across shard/segment fan-out. Null = none.
  /// The Deadline's cancel flag is shared across the whole fan-out, so one
  /// expiry observation stops every sibling shard.
  const util::Deadline* deadline = nullptr;
};

/// Abstract ranked-retrieval engine: what the privacy layer (TrustedClient,
/// SessionProtector) and the serving driver program against. Implemented by
/// SearchEngine over every index shape (and by decorators such as
/// FaultInjectingEngine); the parity suites prove the shapes interchangeable
/// bit for bit, so every layer above can swap one for another freely.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;

  /// Processes a query (bag of term ids), returning the top-k documents.
  /// Every call is recorded in the query log under `cycle_id`.
  virtual std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                        size_t k, uint64_t cycle_id = 0) = 0;

  /// Evaluation without logging (used internally and by tests that compare
  /// against the logged path). Uses thread-local scratch space, so
  /// concurrent callers (the serving driver's sessions) are safe.
  virtual std::vector<ScoredDoc> Evaluate(
      const std::vector<text::TermId>& terms, size_t k) const = 0;

  /// Deadline-aware evaluation. An accepted query returns results
  /// BIT-identical to Evaluate (the deadline machinery never perturbs
  /// surviving arithmetic); an expired or cancelled one returns
  /// kDeadlineExceeded and its partial work is discarded, never surfaced.
  /// The base implementation brackets Evaluate with expiry checks (coarse:
  /// a stuck engine still runs to completion); SearchEngine overrides it to
  /// poll inside the eval core and across the part fan-out, so a wedged
  /// part costs at most one block decode past the deadline.
  virtual util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const std::vector<text::TermId>& terms, size_t k,
      const QueryOptions& options) const;

  virtual const QueryLog& query_log() const = 0;
  virtual QueryLog& mutable_query_log() = 0;

  /// The corpus being searched (clients analyze raw text against its
  /// vocabulary).
  virtual const corpus::Corpus& corpus() const = 0;

  /// Scorer in use (for logs and benches).
  virtual const Scorer& scorer() const = 0;

  /// Always kTAAT. perfbench is its only reader; the benchmark change of
  /// ROADMAP item 5 removes it.
  virtual EvalStrategy eval_strategy() const { return EvalStrategy::kTAAT; }
};

/// Similarity search engine over a list of index parts — Lucene's
/// IndexSearcher over leaf readers. Each constructor maps one index shape
/// onto a view:
///  - a monolithic InvertedIndex is one part;
///  - a ShardedIndex is one part per shard, lifted by its range base and
///    scored with the manifest's GLOBAL document frequencies;
///  - a LiveIndex snapshot is one part per segment, with the segment's
///    tombstone mask and its dense-id remap (SnapshotSegment::DenseId),
///    scored with the snapshot's global live statistics.
///
/// Parity contract (sharding_test, live_index_test, serving_test,
/// query_parity_fuzz): for any shape, part count and thread count, results
/// are BIT-identical to the one-part engine over a static build of the same
/// collection. Three ingredients make that hold:
///   1. every part scores with the view's GLOBAL collection statistics and
///      per-term document frequencies (distributed-IR "global IDF");
///   2. every part runs the same evaluation core over the same canonical
///      term order (CollapseQuery); tombstoned documents are skipped
///      without touching any survivor's floating-point op sequence;
///   3. per-part results lift local ids into the view's global id space
///      and merge through TopK's strict (score desc, doc id asc) order, so
///      ties break by doc id, never by part or completion order.
///
/// FAN-OUT. With `num_threads` > 1 the engine owns a private pool and each
/// query's part evaluations fan out on it; every iteration writes only its
/// own result slot with its own thread-local scratch, and the merge walks
/// the slots in part order on the calling thread, so the pooled path is
/// bit-identical to the sequential one. The pool is private, so it can
/// never be a pool the caller itself blocks inside.
///
/// The engine is deliberately unmodified by the privacy layer: TopPriv's
/// design constraint is that it works against existing engines (unlike the
/// PDX baseline, which requires a homomorphic scoring protocol).
class SearchEngine : public QueryEngine {
 public:
  /// One part over a monolithic index. The engine borrows the corpus and
  /// index; both must outlive it.
  SearchEngine(const corpus::Corpus& corpus, const index::InvertedIndex& index,
               std::unique_ptr<Scorer> scorer);

  /// One part per shard; `num_threads` > 1 fans the shards out on a
  /// private pool (0 = hardware concurrency, 1 = sequential on the
  /// caller's thread).
  SearchEngine(const corpus::Corpus& corpus, const index::ShardedIndex& index,
               std::unique_ptr<Scorer> scorer, size_t num_threads = 1);

  /// Snapshot-isolated engine over a LiveIndex: each evaluation acquires
  /// the current snapshot, so concurrent ingest/merge/delete never races a
  /// query. A Degraded index still serves — reads come from the last
  /// published snapshot by design. `num_threads` as for the sharded shape.
  SearchEngine(const corpus::Corpus& corpus,
               const index::live::LiveIndex& live,
               std::unique_ptr<Scorer> scorer, size_t num_threads = 1);

  ~SearchEngine() override;

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  /// Logs the query, then evaluates. The query log is deliberately
  /// unsynchronized (single-session client API): concurrent callers must
  /// use the const Evaluate path, as the serving fleet does.
  std::vector<ScoredDoc> Search(const std::vector<text::TermId>& terms,
                                size_t k, uint64_t cycle_id = 0) override;

  std::vector<ScoredDoc> Evaluate(const std::vector<text::TermId>& terms,
                                  size_t k) const override;

  /// The deadline (with its SHARED sticky cancel flag) reaches every
  /// part's eval core, so the first worker to observe expiry stops the
  /// whole fan-out.
  util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const std::vector<text::TermId>& terms, size_t k,
      const QueryOptions& options) const override;

  /// Evaluation pinned to a caller-held live snapshot (what Evaluate does
  /// with the current one on a live engine). Exposed so tests can prove
  /// snapshot isolation: results against an old snapshot must not move
  /// while the index churns.
  std::vector<ScoredDoc> EvaluateOn(const index::live::IndexSnapshot& snapshot,
                                    const std::vector<text::TermId>& terms,
                                    size_t k,
                                    const util::Deadline* deadline =
                                        nullptr) const;

  const QueryLog& query_log() const override { return log_; }
  QueryLog& mutable_query_log() override { return log_; }

  const corpus::Corpus& corpus() const override { return corpus_; }
  const Scorer& scorer() const override { return *scorer_; }

 private:
  /// One leaf of a view.
  struct Part {
    const index::InvertedIndex* index = nullptr;
    /// Tombstone mask parallel to the part's local doc ids, or null.
    const std::vector<char>* exclude = nullptr;
    /// Global id of the part's first (live) document.
    corpus::DocId base = 0;
    /// deleted_before[l] = tombstoned locals below l, or null (no holes).
    const std::vector<uint32_t>* deleted_before = nullptr;
  };

  /// Everything one evaluation reads.
  struct View {
    CollectionStats stats;
    /// Global per-term df every part scores with; null means the single
    /// part's own (the monolithic shape).
    const std::vector<uint32_t>* global_df = nullptr;
    std::vector<Part> parts;
  };

  SearchEngine(const corpus::Corpus& corpus, std::unique_ptr<Scorer> scorer,
               size_t num_threads);

  /// Static view or the live index's current snapshot.
  std::vector<ScoredDoc> Run(const std::vector<text::TermId>& terms, size_t k,
                             const util::Deadline* deadline) const;

  /// The one evaluation body: collapse → df → scatter → lift → merge.
  std::vector<ScoredDoc> EvaluateView(const View& view,
                                      const std::vector<text::TermId>& terms,
                                      size_t k,
                                      const util::Deadline* deadline) const;

  const corpus::Corpus& corpus_;
  std::unique_ptr<Scorer> scorer_;
  /// Set for the live shape; the static shapes evaluate view_.
  const index::live::LiveIndex* live_ = nullptr;
  View view_;
  /// Private fan-out pool; null = sequential.
  std::unique_ptr<util::ThreadPool> pool_;
  QueryLog log_;
};

}  // namespace toppriv::search

#endif  // TOPPRIV_SEARCH_ENGINE_H_
