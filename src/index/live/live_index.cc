#include "index/live/live_index.h"

#include <algorithm>

#include "index/live/wal.h"
#include "util/check.h"
#include "util/filesystem.h"
#include "util/io.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace toppriv::index::live {

namespace {

/// Manifest-level sanity cap on the declared term space: the df table is
/// allocated at this width before any segment payload corroborates it, so
/// an unchecked count would let a few-byte blob demand gigabytes. (A LEGIT
/// term space can exceed the payload — EnsureTermSpace over an empty index
/// — hence a cap instead of the usual remaining()-derived bound.)
constexpr uint64_t kMaxManifestTerms = uint64_t{1} << 24;

/// Serialize leads with this format tag; Deserialize rejects any other
/// leading varint (an untagged blob included). Low 32 bits carry the
/// version.
constexpr uint64_t kLiveManifestTag = (uint64_t{1} << 32) | 1;

}  // namespace

// ------------------------------------------------------------- snapshot --

size_t IndexSnapshot::SegmentOf(corpus::DocId dense) const {
  TOPPRIV_CHECK_LT(dense, num_documents_);
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), dense,
      [](corpus::DocId d, const SnapshotSegment& s) { return d < s.dense_base; });
  TOPPRIV_CHECK(it != segments_.begin());
  return static_cast<size_t>(it - segments_.begin()) - 1;
}

uint32_t IndexSnapshot::DocLength(corpus::DocId dense) const {
  const SnapshotSegment& ss = segments_[SegmentOf(dense)];
  return ss.segment->index().DocLength(ss.LocalId(dense - ss.dense_base));
}

StableId IndexSnapshot::ToStableId(corpus::DocId dense) const {
  const SnapshotSegment& ss = segments_[SegmentOf(dense)];
  return ss.segment->stable_ids()[ss.LocalId(dense - ss.dense_base)];
}

IndexStats IndexSnapshot::ComputeStats() const {
  IndexStats stats;
  stats.num_terms = num_terms_;
  stats.num_documents = num_documents_;
  for (size_t t = 0; t < num_terms_; ++t) {
    // Walk the term's live postings segment by segment in dense order and
    // price them as ONE delta-encoded list (first posting absolute, every
    // later one a delta from its predecessor, across segment boundaries
    // and tombstone holes alike) — byte-for-byte the encoding a static
    // build of the live collection would produce, so the §II PIR
    // arithmetic is ingest-schedule-invariant.
    uint32_t length = 0;
    uint64_t encoded = 0;
    uint64_t prev = 0;
    bool first = true;
    for (const SnapshotSegment& ss : segments_) {
      const PostingList& list =
          ss.segment->index().Postings(static_cast<text::TermId>(t));
      const std::vector<char>* del = ss.deleted.get();
      for (auto it = list.begin(); it.Valid(); it.Next()) {
        const Posting& p = it.Get();
        if (del != nullptr && (*del)[p.doc]) continue;
        const uint64_t dense = ss.DenseId(p.doc);
        encoded += util::VarintSize(first ? dense : dense - prev) +
                   util::VarintSize(p.tf);
        prev = dense;
        first = false;
        ++length;
      }
    }
    TOPPRIV_DCHECK(length == global_df_[t]);
    stats.total_postings += length;
    stats.max_list_length = std::max(stats.max_list_length, length);
    stats.encoded_bytes += encoded;
  }
  if (stats.num_terms > 0) {
    stats.avg_list_length = static_cast<double>(stats.total_postings) /
                            static_cast<double>(stats.num_terms);
  }
  stats.pir_padded_bytes = static_cast<uint64_t>(stats.num_terms) *
                           static_cast<uint64_t>(stats.max_list_length) * 8ull;
  return stats;
}

// ------------------------------------------------------------ live index --

LiveIndex::LiveIndex(LiveIndexOptions options) : options_(options) {
  if (options_.max_writer_docs == 0) options_.max_writer_docs = 1;
  if (options_.merge_factor < 2) options_.merge_factor = 2;
  util::MutexLock lock(&mu_);
  PublishLocked();  // the empty snapshot, so Acquire is never null
}

LiveIndex::~LiveIndex() {
  util::MutexLock lock(&mu_);
  closing_ = true;
  WaitForMergesLocked();
}

std::vector<StableId> LiveIndex::Ingest(
    const std::vector<std::vector<text::TermId>>& docs) {
  TOPPRIV_TRACE_SPAN(ingest_span, "live.ingest");
  TOPPRIV_SCOPED_TIMER_US("live.ingest_us");
  TOPPRIV_COUNTER_ADD("live.ingest_docs", docs.size());
  uint64_t ack_seq = 0;
  bool need_ack = false;
  std::vector<StableId> ids;
  {
    util::MutexLock lock(&mu_);
    if (fs_ != nullptr) {
      // WAL-first: the batch is logged before a single document lands in
      // the writer, so recovery can never be behind what this call
      // acknowledges. Under kPerBatch the fsync happens AFTER the apply,
      // via the group-commit ack below — the memory apply order always
      // matches the WAL sequence order because both happen in this one
      // critical section.
      WalRecord record;
      record.type = WalRecordType::kIngest;
      record.docs = docs;
      if (!LogMutationLocked(std::move(record))) return {};
      ack_seq = wal_seq_;
      need_ack = options_.durability == DurabilityPolicy::kPerBatch;
    }
    ids.reserve(docs.size());
    for (const std::vector<text::TermId>& tokens : docs) {
      ids.push_back(writer_.Add(tokens));
      if (writer_.num_docs() >= options_.max_writer_docs) FlushLocked();
    }
    num_terms_ = std::max(num_terms_, writer_.num_terms());
    MarkDirtyLocked();
  }
  if (need_ack && !AckDurableThrough(ack_seq)) return {};
  return ids;
}

bool LiveIndex::Delete(StableId stable) {
  uint64_t ack_seq = 0;
  bool need_ack = false;
  bool applied = false;
  {
    util::MutexLock lock(&mu_);
    if (fs_ != nullptr) {
      // Logged even when it will turn out to be a no-op (unknown id,
      // already deleted): replay re-runs the same deterministic checks,
      // and logging first keeps the one-call-one-sequence-number mapping
      // exact.
      WalRecord record;
      record.type = WalRecordType::kDelete;
      record.stable = stable;
      if (!LogMutationLocked(std::move(record))) return false;
      ack_seq = wal_seq_;
      need_ack = options_.durability == DurabilityPolicy::kPerBatch;
    }
    applied = DeleteLocked(stable);
  }
  if (need_ack && !AckDurableThrough(ack_seq)) return false;
  return applied;
}

bool LiveIndex::DeleteLocked(StableId stable) {
  if (stable >= writer_.next_stable()) return false;
  if (!writer_.empty() && stable >= writer_.stable_begin()) {
    // The doc is still buffered; seal so the tombstone has a segment.
    FlushLocked();
  }
  if (entries_.empty()) return false;
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), stable,
      [](StableId s, const Entry& e) { return s < e.segment->stable_begin(); });
  if (it == entries_.begin()) return false;
  Entry& e = *(it - 1);
  corpus::DocId local = 0;
  if (!e.segment->FindLocal(stable, &local)) return false;
  if (e.deleted != nullptr && (*e.deleted)[local]) return false;
  // Copy-on-write: snapshots pin the old bitmap, so never mutate it.
  auto bitmap =
      e.deleted == nullptr
          ? std::make_shared<std::vector<char>>(e.segment->num_docs(), 0)
          : std::make_shared<std::vector<char>>(*e.deleted);
  (*bitmap)[local] = 1;
  e.deleted = std::move(bitmap);
  ++e.num_deleted;
  e.deleted_tokens += e.segment->index().DocLength(local);
  e.deleted_before.reset();
  e.live_locals.reset();
  // Incremental global-df: the segment's forward map lists the doc's
  // distinct terms, so the decrement is O(|doc terms|).
  for (const text::TermId* p = e.segment->DocTermsBegin(local);
       p != e.segment->DocTermsEnd(local); ++p) {
    --running_df_[*p];
  }
  --running_live_docs_;
  running_live_tokens_ -= e.segment->index().DocLength(local);
  MarkDirtyLocked();
  MaybeScheduleMergeLocked();
  return true;
}

void LiveIndex::EnsureTermSpace(size_t num_terms) {
  uint64_t ack_seq = 0;
  bool need_ack = false;
  {
    util::MutexLock lock(&mu_);
    if (fs_ != nullptr) {
      WalRecord record;
      record.type = WalRecordType::kTermSpace;
      record.num_terms = num_terms;
      if (!LogMutationLocked(std::move(record))) return;
      ack_seq = wal_seq_;
      need_ack = options_.durability == DurabilityPolicy::kPerBatch;
    }
    if (num_terms > num_terms_) {
      num_terms_ = num_terms;
      running_df_.resize(num_terms_, 0);
      MarkDirtyLocked();
    }
  }
  if (need_ack) AckDurableThrough(ack_seq);
}

void LiveIndex::Flush() {
  util::MutexLock lock(&mu_);
  // An empty writer means there is nothing to seal: appending a kSeal
  // record anyway (the pre-fix behavior) grew the WAL without bound under
  // an idle flush/refresh loop and paid an fsync per call under kPerBatch.
  if (writer_.empty()) return;
  // Seal records are best-effort: a seal changes only the physical
  // segmentation, never the logical collection, so an unhealthy WAL must
  // not strand acknowledged (already-logged) writer docs un-queryable.
  if (fs_ != nullptr) {
    WalRecord record;
    record.type = WalRecordType::kSeal;
    LogMutationLocked(std::move(record));
  }
  FlushLocked();
  if (fs_ != nullptr && options_.durability == DurabilityPolicy::kPerBatch) {
    SyncWalLocked();  // best-effort, like the seal append itself
  }
}

std::shared_ptr<const IndexSnapshot> LiveIndex::Refresh() {
  TOPPRIV_TRACE_SPAN(refresh_span, "live.refresh");
  TOPPRIV_SCOPED_TIMER_US("live.refresh_us");
  TOPPRIV_COUNTER_INC("live.refreshes");
  util::MutexLock lock(&mu_);
  if (fs_ != nullptr && !writer_.empty()) {
    // Only a non-empty writer seals; an idle Refresh leaves the WAL
    // byte-for-byte unchanged (the headline bugfix).
    WalRecord record;
    record.type = WalRecordType::kSeal;
    LogMutationLocked(std::move(record));  // best-effort, as in Flush()
  }
  FlushLocked();
  if (fs_ != nullptr && wal_error_.ok() &&
      options_.durability != DurabilityPolicy::kManual &&
      wal_synced_seq_ < wal_seq_) {
    // The published snapshot must never show state a crash could lose.
    // The synced-sequence watermark makes this a no-op when every append
    // (including in-flight group-committed writers') is already durable.
    SyncWalLocked();
  }
  if (dirty_) return PublishLocked();
  util::MutexLock snap_lock(&snapshot_mu_);
  return current_;
}

std::shared_ptr<const IndexSnapshot> LiveIndex::Acquire() const {
  util::MutexLock lock(&snapshot_mu_);
  return current_;
}

void LiveIndex::ForceMerge() {
  // Explicit Lock/Unlock instead of a scoped MutexLock: the build phase
  // runs with the mutex dropped, and CommitMerge retakes it internally.
  mu_.Lock();
  FlushLocked();
  WaitForMergesLocked();
  bool needed = entries_.size() > 1;
  for (const Entry& e : entries_) needed = needed || e.num_deleted > 0;
  if (!needed) {
    if (dirty_) PublishLocked();
    mu_.Unlock();
    return;
  }
  std::vector<MergeInput> inputs;
  inputs.reserve(entries_.size());
  for (Entry& e : entries_) {
    e.merging = true;
    inputs.push_back(MergeInput{e.segment, e.deleted});
  }
  ++merges_in_flight_;
  mu_.Unlock();
  std::shared_ptr<const Segment> merged = BuildMerged(inputs);
  CommitMerge(inputs, std::move(merged));
  mu_.Lock();
  if (dirty_) PublishLocked();
  mu_.Unlock();
}

void LiveIndex::WaitForMerges() {
  util::MutexLock lock(&mu_);
  WaitForMergesLocked();
}

size_t LiveIndex::num_segments() const {
  util::MutexLock lock(&mu_);
  return entries_.size();
}

StableId LiveIndex::next_stable_id() const {
  util::MutexLock lock(&mu_);
  return writer_.next_stable();
}

void LiveIndex::FlushLocked() {
  if (writer_.empty()) return;
  num_terms_ = std::max(num_terms_, writer_.num_terms());
  Entry e;
  e.segment = writer_.Seal();
  AddSegmentStatsLocked(*e.segment);
  entries_.push_back(std::move(e));
  MarkDirtyLocked();
  MaybeScheduleMergeLocked();
}

void LiveIndex::AddSegmentStatsLocked(const Segment& segment) {
  if (running_df_.size() < num_terms_) running_df_.resize(num_terms_, 0);
  const InvertedIndex& idx = segment.index();
  for (size_t t = 0; t < idx.num_terms(); ++t) {
    running_df_[t] += idx.DocFreq(static_cast<text::TermId>(t));
  }
  running_live_docs_ += idx.num_documents();
  running_live_tokens_ += idx.total_tokens();
}

void LiveIndex::MarkDirtyLocked() {
  dirty_ = true;
  ++mutation_seq_;
}

void LiveIndex::ComputeEntryCaches(Entry& e) {
  if (e.deleted_before != nullptr) return;  // caches match the current bitmap
  const InvertedIndex& idx = e.segment->index();
  const std::vector<char>& del = *e.deleted;
  const size_t docs = idx.num_documents();
  auto before = std::make_shared<std::vector<uint32_t>>(docs, 0);
  auto locals = std::make_shared<std::vector<corpus::DocId>>();
  locals->reserve(docs - e.num_deleted);
  uint32_t seen = 0;
  for (size_t l = 0; l < docs; ++l) {
    (*before)[l] = seen;
    if (del[l]) {
      ++seen;
    } else {
      locals->push_back(static_cast<corpus::DocId>(l));
    }
  }
  e.deleted_before = std::move(before);
  e.live_locals = std::move(locals);
}

std::shared_ptr<const IndexSnapshot> LiveIndex::PublishLocked() {
  // Capture a consistent cut under mu_: shared_ptr copies of every entry,
  // the mutation clock, and an O(terms) copy of the RUNNING global-df and
  // collection aggregates (maintained incrementally at seal/delete/
  // term-space time — publication no longer re-walks any posting list).
  // The remaining remap-cache fills run with NO lock held — all inputs are
  // immutable objects the plan pins — so concurrent Acquire/Ingest/Delete
  // never stall behind them.
  const uint64_t plan_seq = mutation_seq_;
  const size_t plan_terms = num_terms_;
  const uint64_t plan_docs = running_live_docs_;
  const uint64_t plan_tokens = running_live_tokens_;
  std::vector<uint32_t> plan_df(running_df_);
  std::vector<Entry> plan(entries_);
  mu_.Unlock();

  for (Entry& e : plan) {
    if (e.num_deleted > 0) ComputeEntryCaches(e);
  }
  auto snap = std::make_shared<IndexSnapshot>();
  snap->num_terms_ = plan_terms;
  snap->global_df_ = std::move(plan_df);
  snap->global_df_.resize(plan_terms, 0);
  corpus::DocId base = 0;
  for (const Entry& e : plan) {
    const InvertedIndex& idx = e.segment->index();
    const uint32_t live =
        static_cast<uint32_t>(idx.num_documents()) - e.num_deleted;
    if (live == 0) continue;  // fully tombstoned; compaction will drop it
    SnapshotSegment ss;
    ss.segment = e.segment;
    ss.dense_base = base;
    ss.live_docs = live;
    if (e.num_deleted > 0) {
      ss.deleted = e.deleted;
      ss.deleted_before = e.deleted_before;
      ss.live_locals = e.live_locals;
    }
    base += live;
    snap->segments_.push_back(std::move(ss));
  }
  // One compare per publish: cheap insurance that the incremental doc
  // count still matches the entry walk.
  TOPPRIV_CHECK(static_cast<uint64_t>(base) == plan_docs);
  snap->num_documents_ = base;
  snap->total_tokens_ = plan_tokens;
  // The same double division Build performs, so avg bits match a static
  // rebuild of the live collection exactly.
  snap->avg_doc_length_ = base == 0 ? 0.0
                                    : static_cast<double>(plan_tokens) /
                                          static_cast<double>(base);

  mu_.Lock();
  // Donate freshly computed remap caches back to entries still keyed by
  // the same (segment, bitmap) identity, so later publishes and deletes
  // reuse instead of recompute. An entry whose bitmap moved on gets
  // nothing — its caches would be stale.
  for (Entry& live_entry : entries_) {
    if (live_entry.num_deleted == 0 || live_entry.deleted_before != nullptr) {
      continue;
    }
    for (const Entry& p : plan) {
      if (p.segment == live_entry.segment && p.deleted == live_entry.deleted) {
        live_entry.deleted_before = p.deleted_before;
        live_entry.live_locals = p.live_locals;
        break;
      }
    }
  }
  if (mutation_seq_ == plan_seq) dirty_ = false;
  if (published_seq_ < plan_seq) {
    published_seq_ = plan_seq;
    snap->generation_ = ++generation_;
    std::shared_ptr<const IndexSnapshot> published = std::move(snap);
    {
      util::MutexLock snap_lock(&snapshot_mu_);
      current_ = published;
    }
    return published;
  }
  // A concurrent publisher built from a NEWER cut and already installed
  // its snapshot; installing ours would move readers backwards.
  util::MutexLock snap_lock(&snapshot_mu_);
  return current_;
}

void LiveIndex::WaitForMergesLocked() {
  while (merges_in_flight_ != 0) merges_done_.Wait();
}

size_t LiveIndex::TierOf(uint64_t live_docs) const {
  size_t tier = 0;
  uint64_t cap = options_.max_writer_docs;
  while (live_docs >= cap && tier < 48) {
    ++tier;
    cap *= options_.merge_factor;
  }
  return tier;
}

void LiveIndex::MaybeScheduleMergeLocked() {
  if (closing_) return;
  // Bounded re-scan loop: every iteration either schedules a disjoint
  // candidate (pool mode), fully executes one (inline mode, where the
  // entry list may have changed while the lock was dropped), or returns.
  for (int safety = 0; safety < 64; ++safety) {
    size_t start = 0;
    size_t count = 0;
    // Tombstone compaction first: rewriting a half-dead segment both frees
    // memory and keeps snapshot remap tables small.
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      if (e.merging || e.num_deleted == 0) continue;
      if (static_cast<double>(e.num_deleted) >=
          options_.compact_deleted_ratio *
              static_cast<double>(e.segment->num_docs())) {
        start = i;
        count = 1;
        break;
      }
    }
    // Tiered policy: merge_factor ADJACENT segments in the same live-doc
    // tier collapse into one (adjacency keeps stable order, so the merged
    // segment slots into the same place in the dense id space).
    if (count == 0) {
      size_t run_start = 0;
      size_t run_len = 0;
      size_t run_tier = 0;
      for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        if (e.merging) {
          run_len = 0;
          continue;
        }
        const size_t tier =
            TierOf(e.segment->num_docs() - e.num_deleted);
        if (run_len == 0 || tier != run_tier) {
          run_start = i;
          run_tier = tier;
          run_len = 1;
        } else {
          ++run_len;
        }
        if (run_len >= options_.merge_factor) {
          start = run_start;
          count = run_len;
          break;
        }
      }
    }
    if (count == 0) return;

    std::vector<MergeInput> inputs;
    inputs.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      Entry& e = entries_[start + i];
      e.merging = true;
      inputs.push_back(MergeInput{e.segment, e.deleted});
    }
    ++merges_in_flight_;
    if (options_.merge_pool != nullptr) {
      options_.merge_pool->Submit([this, inputs = std::move(inputs)] {
        std::shared_ptr<const Segment> merged = BuildMerged(inputs);
        CommitMerge(inputs, std::move(merged));
      });
      continue;  // look for further disjoint candidates
    }
    mu_.Unlock();
    std::shared_ptr<const Segment> merged = BuildMerged(inputs);
    CommitMerge(inputs, std::move(merged));
    mu_.Lock();
  }
}

std::shared_ptr<const Segment> LiveIndex::BuildMerged(
    const std::vector<MergeInput>& inputs) {
  TOPPRIV_TRACE_SPAN(merge_span, "live.merge");
  TOPPRIV_SCOPED_TIMER_US("live.merge_us");
  TOPPRIV_HISTOGRAM_OBSERVE("live.merge_inputs", inputs.size(),
                            util::CountBuckets());
  size_t num_terms = 0;
  size_t total_live = 0;
  for (const MergeInput& in : inputs) {
    num_terms = std::max(num_terms, in.segment->num_terms());
    size_t deleted = 0;
    if (in.deleted != nullptr) {
      for (char d : *in.deleted) deleted += d != 0;
    }
    total_live += in.segment->num_docs() - deleted;
  }
  if (total_live == 0) return nullptr;  // every input doc tombstoned

  // Survivor renumbering: merged-local = input base + local − #deleted
  // before it — dense in stable order, the same ids BuildRange would
  // assign the surviving documents.
  std::vector<std::vector<uint32_t>> shift(inputs.size());
  std::vector<corpus::DocId> bases(inputs.size());
  std::vector<uint32_t> doc_lengths;
  std::vector<StableId> stable_ids;
  doc_lengths.reserve(total_live);
  stable_ids.reserve(total_live);
  corpus::DocId base = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Segment& seg = *inputs[i].segment;
    const std::vector<char>* del = inputs[i].deleted.get();
    bases[i] = base;
    shift[i].assign(seg.num_docs(), 0);
    uint32_t seen = 0;
    for (size_t l = 0; l < seg.num_docs(); ++l) {
      shift[i][l] = seen;
      if (del != nullptr && (*del)[l]) {
        ++seen;
        continue;
      }
      doc_lengths.push_back(
          seg.index().DocLength(static_cast<corpus::DocId>(l)));
      stable_ids.push_back(seg.stable_ids()[l]);
    }
    base += static_cast<corpus::DocId>(seg.num_docs() - seen);
  }

  // Term-major rebuild: surviving postings re-Append in ascending merged
  // doc order, producing lists byte-identical to a fresh BuildRange over
  // the survivors.
  std::vector<PostingList::Builder> builders(num_terms);
  for (size_t t = 0; t < num_terms; ++t) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      const PostingList& list =
          inputs[i].segment->index().Postings(static_cast<text::TermId>(t));
      const std::vector<char>* del = inputs[i].deleted.get();
      for (auto it = list.begin(); it.Valid(); it.Next()) {
        const Posting& p = it.Get();
        if (del != nullptr && (*del)[p.doc]) continue;
        builders[t].Append(bases[i] + (p.doc - shift[i][p.doc]), p.tf);
      }
    }
  }
  std::vector<PostingList> lists;
  lists.reserve(num_terms);
  for (PostingList::Builder& b : builders) lists.push_back(b.Build());
  return std::make_shared<Segment>(
      InvertedIndex::FromParts(std::move(lists), std::move(doc_lengths)),
      inputs.front().segment->stable_begin(), std::move(stable_ids));
}

void LiveIndex::CommitMerge(const std::vector<MergeInput>& inputs,
                            std::shared_ptr<const Segment> merged) {
  util::MutexLock lock(&mu_);
  // Locate the input run by identity. It is still contiguous: other
  // merges skip `merging` entries, ingest only appends, deletes only swap
  // bitmap pointers in place.
  size_t start = 0;
  while (start < entries_.size() &&
         entries_[start].segment != inputs[0].segment) {
    ++start;
  }
  TOPPRIV_CHECK_LT(start, entries_.size());
  const size_t count = inputs.size();

  // Deletes that landed while the merge was building: bitmaps only gain
  // bits, so the diff against the captured bitmap is exactly the late
  // tombstones. Re-mark them on the merged segment via their stable ids.
  std::shared_ptr<std::vector<char>> late;
  uint32_t late_count = 0;
  uint64_t late_tokens = 0;
  for (size_t i = 0; i < count; ++i) {
    const Entry& e = entries_[start + i];
    TOPPRIV_CHECK(e.segment == inputs[i].segment);
    if (e.deleted == inputs[i].deleted) continue;
    const std::vector<char>& now = *e.deleted;
    const std::vector<char>* then = inputs[i].deleted.get();
    for (size_t l = 0; l < now.size(); ++l) {
      if (!now[l] || (then != nullptr && (*then)[l])) continue;
      TOPPRIV_CHECK(merged != nullptr);  // a live doc existed to delete
      corpus::DocId ml = 0;
      TOPPRIV_CHECK(merged->FindLocal(e.segment->stable_ids()[l], &ml));
      if (late == nullptr) {
        late = std::make_shared<std::vector<char>>(merged->num_docs(), 0);
      }
      (*late)[ml] = 1;
      ++late_count;
      late_tokens += merged->index().DocLength(ml);
    }
  }

  if (merged != nullptr) {
    Entry replacement;
    replacement.segment = std::move(merged);
    replacement.deleted = std::move(late);
    replacement.num_deleted = late_count;
    replacement.deleted_tokens = late_tokens;
    entries_[start] = std::move(replacement);
    entries_.erase(entries_.begin() + start + 1,
                   entries_.begin() + start + count);
  } else {
    entries_.erase(entries_.begin() + start, entries_.begin() + start + count);
  }
  MarkDirtyLocked();
  // Publish the compaction to new Acquires. PublishLocked drops mu_ for
  // the aggregation; the surgery above already completed under one hold,
  // and merges_in_flight_ stays elevated until after the publish, so
  // WaitForMerges callers still observe fully committed state.
  PublishLocked();
  --merges_in_flight_;
  merges_done_.SignalAll();
  if (!closing_) MaybeScheduleMergeLocked();  // cascade up the tiers
}

// -------------------------------------------------------- serialization --

std::string LiveIndex::Serialize() {
  util::MutexLock lock(&mu_);
  if (fs_ != nullptr && !writer_.empty()) {
    WalRecord record;
    record.type = WalRecordType::kSeal;
    LogMutationLocked(std::move(record));  // best-effort, as in Flush()
  }
  FlushLocked();
  WaitForMergesLocked();
  return SerializeLocked();
}

std::string LiveIndex::SerializeLocked() const {
  TOPPRIV_DCHECK(writer_.empty());
  util::BinaryWriter w;
  w.WriteVarint(kLiveManifestTag);
  w.WriteVarint(num_terms_);
  w.WriteVarint(writer_.next_stable());
  w.WriteVarint(entries_.size());
  for (const Entry& e : entries_) {
    const Segment& seg = *e.segment;
    w.WriteVarint(seg.stable_begin());
    w.WriteVarint(seg.num_docs());
    // Stable ids delta-coded against the segment's range begin; strictly
    // ascending, so every delta after the first is >= 1.
    StableId prev = seg.stable_begin();
    for (StableId sid : seg.stable_ids()) {
      w.WriteVarint(sid - prev);
      prev = sid;
    }
    w.WriteVarint(e.num_deleted);
    if (e.num_deleted > 0) {
      uint64_t prev_local = 0;
      bool first = true;
      for (size_t l = 0; l < e.deleted->size(); ++l) {
        if (!(*e.deleted)[l]) continue;
        w.WriteVarint(first ? l : l - prev_local);
        prev_local = l;
        first = false;
      }
    }
    w.WriteString(seg.index().Serialize());
  }
  return w.data();
}

util::StatusOr<std::unique_ptr<LiveIndex>> LiveIndex::Deserialize(
    const std::string& bytes, LiveIndexOptions options) {
  util::BinaryReader r(bytes);
  uint64_t tag = 0, num_terms = 0, next_stable = 0, num_segments = 0;
  TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&tag));
  if (tag != kLiveManifestTag) {
    return util::Status::DataLoss(
        "live manifest format version not understood");
  }
  TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&num_terms));
  TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&next_stable));
  TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&num_segments));
  if (num_terms > kMaxManifestTerms) {
    return util::Status::DataLoss("live manifest term space implausibly large");
  }
  // Every segment costs at least four bytes (range begin, doc count, one
  // stable delta, tombstone count) before its length-prefixed blob.
  if (num_segments > r.remaining() / 4) {
    return util::Status::DataLoss("segment count exceeds payload");
  }

  auto live = std::make_unique<LiveIndex>(options);
  // `live` is private to this call, but its members are guarded by its
  // mutex; hold it (uncontended) for the fill so the capability analysis
  // can verify the accesses, and for the MarkDirty/Publish at the end.
  util::MutexLock lock(&live->mu_);
  live->num_terms_ = num_terms;
  StableId prev_end = 0;
  for (uint64_t s = 0; s < num_segments; ++s) {
    uint64_t begin = 0, ndocs = 0;
    TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&begin));
    TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&ndocs));
    if (ndocs == 0) {
      return util::Status::DataLoss("live segment declares zero documents");
    }
    if (ndocs > r.remaining()) {
      return util::Status::DataLoss("segment doc count exceeds payload");
    }
    if (begin < prev_end) {
      return util::Status::DataLoss(
          "segment stable ranges overlap or are out of order");
    }
    std::vector<StableId> stable_ids;
    stable_ids.reserve(ndocs);
    StableId prev = begin;
    for (uint64_t i = 0; i < ndocs; ++i) {
      uint64_t delta = 0;
      TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&delta));
      if (i > 0 && delta == 0) {
        return util::Status::DataLoss("segment stable ids not ascending");
      }
      const StableId sid = prev + delta;
      if (sid < prev || sid >= next_stable) {
        return util::Status::DataLoss(
            "segment stable id beyond the declared id space");
      }
      stable_ids.push_back(sid);
      prev = sid;
    }
    prev_end = stable_ids.back() + 1;

    uint64_t num_deleted = 0;
    TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&num_deleted));
    if (num_deleted > ndocs) {
      return util::Status::DataLoss(
          "stale tombstone bitmap: more deletes than documents");
    }
    std::shared_ptr<std::vector<char>> bitmap;
    if (num_deleted > 0) {
      bitmap = std::make_shared<std::vector<char>>(ndocs, 0);
      uint64_t prev_local = 0;
      for (uint64_t i = 0; i < num_deleted; ++i) {
        uint64_t delta = 0;
        TOPPRIV_RETURN_IF_ERROR(r.ReadVarint(&delta));
        if (i > 0 && delta == 0) {
          return util::Status::DataLoss(
              "stale tombstone bitmap: duplicate or unordered local ids");
        }
        const uint64_t local = i == 0 ? delta : prev_local + delta;
        if (local >= ndocs) {
          return util::Status::DataLoss(
              "stale tombstone bitmap: local id out of segment range");
        }
        (*bitmap)[local] = 1;
        prev_local = local;
      }
    }

    std::string blob;
    TOPPRIV_RETURN_IF_ERROR(r.ReadString(&blob));
    auto index = InvertedIndex::Deserialize(blob);
    if (!index.ok()) return index.status();
    if (index->num_documents() != ndocs) {
      return util::Status::DataLoss(
          "segment payload does not match its manifest doc count");
    }
    if (index->num_terms() > num_terms) {
      return util::Status::DataLoss("segment term space exceeds manifest");
    }

    Entry e;
    uint64_t deleted_tokens = 0;
    if (bitmap != nullptr) {
      for (size_t l = 0; l < bitmap->size(); ++l) {
        if ((*bitmap)[l]) {
          deleted_tokens +=
              index->DocLength(static_cast<corpus::DocId>(l));
        }
      }
    }
    e.segment = std::make_shared<Segment>(std::move(index).value(), begin,
                                          std::move(stable_ids));
    e.deleted = std::move(bitmap);
    e.num_deleted = static_cast<uint32_t>(num_deleted);
    e.deleted_tokens = deleted_tokens;
    live->entries_.push_back(std::move(e));
  }
  if (!r.AtEnd()) {
    return util::Status::DataLoss("trailing bytes after live index");
  }
  live->writer_ = SegmentWriter(next_stable);
  // Rebuild the running aggregates from the restored segments — the one
  // place they are recomputed rather than maintained incrementally. Each
  // segment contributes its full df; tombstoned docs subtract theirs via
  // the forward map, so the cost is O(postings + deleted doc terms).
  live->running_df_.assign(num_terms, 0);
  live->running_live_docs_ = 0;
  live->running_live_tokens_ = 0;
  for (const Entry& e : live->entries_) {
    const InvertedIndex& idx = e.segment->index();
    for (size_t t = 0; t < idx.num_terms(); ++t) {
      live->running_df_[t] += idx.DocFreq(static_cast<text::TermId>(t));
    }
    live->running_live_docs_ += idx.num_documents() - e.num_deleted;
    live->running_live_tokens_ += idx.total_tokens() - e.deleted_tokens;
    if (e.deleted == nullptr) continue;
    for (size_t l = 0; l < e.deleted->size(); ++l) {
      if (!(*e.deleted)[l]) continue;
      const corpus::DocId local = static_cast<corpus::DocId>(l);
      for (const text::TermId* p = e.segment->DocTermsBegin(local);
           p != e.segment->DocTermsEnd(local); ++p) {
        --live->running_df_[*p];
      }
    }
  }
  live->MarkDirtyLocked();
  live->PublishLocked();
  return live;
}

// ------------------------------------------------------------ durability --

void LiveIndex::RecordWalErrorLocked(const util::Status& s) {
  // Count the Healthy -> Degraded EDGE, not every refused mutation that
  // re-latches the same error.
  if (wal_error_.ok()) {
    TOPPRIV_COUNTER_INC("live.health.degraded_transitions");
  }
  wal_error_ = s;
  last_error_ = s;
}

bool LiveIndex::LogMutationLocked(WalRecord&& record) {
  if (fs_ == nullptr) return true;
  if (!wal_error_.ok()) return false;
  util::Status s = wal_->Append(&record);
  if (!s.ok()) {
    // The degrading event: the log can no longer promise to be ahead of
    // memory, so mutations are refused (queries still serve) until
    // Repair() re-checkpoints into a fresh generation.
    RecordWalErrorLocked(s);
    return false;
  }
  wal_seq_ = wal_->next_seq();
  TOPPRIV_COUNTER_INC("live.wal.appends");
  return true;
}

util::Status LiveIndex::SyncWalLocked() {
  if (!wal_error_.ok()) return wal_error_;
  if (wal_synced_seq_ >= wal_seq_) return util::Status::Ok();
  const uint64_t batch = wal_seq_ - wal_synced_seq_;
  (void)batch;  // recorded below; the macro vanishes under TOPPRIV_METRICS=OFF
  util::Status s = wal_->Sync();
  if (!s.ok()) {
    RecordWalErrorLocked(s);
    return s;
  }
  // Everything appended so far (wal_seq_ cannot move while mu_ is held)
  // is now durable — concurrent group-commit followers free-ride on this.
  wal_synced_seq_ = wal_seq_;
  TOPPRIV_COUNTER_INC("live.wal.fsyncs");
  TOPPRIV_HISTOGRAM_OBSERVE("live.wal.group_commit_batch", batch,
                            util::CountBuckets());
  return s;
}

bool LiveIndex::AckDurableThrough(uint64_t ack_seq) {
  util::MutexLock lock(&mu_);
  // Watermark BEFORE the error latch: a record a successful group-commit
  // sync already covered is durable no matter what broke afterwards, and
  // refusing it would be a false negative — the power cut would then
  // PRESERVE a write its caller was told failed. The latch only refuses
  // writes whose durability was never established.
  if (wal_synced_seq_ >= ack_seq) return true;  // follower: leader paid
  if (!wal_error_.ok()) return false;
  return SyncWalLocked().ok();                  // leader: one fsync for all
}

util::Status LiveIndex::Checkpoint() {
  util::MutexLock lock(&mu_);
  return CheckpointLocked();
}

util::Status LiveIndex::CheckpointLocked() {
  if (fs_ == nullptr) {
    return util::Status::FailedPrecondition(
        "Checkpoint() on an in-memory LiveIndex");
  }
  if (!wal_error_.ok()) return wal_error_;
  util::Status s = RecommitLocked();
  if (!s.ok()) {
    RecordWalErrorLocked(s);
    return s;
  }
  return util::Status::Ok();
}

util::Status LiveIndex::RecommitLocked() {
  FlushLocked();
  WaitForMergesLocked();
  const std::string blob = SerializeLocked();
  const uint64_t next_gen = wal_generation_ + 1;
  // Each step below is individually atomic-or-ignorable: until CURRENT
  // flips, recovery follows the OLD generation (whose files this function
  // never touches); after the flip, the new manifest + empty WAL are
  // already fully synced. Stray files from a crash in between are inert
  // and swept by the next successful checkpoint.
  TOPPRIV_RETURN_IF_ERROR(CommitGenerationLocked(next_gen, blob));
  // Best-effort sweep of superseded generations and temp debris; recovery
  // only ever follows CURRENT, so leftovers cost disk, not correctness.
  auto names = fs_->List(dir_);
  if (names.ok()) {
    for (const std::string& name : *names) {
      std::string kind;
      uint64_t g = 0;
      const bool generational = ParseGenerationFileName(name, &kind, &g);
      const bool tmp_debris =
          name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
      if ((generational && g != next_gen) || tmp_debris) {
        (void)fs_->Remove(dir_ + "/" + name);
      }
    }
  }
  return util::Status::Ok();
}

util::Status LiveIndex::CommitGenerationLocked(uint64_t next_gen,
                                               const std::string& blob) {
  const std::string manifest_path = dir_ + "/" + ManifestFileName(next_gen);
  const std::string tmp_path = manifest_path + ".tmp";
  // A stray tmp or wal from a checkpoint that crashed here would be
  // APPENDED to; clear them first.
  if (fs_->Exists(tmp_path)) TOPPRIV_RETURN_IF_ERROR(fs_->Remove(tmp_path));
  auto file = fs_->OpenForAppend(tmp_path);
  TOPPRIV_RETURN_IF_ERROR(file.status());
  TOPPRIV_RETURN_IF_ERROR(
      (*file)->Append(EncodeManifestFile(next_gen, wal_seq_, blob)));
  TOPPRIV_RETURN_IF_ERROR((*file)->Sync());
  TOPPRIV_RETURN_IF_ERROR((*file)->Close());
  TOPPRIV_RETURN_IF_ERROR(fs_->Rename(tmp_path, manifest_path));
  const std::string wal_path = dir_ + "/" + WalFileName(next_gen);
  if (fs_->Exists(wal_path)) TOPPRIV_RETURN_IF_ERROR(fs_->Remove(wal_path));
  auto writer = WalWriter::Create(fs_, wal_path, next_gen, wal_seq_);
  TOPPRIV_RETURN_IF_ERROR(writer.status());
  // The commit point: everything the new generation needs is durable.
  TOPPRIV_RETURN_IF_ERROR(WriteCurrentFile(fs_, dir_, next_gen));
  wal_ = std::move(*writer);
  wal_generation_ = next_gen;
  // The fresh WAL holds no records; everything through wal_seq_ is covered
  // by the just-committed manifest, so the group-commit watermark advances.
  wal_synced_seq_ = wal_seq_;
  return util::Status::Ok();
}

util::Status LiveIndex::SyncWal() {
  util::MutexLock lock(&mu_);
  if (fs_ == nullptr) return util::Status::Ok();
  return SyncWalLocked();
}

bool LiveIndex::healthy() const {
  util::MutexLock lock(&mu_);
  return wal_error_.ok();
}

util::Status LiveIndex::wal_status() const {
  util::MutexLock lock(&mu_);
  return wal_error_;
}

LiveIndex::Health LiveIndex::health() const {
  util::MutexLock lock(&mu_);
  return wal_error_.ok() ? Health::kHealthy : Health::kDegraded;
}

util::Status LiveIndex::last_error() const {
  util::MutexLock lock(&mu_);
  return last_error_;
}

util::StatusOr<std::vector<StableId>> LiveIndex::IngestChecked(
    const std::vector<std::vector<text::TermId>>& docs) {
  std::vector<StableId> ids = Ingest(docs);
  if (ids.size() == docs.size()) return ids;
  // Every short-return path in Ingest implies the WAL error latch is set
  // (append or per-batch ack failed), so the typed translation is exact.
  util::MutexLock lock(&mu_);
  return util::Status::Unavailable("live index degraded: " +
                                   wal_error_.ToString());
}

util::Status LiveIndex::DeleteChecked(StableId stable) {
  {
    util::MutexLock lock(&mu_);
    if (fs_ != nullptr && !wal_error_.ok()) {
      return util::Status::Unavailable("live index degraded: " +
                                       wal_error_.ToString());
    }
  }
  if (Delete(stable)) return util::Status::Ok();
  // Disambiguate "not live" from "refused": the index may have degraded
  // between the pre-check and the call.
  util::MutexLock lock(&mu_);
  if (fs_ != nullptr && !wal_error_.ok()) {
    return util::Status::Unavailable("live index degraded: " +
                                     wal_error_.ToString());
  }
  return util::Status::NotFound("stable id not live");
}

util::Status LiveIndex::Repair(const util::RetryPolicy& policy,
                               util::Clock* clock) {
  if (clock == nullptr) clock = util::Clock::Real();
  const int attempts = std::max(1, policy.max_attempts);
  util::Status last = util::Status::Ok();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Back off without holding mu_ so queries and (refused) mutation
      // attempts are never blocked behind a repair sleep.
      clock->SleepFor(policy.BackoffNanos(attempt - 1));
    }
    mu_.Lock();
    if (fs_ == nullptr) {
      mu_.Unlock();
      return util::Status::FailedPrecondition(
          "Repair() on an in-memory LiveIndex");
    }
    if (wal_error_.ok()) {
      mu_.Unlock();
      return util::Status::Ok();
    }
    // Memory holds the logged-OK mutation prefix (a failed append is
    // never applied) plus, possibly, an appended-but-unsynced suffix
    // whose writers were refused when the group-commit fsync died. Both
    // are in log order, so re-checkpointing memory into a fresh
    // generation + empty WAL is a sound repair — no replay needed. An
    // indeterminate write may thus be promoted to durable, never lost:
    // acked ⊆ recovered holds either way.
    util::Status s = RecommitLocked();
    if (s.ok()) {
      wal_error_ = util::Status::Ok();  // last_error_ stays sticky.
      TOPPRIV_COUNTER_INC("live.health.repaired_transitions");
      mu_.Unlock();
      return util::Status::Ok();
    }
    last_error_ = s;
    mu_.Unlock();
    last = s;
  }
  return last;
}

uint64_t LiveIndex::wal_sequence() const {
  util::MutexLock lock(&mu_);
  return wal_seq_;
}

uint64_t LiveIndex::wal_generation() const {
  util::MutexLock lock(&mu_);
  return wal_generation_;
}

util::StatusOr<std::unique_ptr<LiveIndex>> LiveIndex::Recover(
    util::FileSystem* fs, const std::string& dir, LiveIndexOptions options,
    RecoveryStats* stats) {
  TOPPRIV_RETURN_IF_ERROR(fs->MakeDirs(dir));
  TOPPRIV_TRACE_SPAN(recover_span, "live.recover");
  TOPPRIV_SCOPED_TIMER_US("live.recover_us");
  TOPPRIV_COUNTER_INC("live.recovery.runs");
  RecoveryStats found;
  std::unique_ptr<LiveIndex> live;
  auto current = ReadCurrentFile(fs, dir);
  if (!current.ok() &&
      current.status().code() == util::StatusCode::kNotFound) {
    // Fresh directory: an empty index, committed below as generation 1.
    live = std::make_unique<LiveIndex>(options);
  } else {
    TOPPRIV_RETURN_IF_ERROR(current.status());  // malformed CURRENT
    const uint64_t gen = *current;
    found.manifest_generation = gen;
    // The committed manifest. It was fully synced before CURRENT named
    // it, so ANY defect — absence included — is corruption, not crash
    // debris, and recovery refuses rather than silently losing a
    // committed generation.
    auto manifest_bytes = fs->Read(dir + "/" + ManifestFileName(gen));
    if (!manifest_bytes.ok()) {
      return util::Status::DataLoss("committed manifest unreadable: " +
                                    ManifestFileName(gen));
    }
    auto manifest = ParseManifestFile(*manifest_bytes);
    TOPPRIV_RETURN_IF_ERROR(manifest.status());
    if (manifest->generation != gen) {
      return util::Status::DataLoss(
          "manifest does not carry the generation CURRENT names");
    }
    auto restored = Deserialize(manifest->blob, options);
    TOPPRIV_RETURN_IF_ERROR(restored.status());
    live = std::move(*restored);
    // Replay the WAL suffix. Same commit argument: the file and its
    // header were synced at checkpoint time, so only the record TAIL may
    // legitimately be damaged.
    auto wal_bytes = fs->Read(dir + "/" + WalFileName(gen));
    if (!wal_bytes.ok()) {
      return util::Status::DataLoss("committed wal unreadable: " +
                                    WalFileName(gen));
    }
    auto replay = ParseWal(*wal_bytes);
    TOPPRIV_RETURN_IF_ERROR(replay.status());
    if (replay->generation != gen || replay->base_seq != manifest->base_seq) {
      return util::Status::DataLoss(
          "wal header does not match the committed manifest");
    }
    // Durability is not attached yet, so these public calls replay the
    // logged mutations through the exact production code paths without
    // re-logging them.
    for (const WalRecord& record : replay->records) {
      switch (record.type) {
        case WalRecordType::kIngest:
          live->Ingest(record.docs);
          break;
        case WalRecordType::kDelete:
          live->Delete(record.stable);
          break;
        case WalRecordType::kSeal:
          live->Flush();
          break;
        case WalRecordType::kTermSpace:
          live->EnsureTermSpace(record.num_terms);
          break;
      }
    }
    found.replayed_records = replay->records.size();
    found.wal_tail_lost = replay->tail_lost;
    TOPPRIV_COUNTER_ADD("live.recovery.replayed_records",
                        found.replayed_records);
    if (found.wal_tail_lost) TOPPRIV_COUNTER_INC("live.recovery.tail_lost");
    util::MutexLock lock(&live->mu_);
    live->wal_seq_ = replay->next_seq;
    live->wal_synced_seq_ = replay->next_seq;  // it was read back from disk
  }
  {
    // Attach durability state under the (still-private) index's mutex so
    // the guarded writes are machine-checked like every other mutation.
    util::MutexLock lock(&live->mu_);
    live->fs_ = fs;
    live->dir_ = dir;
    live->wal_generation_ = found.manifest_generation;
  }
  // Commit the recovered state as a fresh generation immediately: this
  // collapses any torn WAL tail into a clean manifest and sidesteps
  // append-after-reopen entirely.
  TOPPRIV_RETURN_IF_ERROR(live->Checkpoint());
  if (stats != nullptr) *stats = found;
  return live;
}

void StreamCorpus(const corpus::Corpus& corpus, size_t begin, size_t end,
                  size_t batch_size, LiveIndex* live) {
  TOPPRIV_CHECK_GE(batch_size, 1u);
  TOPPRIV_CHECK_LE(end, corpus.num_documents());
  std::vector<std::vector<text::TermId>> batch;
  for (size_t d = begin; d < end; d += batch_size) {
    const size_t stop = std::min(end, d + batch_size);
    batch.clear();
    batch.reserve(stop - d);
    for (size_t i = d; i < stop; ++i) {
      batch.push_back(corpus.documents()[i].tokens);
    }
    live->Ingest(batch);
    live->Refresh();
  }
}

}  // namespace toppriv::index::live
