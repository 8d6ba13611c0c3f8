// Inverted index over a corpus: one posting list per term plus the document
// statistics similarity scorers need.
#ifndef TOPPRIV_INDEX_INVERTED_INDEX_H_
#define TOPPRIV_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "index/posting_list.h"
#include "text/vocabulary.h"
#include "util/status.h"

namespace toppriv::index {

/// Aggregate statistics used by bench/index_stats (the paper's §II PIR
/// arithmetic: average vs maximum list length, raw vs padded sizes).
struct IndexStats {
  size_t num_terms = 0;
  size_t num_documents = 0;
  uint64_t total_postings = 0;
  double avg_list_length = 0.0;
  uint32_t max_list_length = 0;
  /// Encoded size of all posting lists in bytes.
  uint64_t encoded_bytes = 0;
  /// Hypothetical size if every list were padded to the maximum length at
  /// fixed 8 bytes per <impact, doc> pair, as a PIR store would require.
  uint64_t pir_padded_bytes = 0;
};

/// Immutable inverted index.
class InvertedIndex {
 public:
  InvertedIndex() = default;

  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;
  InvertedIndex(InvertedIndex&&) = default;
  InvertedIndex& operator=(InvertedIndex&&) = default;

  /// Builds the index from a corpus in one pass.
  static InvertedIndex Build(const corpus::Corpus& corpus);

  /// Builds an index over the document range [begin, end) only, with doc
  /// ids LOCAL to the range (global id d maps to local id d - begin). The
  /// term space stays the full corpus vocabulary, so every shard of a
  /// ShardedIndex answers Postings() for any term. Build(c) is
  /// BuildRange(c, 0, num_documents).
  static InvertedIndex BuildRange(const corpus::Corpus& corpus,
                                  corpus::DocId begin, corpus::DocId end);

  /// Assembles an index directly from per-term posting lists and per-doc
  /// lengths (total tokens and the average are derived the same way Build
  /// derives them). This is the live-index seam: a SegmentWriter (and the
  /// segment merger) appends the identical <doc, tf> sequences Build would
  /// have appended, so the resulting index is bit-identical to Build over
  /// the same documents without materializing a Corpus.
  static InvertedIndex FromParts(std::vector<PostingList> lists,
                                 std::vector<uint32_t> doc_lengths);

  /// Posting list for a term (empty list if the term never occurs).
  const PostingList& Postings(text::TermId term) const;

  /// Document frequency (list length) for a term.
  uint32_t DocFreq(text::TermId term) const;

  /// Length in tokens of each document.
  uint32_t DocLength(corpus::DocId doc) const;
  /// Every document's length, indexed by doc id (unchecked access for the
  /// evaluation cores, which bound-check doc ids once per decoded block).
  const std::vector<uint32_t>& doc_lengths() const { return doc_lengths_; }
  double avg_doc_length() const { return avg_doc_length_; }
  size_t num_documents() const { return doc_lengths_.size(); }
  size_t num_terms() const { return lists_.size(); }
  uint64_t total_tokens() const { return total_tokens_; }

  /// Aggregate statistics (see IndexStats).
  IndexStats ComputeStats() const;

  /// Serialization (used by the experiment cache and Fig. 6 accounting).
  std::string Serialize() const;
  static util::StatusOr<InvertedIndex> Deserialize(const std::string& bytes);

 private:
  std::vector<PostingList> lists_;
  std::vector<uint32_t> doc_lengths_;
  double avg_doc_length_ = 0.0;
  uint64_t total_tokens_ = 0;
  PostingList empty_list_;
};

}  // namespace toppriv::index

#endif  // TOPPRIV_INDEX_INVERTED_INDEX_H_
