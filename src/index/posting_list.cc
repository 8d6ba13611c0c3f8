#include "index/posting_list.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/io.h"

namespace toppriv::index {

namespace {

/// Wire-format tag for the block layout, the first varint of every encoded
/// list; DecodeFrom rejects any other value. Future revisions bump the low
/// bits.
constexpr uint64_t kBlockFormatTag = (uint64_t{1} << 32) | 1;

/// Unchecked LEB128 decode over raw bytes for the block hot path. Only ever
/// runs over payloads that DecodeFrom (or the Builder) fully validated, so
/// the byte-level bounds are enforced by the caller's DCHECKs, not per byte.
inline const uint8_t* DecodeVarintFast(const uint8_t* p, uint64_t* v) {
  uint64_t result = *p & 0x7f;
  int shift = 7;
  while (*p & 0x80) {
    ++p;
    result |= static_cast<uint64_t>(*p & 0x7f) << shift;
    shift += 7;
  }
  *v = result;
  ++p;
  return p;
}

/// True when the `n` bytes at `p` all lack the continuation bit. A group of
/// `n` varints is at least `n` bytes long, so for a group start this read
/// never leaves the group; when it holds, the group is exactly `n`
/// one-byte varints. Reads eight bytes per step, so it stays cheap where
/// the compiler does not vectorize a byte loop (-O2).
inline bool AllOneByte(const uint8_t* p, uint32_t n) {
  uint64_t bits = 0;
  uint32_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    bits |= word;
  }
  for (; i < n; ++i) bits |= p[i];
  return (bits & 0x8080808080808080ULL) == 0;
}

}  // namespace

// ------------------------------------------------------------------ Builder

void PostingList::Builder::Append(corpus::DocId doc, uint32_t tf) {
  TOPPRIV_CHECK_GT(tf, 0u);
  uint64_t delta;
  if (has_any_) {
    TOPPRIV_CHECK_GT(doc, last_doc_);
    delta = doc - last_doc_;
  } else {
    delta = doc;  // very first posting: absolute doc id
    has_any_ = true;
  }
  pending_deltas_[pending_] = delta;
  pending_tfs_[pending_] = tf;
  ++pending_;
  last_doc_ = doc;
  ++count_;
  if (pending_ == kPostingBlockSize) FlushBlock();
}

void PostingList::Builder::FlushBlock() {
  if (pending_ == 0) return;
  // BlockInfo.offset is 32-bit; DecodeFrom rejects wider bodies too.
  TOPPRIV_CHECK_LE(bytes_.size(), UINT32_MAX);
  BlockInfo info;
  info.offset = static_cast<uint32_t>(bytes_.size());
  info.count = pending_;
  info.last_doc = last_doc_;
  // Delta group first, then the tf group: two tight homogeneous streams.
  for (uint32_t i = 0; i < pending_; ++i) {
    util::AppendVarint(pending_deltas_[i], &bytes_);
  }
  for (uint32_t i = 0; i < pending_; ++i) {
    util::AppendVarint(pending_tfs_[i], &bytes_);
  }
  blocks_.push_back(info);
  pending_ = 0;
}

PostingList PostingList::Builder::Build() {
  FlushBlock();
  PostingList list;
  list.bytes_ = std::move(bytes_);
  list.blocks_ = std::move(blocks_);
  list.count_ = count_;
  bytes_.clear();
  blocks_.clear();
  count_ = 0;
  has_any_ = false;
  last_doc_ = 0;
  pending_ = 0;
  return list;
}

// ---------------------------------------------------------------- accessors

void PostingList::DecodeBlock(size_t b, PostingBlock* out) const {
  TOPPRIV_DCHECK(b < blocks_.size());
  const BlockInfo& info = blocks_[b];
  const uint32_t n = info.count;
  const uint8_t* p =
      reinterpret_cast<const uint8_t*>(bytes_.data()) + info.offset;
  // The first delta continues the chain from the previous block's last doc
  // (the list's very first delta is absolute, which the base 0 absorbs).
  // Each group takes the one-byte fast path when it can: most deltas and
  // almost all tfs of a dense list fit in seven bits.
  uint64_t doc = (b == 0) ? 0 : blocks_[b - 1].last_doc;
  if (AllOneByte(p, n)) {
    for (uint32_t i = 0; i < n; ++i) {
      doc += p[i];
      out->docs[i] = static_cast<corpus::DocId>(doc);
    }
    p += n;
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t delta = 0;
      p = DecodeVarintFast(p, &delta);
      doc += delta;
      out->docs[i] = static_cast<corpus::DocId>(doc);
    }
  }
  if (AllOneByte(p, n)) {
    for (uint32_t i = 0; i < n; ++i) out->tfs[i] = p[i];
    p += n;
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t tf = 0;
      p = DecodeVarintFast(p, &tf);
      out->tfs[i] = static_cast<uint32_t>(tf);
    }
  }
  out->count = n;
  TOPPRIV_DCHECK(static_cast<size_t>(
                     p - reinterpret_cast<const uint8_t*>(bytes_.data())) <=
                 bytes_.size());
  TOPPRIV_DCHECK(out->docs[n - 1] == info.last_doc);
}

// ----------------------------------------------------------------- Iterator

PostingList::Iterator::Iterator(const PostingList* list) : list_(list) {
  Next();
}

void PostingList::Iterator::Next() {
  // Refill from the next block when the current one is exhausted (or on the
  // first call, when block_.count == 0 and pos_ == 0).
  while (pos_ >= block_.count) {
    if (block_idx_ >= list_->num_blocks()) {
      valid_ = false;
      return;
    }
    list_->DecodeBlock(block_idx_, &block_);
    ++block_idx_;
    pos_ = 0;
  }
  current_.doc = block_.docs[pos_];
  current_.tf = block_.tfs[pos_];
  ++pos_;
  valid_ = true;
}

std::vector<Posting> PostingList::Decode() const {
  std::vector<Posting> out;
  out.reserve(count_);
  PostingBlock block;
  for (size_t b = 0; b < blocks_.size(); ++b) {
    DecodeBlock(b, &block);
    for (uint32_t i = 0; i < block.count; ++i) {
      out.push_back(Posting{block.docs[i], block.tfs[i]});
    }
  }
  return out;
}

// ------------------------------------------------------------ serialization

void PostingList::EncodeTo(std::string* out) const {
  util::AppendVarint(kBlockFormatTag, out);
  util::AppendVarint(count_, out);
  util::AppendVarint(bytes_.size(), out);
  out->append(bytes_);
  // The block directory is NOT serialized: DecodeFrom rebuilds it during
  // its validation scan for free, and derived metadata on the wire would
  // only be one more thing a hostile blob could lie about.
}

namespace {

/// Shared validation state for both wire formats: doc ids accumulate in 64
/// bits so a hostile delta that would wrap 32-bit accumulation back into
/// range is caught, tfs must be nonzero u32s (the Builder never emits
/// others, and downstream scorers take log(tf)), doc ids must be strictly
/// increasing and below `max_doc_exclusive`.
struct BodyValidator {
  uint64_t max_doc_exclusive;
  uint64_t doc = 0;
  bool first = true;

  util::Status CheckDelta(uint64_t delta) {
    if (first) {
      doc = delta;
      first = false;
    } else if (delta == 0) {
      return util::Status::DataLoss("posting doc ids not strictly increasing");
    } else if (delta > UINT64_MAX - doc) {
      return util::Status::DataLoss("posting doc id overflow");
    } else {
      doc += delta;
    }
    if (doc >= max_doc_exclusive) {
      return util::Status::DataLoss("posting doc id out of range");
    }
    // DocId is 32-bit everywhere downstream; even with the default (open)
    // bound a wider doc id must die here, not truncate later.
    if (doc > UINT32_MAX) {
      return util::Status::DataLoss("posting doc id overflows u32");
    }
    return util::Status::Ok();
  }

  util::Status CheckTf(uint64_t tf) {
    if (tf == 0) {
      return util::Status::DataLoss("posting tf is zero");
    }
    if (tf > UINT32_MAX) {
      return util::Status::DataLoss("posting tf overflows u32");
    }
    return util::Status::Ok();
  }
};

}  // namespace

util::StatusOr<PostingList> PostingList::DecodeFrom(
    const std::string& buf, size_t* pos, uint64_t max_doc_exclusive) {
  uint64_t head = 0;
  if (!util::DecodeVarint(buf, pos, &head)) {
    return util::Status::DataLoss("posting list header overrun");
  }

  if (head != kBlockFormatTag) {
    return util::Status::DataLoss("unsupported posting list format");
  }
  uint64_t count = 0;
  if (!util::DecodeVarint(buf, pos, &count) || count > UINT32_MAX) {
    return util::Status::DataLoss("posting list header overrun");
  }
  uint64_t nbytes = 0;
  if (!util::DecodeVarint(buf, pos, &nbytes)) {
    return util::Status::DataLoss("posting list header overrun");
  }
  // Overflow-safe bound (hostile nbytes can wrap `*pos + nbytes`).
  if (nbytes > buf.size() - *pos) {
    return util::Status::DataLoss("posting list body overrun");
  }
  // Block offsets are 32-bit; a body that large cannot have come from the
  // Builder (which CHECKs the same bound) and would wrap the directory.
  if (nbytes > UINT32_MAX) {
    return util::Status::DataLoss("posting list body overflows u32 offsets");
  }
  // One validating scan over the grouped layout builds the directory as a
  // side effect; hostile bytes never reach the unchecked block decoder.
  PostingList list;
  list.count_ = static_cast<uint32_t>(count);
  list.bytes_ = buf.substr(*pos, nbytes);
  *pos += nbytes;
  BodyValidator check{max_doc_exclusive};
  size_t body_pos = 0;
  uint64_t decoded = 0;
  while (decoded < count) {
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(kPostingBlockSize, count - decoded));
    BlockInfo info;
    info.offset = static_cast<uint32_t>(body_pos);
    info.count = n;
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t delta = 0;
      if (!util::DecodeVarint(list.bytes_, &body_pos, &delta)) {
        return util::Status::DataLoss("posting list body malformed");
      }
      TOPPRIV_RETURN_IF_ERROR(check.CheckDelta(delta));
    }
    info.last_doc = static_cast<corpus::DocId>(check.doc);
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t tf = 0;
      if (!util::DecodeVarint(list.bytes_, &body_pos, &tf)) {
        return util::Status::DataLoss("posting list body malformed");
      }
      TOPPRIV_RETURN_IF_ERROR(check.CheckTf(tf));
    }
    list.blocks_.push_back(info);
    decoded += n;
  }
  if (body_pos != list.bytes_.size()) {
    return util::Status::DataLoss("posting list count mismatch");
  }
  return list;
}

}  // namespace toppriv::index
