// Block-decoder parity harness shared by fuzz/posting_list_fuzz.cc and the
// plain-build seed replay in tests/fuzz_corpus_test.cc. PostingList's
// DecodeBlock reads its body without per-byte bounds checks and takes a
// one-byte fast path per group; this walks the same body with the checked
// util::DecodeVarint and demands that every block decodes to that walk.
#ifndef TOPPRIV_FUZZ_BLOCK_DECODE_PARITY_H_
#define TOPPRIV_FUZZ_BLOCK_DECODE_PARITY_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "index/posting_list.h"
#include "util/io.h"

namespace toppriv::fuzz {

/// Returns "" when every block of `list` matches a checked walk of the
/// body of its own encoding, else a description of the first mismatch.
inline std::string CheckBlockDecodeParity(const index::PostingList& list) {
  std::string wire;
  list.EncodeTo(&wire);
  size_t pos = 0;
  uint64_t tag = 0, count = 0, nbytes = 0;
  if (!util::DecodeVarint(wire, &pos, &tag) ||
      !util::DecodeVarint(wire, &pos, &count) ||
      !util::DecodeVarint(wire, &pos, &nbytes) ||
      nbytes != wire.size() - pos || count != list.size()) {
    return "encoding header does not describe the list";
  }
  const std::string body = wire.substr(pos);
  size_t body_pos = 0;
  uint64_t doc = 0;
  uint64_t walked = 0;
  index::PostingBlock block;
  for (size_t b = 0; b < list.num_blocks(); ++b) {
    const std::string where = "block " + std::to_string(b);
    list.DecodeBlock(b, &block);
    const uint64_t n =
        std::min<uint64_t>(index::kPostingBlockSize, count - walked);
    if (block.count != n) return where + ": wrong posting count";
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t delta = 0;
      if (!util::DecodeVarint(body, &body_pos, &delta)) {
        return where + ": delta group overruns the body";
      }
      doc += delta;
      if (block.docs[i] != doc) return where + ": doc id differs";
    }
    for (uint32_t i = 0; i < n; ++i) {
      uint64_t tf = 0;
      if (!util::DecodeVarint(body, &body_pos, &tf)) {
        return where + ": tf group overruns the body";
      }
      if (block.tfs[i] != tf) return where + ": tf differs";
    }
    walked += n;
  }
  if (walked != count) return "blocks cover the wrong posting count";
  if (body_pos != body.size()) return "walk leaves body bytes unread";
  return "";
}

}  // namespace toppriv::fuzz

#endif  // TOPPRIV_FUZZ_BLOCK_DECODE_PARITY_H_
