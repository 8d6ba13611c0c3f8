// Hostile-input fuzzing of the posting-list wire decoder (the tagged block
// format; any other header is rejected). Properties checked:
//  1. DecodeFrom never crashes, loops or reads out of bounds on arbitrary
//     bytes (the sanitizers catch violations);
//  2. anything it ACCEPTS round-trips canonically: re-encoding the decoded
//     list and decoding again must reproduce the same bytes, so the block
//     format has one representation per logical list;
//  3. every block of an accepted list decodes, fast path or not, to what a
//     bounds-checked varint walk of the same body yields (see
//     block_decode_parity.h).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "fuzz/block_decode_parity.h"
#include "index/posting_list.h"

namespace {
// Matches the doc-id bound the deserializer is told to enforce; small
// enough that an accepted list is also cheap to Decode().
constexpr uint64_t kMaxDocExclusive = uint64_t{1} << 20;
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string buf(reinterpret_cast<const char*>(data), size);
  size_t pos = 0;
  auto list = toppriv::index::PostingList::DecodeFrom(buf, &pos,
                                                      kMaxDocExclusive);
  if (!list.ok()) return 0;

  std::string canonical;
  list->EncodeTo(&canonical);
  size_t pos2 = 0;
  auto again = toppriv::index::PostingList::DecodeFrom(canonical, &pos2,
                                                       kMaxDocExclusive);
  if (!again.ok() || pos2 != canonical.size()) __builtin_trap();
  std::string canonical2;
  again->EncodeTo(&canonical2);
  if (canonical2 != canonical) __builtin_trap();

  const std::string failure = toppriv::fuzz::CheckBlockDecodeParity(*list);
  if (!failure.empty()) {
    std::fprintf(stderr, "block decode parity violated: %s\n",
                 failure.c_str());
    __builtin_trap();
  }
  return 0;
}
