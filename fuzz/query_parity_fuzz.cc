// Query-path parity fuzzing: every plan the bytes decode to (tiny corpus,
// shard count, live ingest/delete/refresh/merge schedule, hostile queries)
// must yield bit-identical results on the monolithic, sharded and live
// views under all three scorers. See query_parity.h for the grammar.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "fuzz/query_parity.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string failure = toppriv::fuzz::CheckQueryParity(
      toppriv::fuzz::DecodeQueryParityPlan(data, size));
  if (!failure.empty()) {
    std::fprintf(stderr, "query parity violated: %s\n", failure.c_str());
    __builtin_trap();
  }
  return 0;
}
