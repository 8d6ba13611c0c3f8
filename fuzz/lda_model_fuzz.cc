// Hostile-input fuzzing of LdaModel::Deserialize (the experiment-cache
// format: dims + hyperparameters + raw float phi/theta). The dimension
// product is where a hostile header historically could demand gigabytes
// (see the PR 2 overflow fix); the decoder must reject rather than
// allocate. Accepted blobs must round-trip byte-identically, and small
// accepted models must fold queries in exactly as the dense oracle does
// (see fold_in_parity.h).
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#include "fuzz/fold_in_parity.h"
#include "topicmodel/lda_model.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string buf(reinterpret_cast<const char*>(data), size);
  auto model = toppriv::topicmodel::LdaModel::Deserialize(buf);
  if (!model.ok()) return 0;

  const std::string canonical = model->Serialize();
  auto again = toppriv::topicmodel::LdaModel::Deserialize(canonical);
  if (!again.ok() || again->Serialize() != canonical) __builtin_trap();

  const std::string failure =
      toppriv::fuzz::CheckFoldInParity(*model, data, size);
  if (!failure.empty()) {
    std::fprintf(stderr, "fold-in parity violated: %s\n", failure.c_str());
    __builtin_trap();
  }
  return 0;
}
