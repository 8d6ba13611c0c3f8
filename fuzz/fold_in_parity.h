// Fold-in sampler parity harness shared by fuzz/lda_model_fuzz.cc and the
// plain-build seed replay in tests/fuzz_corpus_test.cc. For an accepted
// model with num_topics * vocab_size <= kMaxFoldInCells, up to four
// queries derived from the input bytes must get bit-identical posteriors
// from LdaInferencer and the dense oracle (tests/fold_in_oracle.h).
//
// Query grammar, read backwards from the input's last byte (the model's
// float payload, so the fuzzer can vary the queries without touching the
// header; a missing byte reads as 0):
//   iterations-1 (mod 30) · burn_in (mod iterations) · seed ·
//   num_queries-1 (mod 4) ·
//   per query: length-1 (mod 8), then each term (mod vocab+2; ids >= vocab
//              are out of vocabulary).
#ifndef TOPPRIV_FUZZ_FOLD_IN_PARITY_H_
#define TOPPRIV_FUZZ_FOLD_IN_PARITY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "tests/fold_in_oracle.h"
#include "topicmodel/inference.h"
#include "topicmodel/lda_model.h"

namespace toppriv::fuzz {

inline constexpr size_t kMaxFoldInCells = 4096;

/// Returns "" when every derived query matches the oracle bit for bit (or
/// the model is too large to check), else a description of the mismatch.
inline std::string CheckFoldInParity(const topicmodel::LdaModel& model,
                                     const uint8_t* data, size_t size) {
  if (model.num_topics() > kMaxFoldInCells / model.vocab_size()) return "";
  size_t pos = size;
  auto next = [&]() -> uint8_t { return pos == 0 ? 0 : data[--pos]; };
  topicmodel::InferenceOptions options;
  options.iterations = 1 + next() % 30;
  options.burn_in = next() % options.iterations;
  options.seed = next();
  const topicmodel::LdaInferencer inferencer(model, options);
  const size_t num_queries = 1 + next() % 4;
  for (size_t q = 0; q < num_queries; ++q) {
    std::vector<text::TermId> query(1 + next() % 8);
    for (text::TermId& term : query) {
      term = static_cast<text::TermId>(next() % (model.vocab_size() + 2));
    }
    const std::vector<double> got = inferencer.InferQuery(query);
    const std::vector<double> want =
        testing::DenseInferQuery(model, options, query);
    if (got.size() != want.size() ||
        std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) !=
            0) {
      return "query " + std::to_string(q) + " differs from the dense oracle";
    }
  }
  return "";
}

}  // namespace toppriv::fuzz

#endif  // TOPPRIV_FUZZ_FOLD_IN_PARITY_H_
