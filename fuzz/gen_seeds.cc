// Writes the seed corpora under fuzz/corpus/<target>/ from REAL serialized
// blobs — every seed is produced by the same encoder its fuzz target
// decodes, so the fuzzer starts from deep inside the accepted grammar
// instead of spending its budget rediscovering magic bytes and CRCs.
//
//   gen_seeds <corpus-root>
//
// Deterministic: running it twice writes identical bytes (the checked-in
// corpora under fuzz/corpus/ are its output; tests/fuzz_corpus_test.cc
// round-trips them on every plain test build).
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "index/live/wal.h"
#include "index/posting_list.h"
#include "index/sharded_index.h"
#include "topicmodel/lda_model.h"
#include "util/filesystem.h"

namespace {

namespace fs = std::filesystem;
using namespace toppriv;  // NOLINT — a tool, touching six subsystems

void WriteSeed(const fs::path& root, const std::string& target,
               const std::string& name, const std::string& bytes) {
  const fs::path dir = root / target;
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  std::printf("%s/%s: %zu bytes\n", target.c_str(), name.c_str(),
              bytes.size());
}

/// A small deterministic corpus with enough term/doc variety to produce
/// multi-term postings, several shards and non-trivial df tables.
corpus::Corpus MakeCorpus() {
  corpus::Corpus c;
  text::Vocabulary& vocab = c.mutable_vocabulary();
  std::vector<text::TermId> ids;
  for (const char* w : {"tank", "missile", "stock", "market", "grain", "oil",
                        "ship", "rate", "camp", "bond"}) {
    ids.push_back(vocab.AddTerm(w));
  }
  for (int d = 0; d < 12; ++d) {
    std::vector<text::TermId> tokens;
    for (int k = 0; k <= d % 5; ++k) {
      tokens.push_back(ids[static_cast<size_t>(d + k) % ids.size()]);
    }
    tokens.push_back(ids[static_cast<size_t>(d) % ids.size()]);
    c.AddDocument("doc" + std::to_string(d), std::move(tokens));
  }
  return c;
}

std::string PostingListSeed(size_t n, uint32_t stride) {
  index::PostingList::Builder builder;
  for (size_t i = 0; i < n; ++i) {
    builder.Append(static_cast<corpus::DocId>(1 + i * stride),
                   static_cast<uint32_t>(i % 7 + 1));
  }
  std::string out;
  builder.Build().EncodeTo(&out);
  return out;
}

std::string WalSeed(bool torn) {
  // Drive the real durable pipeline and lift the WAL file it wrote.
  util::FaultInjectingFileSystem mem;
  index::live::LiveIndexOptions options;
  auto live = index::live::LiveIndex::Recover(&mem, "db", options);
  if (!live.ok()) return {};
  // One record of every type: term space, ingest, seal, delete, ingest.
  // Refresh logs a kSeal only while the writer holds documents, so it runs
  // before the Delete: deleting a still-buffered doc seals the writer
  // implicitly (replay re-derives that seal, so it is never logged) and a
  // Refresh after it would have nothing left to seal.
  (*live)->EnsureTermSpace(16);
  std::vector<index::live::StableId> ids =
      (*live)->Ingest({{0, 1, 2}, {3, 4}, {1, 1, 5}});
  (*live)->Refresh();
  (*live)->Delete(ids[1]);
  (*live)->Ingest({{6, 7}});
  const uint64_t gen = (*live)->wal_generation();
  std::string bytes =
      mem.FileBytes("db/" + index::live::WalFileName(gen));
  if (torn && bytes.size() > 9) bytes.resize(bytes.size() - 9);
  return bytes;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const fs::path root = argv[1];
  const corpus::Corpus corpus = MakeCorpus();

  WriteSeed(root, "posting_list", "dense.bin", PostingListSeed(300, 1));
  WriteSeed(root, "posting_list", "sparse.bin", PostingListSeed(40, 23));
  WriteSeed(root, "posting_list", "single.bin", PostingListSeed(1, 1));

  WriteSeed(root, "inverted_index", "small.bin",
            index::InvertedIndex::Build(corpus).Serialize());

  WriteSeed(root, "sharded_index", "three_shards.bin",
            index::ShardedIndex::Build(corpus, 3).Serialize());
  WriteSeed(root, "sharded_index", "one_shard.bin",
            index::ShardedIndex::Build(corpus, 1).Serialize());

  {
    const size_t topics = 3, vocab = corpus.vocabulary_size();
    std::vector<float> phi(topics * vocab, 1.0f / static_cast<float>(vocab));
    std::vector<float> theta(2 * topics, 1.0f / static_cast<float>(topics));
    WriteSeed(root, "lda_model", "uniform.bin",
              topicmodel::LdaModel::Create(topics, vocab, std::move(phi),
                                           std::move(theta), 0.1, 0.01)
                  .Serialize());
  }

  WriteSeed(root, "wal_replay", "mutations.bin", WalSeed(/*torn=*/false));
  WriteSeed(root, "wal_replay", "torn_tail.bin", WalSeed(/*torn=*/true));
  WriteSeed(root, "wal_replay", "header_only.bin",
            index::live::EncodeWalHeader(/*generation=*/1, /*base_seq=*/1));
  return 0;
}
