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
#include <limits>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "fuzz/query_parity.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "index/live/wal.h"
#include "index/posting_list.h"
#include "index/sharded_index.h"
#include "topicmodel/lda_model.h"
#include "util/filesystem.h"
#include "util/io.h"

namespace {

namespace fs = std::filesystem;
using namespace toppriv;  // NOLINT — a tool, touching seven subsystems

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

/// Four blocks whose groups cover both decode paths: block 0 all one-byte,
/// block 1 a multi-byte delta mid-block, block 2 a multi-byte tf at its
/// end, and a one-byte partial tail.
std::string MixedPostingListSeed() {
  index::PostingList::Builder builder;
  corpus::DocId doc = 0;
  for (uint32_t i = 0; i < 3 * index::kPostingBlockSize + 20; ++i) {
    doc += (i == index::kPostingBlockSize + 60) ? 1000 : 1 + i % 5;
    const uint32_t tf =
        (i == 3 * index::kPostingBlockSize - 1) ? 300 : 1 + i % 3;
    builder.Append(doc, tf);
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

/// A small non-uniform model for the fold-in parity check: 17 topics, so
/// the sampler's 16-topic block table has a partial second block, with
/// skewed weights, scattered zeros, an all-zero word and a word only the
/// last topic emits.
topicmodel::LdaModel SkewedModel() {
  const size_t topics = 17, vocab = 6;
  std::vector<float> phi(topics * vocab);
  for (size_t t = 0; t < topics; ++t) {
    for (size_t w = 0; w < vocab; ++w) {
      const size_t k = (t * 7 + w * 3) % 11;
      phi[t * vocab + w] = k < 3 ? 0.0f : static_cast<float>(k * k) / 128.0f;
    }
    phi[t * vocab + 0] = 0.0f;
    phi[t * vocab + 1] = t + 1 == topics ? 0.5f : 0.0f;
  }
  std::vector<float> theta(topics, 1.0f / static_cast<float>(topics));
  return topicmodel::LdaModel::Create(topics, vocab, std::move(phi),
                                      std::move(theta), 0.05, 0.01);
}

/// A 2x2 model blob in LdaModel::Serialize's layout, hand-encoded because
/// Create refuses the invalid values these seeds carry.
std::string LdaBlob(float phi0, float theta0, double alpha, double beta) {
  util::BinaryWriter w;
  w.WriteVarint(2);  // num_topics
  w.WriteVarint(2);  // vocab_size
  w.WriteDouble(alpha);
  w.WriteDouble(beta);
  w.WriteFloatVector({phi0, 0.5f, 0.25f, 0.75f});
  w.WriteFloatVector({theta0, 0.5f});
  return w.data();
}

using Plan = fuzz::QueryParityPlan;
using Op = Plan::Op;

/// Query-parity plans: each names one schedule shape the parity contract
/// must survive. Built here and written through EncodeQueryParityPlan, the
/// inverse of the harness's decoder.
Plan ParitySeedBase(size_t vocab, size_t shards, size_t writer_docs,
                    size_t merge_factor) {
  Plan plan;
  plan.vocab = vocab;
  plan.shards = shards;
  plan.writer_docs = writer_docs;
  plan.merge_factor = merge_factor;
  return plan;
}

/// Interleaved ingest, refresh, delete and merge over ten documents.
Plan ParityMixedSchedule() {
  Plan plan = ParitySeedBase(8, 3, 2, 2);
  plan.docs = {{0, 1, 2, 2}, {3, 5, 5, 1}, {2, 4, 0}, {1, 3, 3},
               {4, 4, 2, 0}, {6, 7},       {7, 7, 7}, {0, 6, 2, 5},
               {1},          {3, 4, 5, 6, 7, 0}};
  plan.queries = {{{1, 2}, 10}, {{0, 3, 4}, 3}, {{7}, 5}, {{5, 6, 2}, 1}};
  plan.steps = {{Op::kIngest, 3}, {Op::kRefresh, 0}, {Op::kIngest, 2},
                {Op::kDelete, 1}, {Op::kRefresh, 0}, {Op::kIngest, 3},
                {Op::kForceMerge, 0}, {Op::kRefresh, 0}, {Op::kDelete, 4},
                {Op::kIngest, 1}, {Op::kRefresh, 0}};
  return plan;
}

/// The hostile query shapes: empty, duplicate-term, out-of-vocabulary,
/// k = 0 and huge k.
Plan ParityEdgeQueries() {
  Plan plan = ParitySeedBase(6, 2, 4, 4);
  plan.docs = {{0, 0, 1}, {2, 3}, {1, 4, 5, 5}, {0, 2, 4}, {3, 3, 3}};
  plan.queries = {{{}, 10},
                  {{2, 2, 2}, 10},
                  {{6, 8}, 10},
                  {{0, 7, 0, 1}, 1000},
                  {{3, 5}, 0},
                  {{1, 2, 3, 4, 5}, std::numeric_limits<size_t>::max()}};
  plan.steps = {{Op::kIngest, 1}, {Op::kRefresh, 0}, {Op::kIngest, 3},
                {Op::kRefresh, 0}};
  return plan;
}

/// A delete that drops a term's df to zero, term-space growth, then a
/// merge.
Plan ParityDfEdges() {
  Plan plan = ParitySeedBase(12, 2, 2, 4);
  plan.docs = {{0, 1, 2, 2}, {3, 5, 5, 1}, {2, 4, 0},   {1, 3, 3},
               {4, 4, 2, 0}, {9, 10, 1},   {11, 11, 2, 9}, {8, 0}};
  plan.queries = {{{1, 2}, 8}, {{5}, 8}, {{5, 3}, 8}, {{9, 11}, 8},
                  {{8, 2}, 8}, {{0, 4, 11}, 8}};
  plan.steps = {{Op::kEnsureTermSpace, 8}, {Op::kIngest, 3},
                {Op::kIngest, 0},          {Op::kRefresh, 0},
                {Op::kDelete, 1},          {Op::kRefresh, 0},
                {Op::kEnsureTermSpace, 12}, {Op::kIngest, 2},
                {Op::kRefresh, 0},         {Op::kForceMerge, 0},
                {Op::kRefresh, 0}};
  return plan;
}

/// More shards than documents (empty shards), an empty document, and every
/// document deleted before the final ingest.
Plan ParitySparse() {
  Plan plan = ParitySeedBase(3, 4, 1, 2);
  plan.docs = {{0, 1}, {}, {2, 2}};
  plan.queries = {{{0, 1, 2}, 5}, {{2}, 1}, {{}, 3}};
  plan.steps = {{Op::kIngest, 1}, {Op::kRefresh, 0}, {Op::kDelete, 0},
                {Op::kDelete, 0}, {Op::kRefresh, 0}, {Op::kFlush, 0}};
  return plan;
}

/// One-document segments under a merge factor of 2: auto-merges and
/// tombstone compactions fire throughout.
Plan ParityChurn() {
  Plan plan = ParitySeedBase(5, 3, 1, 2);
  for (uint32_t d = 0; d < 16; ++d) {
    std::vector<text::TermId> doc;
    for (uint32_t t = 0; t <= d % 4; ++t) doc.push_back((d + t * 3) % 5);
    plan.docs.push_back(doc);
  }
  plan.queries = {{{0, 1}, 4}, {{2, 3, 4}, 10}, {{4, 4}, 2}};
  for (uint8_t i = 0; i < 8; ++i) {
    plan.steps.push_back({Op::kIngest, 1});
    plan.steps.push_back({Op::kDelete, static_cast<uint8_t>(i * 5)});
    plan.steps.push_back({Op::kIngest, 0});
    plan.steps.push_back({Op::kRefresh, 0});
  }
  return plan;
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
  WriteSeed(root, "posting_list", "mixed.bin", MixedPostingListSeed());

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

  WriteSeed(root, "lda_model", "skewed.bin", SkewedModel().Serialize());
  // Deserialize must reject these with DataLoss (fuzz_corpus_test checks).
  WriteSeed(root, "lda_model", "rejected_nan_phi.bin",
            LdaBlob(std::numeric_limits<float>::quiet_NaN(), 0.5f, 0.1, 0.01));
  WriteSeed(root, "lda_model", "rejected_negative_theta.bin",
            LdaBlob(0.5f, -0.5f, 0.1, 0.01));
  WriteSeed(root, "lda_model", "rejected_zero_alpha.bin",
            LdaBlob(0.5f, 0.5f, 0.0, 0.01));
  WriteSeed(root, "lda_model", "rejected_infinite_beta.bin",
            LdaBlob(0.5f, 0.5f, 0.1, std::numeric_limits<double>::infinity()));

  WriteSeed(root, "wal_replay", "mutations.bin", WalSeed(/*torn=*/false));
  WriteSeed(root, "wal_replay", "torn_tail.bin", WalSeed(/*torn=*/true));
  WriteSeed(root, "wal_replay", "header_only.bin",
            index::live::EncodeWalHeader(/*generation=*/1, /*base_seq=*/1));

  WriteSeed(root, "query_parity", "mixed_schedule.bin",
            fuzz::EncodeQueryParityPlan(ParityMixedSchedule()));
  WriteSeed(root, "query_parity", "edge_queries.bin",
            fuzz::EncodeQueryParityPlan(ParityEdgeQueries()));
  WriteSeed(root, "query_parity", "df_edges.bin",
            fuzz::EncodeQueryParityPlan(ParityDfEdges()));
  WriteSeed(root, "query_parity", "sparse.bin",
            fuzz::EncodeQueryParityPlan(ParitySparse()));
  WriteSeed(root, "query_parity", "churn.bin",
            fuzz::EncodeQueryParityPlan(ParityChurn()));
  return 0;
}
