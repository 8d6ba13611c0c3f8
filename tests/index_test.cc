// Unit and property tests for posting lists and the inverted index.
#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "index/inverted_index.h"
#include "index/posting_list.h"
#include "tests/test_helpers.h"
#include "util/io.h"

namespace toppriv::index {
namespace {

// ------------------------------------------------------------ PostingList --

TEST(PostingListTest, EmptyList) {
  PostingList list;
  EXPECT_TRUE(list.empty());
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.Decode().empty());
  EXPECT_FALSE(list.begin().Valid());
}

TEST(PostingListTest, SingleAndMultiplePostings) {
  PostingList::Builder builder;
  builder.Append(5, 2);
  builder.Append(9, 1);
  builder.Append(1000000, 7);
  PostingList list = builder.Build();
  EXPECT_EQ(list.size(), 3u);
  std::vector<Posting> decoded = list.Decode();
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(decoded[0], (Posting{5, 2}));
  EXPECT_EQ(decoded[1], (Posting{9, 1}));
  EXPECT_EQ(decoded[2], (Posting{1000000, 7}));
}

TEST(PostingListTest, DeltaEncodingIsCompact) {
  PostingList::Builder builder;
  // 100 consecutive docs with tf=1: 1 byte delta + 1 byte tf each, plus the
  // slightly larger first doc id.
  for (corpus::DocId d = 1000; d < 1100; ++d) builder.Append(d, 1);
  PostingList list = builder.Build();
  EXPECT_LE(list.ByteSize(), 2u * 100 + 2);
}

TEST(PostingListTest, BuilderReusableAfterBuild) {
  PostingList::Builder builder;
  builder.Append(1, 1);
  PostingList first = builder.Build();
  builder.Append(2, 3);  // fresh sequence; doc ids restart
  PostingList second = builder.Build();
  EXPECT_EQ(first.Decode()[0], (Posting{1, 1}));
  EXPECT_EQ(second.Decode()[0], (Posting{2, 3}));
}

class PostingListRoundtrip : public ::testing::TestWithParam<size_t> {};

TEST_P(PostingListRoundtrip, EncodeDecodeRandomLists) {
  util::Rng rng(GetParam() * 7919 + 1);
  PostingList::Builder builder;
  std::vector<Posting> expected;
  corpus::DocId doc = 0;
  for (size_t i = 0; i < GetParam(); ++i) {
    doc += 1 + static_cast<corpus::DocId>(rng.UniformInt(uint64_t{1000}));
    uint32_t tf = 1 + static_cast<uint32_t>(rng.UniformInt(uint64_t{50}));
    builder.Append(doc, tf);
    expected.push_back({doc, tf});
  }
  PostingList list = builder.Build();
  EXPECT_EQ(list.Decode(), expected);

  // Serialization roundtrip.
  std::string bytes;
  list.EncodeTo(&bytes);
  size_t pos = 0;
  auto restored = PostingList::DecodeFrom(bytes, &pos);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(restored->Decode(), expected);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PostingListRoundtrip,
                         ::testing::Values(1, 2, 10, 100, 1000, 5000));

// ------------------------------------------------------ block structure --

/// Every block holds the next min(128, remaining) postings, and DecodeBlock
/// reproduces them; Decode() reproduces the whole list.
void ExpectBlocksDecodeTo(const PostingList& list,
                          const std::vector<Posting>& expected) {
  ASSERT_EQ(list.size(), expected.size());
  ASSERT_EQ(list.num_blocks(),
            (expected.size() + kPostingBlockSize - 1) / kPostingBlockSize);
  size_t covered = 0;
  PostingBlock block;
  for (size_t b = 0; b < list.num_blocks(); ++b) {
    list.DecodeBlock(b, &block);
    ASSERT_EQ(block.count, std::min<size_t>(kPostingBlockSize,
                                            expected.size() - covered))
        << "block " << b;
    for (uint32_t i = 0; i < block.count; ++i) {
      EXPECT_EQ(block.docs[i], expected[covered + i].doc)
          << "block " << b << " posting " << i;
      EXPECT_EQ(block.tfs[i], expected[covered + i].tf)
          << "block " << b << " posting " << i;
    }
    covered += block.count;
  }
  EXPECT_EQ(covered, expected.size());
  EXPECT_EQ(list.Decode(), expected);
}

PostingList BuildList(const std::vector<Posting>& postings) {
  PostingList::Builder builder;
  for (const Posting& p : postings) builder.Append(p.doc, p.tf);
  return builder.Build();
}

/// `n` postings whose deltas and tfs all fit one varint byte: deltas cycle
/// through 1..127 (the first doc id is 3), tfs through 1..127.
std::vector<Posting> OneBytePostings(size_t n) {
  std::vector<Posting> postings;
  corpus::DocId doc = 3;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) doc += 1 + static_cast<corpus::DocId>(i % 127);
    postings.push_back({doc, 1 + static_cast<uint32_t>((i * 37) % 127)});
  }
  return postings;
}

/// Rebuilds doc ids so that posting `at` sits `delta` after its
/// predecessor (or at doc `delta` when it is the first), keeping every
/// other delta.
std::vector<Posting> WithDelta(std::vector<Posting> postings, size_t at,
                               corpus::DocId delta) {
  std::vector<corpus::DocId> deltas(postings.size());
  for (size_t i = 0; i < postings.size(); ++i) {
    deltas[i] =
        i == 0 ? postings[0].doc : postings[i].doc - postings[i - 1].doc;
  }
  deltas[at] = delta;
  corpus::DocId doc = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    doc += deltas[i];
    postings[i].doc = doc;
  }
  return postings;
}

TEST(PostingBlockDecodeTest, AllOneByteBlocks) {
  // From one posting to three full blocks and a partial one, every delta
  // and tf one byte: both groups of every block take the fast path.
  for (size_t n : {size_t{1}, size_t{8}, size_t{127}, size_t{128},
                   size_t{3 * 128 + 45}}) {
    SCOPED_TRACE(n);
    const std::vector<Posting> postings = OneBytePostings(n);
    ExpectBlocksDecodeTo(BuildList(postings), postings);
  }
}

TEST(PostingBlockDecodeTest, FirstDocIdIsAbsoluteOnTheFastPath) {
  // Doc 0 first (a zero first delta), and a first doc id of exactly 127.
  for (corpus::DocId first : {0u, 127u}) {
    SCOPED_TRACE(first);
    const std::vector<Posting> postings =
        WithDelta(OneBytePostings(200), 0, first);
    ExpectBlocksDecodeTo(BuildList(postings), postings);
  }
}

TEST(PostingBlockDecodeTest, OneMultiByteDeltaAnywhereInABlock) {
  // One >= 128 delta at the first, a middle or the last position of block
  // 0 or 1, or last in the partial tail: that block's delta group takes
  // the general loop, its tf group and every other block the fast path,
  // and the delta chain stays continuous across both kinds of block.
  const size_t n = 3 * 128 + 45;
  for (size_t at : {size_t{0}, size_t{64}, size_t{127}, size_t{128},
                    size_t{128 + 7}, size_t{255}, size_t{n - 1}}) {
    for (corpus::DocId delta : {128u, 300u, 1u << 21}) {
      SCOPED_TRACE(::testing::Message() << "at " << at << " delta " << delta);
      const std::vector<Posting> postings =
          WithDelta(OneBytePostings(n), at, delta);
      ExpectBlocksDecodeTo(BuildList(postings), postings);
    }
  }
}

TEST(PostingBlockDecodeTest, OneMultiByteTfAnywhereInABlock) {
  const size_t n = 2 * 128 + 9;
  for (size_t at : {size_t{0}, size_t{63}, size_t{127}, size_t{128},
                    size_t{255}, size_t{n - 1}}) {
    for (uint32_t tf : {128u, 200u, 16384u, UINT32_MAX}) {
      SCOPED_TRACE(::testing::Message() << "at " << at << " tf " << tf);
      std::vector<Posting> postings = OneBytePostings(n);
      postings[at].tf = tf;
      ExpectBlocksDecodeTo(BuildList(postings), postings);
    }
  }
}

TEST(PostingBlockDecodeTest, EveryTfIsTheLargestU32) {
  std::vector<Posting> postings = OneBytePostings(130);
  for (Posting& p : postings) p.tf = UINT32_MAX;
  ExpectBlocksDecodeTo(BuildList(postings), postings);
}

TEST(PostingBlockDecodeTest, DeltasAndTfsMultiByteInDifferentBlocks) {
  // Block 0: slow deltas, fast tfs. Block 1: fast deltas, slow tfs.
  // Block 2 (partial): both slow. Block 3 (partial tail): both fast.
  std::vector<Posting> postings = OneBytePostings(3 * 128 + 5);
  postings = WithDelta(postings, 5, 1000);
  postings[128 + 100].tf = 4096;
  postings = WithDelta(postings, 256 + 1, 77777);
  postings[256 + 2].tf = 129;
  ExpectBlocksDecodeTo(BuildList(postings), postings);
}

TEST(PostingBlockDecodeTest, WireRoundTripKeepsTheFastPath) {
  std::vector<Posting> postings = OneBytePostings(2 * 128 + 3);
  postings[130].tf = 999;
  const PostingList list = BuildList(postings);
  std::string bytes;
  list.EncodeTo(&bytes);
  size_t pos = 0;
  auto restored = PostingList::DecodeFrom(bytes, &pos);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectBlocksDecodeTo(*restored, postings);
  EXPECT_EQ(restored->ByteSize(), list.ByteSize());
}

class PostingBlockProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(PostingBlockProperty, RoundTripsThroughBlocksAtEverySize) {
  // Sizes straddle the 128-posting block boundary: 0, 1, 127, 128, 129,
  // 1000 (the ISSUE's property grid) — empty list, single partial block,
  // exactly one block, one block + 1, and many blocks with a partial tail.
  const size_t n = GetParam();
  util::Rng rng(n * 131 + 5);
  PostingList::Builder builder;
  std::vector<Posting> expected;
  corpus::DocId doc = 0;
  for (size_t i = 0; i < n; ++i) {
    doc += 1 + static_cast<corpus::DocId>(rng.UniformInt(uint64_t{700}));
    uint32_t tf = 1 + static_cast<uint32_t>(rng.UniformInt(uint64_t{90}));
    builder.Append(doc, tf);
    expected.push_back({doc, tf});
  }
  PostingList list = builder.Build();

  // In-memory block directory invariants.
  ExpectBlocksDecodeTo(list, expected);

  // Wire round trip: decode reproduces everything, re-encode is
  // byte-stable, and the decoder leaves `pos` exactly at the end.
  std::string bytes;
  list.EncodeTo(&bytes);
  size_t pos = 0;
  auto restored = PostingList::DecodeFrom(bytes, &pos);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(restored->Decode(), expected);
  EXPECT_EQ(restored->num_blocks(), list.num_blocks());
  EXPECT_EQ(restored->ByteSize(), list.ByteSize());
  std::string again;
  restored->EncodeTo(&again);
  EXPECT_EQ(again, bytes);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PostingBlockProperty,
                         ::testing::Values(0, 1, 127, 128, 129, 1000));

TEST(PostingListTest, ByteSizeMatchesClassicDeltaVarintPricing) {
  // The grouped block layout reorders varints but never adds bytes:
  // ByteSize() must equal the interleaved delta+varint pricing the paper's
  // §II arithmetic (and ShardedIndex::ComputeStats) assume.
  util::Rng rng(99);
  PostingList::Builder builder;
  uint64_t priced = 0;
  corpus::DocId doc = 0, prev = 0;
  for (size_t i = 0; i < 777; ++i) {
    doc += 1 + static_cast<corpus::DocId>(rng.UniformInt(uint64_t{30000}));
    uint32_t tf = 1 + static_cast<uint32_t>(rng.UniformInt(uint64_t{300}));
    builder.Append(doc, tf);
    priced += util::VarintSize(i == 0 ? doc : doc - prev) +
              util::VarintSize(tf);
    prev = doc;
  }
  EXPECT_EQ(builder.Build().ByteSize(), priced);
}

TEST(PostingListTest, LegacyV0BlobsAreRejected) {
  // The pre-block wire format: count, nbytes, interleaved (delta, tf)
  // varint pairs. Only the tagged block layout decodes; a v0 header is an
  // unknown format and must die with DataLoss.
  std::vector<Posting> postings = {{7, 2}, {9, 1}, {300, 5}, {301, 1}};
  std::string body;
  corpus::DocId prev = 0;
  bool first = true;
  for (const Posting& p : postings) {
    util::AppendVarint(first ? p.doc : p.doc - prev, &body);
    util::AppendVarint(p.tf, &body);
    prev = p.doc;
    first = false;
  }
  std::string bytes;
  util::AppendVarint(postings.size(), &bytes);
  util::AppendVarint(body.size(), &bytes);
  bytes += body;

  size_t pos = 0;
  auto list = PostingList::DecodeFrom(bytes, &pos);
  ASSERT_FALSE(list.ok());
  EXPECT_EQ(list.status().code(), util::StatusCode::kDataLoss);

  // Legacy empty list: two zero varints.
  std::string empty_bytes;
  util::AppendVarint(0, &empty_bytes);
  util::AppendVarint(0, &empty_bytes);
  pos = 0;
  auto empty = PostingList::DecodeFrom(empty_bytes, &pos);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), util::StatusCode::kDataLoss);
}

TEST(PostingListTest, HostileBlockBlobsRejectedCleanly) {
  // A healthy two-block v1 blob to mutate.
  PostingList::Builder builder;
  for (corpus::DocId d = 1; d <= 200; ++d) builder.Append(d * 3, 1 + d % 7);
  PostingList list = builder.Build();
  std::string bytes;
  list.EncodeTo(&bytes);

  // Every truncation dies with DataLoss, never a crash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t pos = 0;
    auto result = PostingList::DecodeFrom(bytes.substr(0, cut), &pos);
    EXPECT_FALSE(result.ok()) << "cut " << cut;
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss)
        << "cut " << cut;
  }

  // Trailing bytes inside the declared body (count says fewer postings
  // than the body holds): tag, count=1, nbytes=body+1, body, junk byte.
  {
    std::string body;
    util::AppendVarint(5, &body);  // delta
    util::AppendVarint(1, &body);  // tf
    std::string blob;
    util::AppendVarint((uint64_t{1} << 32) | 1, &blob);
    util::AppendVarint(1, &blob);
    util::AppendVarint(body.size() + 1, &blob);
    blob += body;
    blob += 'x';
    size_t pos = 0;
    auto result = PostingList::DecodeFrom(blob + "suffix", &pos);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
  }

  // Unknown format tag (a future version we do not speak).
  {
    std::string blob;
    util::AppendVarint((uint64_t{1} << 32) | 2, &blob);
    util::AppendVarint(0, &blob);
    util::AppendVarint(0, &blob);
    size_t pos = 0;
    auto result = PostingList::DecodeFrom(blob, &pos);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
  }

  // Hostile bodies under the v1 tag: zero tf, zero delta (duplicate doc),
  // doc id past the bound, doc id wrapping u32.
  auto v1_blob = [](std::vector<std::pair<uint64_t, uint64_t>> pairs) {
    std::string body;
    for (const auto& [delta, tf] : pairs) util::AppendVarint(delta, &body);
    for (const auto& [delta, tf] : pairs) util::AppendVarint(tf, &body);
    std::string blob;
    util::AppendVarint((uint64_t{1} << 32) | 1, &blob);
    util::AppendVarint(pairs.size(), &blob);
    util::AppendVarint(body.size(), &blob);
    blob += body;
    return blob;
  };
  for (const auto& [blob, what] :
       {std::make_pair(v1_blob({{3, 0}}), "zero tf"),
        std::make_pair(v1_blob({{3, 1}, {0, 1}}), "zero delta"),
        std::make_pair(v1_blob({{3, 1}, {uint64_t{1} << 40, 1}}),
                       "u32 overflow"),
        std::make_pair(v1_blob({{3, 1}, {2, uint64_t{1} << 40}}),
                       "tf overflow")}) {
    size_t pos = 0;
    auto result = PostingList::DecodeFrom(blob, &pos);
    EXPECT_FALSE(result.ok()) << what;
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss) << what;
  }
  {
    // In-range doc ids but above the caller's max_doc_exclusive.
    size_t pos = 0;
    auto result =
        PostingList::DecodeFrom(v1_blob({{3, 1}, {4, 2}}), &pos, /*max=*/5);
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
  }

  // Bit-flip sweep over the whole healthy blob: reject or accept, never
  // crash or over-allocate.
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      size_t pos = 0;
      PostingList::DecodeFrom(mutated, &pos, 10000);
    }
  }
  SUCCEED();
}

TEST(PostingListTest, DecodeFromTruncatedFails) {
  PostingList::Builder builder;
  builder.Append(10, 2);
  builder.Append(20, 2);
  PostingList list = builder.Build();
  std::string bytes;
  list.EncodeTo(&bytes);
  bytes.resize(bytes.size() - 2);
  size_t pos = 0;
  EXPECT_FALSE(PostingList::DecodeFrom(bytes, &pos).ok());
}

// ---------------------------------------------------------- InvertedIndex --

TEST(InvertedIndexTest, MatchesNaiveCountsOnTinyCorpus) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  InvertedIndex index = InvertedIndex::Build(c);
  EXPECT_EQ(index.num_documents(), 4u);
  EXPECT_EQ(index.num_terms(), 4u);

  text::TermId tank = c.vocabulary().Lookup("tank");
  std::vector<Posting> postings = index.Postings(tank).Decode();
  ASSERT_EQ(postings.size(), 3u);
  EXPECT_EQ(postings[0], (Posting{0, 2}));  // war1: tank x2
  EXPECT_EQ(postings[1], (Posting{1, 1}));  // war2
  EXPECT_EQ(postings[2], (Posting{3, 1}));  // mix1

  text::TermId stock = c.vocabulary().Lookup("stock");
  EXPECT_EQ(index.DocFreq(stock), 2u);
  EXPECT_EQ(index.DocLength(2), 5u);
  EXPECT_DOUBLE_EQ(index.avg_doc_length(), 12.0 / 4.0);
}

TEST(InvertedIndexTest, MatchesBruteForceOnGeneratedCorpus) {
  corpus::GeneratorParams params;
  params.num_docs = 80;
  params.tail_vocab_size = 200;
  corpus::Corpus c = corpus::CorpusGenerator(params).Generate();
  InvertedIndex index = InvertedIndex::Build(c);

  // Brute-force df/cf per term from raw documents.
  std::map<text::TermId, std::map<corpus::DocId, uint32_t>> brute;
  for (const corpus::Document& d : c.documents()) {
    for (text::TermId t : d.tokens) ++brute[t][d.id];
  }
  for (const auto& [term, docs] : brute) {
    std::vector<Posting> postings = index.Postings(term).Decode();
    ASSERT_EQ(postings.size(), docs.size()) << "term " << term;
    size_t i = 0;
    for (const auto& [doc, tf] : docs) {
      EXPECT_EQ(postings[i].doc, doc);
      EXPECT_EQ(postings[i].tf, tf);
      ++i;
    }
  }
  // Terms never used have empty lists.
  for (text::TermId t = 0; t < c.vocabulary_size(); ++t) {
    if (!brute.count(t)) {
      EXPECT_TRUE(index.Postings(t).empty());
    }
  }
}

TEST(InvertedIndexTest, OutOfRangeTermIsEmpty) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  InvertedIndex index = InvertedIndex::Build(c);
  EXPECT_TRUE(index.Postings(9999).empty());
  EXPECT_EQ(index.DocFreq(9999), 0u);
}

TEST(InvertedIndexTest, StatsMatchPaperArithmetic) {
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  InvertedIndex index = InvertedIndex::Build(c);
  IndexStats stats = index.ComputeStats();
  EXPECT_EQ(stats.num_terms, 4u);
  EXPECT_EQ(stats.num_documents, 4u);
  // tank:3 missile:2 stock:2 market:1 postings.
  EXPECT_EQ(stats.total_postings, 8u);
  EXPECT_EQ(stats.max_list_length, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_list_length, 2.0);
  // PIR padding: every list padded to max length at 8 bytes per pair.
  EXPECT_EQ(stats.pir_padded_bytes, 4u * 3u * 8u);
  EXPECT_GT(stats.encoded_bytes, 0u);
  EXPECT_LT(stats.encoded_bytes, stats.pir_padded_bytes);
}

TEST(InvertedIndexTest, SerializeRoundtrip) {
  const auto& world = toppriv::testing::World();
  std::string bytes = world.index.Serialize();
  auto restored = InvertedIndex::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_documents(), world.index.num_documents());
  EXPECT_EQ(restored->num_terms(), world.index.num_terms());
  EXPECT_DOUBLE_EQ(restored->avg_doc_length(), world.index.avg_doc_length());
  for (text::TermId t = 0; t < 50 && t < world.index.num_terms(); ++t) {
    EXPECT_EQ(restored->Postings(t).Decode(), world.index.Postings(t).Decode());
  }
  IndexStats a = restored->ComputeStats();
  IndexStats b = world.index.ComputeStats();
  EXPECT_EQ(a.total_postings, b.total_postings);
  EXPECT_EQ(a.encoded_bytes, b.encoded_bytes);
}

TEST(InvertedIndexTest, DeserializeGarbageFails) {
  EXPECT_FALSE(InvertedIndex::Deserialize("garbage!").ok());
}

TEST(InvertedIndexTest, HostileDocCountIsRejectedWithoutAllocating) {
  // A few bytes claiming billions of documents: resize(num_docs) used to
  // run before any payload was read, demanding gigabytes. The count must
  // be bounded by the remaining payload instead.
  for (uint64_t hostile : {uint64_t{1} << 30, uint64_t{1} << 45,
                           uint64_t{0xffffffffffffffff}}) {
    util::BinaryWriter w;
    w.WriteVarint(hostile);
    w.WriteVarint(3);  // one plausible doc length
    auto result = InvertedIndex::Deserialize(w.data());
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
  }
}

TEST(InvertedIndexTest, HostileTermCountIsRejected) {
  util::BinaryWriter w;
  w.WriteVarint(1);                    // num_docs
  w.WriteVarint(5);                    // doc length
  w.WriteVarint(uint64_t{1} << 40);    // num_terms >> body size
  w.WriteString("tiny");               // 4-byte body cannot hold 2^40 lists
  auto result = InvertedIndex::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(InvertedIndexTest, PostingDocIdOutOfRangeIsRejected) {
  // The contiguous score accumulator and doc-length lookups index
  // per-document arrays by posting doc id; a blob whose postings point
  // past num_docs must die at Deserialize, not corrupt memory later.
  PostingList::Builder builder;
  builder.Append(5, 2);  // doc 5 in a 1-doc index
  std::string body;
  builder.Build().EncodeTo(&body);
  util::BinaryWriter w;
  w.WriteVarint(1);  // num_docs
  w.WriteVarint(3);  // doc length
  w.WriteVarint(1);  // num_terms
  w.WriteString(body);
  auto result = InvertedIndex::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(InvertedIndexTest, HostileDocLengthIsRejected) {
  util::BinaryWriter w;
  w.WriteVarint(1);                     // num_docs
  w.WriteVarint(uint64_t{1} << 40);     // doc length overflows u32
  w.WriteVarint(0);                     // num_terms
  w.WriteString("");
  EXPECT_FALSE(InvertedIndex::Deserialize(w.data()).ok());
}

TEST(InvertedIndexTest, TruncatedBlobsNeverCrash) {
  // Fuzz-style sweep: every truncation of a valid serialization must fail
  // cleanly (or succeed, if the prefix happens to parse) — no crash, no
  // huge allocation. Covers the varint header, the doc-length array, the
  // term count and the posting-list body.
  corpus::Corpus c = toppriv::testing::TinyCorpus();
  std::string bytes = InvertedIndex::Build(c).Serialize();
  ASSERT_TRUE(InvertedIndex::Deserialize(bytes).ok());
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto result = InvertedIndex::Deserialize(bytes.substr(0, cut));
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss)
          << "cut " << cut;
    }
  }
  // Bit-flip sweep on the header region (counts and lengths).
  for (size_t i = 0; i < std::min<size_t>(bytes.size(), 16); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[i] = static_cast<char>(mutated[i] ^ (1 << bit));
      InvertedIndex::Deserialize(mutated);  // must not crash or OOM
    }
  }
}

TEST(InvertedIndexTest, IndexGrowsLinearlyWithCorpus) {
  // The Fig. 6 premise: posting data grows roughly linearly in documents.
  corpus::GeneratorParams params;
  params.tail_vocab_size = 400;
  params.num_docs = 100;
  uint64_t size100 =
      InvertedIndex::Build(corpus::CorpusGenerator(params).Generate())
          .ComputeStats()
          .encoded_bytes;
  params.num_docs = 400;
  uint64_t size400 =
      InvertedIndex::Build(corpus::CorpusGenerator(params).Generate())
          .ComputeStats()
          .encoded_bytes;
  EXPECT_GT(size400, size100 * 3);
  EXPECT_LT(size400, size100 * 6);
}

}  // namespace
}  // namespace toppriv::index
