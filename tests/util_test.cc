// Unit and property tests for the util substrate.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <cstdio>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/crc32.h"
#include "util/filesystem.h"
#include "util/io.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace toppriv::util {
namespace {

// ---------------------------------------------------------------- Status --

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad eps");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad eps");
}

TEST(StatusTest, AllCodesRender) {
  EXPECT_EQ(Status::NotFound("x").ToString(), "NOT_FOUND: x");
  EXPECT_EQ(Status::FailedPrecondition("x").ToString(),
            "FAILED_PRECONDITION: x");
  EXPECT_EQ(Status::Internal("x").ToString(), "INTERNAL: x");
  EXPECT_EQ(Status::IoError("x").ToString(), "IO_ERROR: x");
  EXPECT_EQ(Status::DataLoss("x").ToString(), "DATA_LOSS: x");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 42);
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------- Rng --

TEST(RngTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(uint64_t{1000000}) == b.UniformInt(uint64_t{1000000})) {
      ++same;
    }
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, ForkIsIndependentOfParentDraws) {
  Rng a(7);
  Rng child1 = a.Fork(3);
  a.Uniform();  // consume from parent
  Rng b(7);
  Rng child2 = b.Fork(3);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(child1.Uniform(), child2.Uniform());
  }
}

TEST(RngTest, UniformIntRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformInt(uint64_t{7});
    EXPECT_LT(v, 7u);
  }
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(int64_t{-3}, int64_t{4});
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 4);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(5);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, DiscreteRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights = {0.0, 10.0, 0.0, 1.0};
  int counts[4] = {0, 0, 0, 0};
  for (int i = 0; i < 5000; ++i) ++counts[rng.Discrete(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_GT(counts[1], counts[3] * 5);
}

TEST(RngTest, DiscreteFromCdfMatchesDiscrete) {
  std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> cdf = BuildCdf(weights);
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.back(), 10.0);
  Rng rng(13);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.DiscreteFromCdf(cdf)];
  // Expected proportions 0.1, 0.2, 0.3, 0.4.
  EXPECT_NEAR(counts[3] / 20000.0, 0.4, 0.03);
  EXPECT_NEAR(counts[0] / 20000.0, 0.1, 0.03);
}

TEST(RngTest, BuildCdfAllZeroIsEmpty) {
  EXPECT_TRUE(BuildCdf({0.0, 0.0}).empty());
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(17);
  for (double alpha : {0.05, 0.5, 5.0}) {
    std::vector<double> d = rng.DirichletSymmetric(alpha, 25);
    double sum = std::accumulate(d.begin(), d.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double v : d) EXPECT_GE(v, 0.0);
  }
}

TEST(RngTest, SparseDirichletConcentrates) {
  Rng rng(19);
  // With tiny alpha, most mass should sit on a few components.
  std::vector<double> d = rng.DirichletSymmetric(0.02, 30);
  std::sort(d.rbegin(), d.rend());
  EXPECT_GT(d[0] + d[1] + d[2], 0.9);
}

TEST(RngTest, GammaPositiveAndMeanRoughlyShape) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.Gamma(2.5);
    EXPECT_GT(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(RngTest, GammaSmallShape) {
  Rng rng(29);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(0.1);
  EXPECT_NEAR(sum / n, 0.1, 0.02);
}

TEST(RngTest, PoissonMean) {
  Rng rng(31);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.Poisson(12.0);
  EXPECT_NEAR(sum / n, 12.0, 0.3);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(37);
  std::vector<size_t> s = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(s.size(), 30u);
  std::set<size_t> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 30u);
  for (size_t v : s) EXPECT_LT(v, 100u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(41);
  std::vector<size_t> s = rng.SampleWithoutReplacement(10, 10);
  std::sort(s.begin(), s.end());
  for (size_t i = 0; i < 10; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(43);
  std::vector<int> v = {1, 2, 2, 3, 4, 5, 5, 5};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  std::sort(original.begin(), original.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ZipfSkewsTowardsHead) {
  Rng rng(47);
  int head = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.2) < 5) ++head;
  }
  EXPECT_GT(head, n / 3);  // top-5 of 100 gets a large share under Zipf
}

// -------------------------------------------------------------------- IO --

class VarintRoundtrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundtrip, EncodesAndDecodes) {
  std::string buf;
  AppendVarint(GetParam(), &buf);
  size_t pos = 0;
  uint64_t decoded = 0;
  ASSERT_TRUE(DecodeVarint(buf, &pos, &decoded));
  EXPECT_EQ(decoded, GetParam());
  EXPECT_EQ(pos, buf.size());
}

INSTANTIATE_TEST_SUITE_P(
    Values, VarintRoundtrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 300ull, 16383ull, 16384ull,
                      (1ull << 32) - 1, 1ull << 32, 0xffffffffffffffffull));

TEST(VarintTest, DecodeOverrunFails) {
  std::string buf;
  AppendVarint(1ull << 40, &buf);
  buf.pop_back();  // truncate the terminator byte
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(DecodeVarint(buf, &pos, &v));
}

TEST(VarintTest, SmallValuesAreOneByte) {
  std::string buf;
  AppendVarint(100, &buf);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(BinaryIoTest, RoundtripAllTypes) {
  BinaryWriter w;
  w.WriteU8(7);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x1122334455667788ull);
  w.WriteDouble(3.14159);
  w.WriteFloat(2.5f);
  w.WriteVarint(299792458ull);
  w.WriteString("hello world");
  w.WriteDoubleVector({1.0, -2.0, 3.5});
  w.WriteFloatVector({0.5f, 1.5f});
  w.WriteU32Vector({1, 100, 10000});

  BinaryReader r(w.data());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64, var;
  double d;
  float f;
  std::string s;
  std::vector<double> dv;
  std::vector<float> fv;
  std::vector<uint32_t> uv;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  ASSERT_TRUE(r.ReadFloat(&f).ok());
  ASSERT_TRUE(r.ReadVarint(&var).ok());
  ASSERT_TRUE(r.ReadString(&s).ok());
  ASSERT_TRUE(r.ReadDoubleVector(&dv).ok());
  ASSERT_TRUE(r.ReadFloatVector(&fv).ok());
  ASSERT_TRUE(r.ReadU32Vector(&uv).ok());
  EXPECT_TRUE(r.AtEnd());

  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x1122334455667788ull);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_FLOAT_EQ(f, 2.5f);
  EXPECT_EQ(var, 299792458ull);
  EXPECT_EQ(s, "hello world");
  EXPECT_EQ(dv, (std::vector<double>{1.0, -2.0, 3.5}));
  EXPECT_EQ(fv, (std::vector<float>{0.5f, 1.5f}));
  EXPECT_EQ(uv, (std::vector<uint32_t>{1, 100, 10000}));
}

TEST(BinaryIoTest, ReaderOverrunReturnsDataLoss) {
  BinaryReader r(std::string_view("ab"));
  uint32_t v;
  Status s = r.ReadU32(&v);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

TEST(BinaryIoTest, StringOverrunReturnsDataLoss) {
  BinaryWriter w;
  w.WriteVarint(1000);  // claims a 1000-byte string with no body
  BinaryReader r(w.data());
  std::string s;
  EXPECT_EQ(r.ReadString(&s).code(), StatusCode::kDataLoss);
}

TEST(BinaryIoTest, HostileVectorCountsReturnDataLossWithoutAllocating) {
  // A count whose byte size wraps uint64 (n * sizeof(element) == tiny) used
  // to sail past the bounds check and hand resize() a multi-exabyte demand.
  for (uint64_t hostile :
       {uint64_t{1} << 62, (uint64_t{1} << 62) + 3, uint64_t{0xffffffffffffffff}}) {
    BinaryWriter w;
    w.WriteVarint(hostile);
    w.WriteU32(0);  // a few plausible payload bytes
    BinaryReader fr(w.data());
    std::vector<float> fv;
    EXPECT_EQ(fr.ReadFloatVector(&fv).code(), StatusCode::kDataLoss);
    BinaryReader dr(w.data());
    std::vector<double> dv;
    EXPECT_EQ(dr.ReadDoubleVector(&dv).code(), StatusCode::kDataLoss);
    BinaryReader ur(w.data());
    std::vector<uint32_t> uv;
    EXPECT_EQ(ur.ReadU32Vector(&uv).code(), StatusCode::kDataLoss);
  }
}

TEST(BinaryIoTest, HugeStringLengthDoesNotWrapBoundsCheck) {
  // pos_ + n used to overflow, making Need() accept any length.
  BinaryWriter w;
  w.WriteVarint(0xffffffffffffffffull);
  BinaryReader r(w.data());
  std::string s;
  EXPECT_EQ(r.ReadString(&s).code(), StatusCode::kDataLoss);
}

TEST(BinaryIoTest, RemainingTracksPosition) {
  BinaryWriter w;
  w.WriteU32(1);
  w.WriteU32(2);
  BinaryReader r(w.data());
  EXPECT_EQ(r.remaining(), 8u);
  uint32_t v;
  ASSERT_TRUE(r.ReadU32(&v).ok());
  EXPECT_EQ(r.remaining(), 4u);
}

TEST(FileIoTest, WriteReadRoundtrip) {
  std::string path = ::testing::TempDir() + "/toppriv_io_test.bin";
  std::string payload = "binary\0payload";
  ASSERT_TRUE(WriteFile(path, payload).ok());
  EXPECT_TRUE(FileExists(path));
  auto readback = ReadFileToString(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(readback.value(), payload);
  std::remove(path.c_str());
}

TEST(FileIoTest, MissingFileIsNotFound) {
  auto result = ReadFileToString("/nonexistent/path/file.bin");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(FileExists("/nonexistent/path/file.bin"));
}

TEST(FileIoTest, MakeDirsCreatesNested) {
  std::string base = ::testing::TempDir() + "/toppriv_mkdir/a/b/c";
  ASSERT_TRUE(MakeDirs(base).ok());
  ASSERT_TRUE(WriteFile(base + "/f.txt", "x").ok());
  EXPECT_TRUE(FileExists(base + "/f.txt"));
}

// ----------------------------------------------------------------- Stats --

TEST(OnlineStatsTest, MatchesNaiveComputation) {
  std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  OnlineStats stats;
  for (double x : xs) stats.Add(x);
  double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(OnlineStatsTest, MergeEqualsBulk) {
  std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  OnlineStats a, b, all;
  for (size_t i = 0; i < xs.size(); ++i) {
    (i < 4 ? a : b).Add(xs[i]);
    all.Add(xs[i]);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(PercentileTest, KnownValues) {
  std::vector<double> xs = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0), 10);
  EXPECT_DOUBLE_EQ(Percentile(xs, 100), 40);
  EXPECT_DOUBLE_EQ(Percentile(xs, 50), 25);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({5.0}, 75), 5.0);
}

TEST(MeanTest, Basic) {
  EXPECT_DOUBLE_EQ(Mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(Mean({}), 0.0);
}

// --------------------------------------------------------------- Strings --

TEST(StringsTest, SplitDropsEmptyPieces) {
  EXPECT_EQ(Split("a,,b, c", ", "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(Split("", ",").empty());
  EXPECT_TRUE(Split(",,,", ",").empty());
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(Join({}, "-"), "");
  EXPECT_EQ(Join({"solo"}, "-"), "solo");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("Hello World-42"), "hello world-42");
}

TEST(StringsTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("toppriv", "top"));
  EXPECT_FALSE(StartsWith("top", "toppriv"));
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22222"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("name   value"), std::string::npos);
  EXPECT_NE(out.find("alpha  1"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableTest, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

// ----------------------------------------------------------------- Timer --

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMillis(), timer.ElapsedSeconds());
  timer.Reset();
  EXPECT_LT(timer.ElapsedSeconds(), 1.0);
}

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndReuse) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
  std::atomic<int> counter{0};
  pool.ParallelFor(5, [&counter](size_t) { counter.fetch_add(1); });
  pool.ParallelFor(5, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ZeroThreadsPromotedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after completing pending tasks
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, HardwareConcurrencyAtLeastOne) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1u);
}

// -------------------------------------------------------------- JsonWriter --

TEST(JsonWriterTest, NestedDocumentWithCommas) {
  JsonWriter w;
  w.BeginObject();
  w.Field("bench", "serving_throughput");
  w.Field("count", uint64_t{3});
  w.Field("ok", true);
  w.Key("cells");
  w.BeginArray();
  w.BeginObject();
  w.Field("qps", 1.5);
  w.EndObject();
  w.BeginObject();
  w.Field("qps", int64_t{-2});
  w.Key("missing");
  w.Null();
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"bench\":\"serving_throughput\",\"count\":3,\"ok\":true,"
            "\"cells\":[{\"qps\":1.5},{\"qps\":-2,\"missing\":null}]}");
}

TEST(JsonWriterTest, EscapesAndNonFiniteDoubles) {
  JsonWriter w;
  w.BeginObject();
  w.Field("s", "a\"b\\c\nd\te\x01");
  w.Key("inf");
  w.Double(std::numeric_limits<double>::infinity());
  w.Key("nan");
  w.Double(std::nan(""));
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\te\\u0001\",\"inf\":null,"
            "\"nan\":null}");
}

TEST(JsonWriterTest, DoubleRoundTripsPrecision) {
  JsonWriter w;
  w.BeginArray();
  w.Double(0.1);
  w.Double(1e300);
  w.EndArray();
  // %.17g keeps the exact bits recoverable.
  EXPECT_EQ(w.str(), "[0.10000000000000001,1.0000000000000001e+300]");
}

// ---------------------------------------------------------------- Crc32 ---

TEST(Crc32Test, KnownVector) {
  // The canonical CRC32C check value (RFC 3720 appendix / iSCSI).
  EXPECT_EQ(Crc32::Compute("123456789"), 0xE3069283u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32::Compute(""), 0u); }

TEST(Crc32Test, ExtendMatchesOneShot) {
  const std::string a = "hello, ";
  const std::string b = "world";
  uint32_t state = Crc32::kInit;
  state = Crc32::Extend(state, a.data(), a.size());
  state = Crc32::Extend(state, b.data(), b.size());
  EXPECT_EQ(state ^ Crc32::kInit, Crc32::Compute(a + b));
}

TEST(Crc32Test, SensitiveToSingleBitFlip) {
  std::string s = "payload bytes under test";
  const uint32_t base = Crc32::Compute(s);
  for (size_t i = 0; i < s.size(); ++i) {
    std::string flipped = s;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x40);
    EXPECT_NE(Crc32::Compute(flipped), base) << "byte " << i;
  }
}

// ----------------------------------------------------- fault file system ---

TEST(FaultFsTest, AppendSyncReadRoundTrip) {
  FaultInjectingFileSystem fs;
  ASSERT_TRUE(fs.MakeDirs("d").ok());
  auto file = fs.OpenForAppend("d/log");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abc").ok());
  ASSERT_TRUE((*file)->Append("def").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  auto bytes = fs.Read("d/log");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "abcdef");
  EXPECT_TRUE(fs.Exists("d/log"));
  EXPECT_FALSE(fs.Exists("d/other"));
}

TEST(FaultFsTest, PowerCutDropsUnsyncedSuffixOnly) {
  FaultInjectingFileSystem fs;
  auto file = fs.OpenForAppend("log");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("durable").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Append("volatile").ok());
  fs.PowerCut();
  EXPECT_EQ(fs.FileBytes("log"), "durable");
  // Metadata is journaled: the file itself survives even if never synced.
  auto other = fs.OpenForAppend("meta-only");
  ASSERT_TRUE(other.ok());
  fs.PowerCut();
  EXPECT_TRUE(fs.Exists("meta-only"));
}

TEST(FaultFsTest, NthOpFaultFiresExactlyOnce) {
  FaultInjectingFileSystem fs;
  auto file = fs.OpenForAppend("log");  // op 0
  ASSERT_TRUE(file.ok());
  fs.ArmFault(1, FaultInjectingFileSystem::FaultMode::kFailOp);
  EXPECT_TRUE((*file)->Append("a").ok());   // op 1: survives
  EXPECT_FALSE((*file)->Append("b").ok());  // op 2: injected failure
  EXPECT_TRUE(fs.fault_fired());
  EXPECT_TRUE((*file)->Append("c").ok());  // one-shot: works again
  EXPECT_EQ(fs.FileBytes("log"), "ac");
}

TEST(FaultFsTest, ShortWriteKeepsPrefix) {
  FaultInjectingFileSystem fs;
  auto file = fs.OpenForAppend("log");
  ASSERT_TRUE(file.ok());
  fs.ArmFault(0, FaultInjectingFileSystem::FaultMode::kShortWrite);
  EXPECT_FALSE((*file)->Append("0123456789").ok());
  EXPECT_EQ(fs.FileBytes("log"), "01234");  // half the append landed
  // The torn bytes were never synced, so a power cut erases them.
  fs.PowerCut();
  EXPECT_EQ(fs.FileBytes("log"), "");
}

TEST(FaultFsTest, FailedSyncDoesNotAdvanceWatermark) {
  FaultInjectingFileSystem fs;
  auto file = fs.OpenForAppend("log");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("abc").ok());
  fs.ArmFault(0, FaultInjectingFileSystem::FaultMode::kFailOp);
  EXPECT_FALSE((*file)->Sync().ok());
  fs.PowerCut();
  EXPECT_EQ(fs.FileBytes("log"), "");
}

TEST(FaultFsTest, RenameReplacesAtomically) {
  FaultInjectingFileSystem fs;
  fs.SetFileBytes("a.tmp", "new");
  fs.SetFileBytes("a", "old");
  ASSERT_TRUE(fs.Rename("a.tmp", "a").ok());
  EXPECT_EQ(fs.FileBytes("a"), "new");
  EXPECT_FALSE(fs.Exists("a.tmp"));
  EXPECT_FALSE(fs.Rename("missing", "x").ok());
}

TEST(FaultFsTest, ListReturnsDirectChildrenSorted) {
  FaultInjectingFileSystem fs;
  fs.SetFileBytes("d/b", "");
  fs.SetFileBytes("d/a", "");
  fs.SetFileBytes("d/sub/c", "");
  fs.SetFileBytes("other", "");
  auto names = fs.List("d");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"a", "b"}));
}

TEST(FaultFsTest, CloneIsIndependent) {
  FaultInjectingFileSystem fs;
  fs.SetFileBytes("f", "base");
  auto copy = fs.Clone();
  fs.SetFileBytes("f", "changed");
  EXPECT_EQ(copy->FileBytes("f"), "base");
  copy->CorruptByte("f", 0, 0xff);
  EXPECT_NE(copy->FileBytes("f")[0], 'b');
  EXPECT_EQ(fs.FileBytes("f"), "changed");
}

TEST(RealFsTest, AppendRenameListRoundTrip) {
  FileSystem* fs = GetRealFileSystem();
  const std::string dir = "/tmp/toppriv_fs_test";
  ASSERT_TRUE(fs->MakeDirs(dir).ok());
  // Clean slate from any previous run.
  auto stale = fs->List(dir);
  if (stale.ok()) {
    for (const auto& name : *stale) (void)fs->Remove(dir + "/" + name);
  }
  auto file = fs->OpenForAppend(dir + "/wal.tmp");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("disk").ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  ASSERT_TRUE(fs->Rename(dir + "/wal.tmp", dir + "/wal").ok());
  EXPECT_TRUE(fs->Exists(dir + "/wal"));
  EXPECT_FALSE(fs->Exists(dir + "/wal.tmp"));
  auto bytes = fs->Read(dir + "/wal");
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, "hello disk");
  auto names = fs->List(dir);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"wal"}));
  ASSERT_TRUE(fs->Remove(dir + "/wal").ok());
  EXPECT_FALSE(fs->Remove(dir + "/wal").ok());
}

}  // namespace
}  // namespace toppriv::util
