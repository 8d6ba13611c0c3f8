// Unit and property tests for the LDA trainer, model and inferencer.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/topic_spec.h"
#include "tests/fold_in_oracle.h"
#include "tests/test_helpers.h"
#include "topicmodel/gibbs_trainer.h"
#include "topicmodel/inference.h"
#include "topicmodel/lda_model.h"
#include "toppriv/ghost_generator.h"
#include "util/io.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace toppriv::topicmodel {
namespace {

using toppriv::testing::World;

// ---------------------------------------------------------------- LdaModel --

TEST(LdaModelTest, PhiRowsAreDistributions) {
  const LdaModel& model = World().model;
  for (size_t t = 0; t < model.num_topics(); ++t) {
    double sum = 0.0;
    for (size_t w = 0; w < model.vocab_size(); ++w) {
      double p =
          model.Phi(static_cast<TopicId>(t), static_cast<text::TermId>(w));
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-3) << "topic " << t;
  }
}

TEST(LdaModelTest, ThetaRowsAreDistributions) {
  const LdaModel& model = World().model;
  for (size_t d = 0; d < std::min<size_t>(model.num_docs(), 50); ++d) {
    double sum = 0.0;
    for (size_t t = 0; t < model.num_topics(); ++t) {
      double p = model.Theta(d, static_cast<TopicId>(t));
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-3) << "doc " << d;
  }
}

TEST(LdaModelTest, PriorIsEq1Average) {
  const LdaModel& model = World().model;
  const std::vector<double>& prior = model.prior();
  ASSERT_EQ(prior.size(), model.num_topics());
  double sum = std::accumulate(prior.begin(), prior.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  // Spot-check Eq. 1 directly for one topic.
  double manual = 0.0;
  for (size_t d = 0; d < model.num_docs(); ++d) manual += model.Theta(d, 3);
  manual /= static_cast<double>(model.num_docs());
  EXPECT_NEAR(prior[3], manual, 1e-9);
}

TEST(LdaModelTest, TopWordsSortedAndBounded) {
  const LdaModel& model = World().model;
  std::vector<WordProb> top = model.TopWords(0, 20);
  ASSERT_EQ(top.size(), 20u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].prob, top[i].prob);
  }
  // Asking for more words than the vocabulary has caps at vocab size.
  EXPECT_EQ(model.TopWords(0, 1u << 30).size(), model.vocab_size());
}

TEST(LdaModelTest, SizeBytesAccountsStructures) {
  const LdaModel& model = World().model;
  size_t expected = model.num_topics() * model.vocab_size() * sizeof(float) +
                    model.num_docs() * model.num_topics() * sizeof(float) +
                    model.num_topics() * sizeof(double);
  EXPECT_EQ(model.SizeBytes(), expected);
}

TEST(LdaModelTest, SerializeRoundtrip) {
  const LdaModel& model = World().model;
  auto restored = LdaModel::Deserialize(model.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_topics(), model.num_topics());
  EXPECT_EQ(restored->vocab_size(), model.vocab_size());
  EXPECT_EQ(restored->num_docs(), model.num_docs());
  EXPECT_DOUBLE_EQ(restored->alpha(), model.alpha());
  EXPECT_DOUBLE_EQ(restored->beta(), model.beta());
  EXPECT_FLOAT_EQ(static_cast<float>(restored->Phi(3, 7)),
                  static_cast<float>(model.Phi(3, 7)));
  EXPECT_NEAR(restored->prior()[5], model.prior()[5], 1e-12);
}

TEST(LdaModelTest, DeserializeGarbageFails) {
  EXPECT_FALSE(LdaModel::Deserialize("garbage").ok());
}

TEST(LdaModelTest, DeserializeRejectsOverflowingDimensions) {
  // Regression: num_topics * vocab_size was validated with a raw uint64
  // multiply, so dimensions chosen to wrap (2^32 * 2^32 == 0 mod 2^64)
  // "matched" an empty phi and produced a model whose Phi reads far out
  // of bounds. The division-based check must reject it with DataLoss.
  util::BinaryWriter w;
  w.WriteVarint(uint64_t{1} << 32);  // num_topics
  w.WriteVarint(uint64_t{1} << 32);  // vocab_size (product wraps to 0)
  w.WriteDouble(0.1);                // alpha
  w.WriteDouble(0.1);                // beta
  w.WriteFloatVector({});            // phi: empty, matches the wrapped product
  w.WriteFloatVector({});            // theta
  auto result = LdaModel::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LdaModelTest, DeserializeRejectsMismatchedPhi) {
  util::BinaryWriter w;
  w.WriteVarint(2);  // num_topics
  w.WriteVarint(3);  // vocab_size
  w.WriteDouble(0.1);
  w.WriteDouble(0.1);
  w.WriteFloatVector({0.5f, 0.5f, 0.5f, 0.5f});  // 4 floats != 2*3
  w.WriteFloatVector({});
  EXPECT_FALSE(LdaModel::Deserialize(w.data()).ok());
}

TEST(LdaModelTest, DeserializeHostileVectorCountFailsCleanly) {
  // A tiny blob whose float-vector count wraps the byte-size computation
  // must fail with DataLoss instead of attempting a huge allocation.
  util::BinaryWriter w;
  w.WriteVarint(2);
  w.WriteVarint(2);
  w.WriteDouble(0.1);
  w.WriteDouble(0.1);
  w.WriteVarint(uint64_t{1} << 62);  // phi count: 2^62 floats "fit" mod 2^64
  auto result = LdaModel::Deserialize(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);
}

TEST(LdaModelTest, TruncatedBlobsNeverCrash) {
  const LdaModel& model = World().model;
  std::string bytes = model.Serialize();
  // Sweep a few hundred truncation points across the blob (it is large, so
  // stride; always include the varint/double header region densely).
  for (size_t cut = 0; cut < std::min<size_t>(bytes.size(), 64); ++cut) {
    EXPECT_FALSE(LdaModel::Deserialize(bytes.substr(0, cut)).ok());
  }
  const size_t stride = std::max<size_t>(1, bytes.size() / 128);
  for (size_t cut = 64; cut < bytes.size(); cut += stride) {
    EXPECT_FALSE(LdaModel::Deserialize(bytes.substr(0, cut)).ok());
  }
}

TEST(LdaModelTest, CreateComputesUniformPriorWithoutDocs) {
  std::vector<float> phi = {0.5f, 0.5f, 0.25f, 0.75f};
  LdaModel model = LdaModel::Create(2, 2, phi, {}, 0.1, 0.1);
  EXPECT_DOUBLE_EQ(model.prior()[0], 0.5);
  EXPECT_DOUBLE_EQ(model.prior()[1], 0.5);
  EXPECT_EQ(model.num_docs(), 0u);
}

// A serialized 2-topic, 2-word model with one entry overridden.
std::string ModelBlob(float phi0, float theta0, double alpha, double beta) {
  util::BinaryWriter w;
  w.WriteVarint(2);  // num_topics
  w.WriteVarint(2);  // vocab_size
  w.WriteDouble(alpha);
  w.WriteDouble(beta);
  w.WriteFloatVector({phi0, 0.5f, 0.25f, 0.75f});
  w.WriteFloatVector({theta0, 0.5f});
  return w.data();
}

TEST(LdaModelTest, DeserializeRejectsInvalidValues) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  ASSERT_TRUE(LdaModel::Deserialize(ModelBlob(0.5f, 0.5f, 0.1, 0.01)).ok());
  // Zero weights are valid probability mass.
  ASSERT_TRUE(LdaModel::Deserialize(ModelBlob(0.0f, 0.0f, 0.1, 0.01)).ok());
  const std::vector<std::string> invalid = {
      ModelBlob(kNan, 0.5f, 0.1, 0.01),   ModelBlob(kInf, 0.5f, 0.1, 0.01),
      ModelBlob(-kInf, 0.5f, 0.1, 0.01),  ModelBlob(-0.25f, 0.5f, 0.1, 0.01),
      ModelBlob(0.5f, kNan, 0.1, 0.01),   ModelBlob(0.5f, kInf, 0.1, 0.01),
      ModelBlob(0.5f, -1e-30f, 0.1, 0.01), ModelBlob(0.5f, 0.5f, 0.0, 0.01),
      ModelBlob(0.5f, 0.5f, -0.1, 0.01),  ModelBlob(0.5f, 0.5f, kNan, 0.01),
      ModelBlob(0.5f, 0.5f, kInf, 0.01),  ModelBlob(0.5f, 0.5f, 0.1, 0.0),
      ModelBlob(0.5f, 0.5f, 0.1, -kInf),  ModelBlob(0.5f, 0.5f, 0.1, kNan),
  };
  for (size_t i = 0; i < invalid.size(); ++i) {
    auto result = LdaModel::Deserialize(invalid[i]);
    ASSERT_FALSE(result.ok()) << "blob " << i;
    EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss)
        << "blob " << i;
  }
}

TEST(LdaModelDeathTest, CreateChecksValues) {
  const std::vector<float> phi = {0.5f, 0.5f, 0.25f, 0.75f};
  EXPECT_DEATH(LdaModel::Create(2, 2, {0.5f, -0.5f, 0.25f, 0.75f}, {}, 0.1,
                                0.1),
               "CHECK failed");
  EXPECT_DEATH(LdaModel::Create(2, 2, phi,
                                {std::numeric_limits<float>::infinity(), 0.0f},
                                0.1, 0.1),
               "CHECK failed");
  EXPECT_DEATH(LdaModel::Create(2, 2, phi, {}, 0.0, 0.1), "CHECK failed");
  EXPECT_DEATH(
      LdaModel::Create(2, 2, phi, {}, 0.1,
                       std::numeric_limits<double>::quiet_NaN()),
      "CHECK failed");
}

// ------------------------------------------------------------ phi layout --

// Non-square shapes, below and across the transpose's 32 x 32 tiles.
const std::vector<std::pair<size_t, size_t>>& LayoutShapes() {
  static const std::vector<std::pair<size_t, size_t>> shapes = {
      {3, 5}, {5, 3}, {37, 70}, {70, 37}};
  return shapes;
}

// Topic-major phi with every entry distinct, so any stride mix-up reads a
// wrong value.
std::vector<float> DistinctPhi(size_t num_topics, size_t vocab_size) {
  std::vector<float> phi(num_topics * vocab_size);
  for (size_t i = 0; i < phi.size(); ++i) {
    phi[i] = static_cast<float>(i + 1) / 4096.0f;
  }
  return phi;
}

TEST(LdaModelLayoutTest, PhiReadsTheTopicMajorInput) {
  for (const auto& [num_topics, vocab_size] : LayoutShapes()) {
    const std::vector<float> phi = DistinctPhi(num_topics, vocab_size);
    LdaModel model =
        LdaModel::Create(num_topics, vocab_size, phi, {}, 0.1, 0.1);
    for (size_t w = 0; w < vocab_size; ++w) {
      const auto term = static_cast<text::TermId>(w);
      util::Span<const float> row = model.PhiWord(term);
      ASSERT_EQ(row.size(), num_topics);
      for (size_t t = 0; t < num_topics; ++t) {
        const float want = phi[t * vocab_size + w];
        EXPECT_EQ(model.Phi(static_cast<TopicId>(t), term), want)
            << num_topics << "x" << vocab_size << " t=" << t << " w=" << w;
        EXPECT_EQ(row[t], want);
      }
    }
  }
}

TEST(LdaModelLayoutTest, SerializeWritesTopicMajor) {
  for (const auto& [num_topics, vocab_size] : LayoutShapes()) {
    const std::vector<float> phi = DistinctPhi(num_topics, vocab_size);
    std::vector<float> theta(2 * num_topics);
    for (size_t i = 0; i < theta.size(); ++i) {
      theta[i] = static_cast<float>(i) / 512.0f;
    }
    util::BinaryWriter expected;
    expected.WriteVarint(num_topics);
    expected.WriteVarint(vocab_size);
    expected.WriteDouble(0.25);
    expected.WriteDouble(0.125);
    expected.WriteFloatVector(phi);
    expected.WriteFloatVector(theta);

    LdaModel model =
        LdaModel::Create(num_topics, vocab_size, phi, theta, 0.25, 0.125);
    EXPECT_EQ(model.Serialize(), expected.data())
        << num_topics << "x" << vocab_size;
    auto restored = LdaModel::Deserialize(expected.data());
    ASSERT_TRUE(restored.ok());
    EXPECT_EQ(restored->Serialize(), expected.data());
    for (size_t t = 0; t < num_topics; ++t) {
      for (size_t w = 0; w < vocab_size; ++w) {
        EXPECT_EQ(restored->Phi(static_cast<TopicId>(t),
                                static_cast<text::TermId>(w)),
                  phi[t * vocab_size + w]);
      }
    }
  }
}

TEST(LdaModelLayoutTest, TopicCdfRowsArePrefixSums) {
  for (const auto& [num_topics, vocab_size] : LayoutShapes()) {
    const std::vector<float> phi = DistinctPhi(num_topics, vocab_size);
    LdaModel model =
        LdaModel::Create(num_topics, vocab_size, phi, {}, 0.1, 0.1);
    core::TopicCdfTable table(model);
    ASSERT_EQ(table.num_topics(), num_topics);
    for (size_t t = 0; t < num_topics; ++t) {
      const std::vector<double>& row = table.row(static_cast<TopicId>(t));
      ASSERT_EQ(row.size(), vocab_size);
      double acc = 0.0;
      for (size_t w = 0; w < vocab_size; ++w) {
        acc += static_cast<double>(phi[t * vocab_size + w]);
        EXPECT_EQ(row[w], acc) << "t=" << t << " w=" << w;
      }
    }
  }
}

// ------------------------------------------------------------ GibbsTrainer --

TEST(GibbsTrainerTest, AlphaDefaultsToFiftyOverT) {
  const LdaModel& model = World().model;  // 40 topics
  EXPECT_NEAR(model.alpha(), 50.0 / 40.0, 1e-12);
  EXPECT_NEAR(model.beta(), 0.1, 1e-12);
}

TEST(GibbsTrainerTest, TrainingIsDeterministic) {
  corpus::GeneratorParams params;
  params.num_docs = 60;
  params.tail_vocab_size = 150;
  corpus::Corpus c = corpus::CorpusGenerator(params).Generate();
  TrainerOptions options;
  options.num_topics = 10;
  options.iterations = 15;
  LdaModel a = GibbsTrainer(options).Train(c);
  LdaModel b = GibbsTrainer(options).Train(c);
  EXPECT_EQ(a.Serialize(), b.Serialize());
}

TEST(GibbsTrainerTest, TrainingImprovesLikelihoodOverOneSweep) {
  corpus::GeneratorParams params;
  params.num_docs = 120;
  params.tail_vocab_size = 200;
  corpus::Corpus c = corpus::CorpusGenerator(params).Generate();
  TrainerOptions brief;
  brief.num_topics = 20;
  brief.iterations = 1;
  brief.estimation_samples = 1;
  TrainerOptions full = brief;
  full.iterations = 40;
  full.estimation_samples = 5;
  double ll_brief =
      GibbsTrainer::LogLikelihoodPerToken(GibbsTrainer(brief).Train(c), c);
  double ll_full =
      GibbsTrainer::LogLikelihoodPerToken(GibbsTrainer(full).Train(c), c);
  EXPECT_GT(ll_full, ll_brief + 0.1);
}

TEST(GibbsTrainerTest, RecoversPlantedTopics) {
  // Topics in the trained model should align with ground-truth topics: for
  // most LDA topics, the top words should be dominated by a single
  // ground-truth topic's seed list (topical coherence, paper Table II).
  const auto& world = World();
  const LdaModel& model = world.model;

  // Map each seed term id -> ground-truth topic.
  std::vector<int> seed_owner(world.corpus.vocabulary_size(), -1);
  for (size_t t = 0; t < world.truth.seed_term_ids.size(); ++t) {
    for (text::TermId w : world.truth.seed_term_ids[t]) {
      seed_owner[w] = static_cast<int>(t);
    }
  }

  size_t coherent = 0;
  for (size_t t = 0; t < model.num_topics(); ++t) {
    std::vector<WordProb> top = model.TopWords(static_cast<TopicId>(t), 15);
    std::vector<int> votes(world.truth.seed_term_ids.size(), 0);
    int seeded = 0;
    for (const WordProb& wp : top) {
      int owner = seed_owner[wp.term];
      if (owner >= 0) {
        ++votes[owner];
        ++seeded;
      }
    }
    int best = *std::max_element(votes.begin(), votes.end());
    if (seeded >= 5 && best * 2 >= seeded) ++coherent;
  }
  // At least a third of the topics should be crisply aligned (40 LDA topics
  // over 30 true topics leaves room for mixed/generic topics, as in the
  // paper's Table II last column).
  EXPECT_GE(coherent, model.num_topics() / 3);
}

// ------------------------------------------------------------- Inferencer --

TEST(InferencerTest, PosteriorIsDistribution) {
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  for (size_t qi = 0; qi < 5; ++qi) {
    std::vector<double> posterior =
        inferencer.InferQuery(world.workload[qi].term_ids);
    ASSERT_EQ(posterior.size(), world.model.num_topics());
    double sum = std::accumulate(posterior.begin(), posterior.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    for (double p : posterior) EXPECT_GT(p, 0.0);
  }
}

TEST(InferencerTest, DeterministicForSameQuery) {
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<double> a = inferencer.InferQuery(world.workload[0].term_ids);
  std::vector<double> b = inferencer.InferQuery(world.workload[0].term_ids);
  EXPECT_EQ(a, b);
}

TEST(InferencerTest, EmptyQueryIsUniform) {
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<double> posterior = inferencer.InferQuery({});
  for (double p : posterior) {
    EXPECT_NEAR(p, 1.0 / static_cast<double>(world.model.num_topics()), 1e-12);
  }
}

TEST(InferencerTest, OutOfVocabularyTermsIgnored) {
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<text::TermId> query = world.workload[0].term_ids;
  std::vector<double> base = inferencer.InferQuery(query);
  query.push_back(static_cast<text::TermId>(world.model.vocab_size() + 99));
  std::vector<double> with_oov = inferencer.InferQuery(query);
  EXPECT_EQ(base, with_oov);
}

TEST(InferencerTest, TopicalQueryConcentratesPosterior) {
  // A strongly topical query should lift a small number of topics far above
  // the prior; the bulk of topics should stay near it.
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<double> posterior =
      inferencer.InferQuery(world.workload[0].term_ids);
  std::vector<double> boosts;
  for (size_t t = 0; t < posterior.size(); ++t) {
    boosts.push_back(posterior[t] - world.model.prior()[t]);
  }
  std::sort(boosts.rbegin(), boosts.rend());
  EXPECT_GT(boosts[0], 0.05);   // at least one strongly-boosted topic
  EXPECT_LT(boosts[5], 0.05);   // but not many
}

// The bit patterns of a posterior: bit-for-bit comparison, with no
// tolerance for -0.0 == 0.0 or NaN != NaN.
std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  if (!values.empty()) {
    std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  }
  return bits;
}

// Runs every query through the inferencer (one reused workspace) and the
// dense oracle; returns how many posteriors differed in any bit.
size_t CountOracleMismatches(
    const LdaModel& model, const InferenceOptions& options,
    const std::vector<std::vector<text::TermId>>& queries) {
  LdaInferencer inferencer(model, options);
  InferenceWorkspace workspace;
  size_t mismatches = 0;
  for (const auto& query : queries) {
    if (Bits(inferencer.InferQuery(query, &workspace)) !=
        Bits(toppriv::testing::DenseInferQuery(model, options, query))) {
      ++mismatches;
    }
  }
  return mismatches;
}

std::vector<InferenceOptions> OracleOptionSets() {
  InferenceOptions defaults;
  InferenceOptions short_run;
  short_run.iterations = 4;
  short_run.burn_in = 0;
  short_run.seed = 5;
  InferenceOptions single_sweep;
  single_sweep.iterations = 1;
  single_sweep.burn_in = 0;
  single_sweep.seed = 12345;
  return {defaults, short_run, single_sweep};
}

// A random model whose phi columns include the shapes the sparse sampler's
// block walk must get right: all-zero columns (the dense total is 0),
// single-topic columns, and scattered zeros.
LdaModel SyntheticModel(size_t num_topics, size_t vocab_size, double alpha,
                        uint64_t seed) {
  util::Rng rng(seed);
  std::vector<float> phi(num_topics * vocab_size);
  for (float& p : phi) {
    const double scale =
        std::pow(10.0, -static_cast<double>(rng.UniformInt(4)));
    p = rng.Bernoulli(0.3) ? 0.0f : static_cast<float>(rng.Uniform() * scale);
  }
  for (size_t t = 0; t < num_topics; ++t) {
    phi[t * vocab_size + 0] = 0.0f;                             // all zero
    phi[t * vocab_size + 1] = t + 1 == num_topics ? 0.7f : 0.0f;  // last only
    phi[t * vocab_size + 2] = t == 0 ? 0.3f : 0.0f;               // first only
  }
  return LdaModel::Create(num_topics, vocab_size, std::move(phi), {}, alpha,
                          0.01);
}

TEST(InferencerTest, MatchesDenseOracleBitForBit) {
  const auto& world = World();
  const LdaModel& model = world.model;
  std::vector<std::vector<text::TermId>> queries;
  for (const auto& q : world.workload) queries.push_back(q.term_ids);
  // Ghost-like queries: words drawn from each topic's phi row, at 1-3x the
  // length of a workload query.
  util::Rng rng(2024);
  for (size_t t = 0; t < model.num_topics(); ++t) {
    std::vector<double> cdf;
    double sum = 0.0;
    for (size_t w = 0; w < model.vocab_size(); ++w) {
      cdf.push_back(sum += model.Phi(static_cast<TopicId>(t),
                                     static_cast<text::TermId>(w)));
    }
    const size_t base = world.workload[t % world.workload.size()].term_ids.size();
    for (size_t scale = 1; scale <= 3; ++scale) {
      std::vector<text::TermId> ghost;
      for (size_t i = 0; i < std::max<size_t>(1, base) * scale; ++i) {
        ghost.push_back(static_cast<text::TermId>(rng.DiscreteFromCdf(cdf)));
      }
      queries.push_back(ghost);
    }
  }
  // Duplicate-token, out-of-vocabulary and single-token queries.
  const text::TermId oov = static_cast<text::TermId>(model.vocab_size());
  const std::vector<text::TermId>& first = world.workload[0].term_ids;
  queries.push_back({first[0], first[0], first[0], first[0]});
  queries.push_back({first[0], oov, first[0], oov + 7});
  queries.push_back({oov});
  queries.push_back({first[0]});
  queries.push_back({0});
  queries.push_back({static_cast<text::TermId>(model.vocab_size() - 1)});

  for (const InferenceOptions& options : OracleOptionSets()) {
    EXPECT_EQ(CountOracleMismatches(model, options, queries), 0u)
        << "iterations " << options.iterations;
  }
}

TEST(InferencerTest, MatchesDenseOracleOnSyntheticModels) {
  const size_t vocab_size = 12;
  util::Rng rng(77);
  std::vector<std::vector<text::TermId>> queries = {
      {0}, {1}, {2}, {0, 0, 0}, {1, 2, 1, 2}, {0, 1, 2}, {vocab_size + 1}};
  for (int q = 0; q < 40; ++q) {
    std::vector<text::TermId> query(1 + rng.UniformInt(12));
    for (text::TermId& term : query) {
      term = static_cast<text::TermId>(rng.UniformInt(vocab_size + 2));
    }
    queries.push_back(query);
  }
  for (size_t num_topics : {1, 15, 16, 17, 40}) {
    // Tiny and huge alphas push products into the subnormal range (at the
    // smallest, the dense total of a lone token underflows to 0 while the
    // block table's does not) or totals towards overflow, where the
    // sampler must take the dense path.
    for (double alpha : {0.1, 50.0 / static_cast<double>(num_topics), 1e-310,
                         std::numeric_limits<double>::denorm_min(), 1e300,
                         1e308}) {
      const LdaModel model =
          SyntheticModel(num_topics, vocab_size, alpha, 31 * num_topics);
      for (const InferenceOptions& options : OracleOptionSets()) {
        EXPECT_EQ(CountOracleMismatches(model, options, queries), 0u)
            << "T=" << num_topics << " alpha=" << alpha
            << " iterations=" << options.iterations;
      }
    }
  }
}

uint64_t ExactFallbacks() {
  for (const auto& c : util::MetricsRegistry::Default().Snap().counters) {
    if (c.name == "lda.exact_fallbacks") return c.value;
  }
  return 0;
}

// Continued-fraction convergents of the dyadic x = m / 2^k in (0, 1): the
// best a / q with q <= max_q, so that a / q is within about 1 / q^2 of x.
std::pair<uint64_t, uint64_t> BestRational(double x, uint64_t max_q) {
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // x = frac * 2^exp
  uint64_t num = static_cast<uint64_t>(std::ldexp(frac, 53));
  uint64_t den = uint64_t{1} << (53 - exp);  // needs x >= 2^-10
  uint64_t a0 = 0, a1 = 1, q0 = 1, q1 = 0;   // convergents n-2 and n-1
  while (den != 0) {
    const uint64_t step = num / den;
    if (q1 != 0 && step > (max_q - q0) / q1) break;  // next q > max_q
    const uint64_t q = step * q1 + q0;
    const uint64_t a = step * a1 + a0;
    a0 = a1, a1 = a, q0 = q1, q1 = q;
    const uint64_t rem = num - step * den;
    num = den, den = rem;
  }
  return {a1, q1};
}

TEST(InferencerTest, BoundaryDrawTakesExactPath) {
  // One word, two topics, all counts 0 at the draw: the dense CDF is
  // {p0, p0 + p1} with p_t = alpha * phi_t, and the draw picks topic 1
  // because r = u * (p0 + p1) lands exactly on p0. phi_0 / (phi_0 + phi_1)
  // approximates u to ~2^-48 (a continued-fraction convergent with a
  // 24-bit denominator); alpha is then nudged until r == p0 exactly and the
  // block table's total alpha * (phi_0 + phi_1) rounds below the dense
  // total, so an uncertified sparse pick would take topic 0.
  const std::vector<text::TermId> query = {0};
  InferenceOptions options;
  options.iterations = 1;
  options.burn_in = 0;
  bool found = false;
  float phi0 = 0.0f, phi1 = 0.0f;
  double alpha = 0.0;
  for (uint64_t seed = 1; seed < 5000 && !found; ++seed) {
    util::Rng rng(seed ^ toppriv::testing::OracleHashTerms(query));
    rng.UniformInt(2);  // the random init
    const double u = rng.Uniform();
    if (u < 0.25 || u > 0.75) continue;
    const auto [a, q] = BestRational(u, uint64_t{1} << 24);
    phi0 = std::ldexp(static_cast<float>(a), -24);
    phi1 = std::ldexp(static_cast<float>(q - a), -24);
    alpha = 0.1;
    for (int nudge = 0; nudge < 512 && !found; ++nudge) {
      alpha = std::nextafter(alpha, 1.0);
      const double p0 = alpha * phi0;
      const double dense_total = p0 + alpha * phi1;
      const double block_total =
          alpha * (static_cast<double>(phi0) + static_cast<double>(phi1));
      if (u * dense_total == p0 && u * block_total < p0) {
        options.seed = seed;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found) << "no boundary configuration in the search range";

  const LdaModel model = LdaModel::Create(2, 1, {phi0, phi1}, {}, alpha, 0.01);
  const uint64_t fallbacks_before = ExactFallbacks();
  const std::vector<double> posterior =
      LdaInferencer(model, options).InferQuery(query);
  const std::vector<double> expected =
      toppriv::testing::DenseInferQuery(model, options, query);
  EXPECT_EQ(Bits(posterior), Bits(expected));
  EXPECT_GT(expected[1], expected[0]);  // the dense draw took topic 1
#ifdef TOPPRIV_METRICS
  EXPECT_EQ(ExactFallbacks() - fallbacks_before, 1u);
#else
  (void)fallbacks_before;
#endif
}

TEST(InferencerTest, CyclePosteriorIsUniformMixture) {
  std::vector<std::vector<double>> posteriors = {
      {0.8, 0.1, 0.1},
      {0.2, 0.6, 0.2},
      {0.0, 0.3, 0.7},
  };
  std::vector<double> mix = LdaInferencer::CyclePosterior(posteriors);
  ASSERT_EQ(mix.size(), 3u);
  EXPECT_NEAR(mix[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mix[1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(mix[2], 1.0 / 3.0, 1e-12);
}

TEST(InferencerTest, CyclePosteriorSingleQueryIsIdentity) {
  std::vector<std::vector<double>> posteriors = {{0.25, 0.75}};
  EXPECT_EQ(LdaInferencer::CyclePosterior(posteriors), posteriors[0]);
}

TEST(InferencerTest, MoreGhostQueriesDiluteBoost) {
  // Adding unrelated queries to a cycle must shrink the genuine topics'
  // boost — the mechanism TopPriv relies on (Eq. 2).
  const auto& world = World();
  LdaInferencer inferencer(world.model);
  std::vector<double> genuine =
      inferencer.InferQuery(world.workload[0].term_ids);
  std::vector<double> other =
      inferencer.InferQuery(world.workload[1].term_ids);

  size_t top_topic = 0;
  for (size_t t = 1; t < genuine.size(); ++t) {
    if (genuine[t] > genuine[top_topic]) top_topic = t;
  }
  double solo_boost = genuine[top_topic] - world.model.prior()[top_topic];
  std::vector<double> mixed =
      LdaInferencer::CyclePosterior({genuine, other, other, other});
  double mixed_boost = mixed[top_topic] - world.model.prior()[top_topic];
  EXPECT_LT(mixed_boost, solo_boost * 0.5);
}

}  // namespace
}  // namespace toppriv::topicmodel
