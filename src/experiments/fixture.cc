#include "experiments/fixture.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"
#include "util/filesystem.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/strings.h"
#include "util/timer.h"

namespace toppriv::experiments {

namespace {

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

std::string EnvString(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

double EnvFraction(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v) return fallback;
  return std::min(1.0, std::max(0.0, parsed));
}

std::optional<index::live::DurabilityPolicy> EnvDurability(const char* name) {
  const std::string v = EnvString(name, "off");
  if (v == "off") return std::nullopt;
  if (v == "batch") return index::live::DurabilityPolicy::kPerBatch;
  if (v == "refresh") return index::live::DurabilityPolicy::kPerRefresh;
  if (v == "manual") return index::live::DurabilityPolicy::kManual;
  std::fprintf(stderr,
               "[fixture] unknown %s='%s' (want off|batch|refresh|manual); "
               "running in-memory\n",
               name, v.c_str());
  return std::nullopt;
}

// FNV-1a over a byte string, for cache keys.
uint64_t HashBytes(const std::string& s) {
  uint64_t h = util::kFnv1aOffsetBasis;
  for (unsigned char c : s) h = util::Fnv1aStep(h, c);
  return h;
}

}  // namespace

FixtureConfig FixtureConfig::FromEnv() {
  FixtureConfig config;
  config.corpus_params.num_docs = EnvSize("TOPPRIV_DOCS", 1500);
  config.corpus_params.mean_doc_length =
      static_cast<double>(EnvSize("TOPPRIV_DOC_LEN", 100));
  config.corpus_params.tail_vocab_size = EnvSize("TOPPRIV_TAIL_VOCAB", 3000);
  config.workload_params.num_queries = EnvSize("TOPPRIV_QUERIES", 150);
  config.lda_iterations = EnvSize("TOPPRIV_LDA_ITERS", 100);
  config.cache_dir = EnvString("TOPPRIV_CACHE_DIR", ".toppriv_cache");
  config.num_shards = EnvSize("TOPPRIV_SHARDS", 1);
  config.shard_threads = EnvSize("TOPPRIV_SHARD_THREADS", 1);
  config.live_ingest_upfront = EnvFraction("TOPPRIV_LIVE_INGEST", 0.5);
  config.live_eval_threads = EnvSize("TOPPRIV_LIVE_EVAL_THREADS", 1);
  config.durability = EnvDurability("TOPPRIV_DURABILITY");
  return config;
}

const std::vector<size_t>& PaperModelSizes() {
  static const std::vector<size_t>* kSizes =
      new std::vector<size_t>{50, 100, 150, 200, 250, 300};
  return *kSizes;
}

ExperimentFixture::ExperimentFixture(FixtureConfig config)
    : config_(std::move(config)) {}

void ExperimentFixture::EnsureCorpus() {
  if (corpus_ != nullptr) return;
  util::WallTimer timer;
  corpus::CorpusGenerator generator(config_.corpus_params);
  corpus_ = std::make_unique<corpus::Corpus>(generator.Generate(&ground_truth_));
  std::fprintf(stderr,
               "[fixture] corpus: %zu docs, %zu terms, %llu tokens (%.1fs)\n",
               corpus_->num_documents(), corpus_->vocabulary_size(),
               static_cast<unsigned long long>(corpus_->total_tokens()),
               timer.ElapsedSeconds());
}

const corpus::Corpus& ExperimentFixture::corpus() {
  EnsureCorpus();
  return *corpus_;
}

const corpus::GroundTruthModel& ExperimentFixture::ground_truth() {
  EnsureCorpus();
  return ground_truth_;
}

const std::vector<corpus::BenchmarkQuery>& ExperimentFixture::workload() {
  if (workload_ == nullptr) {
    EnsureCorpus();
    corpus::WorkloadGenerator generator(*corpus_, ground_truth_,
                                        config_.workload_params);
    workload_ = std::make_unique<std::vector<corpus::BenchmarkQuery>>(
        generator.Generate());
  }
  return *workload_;
}

const index::InvertedIndex& ExperimentFixture::index() {
  if (index_ == nullptr) {
    EnsureCorpus();
    index_ = std::make_unique<index::InvertedIndex>(
        index::InvertedIndex::Build(*corpus_));
  }
  return *index_;
}

const index::ShardedIndex& ExperimentFixture::sharded_index(
    size_t num_shards) {
  auto it = sharded_.find(num_shards);
  if (it != sharded_.end()) return *it->second;
  EnsureCorpus();
  // Shard construction fans out over a transient pool (shards are
  // independent doc ranges; the pooled build is bit-identical to the
  // serial one — sharding_test asserts it).
  std::unique_ptr<util::ThreadPool> pool;
  const size_t hw = util::ThreadPool::HardwareConcurrency();
  if (num_shards > 1 && hw > 1) {
    pool = std::make_unique<util::ThreadPool>(std::min(num_shards, hw));
  }
  auto owned = std::make_unique<index::ShardedIndex>(
      index::ShardedIndex::Build(*corpus_, num_shards, pool.get()));
  const index::ShardedIndex& ref = *owned;
  sharded_.emplace(num_shards, std::move(owned));
  return ref;
}

std::unique_ptr<index::live::LiveIndex> ExperimentFixture::MakeLiveIndex(
    double upfront_fraction, index::live::LiveIndexOptions options) {
  EnsureCorpus();
  std::unique_ptr<index::live::LiveIndex> live;
  if (config_.durability.has_value()) {
    options.durability = *config_.durability;
    util::FileSystem* fs = util::GetRealFileSystem();
    const std::string dir = config_.cache_dir + "/live_wal";
    // Each run measures its own ingest: drop the previous run's log so
    // Recover() opens a fresh generation instead of replaying stale docs.
    if (auto names = fs->List(dir); names.ok()) {
      for (const std::string& name : *names) fs->Remove(dir + "/" + name);
    }
    auto recovered = index::live::LiveIndex::Recover(fs, dir, options);
    TOPPRIV_CHECK(recovered.ok());
    live = std::move(*recovered);
  } else {
    live = std::make_unique<index::live::LiveIndex>(options);
  }
  live->EnsureTermSpace(corpus_->vocabulary_size());
  const double f = std::min(1.0, std::max(0.0, upfront_fraction));
  const size_t upfront = static_cast<size_t>(
      f * static_cast<double>(corpus_->num_documents()) + 0.5);
  // The up-front load is one batch; Refresh() regardless so even an empty
  // live index publishes its (vocabulary-synced) term space.
  index::live::StreamCorpus(*corpus_, 0, upfront,
                            std::max<size_t>(1, upfront), live.get());
  live->Refresh();
  return live;
}

std::unique_ptr<search::QueryEngine> ExperimentFixture::MakeEngine(
    std::unique_ptr<search::Scorer> scorer, size_t num_shards,
    size_t shard_threads, std::optional<search::EvalStrategy> /*strategy*/) {
  if (num_shards <= 1) {
    return std::make_unique<search::SearchEngine>(corpus(), index(),
                                                  std::move(scorer));
  }
  return std::make_unique<search::SearchEngine>(
      corpus(), sharded_index(num_shards), std::move(scorer), shard_threads);
}

std::unique_ptr<search::QueryEngine> ExperimentFixture::MakeEngine(
    std::unique_ptr<search::Scorer> scorer) {
  return MakeEngine(std::move(scorer), config_.num_shards,
                    config_.shard_threads);
}

std::string ExperimentFixture::CacheKey(size_t num_topics) const {
  const corpus::GeneratorParams& p = config_.corpus_params;
  std::string descriptor = util::StrFormat(
      "docs=%zu len=%.1f tail=%zu alpha=%.4f seed=%llu iters=%zu topics=%zu",
      p.num_docs, p.mean_doc_length, p.tail_vocab_size, p.doc_topic_alpha,
      static_cast<unsigned long long>(p.seed), config_.lda_iterations,
      num_topics);
  return util::StrFormat("%s/lda%03zu_%016llx.bin", config_.cache_dir.c_str(),
                         num_topics,
                         static_cast<unsigned long long>(HashBytes(descriptor)));
}

const topicmodel::LdaModel& ExperimentFixture::model(size_t num_topics) {
  auto it = models_.find(num_topics);
  if (it != models_.end()) return *it->second;

  EnsureCorpus();
  const std::string path = CacheKey(num_topics);
  if (util::FileExists(path)) {
    auto bytes = util::ReadFileToString(path);
    if (bytes.ok()) {
      auto model = topicmodel::LdaModel::Deserialize(bytes.value());
      if (model.ok() && model->vocab_size() == corpus_->vocabulary_size()) {
        auto owned = std::make_unique<topicmodel::LdaModel>(
            std::move(model).value());
        const topicmodel::LdaModel& ref = *owned;
        models_.emplace(num_topics, std::move(owned));
        std::fprintf(stderr, "[fixture] %s: loaded from cache\n",
                     ModelName(num_topics).c_str());
        return ref;
      }
    }
  }

  util::WallTimer timer;
  topicmodel::TrainerOptions options;
  options.num_topics = num_topics;
  options.iterations = config_.lda_iterations;
  options.seed = 7000 + num_topics;
  topicmodel::GibbsTrainer trainer(options);
  auto owned =
      std::make_unique<topicmodel::LdaModel>(trainer.Train(*corpus_));
  std::fprintf(stderr, "[fixture] %s: trained in %.1fs\n",
               ModelName(num_topics).c_str(), timer.ElapsedSeconds());

  // Best-effort cache write.
  if (util::MakeDirs(config_.cache_dir).ok()) {
    util::Status status = util::WriteFile(path, owned->Serialize());
    if (!status.ok()) {
      std::fprintf(stderr, "[fixture] cache write failed: %s\n",
                   status.ToString().c_str());
    }
  }

  const topicmodel::LdaModel& ref = *owned;
  models_.emplace(num_topics, std::move(owned));
  return ref;
}

std::string ExperimentFixture::ModelName(size_t num_topics) {
  return util::StrFormat("LDA%03zu", num_topics);
}

}  // namespace toppriv::experiments
