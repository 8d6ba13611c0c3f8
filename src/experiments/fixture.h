// Shared experiment fixture: deterministically builds (and disk-caches) the
// synthetic corpus, the query workload, the inverted index and the six LDA
// models (LDA050..LDA300) that every bench binary consumes.
//
// Scale knobs come from the environment so the same binaries run in seconds
// on a laptop or at full scale:
//   TOPPRIV_DOCS        corpus size               (default 1500)
//   TOPPRIV_DOC_LEN     mean document length      (default 100)
//   TOPPRIV_TAIL_VOCAB  pseudo-word tail size     (default 3000)
//   TOPPRIV_QUERIES     workload size             (default 150, as the paper)
//   TOPPRIV_LDA_ITERS   Gibbs sweeps              (default 100)
//   TOPPRIV_CACHE_DIR   LDA model cache directory (default .toppriv_cache)
//   TOPPRIV_SHARDS      index shards for MakeEngine (default 1 = monolithic)
//   TOPPRIV_SHARD_THREADS  per-query shard fan-out threads (default 1 =
//                          sequential scatter)
//   TOPPRIV_LIVE_INGEST fraction of the corpus ingested up-front into a
//                          MakeLiveIndex live index (default 0.5); the
//                          rest streams in during the serving run
//   TOPPRIV_LIVE_EVAL_THREADS  per-query segment fan-out threads for the
//                          live serving phase (default 1 = sequential;
//                          0 = hardware concurrency)
//   TOPPRIV_DURABILITY  WAL mode for MakeLiveIndex indexes: off (default,
//                          in-memory), batch, refresh or manual. When on,
//                          the index is opened with LiveIndex::Recover()
//                          under <cache_dir>/live_wal (wiped per run so
//                          figures measure this run's ingest, not replay)
#ifndef TOPPRIV_EXPERIMENTS_FIXTURE_H_
#define TOPPRIV_EXPERIMENTS_FIXTURE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "corpus/generator.h"
#include "corpus/workload.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "index/sharded_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "topicmodel/gibbs_trainer.h"
#include "topicmodel/lda_model.h"

namespace toppriv::experiments {

/// Fixture configuration (see file comment for the environment knobs).
struct FixtureConfig {
  corpus::GeneratorParams corpus_params;
  corpus::WorkloadParams workload_params;
  size_t lda_iterations = 100;
  std::string cache_dir = ".toppriv_cache";
  /// Index shards MakeEngine uses; 1 builds a one-part (monolithic) engine.
  size_t num_shards = 1;
  /// Fan-out threads for MakeEngine's sharded engine (1 = sequential
  /// scatter on the caller's thread; 0 = hardware concurrency).
  size_t shard_threads = 1;
  /// Ignored: perfbench is its only user; the benchmark change of ROADMAP
  /// item 2 removes it.
  search::EvalStrategy eval_strategy = search::EvalStrategy::kTAAT;
  /// Fraction of the corpus a MakeLiveIndex live index ingests up-front
  /// (TOPPRIV_LIVE_INGEST, clamped to [0, 1]); the remainder is streamed
  /// during the serving run's mixed read/write phase.
  double live_ingest_upfront = 0.5;
  /// Per-query segment fan-out threads for live-serving benches
  /// (TOPPRIV_LIVE_EVAL_THREADS; 1 = sequential scatter on the caller's
  /// thread, 0 = hardware concurrency). Consumers pass it as the live
  /// SearchEngine's `num_threads`; the engine owns the pool.
  size_t live_eval_threads = 1;
  /// WAL sync discipline for MakeLiveIndex indexes (TOPPRIV_DURABILITY:
  /// off | batch | refresh | manual). Unset = in-memory, as before; set,
  /// MakeLiveIndex opens the index durably under <cache_dir>/live_wal so
  /// the serving benches measure the ingest path with logging + fsync on.
  std::optional<index::live::DurabilityPolicy> durability;

  /// Reads the TOPPRIV_* environment variables over the defaults.
  static FixtureConfig FromEnv();
};

/// The six model sizes the paper evaluates (LDA050 .. LDA300).
const std::vector<size_t>& PaperModelSizes();

/// Lazily-constructed experiment state. Everything is deterministic given
/// the config; LDA models are additionally cached on disk because training
/// dominates setup time.
class ExperimentFixture {
 public:
  explicit ExperimentFixture(FixtureConfig config = FixtureConfig::FromEnv());

  const FixtureConfig& config() const { return config_; }

  /// The synthetic corpus (generated on first use).
  const corpus::Corpus& corpus();
  /// Generative ground truth for the corpus.
  const corpus::GroundTruthModel& ground_truth();
  /// The TREC-substitute workload.
  const std::vector<corpus::BenchmarkQuery>& workload();
  /// Inverted index over the corpus.
  const index::InvertedIndex& index();
  /// Document-partitioned index with `num_shards` shards (built on first
  /// use, cached per shard count). The parity suite guarantees it answers
  /// queries identically to index().
  const index::ShardedIndex& sharded_index(size_t num_shards);
  /// Trained LDA model with `num_topics` topics (trains or loads cache).
  const topicmodel::LdaModel& model(size_t num_topics);

  /// A LiveIndex over the fixture corpus with the first
  /// round(upfront_fraction * num_docs) documents already ingested and
  /// published; the caller streams the remainder (the mixed read/write
  /// serving phase). The term space is pre-synced to the corpus
  /// vocabulary, so once everything is ingested the final snapshot's
  /// stats match the static index() bit for bit. The caller owns the
  /// returned index (and any merge pool wired into `options` must outlive
  /// it).
  std::unique_ptr<index::live::LiveIndex> MakeLiveIndex(
      double upfront_fraction,
      index::live::LiveIndexOptions options = index::live::LiveIndexOptions());

  /// Builds a query engine over the fixture corpus: a SearchEngine over
  /// index() when `num_shards` <= 1, over sharded_index(num_shards)
  /// otherwise (with `shard_threads` fan-out workers; 1 = sequential
  /// scatter). Every figure bench that takes its engine from here runs
  /// sharded by setting TOPPRIV_SHARDS — results are identical by the
  /// parity contract, so the figures are architecture-independent.
  /// `strategy` is ignored: perfbench is its only reader; the benchmark
  /// change of ROADMAP item 2 removes it.
  std::unique_ptr<search::QueryEngine> MakeEngine(
      std::unique_ptr<search::Scorer> scorer, size_t num_shards,
      size_t shard_threads = 1,
      std::optional<search::EvalStrategy> strategy = std::nullopt);
  /// Same, with the shard count from the config (TOPPRIV_SHARDS).
  std::unique_ptr<search::QueryEngine> MakeEngine(
      std::unique_ptr<search::Scorer> scorer);

  /// Human-readable model name, e.g. "LDA200".
  static std::string ModelName(size_t num_topics);

 private:
  void EnsureCorpus();
  std::string CacheKey(size_t num_topics) const;

  FixtureConfig config_;
  std::unique_ptr<corpus::Corpus> corpus_;
  corpus::GroundTruthModel ground_truth_;
  std::unique_ptr<std::vector<corpus::BenchmarkQuery>> workload_;
  std::unique_ptr<index::InvertedIndex> index_;
  std::map<size_t, std::unique_ptr<index::ShardedIndex>> sharded_;
  std::map<size_t, std::unique_ptr<topicmodel::LdaModel>> models_;
};

}  // namespace toppriv::experiments

#endif  // TOPPRIV_EXPERIMENTS_FIXTURE_H_
