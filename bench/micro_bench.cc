// Microbenchmarks for the hot paths: index construction, posting-list
// decoding (iterator and block-batch), query evaluation under both
// strategies (TAAT and MaxScore), live-index ingest (docs/s vs batch
// size), segment merging, LDA query inference and ghost generation.
// Complements the figure-level benches with per-operation numbers (the
// paper's Figs. 2d/3d report end-to-end generation time; these break it
// down).
//
// Requires Google Benchmark; bench/CMakeLists.txt skips this binary when
// the library is missing.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "corpus/generator.h"
#include "corpus/workload.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "index/live/wal.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "topicmodel/gibbs_trainer.h"
#include "topicmodel/inference.h"
#include "toppriv/ghost_generator.h"
#include "util/filesystem.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace {

using namespace toppriv;

// Small shared world, built once (kept deliberately modest so the micro
// bench binary stays fast).
struct MicroWorld {
  corpus::Corpus corpus;
  corpus::GroundTruthModel truth;
  index::InvertedIndex index;
  topicmodel::LdaModel model;
  std::vector<corpus::BenchmarkQuery> workload;
  text::TermId hottest = 0;  // longest posting list
};

const MicroWorld& World() {
  static const MicroWorld* world = [] {
    auto* w = new MicroWorld();
    corpus::GeneratorParams params;
    params.num_docs = 800;
    params.mean_doc_length = 100;
    params.tail_vocab_size = 1500;
    w->corpus = corpus::CorpusGenerator(params).Generate(&w->truth);
    w->index = index::InvertedIndex::Build(w->corpus);
    topicmodel::TrainerOptions options;
    options.num_topics = 100;
    options.iterations = 40;
    w->model = topicmodel::GibbsTrainer(options).Train(w->corpus);
    corpus::WorkloadParams wp;
    wp.num_queries = 50;
    w->workload =
        corpus::WorkloadGenerator(w->corpus, w->truth, wp).Generate();
    for (text::TermId t = 0; t < w->index.num_terms(); ++t) {
      if (w->index.DocFreq(t) > w->index.DocFreq(w->hottest)) w->hottest = t;
    }
    return w;
  }();
  return *world;
}

// ----------------------------------------------------------- the kernels --
// Each returns a checksum so neither harness can dead-code-eliminate it.

uint64_t KernelIndexBuild() {
  const auto& world = World();
  index::InvertedIndex index = index::InvertedIndex::Build(world.corpus);
  return index.num_terms();
}

uint64_t KernelPostingIteratorScan() {
  // Posting-at-a-time Iterator walk of the hottest list (the seed's only
  // decode path; now a compatibility wrapper over block decoding).
  const auto& world = World();
  const index::PostingList& list = world.index.Postings(world.hottest);
  uint64_t sum = 0;
  for (auto it = list.begin(); it.Valid(); it.Next()) {
    sum += it.Get().doc + it.Get().tf;
  }
  return sum;
}

uint64_t KernelPostingBlockDecode() {
  // Block-batch decode of the hottest list: what the evaluators actually
  // run. Compare against KernelPostingIteratorScan for the batching win.
  const auto& world = World();
  const index::PostingList& list = world.index.Postings(world.hottest);
  index::PostingBlock block;
  uint64_t sum = 0;
  for (size_t b = 0; b < list.num_blocks(); ++b) {
    list.DecodeBlock(b, &block);
    for (uint32_t i = 0; i < block.count; ++i) {
      sum += block.docs[i] + block.tfs[i];
    }
  }
  return sum;
}

uint64_t KernelLiveIngest(size_t batch_size) {
  // Streams the whole corpus into a fresh LiveIndex in `batch_size`-doc
  // batches, publishing (Refresh) after each — the docs/s number the
  // serving layer's mixed read/write phase is bounded by. Small batches
  // pay per-publish snapshot rebuilds; large ones amortize them.
  const auto& world = World();
  index::live::LiveIndex live;
  live.EnsureTermSpace(world.corpus.vocabulary_size());
  index::live::StreamCorpus(world.corpus, 0, world.corpus.num_documents(),
                            batch_size, &live);
  return live.num_segments() + live.Acquire()->num_documents();
}

uint64_t KernelSegmentMerge() {
  // Ingest at 64-doc seals with tiered merging disabled, then ForceMerge
  // the ~13 segments into one. Compare against KernelLiveIngest to
  // isolate the merge cost from the ingest cost.
  const auto& world = World();
  index::live::LiveIndexOptions options;
  options.max_writer_docs = 64;
  options.merge_factor = 1000;  // no auto merges; the ForceMerge is timed
  index::live::LiveIndex live(options);
  live.EnsureTermSpace(world.corpus.vocabulary_size());
  index::live::StreamCorpus(world.corpus, 0, world.corpus.num_documents(),
                            world.corpus.num_documents(), &live);
  live.ForceMerge();
  return live.num_segments() + live.Acquire()->ComputeStats().total_postings;
}

uint64_t KernelWalAppend(size_t sync_every) {
  // Appends 2000 ingest-sized records to an in-memory WAL (the
  // fault-injecting file system doubles as an allocation-only backend so
  // this measures encode + CRC + append, not the disk), syncing every
  // `sync_every` records (0 = once at the end). Maps onto the durability
  // policies: 1 ~ kPerBatch, 16 ~ kPerRefresh at 16-doc batches, 0 ~
  // kManual — the records/s ceiling each policy pays for.
  constexpr size_t kRecords = 2000;
  util::FaultInjectingFileSystem fs;
  auto writer =
      index::live::WalWriter::Create(&fs, "bench-wal", /*generation=*/1,
                                     /*base_seq=*/0);
  if (!writer.ok()) return 0;
  index::live::WalRecord record;
  record.type = index::live::WalRecordType::kIngest;
  record.docs = {{1, 2, 3, 5, 8, 13, 21, 34}, {2, 7, 18, 28}};
  for (size_t i = 0; i < kRecords; ++i) {
    if (!(*writer)->Append(&record).ok()) return 0;
    if (sync_every != 0 && (i + 1) % sync_every == 0) {
      if (!(*writer)->Sync().ok()) return 0;
    }
  }
  if (!(*writer)->Sync().ok()) return 0;
  return (*writer)->next_seq();
}

uint64_t KernelIdleRefresh(size_t live_docs) {
  // Regression guard for the idle-Refresh WAL leak: a durable index with
  // `live_docs` single-doc segments takes 256 Refresh() calls with an
  // empty writer. Post-fix these log nothing and sync nothing (the
  // checksum folds in the file-system op delta, which must be zero), so
  // the time is ~flat in `live_docs`; pre-fix every call appended a seal
  // record and paid an fsync, growing the WAL without bound.
  util::FaultInjectingFileSystem fs;
  const auto& world = World();
  index::live::LiveIndexOptions options;
  options.max_writer_docs = 1;  // every doc seals its own segment
  options.merge_factor = 1000;  // keep them all: many-segment publishes
  options.durability = index::live::DurabilityPolicy::kPerRefresh;
  auto live = index::live::LiveIndex::Recover(&fs, "bench-live", options);
  if (!live.ok()) return 0;
  (*live)->EnsureTermSpace(world.corpus.vocabulary_size());
  std::vector<std::vector<text::TermId>> batch;
  for (size_t d = 0; d < live_docs; ++d) {
    batch.push_back(
        world.corpus.documents()[d % world.corpus.num_documents()].tokens);
  }
  (*live)->Ingest(batch);
  (*live)->Refresh();
  const uint64_t ops_before = fs.op_count();
  for (size_t i = 0; i < 256; ++i) (*live)->Refresh();
  return (*live)->Acquire()->num_documents() + (fs.op_count() - ops_before);
}

uint64_t KernelWalGroupCommit(size_t num_threads) {
  // Group-commit throughput: `num_threads` writers each ingest 64
  // single-doc batches under kPerBatch (every ack requires the record
  // durable before Ingest returns). Leader/follower syncing lets
  // concurrent writers share one fsync, so acked writes/s scales with the
  // writer count instead of serializing on the sync.
  constexpr size_t kWritesPerThread = 64;
  util::FaultInjectingFileSystem fs;
  const auto& world = World();
  index::live::LiveIndexOptions options;
  options.max_writer_docs = 8;
  options.merge_factor = 1000;
  options.durability = index::live::DurabilityPolicy::kPerBatch;
  auto live = index::live::LiveIndex::Recover(&fs, "bench-live", options);
  if (!live.ok()) return 0;
  (*live)->EnsureTermSpace(world.corpus.vocabulary_size());
  std::atomic<uint64_t> acked{0};
  std::vector<std::thread> writers;
  for (size_t w = 0; w < num_threads; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = 0; i < kWritesPerThread; ++i) {
        const auto& doc =
            world.corpus
                .documents()[(w * kWritesPerThread + i) %
                             world.corpus.num_documents()]
                .tokens;
        acked.fetch_add((*live)->Ingest({doc}).size(),
                        std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  (*live)->Refresh();
  return acked.load() + (*live)->Acquire()->num_documents();
}

uint64_t KernelQueryEvaluation(search::SearchEngine& engine, size_t* qi) {
  const auto& world = World();
  const auto& q = world.workload[*qi % world.workload.size()];
  ++*qi;
  return engine.Evaluate(q.term_ids, 10).size();
}

constexpr size_t kCounterOpsPerCall = 65536;

uint64_t KernelMetricsCounter() {
  // 64Ki striped-counter increments through the instrumentation macro —
  // the cost every enabled counter site pays. In a TOPPRIV_METRICS=OFF
  // build the macro vanishes and this times the bare checksum loop, so
  // the ON-vs-OFF delta IS the per-increment overhead.
  uint64_t sum = 0;
  for (size_t i = 0; i < kCounterOpsPerCall; ++i) {
    TOPPRIV_COUNTER_ADD("bench.metrics_counter", 1);
    sum += i & 7;
  }
  return sum;
}

uint64_t KernelInstrumentedQuery(search::SearchEngine& engine, size_t* qi) {
  // KernelQueryEvaluation plus the full per-query instrumentation set a
  // serving cycle attaches: one trace span and one latency histogram
  // observation. The delta against QueryEvaluation/maxscore is the
  // instrumentation overhead; nothing gates that delta automatically —
  // tools/bench_compare.py only compares each cell with its own baseline
  // (the 10% threshold), so read the two cells side by side.
  TOPPRIV_TRACE_SPAN(span, "bench.query");
  TOPPRIV_SCOPED_TIMER_US("bench.query_latency_us");
  return KernelQueryEvaluation(engine, qi);
}

uint64_t KernelLdaInference(const topicmodel::LdaInferencer& inferencer,
                            size_t* qi) {
  const auto& world = World();
  const auto& q = world.workload[*qi % world.workload.size()];
  ++*qi;
  return inferencer.InferQuery(q.term_ids).size();
}

void BM_IndexBuild(benchmark::State& state) {
  const auto& world = World();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelIndexBuild());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(world.corpus.total_tokens()));
}
BENCHMARK(BM_IndexBuild)->Unit(benchmark::kMillisecond);

void BM_PostingIteratorScan(benchmark::State& state) {
  const auto& world = World();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelPostingIteratorScan());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(world.index.Postings(world.hottest).size()));
}
BENCHMARK(BM_PostingIteratorScan);

void BM_PostingBlockDecode(benchmark::State& state) {
  const auto& world = World();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelPostingBlockDecode());
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(world.index.Postings(world.hottest).size()));
}
BENCHMARK(BM_PostingBlockDecode);

void BM_LiveIngest(benchmark::State& state) {
  // Arg: ingest batch size; items/s is the docs/s ingest throughput.
  const auto& world = World();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KernelLiveIngest(static_cast<size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(world.corpus.num_documents()));
}
BENCHMARK(BM_LiveIngest)
    ->Arg(1)
    ->Arg(16)
    ->Arg(128)
    ->Arg(800)
    ->Unit(benchmark::kMillisecond);

void BM_SegmentMerge(benchmark::State& state) {
  const auto& world = World();
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelSegmentMerge());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(world.corpus.num_documents()));
}
BENCHMARK(BM_SegmentMerge)->Unit(benchmark::kMillisecond);

void BM_WalAppend(benchmark::State& state) {
  // Arg: records per Sync (0 = one Sync at the end); items/s is the WAL's
  // records/s ceiling under that fsync cadence.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KernelWalAppend(static_cast<size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_WalAppend)
    ->Arg(1)
    ->Arg(16)
    ->Arg(0)
    ->Unit(benchmark::kMicrosecond);

void BM_LiveRefresh(benchmark::State& state) {
  // Arg: live single-doc segments under the 256 idle Refresh calls. The
  // idle-Refresh fix makes this ~flat across args and across history;
  // items/s is idle refreshes per second.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KernelIdleRefresh(static_cast<size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_LiveRefresh)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_WalGroupCommit(benchmark::State& state) {
  // Arg: concurrent kPerBatch writers; items/s is acked durable writes/s.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        KernelWalGroupCommit(static_cast<size_t>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_WalGroupCommit)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_QueryEvaluation(benchmark::State& state) {
  // Arg 0: 0 = TAAT, 1 = MaxScore — the strategy comparison in one chart.
  const auto& world = World();
  search::SearchEngine engine(world.corpus, world.index,
                              search::MakeBm25Scorer(),
                              state.range(0) == 0
                                  ? search::EvalStrategy::kTAAT
                                  : search::EvalStrategy::kMaxScore);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelQueryEvaluation(engine, &qi));
  }
}
BENCHMARK(BM_QueryEvaluation)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

void BM_MetricsCounter(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelMetricsCounter());
  }
  // items/s = counter increments per second.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCounterOpsPerCall));
}
BENCHMARK(BM_MetricsCounter)->Unit(benchmark::kMicrosecond);

void BM_InstrumentedQuery(benchmark::State& state) {
  const auto& world = World();
  search::SearchEngine engine(world.corpus, world.index,
                              search::MakeBm25Scorer(),
                              search::EvalStrategy::kMaxScore);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelInstrumentedQuery(engine, &qi));
  }
}
BENCHMARK(BM_InstrumentedQuery)->Unit(benchmark::kMicrosecond);

void BM_LdaInference(benchmark::State& state) {
  const auto& world = World();
  topicmodel::LdaInferencer inferencer(world.model);
  size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(KernelLdaInference(inferencer, &qi));
  }
}
BENCHMARK(BM_LdaInference)->Unit(benchmark::kMicrosecond);

void BM_GhostGeneration(benchmark::State& state) {
  const auto& world = World();
  topicmodel::LdaInferencer inferencer(world.model);
  core::PrivacySpec spec;
  spec.epsilon2 = static_cast<double>(state.range(0)) / 1000.0;
  core::GhostQueryGenerator generator(world.model, inferencer, spec);
  util::Rng rng(1);
  size_t qi = 0;
  double total_cycle_len = 0.0;
  size_t cycles = 0;
  for (auto _ : state) {
    const auto& q = world.workload[qi % world.workload.size()];
    core::QueryCycle cycle = generator.Protect(q.term_ids, &rng);
    benchmark::DoNotOptimize(cycle.length());
    total_cycle_len += static_cast<double>(cycle.length());
    ++cycles;
    ++qi;
  }
  state.counters["avg_cycle_len"] =
      cycles > 0 ? total_cycle_len / static_cast<double>(cycles) : 0.0;
}
BENCHMARK(BM_GhostGeneration)
    ->Arg(10)   // eps2 = 1%
    ->Arg(30)   // eps2 = 3%
    ->Unit(benchmark::kMillisecond);

void BM_GibbsTrainingSweep(benchmark::State& state) {
  const auto& world = World();
  topicmodel::TrainerOptions options;
  options.num_topics = static_cast<size_t>(state.range(0));
  options.iterations = 2;
  options.estimation_samples = 1;
  for (auto _ : state) {
    topicmodel::GibbsTrainer trainer(options);
    benchmark::DoNotOptimize(trainer.Train(world.corpus).num_topics());
  }
  state.SetItemsProcessed(
      state.iterations() * 2 *
      static_cast<int64_t>(world.corpus.total_tokens()));
}
BENCHMARK(BM_GibbsTrainingSweep)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
