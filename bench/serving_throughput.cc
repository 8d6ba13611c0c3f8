// Serving-layer throughput: runs N independent TopPriv user sessions
// through serving::SessionDriver and reports cycles/sec and queries/sec
// (the product metrics — the paper's Fig. 2d reports per-cycle generation
// time; a deployment must also sustain many users at once).
//
// The grid sweeps shard count × driver threads: K ∈ {1, 2, 4} index
// shards (K = 1 is a one-part SearchEngine over the monolithic index,
// K > 1 a driver-shared engine over the shard fleet) at 1, 4 and
// hardware-concurrency worker threads. Session digests must be identical
// across EVERY cell — thread counts AND shard counts — which is the
// serving-layer face of the bit-parity invariant.
//
// A second, retrieval-only phase replays the raw benchmark workload
// through each shard count's engine with no privacy layer in the loop,
// isolating evaluator throughput (in the session phase, ghost generation
// shares the wall clock and dilutes it).
//
// A third, mixed read/write phase runs the session fleet over a live
// SearchEngine while a writer thread streams the rest of the corpus
// into the LiveIndex (TOPPRIV_LIVE_INGEST = fraction ingested up-front,
// default 0.5) with background merges on a shared pool — the dynamic
// corpus under live query load the static engines cannot model. Mid-run
// results are snapshot-timing-dependent by nature, so the phase's gate is
// CONVERGENCE: after ingest completes, a workload replay over the live
// engine must produce the bit-identical digest of the static K=1 engine
// replay; a mismatch fails the binary (and with it the CI perf-smoke
// step).
//
// `--smoke` shrinks the fixture to a tiny corpus/model so CI can keep this
// binary from bit-rotting in a few seconds; explicit TOPPRIV_* environment
// variables still win over the smoke defaults. `--json <path>` emits the
// whole grid as a stable machine-readable summary (CI uploads it as
// BENCH_serving.json, the perf trajectory artifact).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiments/fixture.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "topicmodel/inference.h"
#include "util/hash.h"
#include "util/io.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

using namespace toppriv;
using experiments::ExperimentFixture;

namespace {

/// Version of this binary's --json document layout. Bump when cells gain,
/// lose or rename fields; tools/bench_compare.py warns (never fails) on
/// skew against the committed baseline.
constexpr uint64_t kJsonSchemaVersion = 3;

size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  long parsed = std::strtol(v, nullptr, 10);
  return parsed > 0 ? static_cast<size_t>(parsed) : fallback;
}

struct ServingCell {
  size_t shards = 0;
  size_t threads = 0;
  serving::ServingReport report;
  double generation_seconds = 0.0;
  uint64_t digest = 0;
};

struct RetrievalCell {
  size_t shards = 0;
  size_t queries = 0;
  double wall_seconds = 0.0;
  double queries_per_second = 0.0;
  uint64_t digest = 0;
};

struct LiveCell {
  size_t threads = 0;
  size_t eval_threads = 1;
  size_t upfront_docs = 0;
  size_t streamed_docs = 0;
  double ingest_wall_seconds = 0.0;
  double ingest_docs_per_second = 0.0;
  size_t final_segments = 0;
  serving::ServingReport report;
  bool parity_with_static = false;
};

struct OpenLoopCell {
  /// "under" (0.5x measured closed-loop capacity) or "over" (4x).
  const char* load = "under";
  double arrival_qps = 0.0;
  serving::OpenLoopReport report;
};

uint64_t HashResults(uint64_t h, const std::vector<search::ScoredDoc>& docs) {
  for (const search::ScoredDoc& sd : docs) {
    h = util::Fnv1aStep(h, sd.doc);
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(sd.score), "double is 64-bit");
    std::memcpy(&bits, &sd.score, sizeof(bits));
    h = util::Fnv1aStep(h, bits);
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_path = argv[i] + 12;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json <path>] [--trace-out=<path>]\n",
                   argv[0]);
      return 2;
    }
  }
  // Spans record only while a global sink is installed; without
  // --trace-out every TOPPRIV_TRACE_SPAN stays inert (null sink).
  std::unique_ptr<util::TraceSink> trace_sink;
  if (!trace_path.empty()) {
    trace_sink = std::make_unique<util::TraceSink>(/*capacity=*/8192);
    util::TraceSink::SetGlobal(trace_sink.get());
  }
  if (smoke) {
    // Tiny corpus/model; pre-set env vars still take precedence.
    ::setenv("TOPPRIV_DOCS", "250", /*overwrite=*/0);
    ::setenv("TOPPRIV_DOC_LEN", "60", 0);
    ::setenv("TOPPRIV_TAIL_VOCAB", "500", 0);
    ::setenv("TOPPRIV_QUERIES", "24", 0);
    ::setenv("TOPPRIV_LDA_ITERS", "30", 0);
  }
  const size_t num_topics =
      EnvSize("TOPPRIV_SERVING_TOPICS", smoke ? 50 : 100);
  const size_t num_sessions =
      EnvSize("TOPPRIV_SERVING_SESSIONS", smoke ? 4 : 16);
  const size_t queries_per_session =
      EnvSize("TOPPRIV_SERVING_QPS", smoke ? 3 : 8);
  // Retrieval-only replay size (total query evaluations per cell).
  const size_t eval_target =
      EnvSize("TOPPRIV_EVAL_TARGET", smoke ? 3000 : 30000);

  ExperimentFixture fixture;
  const topicmodel::LdaModel& model = fixture.model(num_topics);
  topicmodel::LdaInferencer inferencer(model);

  // Cycle the benchmark workload so every session gets a full query stream.
  std::vector<std::vector<text::TermId>> queries;
  queries.reserve(num_sessions * queries_per_session);
  const auto& workload = fixture.workload();
  for (size_t i = 0; i < num_sessions * queries_per_session; ++i) {
    queries.push_back(workload[i % workload.size()].term_ids);
  }
  std::vector<serving::SessionWorkload> sessions =
      serving::DealSessions(queries, num_sessions);

  // Always run the 4-thread row, even on fewer cores: oversubscription
  // still exercises the pool path and the cross-thread-count determinism
  // check (the speedup column just reads ~1x there).
  const size_t hw = util::ThreadPool::HardwareConcurrency();
  std::vector<size_t> thread_counts = {1, 4};
  if (hw != 4 && hw != 1) thread_counts.push_back(hw);
  const std::vector<size_t> shard_counts = {1, 2, 4};

  // One engine (shard fleet) per shard count, shared by every session at
  // every driver thread count AND reused by the retrieval replay below —
  // the deployment shape: the fleet is a server resource, sessions are
  // traffic. TOPPRIV_SHARD_THREADS>1 additionally fans each query's shard
  // evaluations out on the engine's private pool (stacked parallelism;
  // digests must stay identical).
  struct EngineCell {
    size_t shards;
    std::unique_ptr<search::QueryEngine> engine;
  };
  std::vector<EngineCell> engines;
  for (size_t num_shards : shard_counts) {
    engines.push_back(EngineCell{
        num_shards, fixture.MakeEngine(search::MakeBm25Scorer(), num_shards,
                                       fixture.config().shard_threads)});
  }

  // ------------------------------------------------- session-driver phase --
  std::vector<ServingCell> serving_cells;
  uint64_t reference_digest = 0;
  bool have_reference = false;
  bool deterministic = true;
  double base_cps = 0.0;
  for (const EngineCell& ec : engines) {
    for (size_t threads : thread_counts) {
      serving::DriverOptions options;
      options.num_threads = threads;
      options.seed = 42;
      serving::SessionDriver driver(model, inferencer, *ec.engine, options);

      ServingCell cell;
      cell.shards = ec.shards;
      cell.threads = threads;
      cell.report = driver.Run(sessions);
      for (const serving::SessionStats& s : cell.report.sessions) {
        cell.digest ^= s.digest;
        cell.generation_seconds += s.generation_seconds;
      }
      if (!have_reference) {
        reference_digest = cell.digest;
        have_reference = true;
        base_cps = cell.report.cycles_per_second;
      } else if (cell.digest != reference_digest) {
        deterministic = false;
      }
      serving_cells.push_back(std::move(cell));
    }
  }

  // ---------------------------------------------- retrieval-only replay --
  const size_t reps =
      std::max<size_t>(1, eval_target / std::max<size_t>(1, workload.size()));
  std::vector<RetrievalCell> retrieval_cells;
  uint64_t eval_reference = 0;
  bool have_eval_reference = false;
  for (const EngineCell& ec : engines) {
    RetrievalCell cell;
    cell.shards = ec.shards;
    uint64_t digest = util::kFnv1aOffsetBasis;
    util::WallTimer timer;
    for (size_t r = 0; r < reps; ++r) {
      for (const corpus::BenchmarkQuery& q : workload) {
        std::vector<search::ScoredDoc> results =
            ec.engine->Evaluate(q.term_ids, 10);
        // Digest every pass identically so reps do not mask divergence.
        digest = HashResults(digest, results);
        ++cell.queries;
      }
    }
    cell.wall_seconds = timer.ElapsedSeconds();
    cell.digest = digest;
    cell.queries_per_second =
        cell.wall_seconds > 0.0
            ? static_cast<double>(cell.queries) / cell.wall_seconds
            : 0.0;
    if (!have_eval_reference) {
      eval_reference = digest;
      have_eval_reference = true;
    } else if (digest != eval_reference) {
      deterministic = false;
    }
    retrieval_cells.push_back(cell);
  }

  // ---------------------------------------------- mixed read/write phase --
  // Sessions serve over a live SearchEngine while a writer streams the
  // remaining corpus in; background merges run on a shared two-worker
  // pool. After convergence the live replay digest must equal the static
  // K=1 replay digest, bit for bit.
  const double upfront_fraction = fixture.config().live_ingest_upfront;
  const size_t corpus_docs = fixture.corpus().num_documents();
  std::vector<LiveCell> live_cells;
  bool live_parity = true;
  // engines[0] is the K=1 engine.
  uint64_t want_digest = util::kFnv1aOffsetBasis;
  for (const corpus::BenchmarkQuery& q : workload) {
    want_digest =
        HashResults(want_digest, engines[0].engine->Evaluate(q.term_ids, 10));
  }
  size_t live_eval_threads = fixture.config().live_eval_threads;
  if (live_eval_threads == 0) live_eval_threads = hw;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    util::ThreadPool merge_pool(2);
    index::live::LiveIndexOptions live_options;
    live_options.max_writer_docs = 64;
    live_options.merge_pool = &merge_pool;
    std::unique_ptr<index::live::LiveIndex> live =
        fixture.MakeLiveIndex(upfront_fraction, live_options);
    // The per-query segment fan-out runs on the engine's private pool.
    // Parity is unaffected — the fan-out is bit-identical to the
    // sequential scatter (see search/engine.h), and the convergence
    // digest below proves it per run.
    search::SearchEngine engine(fixture.corpus(), *live,
                                search::MakeBm25Scorer(), live_eval_threads);

    LiveCell cell;
    cell.threads = threads;
    cell.eval_threads = live_eval_threads;
    cell.upfront_docs = live->Acquire()->num_documents();
    cell.streamed_docs = corpus_docs - cell.upfront_docs;

    serving::DriverOptions options;
    options.num_threads = threads;
    options.seed = 42;
    serving::SessionDriver driver(model, inferencer, engine, options);

    std::thread writer([&] {
      util::WallTimer ingest_timer;
      index::live::StreamCorpus(fixture.corpus(), cell.upfront_docs,
                                corpus_docs, /*batch_size=*/32, live.get());
      cell.ingest_wall_seconds = ingest_timer.ElapsedSeconds();
    });
    cell.report = driver.Run(sessions);  // races the writer by design
    writer.join();
    live->WaitForMerges();
    live->Refresh();
    cell.final_segments = live->num_segments();
    cell.ingest_docs_per_second =
        cell.ingest_wall_seconds > 0.0
            ? static_cast<double>(cell.streamed_docs) /
                  cell.ingest_wall_seconds
            : 0.0;

    uint64_t got_digest = util::kFnv1aOffsetBasis;
    for (const corpus::BenchmarkQuery& q : workload) {
      got_digest = HashResults(got_digest, engine.Evaluate(q.term_ids, 10));
    }
    cell.parity_with_static = got_digest == want_digest;
    live_parity = live_parity && cell.parity_with_static;
    live_cells.push_back(std::move(cell));
  }

  // --------------------------------------------------- open-loop phase --
  // Arrival-driven load against the K=1 engine at 4 driver threads. Rates
  // are set RELATIVE to the closed-loop capacity measured above (same
  // machine, same run), so "under" genuinely underloads and "over"
  // genuinely overloads on any hardware: under 0.5x capacity nothing
  // should shed; at 4x capacity the admission gate must shed hard while
  // latency stays bounded by the queue cap instead of growing without
  // limit.
  const size_t open_arrivals =
      EnvSize("TOPPRIV_OPENLOOP_ARRIVALS", smoke ? 120 : 600);
  std::vector<OpenLoopCell> open_loop_cells;
  double capacity = 0.0;
  for (const ServingCell& c : serving_cells) {
    if (c.shards == 1 && c.threads == 4) capacity = c.report.cycles_per_second;
  }
  const double base_rate = capacity > 0.0 ? capacity : 50.0;
  serving::DriverOptions options;
  options.num_threads = 4;
  options.seed = 42;
  serving::SessionDriver driver(model, inferencer, *engines[0].engine,
                                options);
  for (const bool overload : {false, true}) {
    serving::OpenLoopOptions open;
    open.arrival_qps = overload ? 4.0 * base_rate : 0.5 * base_rate;
    open.num_arrivals = open_arrivals;
    open.deadline_seconds = 5.0;  // generous: a tripped deadline is news
    open.admission.max_in_flight = 4;
    open.admission.max_queue_depth = 8;
    open.admission.degraded_watermark = 0.75;
    OpenLoopCell cell;
    cell.load = overload ? "over" : "under";
    cell.arrival_qps = open.arrival_qps;
    cell.report = driver.RunOpenLoop(sessions, open);
    open_loop_cells.push_back(cell);
  }

  // ------------------------------------------------------------- reports --
  util::TablePrinter table({"shards", "threads", "sessions", "cycles",
                            "queries", "wall(s)", "cycles/s", "queries/s",
                            "gen_ms/cyc", "speedup"});
  for (const ServingCell& cell : serving_cells) {
    table.AddRow(
        {std::to_string(cell.shards), std::to_string(cell.threads),
         std::to_string(cell.report.sessions.size()),
         std::to_string(cell.report.total_cycles),
         std::to_string(cell.report.total_queries),
         util::FormatDouble(cell.report.wall_seconds, 2),
         util::FormatDouble(cell.report.cycles_per_second, 1),
         util::FormatDouble(cell.report.queries_per_second, 1),
         util::FormatDouble(
             cell.report.total_cycles > 0
                 ? 1e3 * cell.generation_seconds /
                       static_cast<double>(cell.report.total_cycles)
                 : 0.0,
             2),
         util::FormatDouble(base_cps > 0.0
                                ? cell.report.cycles_per_second / base_cps
                                : 0.0,
                            2) +
             "x"});
  }

  util::TablePrinter eval_table(
      {"shards", "queries", "wall(s)", "eval_queries/s"});
  for (const RetrievalCell& cell : retrieval_cells) {
    eval_table.AddRow({std::to_string(cell.shards),
                       std::to_string(cell.queries),
                       util::FormatDouble(cell.wall_seconds, 2),
                       util::FormatDouble(cell.queries_per_second, 1)});
  }

  util::TablePrinter live_table({"threads", "eval_thr", "upfront",
                                 "streamed", "ingest_docs/s", "cycles/s",
                                 "queries/s", "segments", "parity"});
  for (const LiveCell& cell : live_cells) {
    live_table.AddRow(
        {std::to_string(cell.threads), std::to_string(cell.eval_threads),
         std::to_string(cell.upfront_docs), std::to_string(cell.streamed_docs),
         util::FormatDouble(cell.ingest_docs_per_second, 1),
         util::FormatDouble(cell.report.cycles_per_second, 1),
         util::FormatDouble(cell.report.queries_per_second, 1),
         std::to_string(cell.final_segments),
         cell.parity_with_static ? "ok" : "MISMATCH"});
  }

  std::printf(
      "\nServing throughput (%s), %zu-topic model, hardware threads: %zu\n",
      smoke ? "smoke" : "full", num_topics, hw);
  std::printf("%s", table.ToString().c_str());
  std::printf("\nRetrieval-only replay (k=10, %zu passes over the workload)\n",
              reps);
  std::printf("%s", eval_table.ToString().c_str());
  std::printf(
      "\nMixed read/write phase (live ingest, %.0f%% up-front, batch 32,\n"
      "background merges on 2 workers; parity = post-convergence replay\n"
      "digest equals the static K=1 engine's)\n",
      100.0 * upfront_fraction);
  std::printf("%s", live_table.ToString().c_str());
  util::TablePrinter open_table({"load", "arrival/s", "arrivals",
                                 "shed", "shed_rate", "degraded", "done/s",
                                 "p50(ms)", "p95(ms)", "p99(ms)", "peak_q"});
  for (const OpenLoopCell& cell : open_loop_cells) {
    open_table.AddRow(
        {cell.load,
         util::FormatDouble(cell.arrival_qps, 1),
         std::to_string(cell.report.arrivals),
         std::to_string(cell.report.shed),
         util::FormatDouble(cell.report.shed_rate, 3),
         std::to_string(cell.report.degraded_admissions),
         util::FormatDouble(cell.report.cycles_per_second, 1),
         util::FormatDouble(1e3 * cell.report.p50_latency_seconds, 2),
         util::FormatDouble(1e3 * cell.report.p95_latency_seconds, 2),
         util::FormatDouble(1e3 * cell.report.p99_latency_seconds, 2),
         std::to_string(cell.report.peak_queue_depth)});
  }
  std::printf(
      "\nOpen-loop phase (K=1, 4 threads; Poisson arrivals at 0.5x and 4x\n"
      "the measured closed-loop capacity; admission gate 4 in-flight + 8\n"
      "queued, degraded-mode watermark 0.75 — past it, cycles shed ghost\n"
      "CACHE REFRESH, never ghost emission)\n");
  std::printf("%s", open_table.ToString().c_str());

  std::printf(
      "\nsession+retrieval digests identical across shard AND thread\n"
      "counts: %s\nstatic-vs-live convergence digest parity: %s\n"
      "\npaper claims to check: Fig. 2d puts per-cycle generation around a\n"
      "second at full scale on 2008-era hardware; the serving target here is\n"
      ">=2x cycles/s at 4 threads vs 1 (needs a >=4-core machine — sessions\n"
      "are embarrassingly parallel, so scaling is linear until the memory\n"
      "bus saturates). Neither sharding nor LIVE INGEST may change a\n"
      "single result bit: the digest checks above ARE the paper's\n"
      "no-fidelity-loss invariant, held across the distribution boundary\n"
      "and the segment/merge/snapshot machinery.\n",
      deterministic ? "yes" : "NO (bug!)",
      live_parity ? "yes" : "NO (bug!)");

  if (!json_path.empty()) {
    util::JsonWriter json;
    json.BeginObject();
    json.Field("bench", "serving_throughput");
    json.Field("schema_version", kJsonSchemaVersion);
    json.Field("mode", smoke ? "smoke" : "full");
    json.Field("num_topics", static_cast<uint64_t>(num_topics));
    json.Field("hardware_threads", static_cast<uint64_t>(hw));
    json.Field("deterministic", deterministic);
    json.Field("live_static_parity", live_parity);
    json.Field("live_ingest_upfront_fraction", upfront_fraction);
    json.Key("serving_cells");
    json.BeginArray();
    for (const ServingCell& cell : serving_cells) {
      json.BeginObject();
      json.Field("shards", static_cast<uint64_t>(cell.shards));
      json.Field("threads", static_cast<uint64_t>(cell.threads));
      json.Field("sessions",
                 static_cast<uint64_t>(cell.report.sessions.size()));
      json.Field("cycles", static_cast<uint64_t>(cell.report.total_cycles));
      json.Field("queries", static_cast<uint64_t>(cell.report.total_queries));
      json.Field("wall_seconds", cell.report.wall_seconds);
      json.Field("cycles_per_second", cell.report.cycles_per_second);
      json.Field("queries_per_second", cell.report.queries_per_second);
      json.Field("generation_ms_per_cycle",
                 cell.report.total_cycles > 0
                     ? 1e3 * cell.generation_seconds /
                           static_cast<double>(cell.report.total_cycles)
                     : 0.0);
      json.Field("digest", util::StrFormat("%016llx",
                                           static_cast<unsigned long long>(
                                               cell.digest)));
      json.EndObject();
    }
    json.EndArray();
    json.Key("retrieval_cells");
    json.BeginArray();
    for (const RetrievalCell& cell : retrieval_cells) {
      json.BeginObject();
      json.Field("shards", static_cast<uint64_t>(cell.shards));
      json.Field("queries", static_cast<uint64_t>(cell.queries));
      json.Field("wall_seconds", cell.wall_seconds);
      json.Field("queries_per_second", cell.queries_per_second);
      json.Field("digest", util::StrFormat("%016llx",
                                           static_cast<unsigned long long>(
                                               cell.digest)));
      json.EndObject();
    }
    json.EndArray();
    json.Key("live_cells");
    json.BeginArray();
    for (const LiveCell& cell : live_cells) {
      json.BeginObject();
      json.Field("threads", static_cast<uint64_t>(cell.threads));
      json.Field("eval_threads", static_cast<uint64_t>(cell.eval_threads));
      json.Field("upfront_docs", static_cast<uint64_t>(cell.upfront_docs));
      json.Field("streamed_docs", static_cast<uint64_t>(cell.streamed_docs));
      json.Field("ingest_wall_seconds", cell.ingest_wall_seconds);
      json.Field("ingest_docs_per_second", cell.ingest_docs_per_second);
      json.Field("final_segments", static_cast<uint64_t>(cell.final_segments));
      json.Field("cycles", static_cast<uint64_t>(cell.report.total_cycles));
      json.Field("queries", static_cast<uint64_t>(cell.report.total_queries));
      json.Field("wall_seconds", cell.report.wall_seconds);
      json.Field("cycles_per_second", cell.report.cycles_per_second);
      json.Field("queries_per_second", cell.report.queries_per_second);
      json.Field("parity_with_static", cell.parity_with_static);
      json.EndObject();
    }
    json.EndArray();
    json.Key("open_loop_cells");
    json.BeginArray();
    for (const OpenLoopCell& cell : open_loop_cells) {
      json.BeginObject();
      json.Field("load", cell.load);
      json.Field("arrival_qps", cell.arrival_qps);
      json.Field("arrivals", static_cast<uint64_t>(cell.report.arrivals));
      json.Field("admitted", static_cast<uint64_t>(cell.report.admitted));
      json.Field("shed", static_cast<uint64_t>(cell.report.shed));
      json.Field("shed_rate", cell.report.shed_rate);
      json.Field("degraded_admissions",
                 static_cast<uint64_t>(cell.report.degraded_admissions));
      json.Field("completed", static_cast<uint64_t>(cell.report.completed));
      json.Field("deadline_exceeded",
                 static_cast<uint64_t>(cell.report.deadline_exceeded));
      json.Field("wall_seconds", cell.report.wall_seconds);
      json.Field("cycles_per_second", cell.report.cycles_per_second);
      json.Field("p50_latency_ms", 1e3 * cell.report.p50_latency_seconds);
      json.Field("p95_latency_ms", 1e3 * cell.report.p95_latency_seconds);
      json.Field("p99_latency_ms", 1e3 * cell.report.p99_latency_seconds);
      json.Field("peak_in_system",
                 static_cast<uint64_t>(cell.report.peak_in_system));
      json.Field("peak_queue_depth",
                 static_cast<uint64_t>(cell.report.peak_queue_depth));
      json.EndObject();
    }
    json.EndArray();
    // Whole-run registry snapshot: every counter/gauge/histogram the
    // instrumented request path recorded across all phases. Empty objects
    // under TOPPRIV_METRICS=OFF.
    json.Key("metrics");
    util::MetricsRegistry::Default().ExportJson(&json);
    json.EndObject();
    util::Status status = util::WriteFile(json_path, json.str() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", json_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (trace_sink != nullptr) {
    // Detach before export so no span started past this point can race the
    // ring buffer while we serialize (and none can dangle once the sink
    // dies at end of scope).
    util::TraceSink::SetGlobal(nullptr);
    util::JsonWriter trace_json;
    trace_sink->ExportJson(&trace_json);
    util::Status status = util::WriteFile(trace_path, trace_json.str() + "\n");
    if (!status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", trace_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu spans, %" PRIu64 " dropped)\n",
                trace_path.c_str(), trace_sink->Events().size(),
                trace_sink->dropped());
  }
  return deterministic && live_parity ? 0 : 1;
}
