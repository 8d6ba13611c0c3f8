// Protected-cycle benchmark driver. One invocation runs one workload:
//
//   cycle_bench --state DIR --prepare
//   cycle_bench --state DIR --workload NAME --seed N --seconds S --trace 0|1
//               [--reference FILE]
//
// --prepare trains every workload's LDA model into DIR/models (untimed).
// A run only loads from that cache: a cache miss fails the run instead of
// silently training inside the timed set-up. --reference names a file
// holding the 1-thread reference Run's session outputs: written when absent,
// checked against when present, so the processes of one run share one
// reference.
//
// A run builds the fixture from an explicit FixtureConfig (no TOPPRIV_*
// variable can change it), checks every output relationally, and prints
// one JSON line last: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, computed from spans this file records around the calls
// into each layer (a timing QueryEngine decorator, a direct replay of
// SessionProtector::Protect, and the writer's LiveIndex calls) plus deltas of
// the counters util::MetricsRegistry already exports. README.md lists the
// library symbols used and how each metric is defined.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "experiments/fixture.h"
#include "host_speed.h"
#include "index/live/live_index.h"
#include "search/engine.h"
#include "search/scorer.h"
#include "serving/session_driver.h"
#include "stats.h"
#include "topicmodel/inference.h"
#include "toppriv/ghost_generator.h"
#include "toppriv/session.h"
#include "util/filesystem.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using toppriv::corpus::Corpus;
using toppriv::experiments::ExperimentFixture;
using toppriv::experiments::FixtureConfig;
using toppriv::index::live::LiveIndex;
using toppriv::search::QueryEngine;
using toppriv::search::ScoredDoc;
using toppriv::serving::SessionDriver;
using toppriv::serving::SessionStats;
using toppriv::serving::SessionWorkload;
using toppriv::text::TermId;
using Terms = std::vector<TermId>;

// ------------------------------------------------------------ workloads --

// Why each workload exists, and the seed measurements behind the fixed
// open-loop rates, are in README.md.
struct WorkloadSpec {
  const char* name;
  size_t num_docs;
  size_t num_topics;
  double epsilon2;
  size_t driver_threads;
  size_t sessions;
  size_t queries_per_session;
  /// Fixed absolute open-loop rates (cycles/s): about 0.3x and 2x the
  /// closed-loop capacity measured on the seed.
  double low_rate;
  double overload_rate;
};

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kSpecs = {
      {"retrieval_bound", 20000, 100, 0.01, 3, 48, 4, 100.0, 680.0},
      {"client_bound", 1500, 300, 0.005, 3, 48, 12, 450.0, 3000.0},
  };
  return kSpecs;
}

constexpr size_t kTopK = 10;
constexpr size_t kIngestBatchDocs = 32;
constexpr size_t kIngestWindowBatches = 16;
// Documents one ingest round of a static workload streams into an empty
// index; every round covers the same index states.
constexpr size_t kStaticIngestDocs = 4096;
constexpr double kOverloadDeadlineS = 0.25;
// Length of one overload chunk of an untraced run, in scheduled arrivals'
// time.
constexpr double kOverloadChunkS = 0.5;
constexpr size_t kQueueDepthPerThread = 4;
// Warm-up ends once two windows in a row fail to beat the best earlier
// window by more than kPlateauGain.
constexpr double kPlateauGain = 0.02;
constexpr size_t kMinWarmupWindows = 3;
constexpr size_t kMinWindows = 3;

// Shares of --seconds spent in each measured phase of a traced run. An
// untraced run measures only the closed loop and the overload, split in
// the ratio kClosedShare : kOverloadShare.
constexpr double kClosedShare = 0.25;
constexpr double kOpenLowShare = 0.45;
constexpr double kOverloadShare = 0.15;
constexpr double kIngestShare = 0.15;

FixtureConfig MakeConfig(const WorkloadSpec& spec, const std::string& state) {
  FixtureConfig config;
  config.corpus_params.num_docs = spec.num_docs;
  config.corpus_params.mean_doc_length = 100.0;
  config.corpus_params.tail_vocab_size = 3000;
  config.workload_params.num_queries =
      spec.sessions * spec.queries_per_session;
  config.lda_iterations = 100;
  config.cache_dir =
      state + "/models/docs" + std::to_string(spec.num_docs);
  config.num_shards = 1;
  config.shard_threads = 1;
  config.eval_strategy = toppriv::search::EvalStrategy::kTAAT;
  config.live_ingest_upfront = 0.5;
  config.live_eval_threads = 1;
  config.durability.reset();
  return config;
}

// ---------------------------------------------------------------- clock --

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

double Now() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

// ---------------------------------------------------------------- spans --

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  /// 1 + the cycle's index in the replay order; 0 when not part of a cycle.
  uint64_t cycle = 0;
  uint32_t thread = 0;
  double start = 0.0;
  double end = 0.0;
  /// Hash of the evaluated query (engine spans); used to assign cycle ids.
  uint64_t key = 0;
};

/// In-memory span store, written out when the run ends.
class SpanLog {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1); }

  void Add(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  void Record(const char* name, double start, double end, uint64_t parent,
              uint64_t cycle = 0) {
    Span span;
    span.name = name;
    span.id = NewId();
    span.parent = parent;
    span.cycle = cycle;
    span.thread = ThreadIndex();
    span.start = start;
    span.end = end;
    Add(span);
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// A phase span: records [construction, Close()] under `parent`. A null
/// log makes it a no-op, so untraced runs share the code path.
class PhaseSpan {
 public:
  PhaseSpan(SpanLog* log, const char* name, uint64_t parent)
      : log_(log), name_(name), parent_(parent), start_(Now()),
        id_(log != nullptr ? log->NewId() : 0) {}
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;
  ~PhaseSpan() { Close(); }

  uint64_t id() const { return id_; }
  void Close() {
    if (closed_) return;
    closed_ = true;
    if (log_ != nullptr) {
      Span span;
      span.name = name_;
      span.id = id_;
      span.parent = parent_;
      span.thread = ThreadIndex();
      span.start = start_;
      span.end = Now();
      log_->Add(span);
    }
  }

 private:
  SpanLog* log_;
  const char* name_;
  uint64_t parent_;
  double start_;
  uint64_t id_;
  bool closed_ = false;
};

uint64_t HashTerms(const Terms& terms) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(terms.size());
  for (TermId t : terms) mix(t);
  return h;
}

/// Timing decorator over a QueryEngine: records one span per Evaluate /
/// EvaluateWithOptions call and forwards everything else unchanged.
class TimedEngine : public QueryEngine {
 public:
  TimedEngine(QueryEngine* inner, SpanLog* log) : inner_(inner), log_(log) {}

  /// Parent span for the spans recorded from now on.
  void set_parent(uint64_t parent) { parent_.store(parent); }

  std::vector<ScoredDoc> Search(const Terms& terms, size_t k,
                                uint64_t cycle_id) override {
    return inner_->Search(terms, k, cycle_id);
  }
  std::vector<ScoredDoc> Evaluate(const Terms& terms,
                                  size_t k) const override {
    const double start = Now();
    std::vector<ScoredDoc> result = inner_->Evaluate(terms, k);
    Note(terms, start);
    return result;
  }
  toppriv::util::StatusOr<std::vector<ScoredDoc>> EvaluateWithOptions(
      const Terms& terms, size_t k,
      const toppriv::search::QueryOptions& options) const override {
    const double start = Now();
    auto result = inner_->EvaluateWithOptions(terms, k, options);
    Note(terms, start);
    return result;
  }
  const toppriv::search::QueryLog& query_log() const override {
    return inner_->query_log();
  }
  toppriv::search::QueryLog& mutable_query_log() override {
    return inner_->mutable_query_log();
  }
  const Corpus& corpus() const override { return inner_->corpus(); }
  const toppriv::search::Scorer& scorer() const override {
    return inner_->scorer();
  }
  toppriv::search::EvalStrategy eval_strategy() const override {
    return inner_->eval_strategy();
  }

 private:
  void Note(const Terms& terms, double start) const {
    Span span;
    span.name = "search.evaluate";
    span.id = log_->NewId();
    span.parent = parent_.load();
    span.thread = ThreadIndex();
    span.start = start;
    span.end = Now();
    span.key = HashTerms(terms);
    log_->Add(span);
  }

  QueryEngine* inner_;
  SpanLog* log_;
  std::atomic<uint64_t> parent_{0};
};

// ------------------------------------------------------------- registry --

/// Counter values and histogram count/sum pairs, by name.
std::map<std::string, double> RegistryTotals() {
  std::map<std::string, double> totals;
  const toppriv::util::MetricsRegistry::Snapshot snap =
      toppriv::util::MetricsRegistry::Default().Snap();
  for (const auto& c : snap.counters) {
    totals[c.name] = static_cast<double>(c.value);
  }
  for (const auto& h : snap.histograms) {
    totals[h.name + ".count"] = static_cast<double>(h.snap.count);
    totals[h.name + ".sum"] = static_cast<double>(h.snap.sum);
  }
  return totals;
}

/// after - before for `name`; absent when the program does not export it.
std::optional<double> Delta(const std::map<std::string, double>& before,
                            const std::map<std::string, double>& after,
                            const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return std::nullopt;
  auto b = before.find(name);
  return a->second - (b == before.end() ? 0.0 : b->second);
}

// --------------------------------------------------------------- result --

struct Metric {
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
    std::fprintf(stderr, "[cycle_bench] CHECK FAILED: %s\n", why.c_str());
  }
  void Count(uint64_t ok, uint64_t tried) {
    attempted += tried;
    failed += tried - std::min(ok, tried);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Sets a metric whose ratio needs a nonzero base; absent otherwise.
  void SetRatio(const std::string& name, std::optional<double> num,
                std::optional<double> den, const std::string& unit,
                double scale = 1.0) {
    if (num.has_value() && den.has_value() && *den > 0.0) {
      Set(name, scale * *num / *den, unit);
    }
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------- fingerprint --

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return toppriv::util::ThreadPool::HardwareConcurrency();
}

double PeakRssMiB() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// -------------------------------------------------------------- fixture --

/// Whether the model cache for `config` holds a trained model of
/// `num_topics` topics (the fixture names its files lda<T>_<hash>.bin).
size_t CountCachedModels(const FixtureConfig& config, size_t num_topics) {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "lda%03zu_", num_topics);
  size_t n = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config.cache_dir, ec)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

/// An empty durable (WAL, kPerBatch group commit) live index in a fresh
/// `dir`, its term space synced to the corpus vocabulary.
std::unique_ptr<LiveIndex> MakeDurableLive(const Corpus& corpus,
                                           const std::string& dir,
                                           toppriv::util::ThreadPool* merges,
                                           Result* result) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  toppriv::index::live::LiveIndexOptions options;
  options.merge_pool = merges;
  options.durability = toppriv::index::live::DurabilityPolicy::kPerBatch;
  auto recovered = LiveIndex::Recover(toppriv::util::GetRealFileSystem(),
                                      dir, options);
  if (!recovered.ok()) {
    result->Fail("LiveIndex::Recover on a fresh directory failed");
    return nullptr;
  }
  std::unique_ptr<LiveIndex> live = std::move(recovered).value();
  live->EnsureTermSpace(corpus.vocabulary_size());
  live->Refresh();
  return live;
}

/// Everything one set-up builds. Members are declared in dependency order
/// so destruction runs engines before the indexes they borrow.
struct Deployment {
  std::unique_ptr<ExperimentFixture> fixture;
  const toppriv::topicmodel::LdaModel* model = nullptr;
  std::unique_ptr<toppriv::topicmodel::LdaInferencer> inferencer;
  std::vector<Terms> queries;
  std::vector<SessionWorkload> sessions;
  std::unique_ptr<QueryEngine> static_engine;
};

struct SetupTimes {
  double corpus_s = 0, index_s = 0, model_load_s = 0, engine_s = 0;
  double total() const { return corpus_s + index_s + model_load_s + engine_s; }
};

std::unique_ptr<Deployment> BuildDeployment(const WorkloadSpec& spec,
                                            const FixtureConfig& config,
                                            uint64_t seed, SpanLog* log, uint64_t parent,
                                            SetupTimes* times,
                                            Result* result) {
  auto d = std::make_unique<Deployment>();
  PhaseSpan rep(log, "fixture.setup", parent);
  double t = Now();
  auto step = [&](const char* name, double* out) {
    const double end = Now();
    *out = end - t;
    if (log != nullptr) log->Record(name, t, end, rep.id());
    t = end;
  };

  d->fixture = std::make_unique<ExperimentFixture>(config);
  d->fixture->corpus();
  for (const auto& q : d->fixture->workload()) d->queries.push_back(q.term_ids);
  // The genuine query set is fixed per workload; the seed deals it into
  // sessions (Fisher-Yates) and drives the protector's RNG streams. A
  // fresh sample of genuine queries per seed would make cross-seed spread
  // measure the sample, not the program.
  std::mt19937_64 shuffle(seed);
  for (size_t i = d->queries.size(); i > 1; --i) {
    std::swap(d->queries[i - 1], d->queries[shuffle() % i]);
  }
  d->sessions = toppriv::serving::DealSessions(d->queries, spec.sessions);
  step("fixture.corpus", &times->corpus_s);

  d->fixture->index();
  step("fixture.index", &times->index_s);

  const size_t cached_before = CountCachedModels(config, spec.num_topics);
  if (cached_before == 0) {
    result->Fail("model cache is empty; run with --prepare first");
    return nullptr;
  }
  d->model = &d->fixture->model(spec.num_topics);
  if (CountCachedModels(config, spec.num_topics) != cached_before) {
    result->Fail("model cache miss: the timed set-up trained a model");
  }
  step("fixture.model_load", &times->model_load_s);

  d->inferencer =
      std::make_unique<toppriv::topicmodel::LdaInferencer>(*d->model);
  d->static_engine = d->fixture->MakeEngine(
      toppriv::search::MakeBm25Scorer(), 1, 1,
      toppriv::search::EvalStrategy::kTAAT);
  step("fixture.engine", &times->engine_s);
  return d;
}

// ---------------------------------------------------------- serving glue --

toppriv::serving::DriverOptions MakeDriverOptions(const WorkloadSpec& spec,
                                                  size_t threads,
                                                  uint64_t seed) {
  toppriv::serving::DriverOptions options;
  options.num_threads = threads;
  options.top_k = kTopK;
  options.seed = seed;
  options.spec.epsilon2 = spec.epsilon2;
  return options;
}

bool SameSession(const SessionStats& a, const SessionStats& b) {
  return a.cycles == b.cycles && a.queries_submitted == b.queries_submitted &&
         a.ghosts == b.ghosts && a.met_epsilon2 == b.met_epsilon2 &&
         std::memcmp(&a.exposure_after_sum, &b.exposure_after_sum,
                     sizeof(double)) == 0 &&
         a.digest == b.digest;
}

/// Compares a window's sessions with the reference's sessions of the same
/// ids; returns the cycles of the sessions that match.
size_t CheckWindow(const toppriv::serving::ServingReport& report,
                   const toppriv::serving::ServingReport& reference,
                   Result* result, const char* what) {
  size_t ok = 0;
  bool all = !report.sessions.empty() &&
             report.sessions.size() <= reference.sessions.size();
  for (size_t s = 0; all && s < report.sessions.size(); ++s) {
    if (SameSession(report.sessions[s], reference.sessions[s])) {
      ok += report.sessions[s].cycles;
    } else {
      all = false;
    }
  }
  if (!all) result->Fail(std::string(what) + ": session outputs differ from "
                         "the 1-thread reference Run");
  return ok;
}

/// Reference session outputs, one line per session:
/// cycles queries ghosts met exposure_after_sum(bits) digest.
void SaveReference(const std::string& path,
                   const toppriv::serving::ServingReport& reference) {
  std::ofstream out(path);
  for (const SessionStats& s : reference.sessions) {
    uint64_t bits = 0;
    std::memcpy(&bits, &s.exposure_after_sum, sizeof(bits));
    out << s.cycles << ' ' << s.queries_submitted << ' ' << s.ghosts << ' '
        << s.met_epsilon2 << ' ' << bits << ' ' << s.digest << '\n';
  }
}

bool LoadReference(const std::string& path,
                   toppriv::serving::ServingReport* reference) {
  if (path.empty()) return false;
  std::ifstream in(path);
  if (!in) return false;
  SessionStats s;
  uint64_t bits = 0;
  while (in >> s.cycles >> s.queries_submitted >> s.ghosts >> s.met_epsilon2 >>
         bits >> s.digest) {
    std::memcpy(&s.exposure_after_sum, &bits, sizeof(bits));
    reference->sessions.push_back(s);
  }
  return !reference->sessions.empty();
}

// --------------------------------------------------------------- replay --

/// A direct replay of SessionProtector::Protect over the driver's sessions,
/// with the driver's per-session RNG streams and shared CDF table.
struct ReplayCycle {
  std::vector<uint64_t> keys;  // query hashes in submission order
  double protect_s = 0.0;
  size_t ghosts = 0;
  size_t candidates = 0;  // ghosts + rejected masking topics
};
struct Replay {
  std::vector<std::vector<ReplayCycle>> sessions;
  std::vector<SessionStats> stats;  // privacy fields only
};

Replay ReplayProtect(const Deployment& d, const WorkloadSpec& spec,
                     uint64_t seed, size_t threads, SpanLog* log,
                     uint64_t parent) {
  Replay replay;
  replay.sessions.resize(d.sessions.size());
  replay.stats.resize(d.sessions.size());
  const toppriv::serving::DriverOptions options =
      MakeDriverOptions(spec, threads, seed);
  toppriv::core::TopicCdfTable cdfs(*d.model);
  toppriv::core::SessionOptions session_options = options.session;
  session_options.generator.shared_topic_cdfs = &cdfs;
  // Cycle ids number the cycles in (session, position) order.
  std::vector<uint64_t> first_cycle(d.sessions.size() + 1, 1);
  for (size_t s = 0; s < d.sessions.size(); ++s) {
    first_cycle[s + 1] = first_cycle[s] + d.sessions[s].queries.size();
  }
  toppriv::util::ThreadPool pool(threads);
  pool.ParallelFor(d.sessions.size(), [&](size_t s) {
    toppriv::util::Rng rng = toppriv::util::Rng(seed).Fork(s);
    toppriv::core::SessionProtector protector(*d.model, *d.inferencer,
                                              options.spec, session_options);
    SessionStats& stats = replay.stats[s];
    for (size_t c = 0; c < d.sessions[s].queries.size(); ++c) {
      const double t0 = Now();
      toppriv::core::QueryCycle cycle =
          protector.Protect(d.sessions[s].queries[c], &rng);
      const double t1 = Now();
      if (log != nullptr) {
        log->Record("toppriv.protect", t0, t1, parent, first_cycle[s] + c);
      }
      ReplayCycle rc;
      rc.protect_s = t1 - t0;
      rc.ghosts = cycle.num_ghosts();
      rc.candidates = cycle.masking_topics.size() +
                      cycle.rejected_topics.size();
      for (const Terms& q : cycle.queries) rc.keys.push_back(HashTerms(q));
      replay.sessions[s].push_back(std::move(rc));
      ++stats.cycles;
      stats.ghosts += cycle.num_ghosts();
      stats.exposure_after_sum += cycle.exposure_after;
      if (cycle.met_epsilon2) ++stats.met_epsilon2;
    }
  });
  return replay;
}

/// Assigns engine spans recorded during closed-loop windows to replay
/// cycles. Each session runs start to finish on one worker thread and
/// submits exactly the replay's query sequence, so a thread's spans are a
/// concatenation of whole sessions: the first query of a session's first
/// cycle identifies the session, and the rest follows in order.
void AssignCycles(std::vector<Span*>& thread_spans, const Replay& replay,
                  const std::vector<uint64_t>& first_cycle) {
  std::sort(thread_spans.begin(), thread_spans.end(),
            [](const Span* a, const Span* b) { return a->start < b->start; });
  size_t s = 0, c = 0, q = 0;
  bool in_session = false;
  for (Span* span : thread_spans) {
    if (!in_session) {
      for (size_t cand = 0; cand < replay.sessions.size(); ++cand) {
        const auto& cycles = replay.sessions[cand];
        if (!cycles.empty() && !cycles[0].keys.empty() &&
            cycles[0].keys[0] == span->key) {
          s = cand;
          c = 0;
          q = 0;
          in_session = true;
          break;
        }
      }
      if (!in_session) continue;
    }
    const auto& cycles = replay.sessions[s];
    if (cycles[c].keys[q] != span->key) {
      in_session = false;  // unexpected query: leave it unassigned
      continue;
    }
    span->cycle = first_cycle[s] + c;
    if (++q == cycles[c].keys.size()) {
      q = 0;
      if (++c == cycles.size()) in_session = false;
    }
  }
}

// ------------------------------------------------------------- ingest ---

struct IngestStats {
  std::vector<double> window_docs_per_s;
  std::vector<double> batch_ms;
  std::vector<double> refresh_ms;
  uint64_t batches = 0;
  uint64_t acked = 0;
  uint64_t docs = 0;
  double busy_s = 0.0;
  double wall_s = 0.0;
  double segments_sum = 0.0;
};

/// Streams docs [begin, end) in kIngestBatchDocs batches: IngestChecked,
/// then Refresh. Every status is counted.
void StreamBatches(LiveIndex* live, const Corpus& corpus, size_t begin,
                   size_t end, SpanLog* log, uint64_t parent,
                   IngestStats* st) {
  const double start = Now();
  double window_start = start;
  size_t window_docs = 0, window_batches = 0;
  std::vector<Terms> batch;
  for (size_t d = begin; d < end; d += kIngestBatchDocs) {
    const size_t stop = std::min(end, d + kIngestBatchDocs);
    batch.clear();
    for (size_t i = d; i < stop; ++i) {
      batch.push_back(corpus.documents()[i].tokens);
    }
    const double t0 = Now();
    const bool ok = live->IngestChecked(batch).ok();
    const double t1 = Now();
    live->Refresh();
    const double t2 = Now();
    if (log != nullptr) {
      log->Record("index.live.ingest_checked", t0, t1, parent);
      log->Record("index.live.refresh", t1, t2, parent);
    }
    ++st->batches;
    if (ok) {
      ++st->acked;
      st->docs += batch.size();
    }
    st->batch_ms.push_back((t1 - t0) * 1e3);
    st->refresh_ms.push_back((t2 - t1) * 1e3);
    st->busy_s += t2 - t0;
    st->segments_sum += static_cast<double>(live->num_segments());
    window_docs += batch.size();
    if (++window_batches == kIngestWindowBatches) {
      st->window_docs_per_s.push_back(window_docs / (t2 - window_start));
      window_start = t2;
      window_docs = 0;
      window_batches = 0;
    }
  }
  st->wall_s += Now() - start;
}

// ------------------------------------------------------------ the run ---

struct Args {
  std::string workload;
  std::string state = ".bench_state";
  /// Where the run's 1-thread reference outputs are kept (empty: none).
  std::string reference;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool prepare = false;
};

/// Closed-loop windows (one Run each) and the registry counters that moved
/// during them.
struct ClosedWindows {
  std::vector<double> cps;
  std::vector<std::pair<double, double>> bounds;  // [start, end] per window
  uint64_t cycles = 0;
  std::map<std::string, double> counters;

  void Add(const toppriv::serving::ServingReport& report, double start,
           double end, const std::map<std::string, double>& before,
           const std::map<std::string, double>& after) {
    cps.push_back(report.cycles_per_second);
    bounds.emplace_back(start, end);
    cycles += report.total_cycles;
    for (const auto& [name, value] : after) {
      auto b = before.find(name);
      counters[name] += value - (b == before.end() ? 0.0 : b->second);
    }
  }
  std::optional<double> Counter(const std::string& name) const {
    auto it = counters.find(name);
    if (it == counters.end()) return std::nullopt;
    return it->second;
  }
};

int Prepare(const Args& args) {
  for (const WorkloadSpec& spec : Workloads()) {
    const FixtureConfig config = MakeConfig(spec, args.state);
    if (CountCachedModels(config, spec.num_topics) > 0) continue;
    std::fprintf(stderr, "[cycle_bench] training %s model (%zu docs)\n",
                 ExperimentFixture::ModelName(spec.num_topics).c_str(),
                 spec.num_docs);
    ExperimentFixture fixture(config);
    fixture.model(spec.num_topics);
    if (CountCachedModels(config, spec.num_topics) == 0) {
      std::fprintf(stderr, "[cycle_bench] could not write the model cache\n");
      return 1;
    }
  }
  return 0;
}

int RunWorkload(const Args& args, const WorkloadSpec& spec) {
  Result result;
  std::unique_ptr<SpanLog> log_owner =
      args.trace ? std::make_unique<SpanLog>() : nullptr;
  SpanLog* log = log_owner.get();
  PhaseSpan run_span(log, "run", 0);
  const FixtureConfig config = MakeConfig(spec, args.state);
  const std::string wal_root =
      args.state + "/wal/" + spec.name + "-" + std::to_string(::getpid());
  const size_t nproc = Nproc();
  // Driver threads, or the writer plus one merge worker.
  const size_t threads_used = std::max<size_t>(spec.driver_threads, 2);
  if (threads_used > nproc) {
    result.Fail("workload needs " + std::to_string(threads_used) +
                " threads but nproc is " + std::to_string(nproc));
  }

  // ---- set-up (run.py takes the median over a run's processes).
  SetupTimes setup;
  std::unique_ptr<Deployment> dep = BuildDeployment(
      spec, config, args.seed, log, run_span.id(), &setup, &result);
  if (dep == nullptr || !result.correct) {
    std::printf("{\"error\": \"set-up failed\"}\n");
    return 1;
  }

  const Corpus& corpus = dep->fixture->corpus();
  QueryEngine& static_engine = *dep->static_engine;
  const toppriv::topicmodel::LdaModel& model = *dep->model;
  const auto& inferencer = *dep->inferencer;

  // ---- reference: one thread over the static engine, run by the first
  // process of a run and read back by the others.
  toppriv::serving::ServingReport reference;
  if (!LoadReference(args.reference, &reference)) {
    SessionDriver reference_driver(model, inferencer, static_engine,
                                   MakeDriverOptions(spec, 1, args.seed));
    reference = reference_driver.Run(dep->sessions);
    std::fprintf(stderr, "[cycle_bench] 1-thread reference: %.1f cycles/s\n",
                 reference.cycles_per_second);
    if (!args.reference.empty()) SaveReference(args.reference, reference);
  }
  if (reference.sessions.size() != dep->sessions.size()) {
    result.Fail("the reference holds a different session count");
  }
  uint64_t ref_cycles = 0, ref_ghosts = 0, ref_met = 0;
  double ref_exposure = 0.0;
  for (const SessionStats& s : reference.sessions) {
    ref_cycles += s.cycles;
    ref_ghosts += s.ghosts;
    ref_met += s.met_epsilon2;
    ref_exposure += s.exposure_after_sum;
  }

  // ---- warm-up: untimed closed-loop Runs until throughput stops climbing.
  SessionDriver static_driver(
      model, inferencer, static_engine,
      MakeDriverOptions(spec, spec.driver_threads, args.seed));
  const double warmup_start = Now();
  {
    double best = 0.0;
    size_t stale = 0;
    const double cap = warmup_start + 0.5 * args.seconds;
    for (size_t w = 0;; ++w) {
      const auto report = static_driver.Run(dep->sessions);
      CheckWindow(report, reference, &result, "warm-up window");
      std::fprintf(stderr, "[cycle_bench] warm-up window %zu: %.1f cycles/s\n",
                   w, report.cycles_per_second);
      if (report.cycles_per_second > best * (1.0 + kPlateauGain)) {
        best = report.cycles_per_second;
        stale = 0;
      } else {
        ++stale;
      }
      if ((w + 1 >= kMinWarmupWindows && stale >= 2) || Now() > cap) break;
    }
  }
  const double warmup_s = Now() - warmup_start;

  // ---- measured phases.
  std::unique_ptr<TimedEngine> timed_static;
  std::unique_ptr<SessionDriver> timed_driver;
  std::unique_ptr<TimedEngine> timed_open;
  if (log != nullptr) {
    timed_static = std::make_unique<TimedEngine>(&static_engine, log);
    timed_open = std::make_unique<TimedEngine>(&static_engine, log);
  }
  SessionDriver open_driver(
      model, inferencer,
      timed_open != nullptr ? static_cast<QueryEngine&>(*timed_open)
                            : static_engine,
      MakeDriverOptions(spec, spec.driver_threads, args.seed));

  // Host speed probes, one after each measured window or chunk (outside
  // its timing).
  std::vector<double> probe_rates;
  // One closed-loop window: one Run over all sessions, checked.
  auto closed_window = [&](SessionDriver& driver, TimedEngine* timed,
                           uint64_t parent, const char* phase,
                           ClosedWindows* out) {
    PhaseSpan window(log, "serving.window", parent);
    if (timed != nullptr) timed->set_parent(window.id());
    const auto before = RegistryTotals();
    const double start = Now();
    const auto report = driver.Run(dep->sessions);
    const double end = Now();
    const auto after = RegistryTotals();
    window.Close();
    const size_t ok = CheckWindow(report, reference, &result, phase);
    result.Count(ok, report.total_cycles);
    out->Add(report, start, end, before, after);
    probe_rates.push_back(ProbeRate(spec.driver_threads));
    std::fprintf(stderr, "[cycle_bench] %s window: %.1f cycles/s, probe %.0f\n",
                 phase, report.cycles_per_second, probe_rates.back());
  };
  auto run_closed = [&](SessionDriver& driver, TimedEngine* timed,
                        double budget_s, const char* phase) {
    ClosedWindows out;
    PhaseSpan span(log, phase, run_span.id());
    const double stop = Now() + budget_s;
    while (out.cps.size() < kMinWindows || Now() < stop) {
      closed_window(driver, timed, span.id(), phase, &out);
    }
    return out;
  };
  auto open_loop = [&](double rate, double seconds, double deadline,
                       const char* phase) {
    toppriv::serving::OpenLoopOptions open;
    open.arrival_qps = rate;
    open.num_arrivals = static_cast<size_t>(rate * seconds);
    open.deadline_seconds = deadline;
    open.admission.max_in_flight = spec.driver_threads;
    open.admission.max_queue_depth = kQueueDepthPerThread * spec.driver_threads;
    PhaseSpan span(log, phase, run_span.id());
    if (timed_open != nullptr) timed_open->set_parent(span.id());
    const auto report = open_driver.RunOpenLoop(dep->sessions, open);
    span.Close();
    result.Count(report.completed, report.admitted);
    if (report.admitted + report.shed != report.arrivals) {
      result.Fail(std::string(phase) + ": admitted + shed != arrivals");
    }
    return report;
  };

  ClosedWindows closed;
  std::vector<double> goodput;  // completed / wall, per overload chunk
  ClosedWindows traced;
  IngestStats ingest;
  std::map<std::string, double> ingest_before, ingest_after;
  toppriv::serving::OpenLoopReport low, over;
  std::map<std::string, double> over_before, over_after;
  if (log == nullptr) {
    // Untraced: closed-loop windows and overload chunks alternate for the
    // whole budget, time split kClosedShare : kOverloadShare, so both
    // end-to-end throughputs sample the same stretch of the host's speed.
    double closed_s = 0.0, over_s = 0.0;
    const double stop = Now() + args.seconds;
    while (closed.cps.size() < kMinWindows || goodput.size() < kMinWindows ||
           Now() < stop) {
      if (closed_s * kOverloadShare <= over_s * kClosedShare) {
        closed_window(static_driver, nullptr, 0, "serving.closed_loop",
                      &closed);
        closed_s += closed.bounds.back().second - closed.bounds.back().first;
      } else {
        over = open_loop(spec.overload_rate, kOverloadChunkS,
                         kOverloadDeadlineS, "serving.open_loop.overload");
        goodput.push_back(over.completed / over.wall_seconds);
        probe_rates.push_back(ProbeRate(spec.driver_threads));
        std::fprintf(stderr,
                     "[cycle_bench] overload chunk: %.1f cycles/s, probe %.0f\n",
                     goodput.back(), probe_rates.back());
        over_s += over.wall_seconds;
      }
    }
  } else {
    closed = run_closed(static_driver, nullptr, kClosedShare * args.seconds,
                        "serving.closed_loop");
    timed_driver = std::make_unique<SessionDriver>(
        model, inferencer, *timed_static,
        MakeDriverOptions(spec, spec.driver_threads, args.seed));
    traced = run_closed(*timed_driver, timed_static.get(),
                        kClosedShare * args.seconds,
                        "serving.closed_loop.traced");

    // Writer: rounds, each streaming the first kStaticIngestDocs documents
    // into a fresh, empty durable index.
    {
      toppriv::util::ThreadPool merge_pool(1);
      PhaseSpan ingest_span(log, "index.live.ingest_phase", run_span.id());
      ingest_before = RegistryTotals();
      const double stop = Now() + kIngestShare * args.seconds;
      for (size_t round = 0; round < 2 || Now() < stop; ++round) {
        const std::string dir = wal_root + "-r" + std::to_string(round % 2);
        std::unique_ptr<LiveIndex> live =
            MakeDurableLive(corpus, dir, &merge_pool, &result);
        if (live == nullptr) break;
        PhaseSpan round_span(log, "index.live.round", ingest_span.id());
        StreamBatches(live.get(), corpus, 0,
                      std::min(corpus.num_documents(), kStaticIngestDocs),
                      log, round_span.id(), &ingest);
        live->WaitForMerges();
      }
      ingest_after = RegistryTotals();
    }
    result.Count(ingest.acked, ingest.batches);

    low = open_loop(spec.low_rate, kOpenLowShare * args.seconds, 0.0,
                    "serving.open_loop.low");
    over_before = RegistryTotals();
    over = open_loop(spec.overload_rate, kOverloadShare * args.seconds,
                     kOverloadDeadlineS, "serving.open_loop.overload");
    over_after = RegistryTotals();
  }

  // ---- trace-only: direct Protect replay at the closed loop's thread count.
  Replay replay;
  std::map<std::string, double> replay_before, replay_after;
  if (log != nullptr) {
    PhaseSpan span(log, "toppriv.replay", run_span.id());
    replay_before = RegistryTotals();
    replay = ReplayProtect(*dep, spec, args.seed, spec.driver_threads, log,
                           span.id());
    replay_after = RegistryTotals();
    for (size_t s = 0; s < replay.stats.size(); ++s) {
      SessionStats want = reference.sessions[s];
      SessionStats got = replay.stats[s];
      if (got.cycles != want.cycles || got.ghosts != want.ghosts ||
          got.met_epsilon2 != want.met_epsilon2 ||
          std::memcmp(&got.exposure_after_sum, &want.exposure_after_sum,
                      sizeof(double)) != 0) {
        result.Fail("Protect replay disagrees with the driver's sessions");
        break;
      }
    }
  }
  run_span.Close();

  // ------------------------------------------------------------ metrics --
  const double cycles = static_cast<double>(ref_cycles);
  // Timings are reported at the reference host speed (host_speed.h).
  const double speed = HostSpeedFactor(Median(probe_rates));
  if (!args.trace) {
    result.Set("setup_s", setup.total() * speed, "s");
    result.Set("cycles_per_s", Median(closed.cps) / speed, "cycles/s");
    result.Set("overload_goodput_cps", Median(goodput) / speed, "cycles/s");
    result.Set("ok_frac",
               result.attempted > 0
                   ? static_cast<double>(result.attempted - result.failed) /
                         static_cast<double>(result.attempted)
                   : 0.0,
               "ratio");
    result.Set("ghosts_per_cycle", ref_ghosts / cycles, "queries");
    result.Set("exposure_after_bp", 1e4 * ref_exposure / cycles, "bp");
    result.Set("eps2_met_frac", ref_met / cycles, "ratio");
    result.Set("peak_rss_mb", PeakRssMiB(), "MiB");
  } else {
    result.Set("host.speed_factor", speed, "ratio");
    result.Set("fixture.corpus_s", setup.corpus_s, "s");
    result.Set("fixture.index_s", setup.index_s, "s");
    result.Set("fixture.model_load_s", setup.model_load_s, "s");
    result.Set("fixture.engine_s", setup.engine_s, "s");

    // toppriv / topicmodel, from the replay.
    std::vector<double> protect_ms;
    double protect_s = 0.0, ghosts = 0.0, candidates = 0.0;
    std::vector<uint64_t> first_cycle(replay.sessions.size() + 1, 1);
    for (size_t s = 0; s < replay.sessions.size(); ++s) {
      first_cycle[s + 1] = first_cycle[s] + replay.sessions[s].size();
      for (const ReplayCycle& c : replay.sessions[s]) {
        protect_ms.push_back(c.protect_s * 1e3);
        protect_s += c.protect_s;
        ghosts += c.ghosts;
        candidates += c.candidates;
      }
    }
    const double replay_cycles = static_cast<double>(protect_ms.size());
    result.Set("toppriv.protect_ms.p50", NearestRank(protect_ms, 0.50), "ms");
    result.Set("toppriv.protect_ms.p99", NearestRank(protect_ms, 0.99), "ms");
    result.Set("toppriv.candidates_per_cycle", candidates / replay_cycles,
               "topics");
    if (candidates > 0) result.Set("toppriv.accept_ratio", ghosts / candidates,
                                   "ratio");
    result.SetRatio("topicmodel.inferences_per_cycle",
                    Delta(replay_before, replay_after, "lda.inferences"),
                    replay_cycles, "count");
    const auto sweeps =
        Delta(replay_before, replay_after, "lda.gibbs_token_sweeps");
    result.SetRatio("topicmodel.token_sweeps_per_cycle", sweeps,
                    replay_cycles, "count");
    result.SetRatio("topicmodel.ns_per_token_sweep", protect_s * 1e9, sweeps,
                    "ns");

    // Attribution, from the traced closed-loop windows. On each worker thread a cycle is the
    // client gap (from the previous cycle's last engine call, or the window
    // start, to this cycle's first one: Protect plus the driver's per-cycle
    // bookkeeping) followed by its engine calls. Time between a cycle's
    // engine calls and after a thread's last call is unattributed.
    const ClosedWindows& attributed = traced;
    double busy_s = 0.0, search_s = 0.0, client_s = 0.0;
    std::vector<double> eval_us;
    std::vector<double> service_ms;  // client gap + engine calls, per cycle
    std::vector<Span> gaps;
    for (const auto& [wstart, wend] : attributed.bounds) {
      std::map<uint32_t, std::vector<Span*>> by_thread;
      for (Span& span : log->spans()) {
        if (span.key == 0 || span.start < wstart || span.end > wend) continue;
        by_thread[span.thread].push_back(&span);
      }
      for (auto& [thread, spans] : by_thread) {
        AssignCycles(spans, replay, first_cycle);  // also sorts by start
        double prev_end = wstart;
        uint64_t prev_cycle = 0;
        for (const Span* span : spans) {
          const double eval_s = span->end - span->start;
          search_s += eval_s;
          eval_us.push_back(eval_s * 1e6);
          if (span->cycle == 0 || span->cycle != prev_cycle) {
            Span gap;
            gap.name = "serving.client_gap";
            gap.id = log->NewId();
            gap.parent = span->parent;
            gap.cycle = span->cycle;
            gap.thread = span->thread;
            gap.start = prev_end;
            gap.end = span->start;
            gaps.push_back(gap);
            client_s += gap.end - gap.start;
            service_ms.push_back((gap.end - gap.start) * 1e3);
          }
          service_ms.back() += eval_s * 1e3;
          prev_end = span->end;
          prev_cycle = span->cycle;
        }
        busy_s += prev_end - wstart;
      }
    }
    for (const Span& gap : gaps) log->Add(gap);
    const double window_cycles = static_cast<double>(attributed.cycles);
    const double evals = static_cast<double>(eval_us.size());
    const Shares shares = AttributeShares(client_s, search_s, busy_s);
    result.Set("serving.client_frac", shares.client, "ratio");
    result.Set("serving.search_frac", shares.search, "ratio");
    result.Set("serving.unattributed_frac", shares.unattributed, "ratio");
    result.Set("search.eval_us.p50", NearestRank(eval_us, 0.50), "us");
    result.Set("search.eval_us.p99", NearestRank(eval_us, 0.99), "us");
    result.SetRatio("search.queries_per_cycle", evals, window_cycles,
                    "queries");
    result.SetRatio("search.postings_scored_per_query",
                    attributed.Counter("search.taat.postings_scored"), evals,
                    "count");
    result.SetRatio("search.blocks_decoded_per_query",
                    attributed.Counter("search.taat.blocks_decoded"), evals,
                    "count");
    const auto offered = attributed.Counter("search.maxscore.pivots_offered");
    if (offered.has_value() && *offered > 0) {
      result.SetRatio("search.maxscore_abandon_ratio",
                      attributed.Counter("search.maxscore.pivots_abandoned"),
                      offered, "ratio");
    }

    // Queueing estimate: the open loop's p50 latency minus the median
    // closed-loop service time of a cycle.
    if (!service_ms.empty()) {
      result.Set("serving.queue_wait_ms.p50",
                 std::max(0.0, low.p50_latency_seconds * 1e3 -
                                   Median(service_ms)),
                 "ms");
    }
    result.SetRatio("serving.shed_frac", double(over.shed),
                    double(over.arrivals), "ratio");
    result.SetRatio("serving.degraded_frac",
                    Delta(over_before, over_after,
                          "admission.degraded_admissions"),
                    double(over.admitted), "ratio");
    result.Set("serving.peak_queue_depth", double(over.peak_queue_depth),
               "count");
    // Wall time past the expected last arrival (the schedule itself is
    // private to the driver).
    result.Set("serving.drain_s",
               std::max(0.0, over.wall_seconds -
                                 over.arrivals / spec.overload_rate),
               "s");
    result.Set("serving.warmup_s", warmup_s, "s");
    result.Set("serving.p50_ms", low.p50_latency_seconds * 1e3, "ms");
    result.Set("serving.p95_ms", low.p95_latency_seconds * 1e3, "ms");
    result.Set("serving.p99_ms", low.p99_latency_seconds * 1e3, "ms");

    // index.live, from the writer's spans and the registry.
    result.Set("index.live.ingest_docs_per_s",
               Median(ingest.window_docs_per_s), "docs/s");
    result.Set("index.live.ingest_ms_per_batch", Median(ingest.batch_ms),
               "ms");
    result.Set("index.live.refresh_ms", Median(ingest.refresh_ms), "ms");
    result.SetRatio("index.live.fsyncs_per_doc",
                    Delta(ingest_before, ingest_after, "live.wal.fsyncs"),
                    static_cast<double>(ingest.docs), "count");
    const auto merges =
        Delta(ingest_before, ingest_after, "live.merge_us.count");
    if (merges.has_value()) result.Set("index.live.merges", *merges, "count");
    const auto merge_us =
        Delta(ingest_before, ingest_after, "live.merge_us.sum");
    if (merge_us.has_value()) {
      result.Set("index.live.merge_ms_total", *merge_us / 1e3, "ms");
    }
    if (ingest.batches > 0) {
      result.Set("index.live.segments_per_query",
                 ingest.segments_sum / static_cast<double>(ingest.batches),
                 "count");
    }
    if (ingest.wall_s > 0) {
      result.Set("index.live.writer_busy_frac", ingest.busy_s / ingest.wall_s,
                 "ratio");
    }

    // Tracing overhead: traced vs untraced closed-loop windows of this run.
    result.Set("trace.overhead_frac",
               1.0 - Median(traced.cps) / Median(closed.cps), "ratio");

    // Spans, written at the end of the run.
    const std::string dir = args.state + "/traces";
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::string path = dir + "/" + spec.name + "-seed" +
                             std::to_string(args.seed) + "-pid" +
                             std::to_string(::getpid()) + ".json";
    std::ofstream out(path);
    out << "{\"spans\": [\n";
    bool first = true;
    for (const Span& s : log->spans()) {
      out << (first ? "" : ",\n") << "{\"name\": \"" << s.name
          << "\", \"id\": " << s.id << ", \"parent\": " << s.parent
          << ", \"cycle\": " << s.cycle << ", \"thread\": " << s.thread
          << ", \"start_s\": " << JsonNumber(s.start)
          << ", \"end_s\": " << JsonNumber(s.end) << "}";
      first = false;
    }
    out << "\n]}\n";
    std::fprintf(stderr, "[cycle_bench] %zu spans written to %s\n",
                 log->spans().size(), path.c_str());
  }

  // ---- fingerprint, then the result as the last line.
  std::printf(
      "{\"fingerprint\": {\"cpu_model\": \"%s\", \"nproc\": %zu, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"workload\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %s, \"trace\": %d, \"threads_used\": %zu, "
      "\"warmup_s\": %s, \"closed_windows\": %zu, \"host_speed_factor\": %s, "
      "\"measured_setup_s\": %s, \"measured_cycles_per_s\": %s, "
      "\"measured_overload_goodput_cps\": %s}}\n",
      JsonEscape(CpuModel()).c_str(), nproc, JsonEscape(kCompiler).c_str(),
      PERFBENCH_BUILD_TYPE, spec.name,
      static_cast<unsigned long long>(args.seed),
      JsonNumber(args.seconds).c_str(), args.trace ? 1 : 0, threads_used,
      JsonNumber(warmup_s).c_str(), closed.cps.size(),
      JsonNumber(speed).c_str(), JsonNumber(setup.total()).c_str(),
      JsonNumber(Median(closed.cps)).c_str(),
      JsonNumber(Median(goodput)).c_str());
  std::string metrics;
  for (const auto& [name, m] : result.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.correct ? "true" : "false",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  std::error_code ec;
  for (const char* round : {"-r0", "-r1"}) fs::remove_all(wal_root + round, ec);
  return result.correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--prepare") {
      args->prepare = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--state") {
      args->state = value;
    } else if (flag == "--reference") {
      args->reference = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: cycle_bench --state DIR (--prepare | --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--reference FILE])\n");
    return 2;
  }
  if (args.prepare) return perfbench::Prepare(args);
  for (const perfbench::WorkloadSpec& spec : perfbench::Workloads()) {
    if (args.workload == spec.name) return perfbench::RunWorkload(args, spec);
  }
  std::fprintf(stderr, "cycle_bench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
