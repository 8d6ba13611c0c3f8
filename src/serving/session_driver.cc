#include "serving/session_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "util/check.h"
#include "util/deadline.h"
#include "util/hash.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

namespace toppriv::serving {

namespace {

// Order-sensitive FNV-1a accumulator for the determinism digest.
class Digest {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ = util::Fnv1aStep(h_, (v >> (8 * i)) & 0xffu);
    }
  }
  void MixDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Mix(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = util::kFnv1aOffsetBasis;
};

// Rng stream id for the open-loop arrival schedule; far outside the dense
// session-id space so arrivals and session randomness never share a stream.
constexpr uint64_t kArrivalStream = 0x9e3779b97f4a7c15ull;

// Nearest-rank percentile over an ascending-sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t idx = static_cast<size_t>(rank + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

}  // namespace

SessionDriver::SessionDriver(const topicmodel::LdaModel& model,
                             const topicmodel::LdaInferencer& inferencer,
                             const search::QueryEngine& engine,
                             DriverOptions options)
    : model_(model),
      inferencer_(inferencer),
      engine_(engine),
      options_(std::move(options)) {
  TOPPRIV_CHECK(options_.spec.Validate().ok());
  TOPPRIV_CHECK_GT(options_.top_k, 0u);
  if (options_.session.generator.coherent_ghosts) {
    topic_cdfs_.emplace(model_);
    options_.session.generator.shared_topic_cdfs = &*topic_cdfs_;
  }
  const size_t num_threads = options_.num_threads == 0
                                 ? util::ThreadPool::HardwareConcurrency()
                                 : options_.num_threads;
  if (num_threads > 1) {
    // No concurrent caller can exist yet; the lock satisfies the
    // capability analysis for the guarded pool_ write.
    util::MutexLock lock(&run_mu_);
    pool_ = std::make_unique<util::ThreadPool>(num_threads);
  }
}

SessionStats SessionDriver::RunSession(uint64_t session_id,
                                       const SessionWorkload& workload) const {
  // Everything below depends only on (seed, session_id, workload): the
  // protector, RNG stream and engine scratch are all session/thread-local.
  util::Rng rng = util::Rng(options_.seed).Fork(session_id);
  core::SessionProtector protector(model_, inferencer_, options_.spec,
                                   options_.session);
  SessionStats stats;
  Digest digest;
  for (const std::vector<text::TermId>& query : workload.queries) {
    TOPPRIV_TRACE_SPAN(cycle_span, "serving.cycle");
    TOPPRIV_SCOPED_TIMER_US("serving.cycle_latency_us");
    core::QueryCycle cycle = protector.Protect(query, &rng);
    ++stats.cycles;
    stats.ghosts += cycle.num_ghosts();
    stats.generation_seconds += cycle.generation_seconds;
    stats.exposure_after_sum += cycle.exposure_after;
    if (cycle.met_epsilon2) ++stats.met_epsilon2;
    TOPPRIV_COUNTER_INC("serving.cycles");
    TOPPRIV_HISTOGRAM_OBSERVE("toppriv.ghost_generation_us",
                              cycle.generation_seconds * 1e6,
                              util::LatencyBucketsUs());

    digest.Mix(cycle.user_index);
    digest.Mix(cycle.queries.size());
    for (size_t i = 0; i < cycle.queries.size(); ++i) {
      const std::vector<text::TermId>& q = cycle.queries[i];
      digest.Mix(q.size());
      for (text::TermId t : q) digest.Mix(t);
      std::vector<search::ScoredDoc> results;
      {
        TOPPRIV_TRACE_SPAN(query_span, "serving.query");
        TOPPRIV_SCOPED_TIMER_US("serving.query_latency_us");
        results = engine_.Evaluate(q, options_.top_k);
      }
      ++stats.queries_submitted;
      TOPPRIV_COUNTER_INC("serving.queries");
      digest.Mix(results.size());
      for (const search::ScoredDoc& r : results) {
        digest.Mix(r.doc);
        digest.MixDouble(r.score);
      }
    }
  }
  stats.digest = digest.value();
  return stats;
}

ServingReport SessionDriver::Run(const std::vector<SessionWorkload>& sessions) {
  // Single-flight: a second Run waits here until the first one's fleet
  // drains (see run_mu_'s comment in the header).
  util::MutexLock lock(&run_mu_);
  ServingReport report;
  report.sessions.resize(sessions.size());
  util::WallTimer timer;
  if (pool_ == nullptr || sessions.size() <= 1) {
    for (size_t s = 0; s < sessions.size(); ++s) {
      report.sessions[s] = RunSession(s, sessions[s]);
    }
  } else {
    pool_->ParallelFor(sessions.size(), [&](size_t s) {
      report.sessions[s] = RunSession(s, sessions[s]);
    });
  }
  report.wall_seconds = timer.ElapsedSeconds();
  for (const SessionStats& s : report.sessions) {
    report.total_cycles += s.cycles;
    report.total_queries += s.queries_submitted;
  }
  if (report.wall_seconds > 0.0) {
    report.cycles_per_second =
        static_cast<double>(report.total_cycles) / report.wall_seconds;
    report.queries_per_second =
        static_cast<double>(report.total_queries) / report.wall_seconds;
  }
  return report;
}

OpenLoopReport SessionDriver::RunOpenLoop(
    const std::vector<SessionWorkload>& sessions, const OpenLoopOptions& open) {
  util::MutexLock lock(&run_mu_);
  OpenLoopReport report;
  if (sessions.empty() || open.num_arrivals == 0) return report;
  TOPPRIV_CHECK_GT(open.arrival_qps, 0.0);
  for (const SessionWorkload& w : sessions) {
    TOPPRIV_CHECK(!w.queries.empty());
  }

  // Arrival schedule: exponential inter-arrival gaps drawn from a stream
  // forked off the driver seed, so the OFFERED load is reproducible even
  // though service times are wall clock.
  util::Rng arrival_rng = util::Rng(options_.seed).Fork(kArrivalStream);
  std::vector<double> arrival_times(open.num_arrivals);
  double t = 0.0;
  for (size_t i = 0; i < open.num_arrivals; ++i) {
    t += -std::log1p(-arrival_rng.Uniform()) / open.arrival_qps;
    arrival_times[i] = t;
  }

  // Per-session serialized state: arrivals for one session can overlap in
  // the pool, and the protector (cover story, memoized ghosts) is mutable.
  struct Ctx {
    util::Mutex mu;
    std::unique_ptr<core::SessionProtector> protector GUARDED_BY(mu);
    util::Rng rng GUARDED_BY(mu) = util::Rng(0);
    size_t next_query GUARDED_BY(mu) = 0;
  };
  std::vector<std::unique_ptr<Ctx>> ctxs;
  ctxs.reserve(sessions.size());
  for (size_t s = 0; s < sessions.size(); ++s) {
    auto ctx = std::make_unique<Ctx>();
    util::MutexLock init(&ctx->mu);  // no concurrent observer yet
    ctx->protector = std::make_unique<core::SessionProtector>(
        model_, inferencer_, options_.spec, options_.session);
    ctx->rng = util::Rng(options_.seed).Fork(s);
    ctxs.push_back(std::move(ctx));
  }

  AdmissionController admission(open.admission);
  util::Mutex stats_mu;
  std::vector<double> latencies;
  size_t completed = 0;
  size_t deadline_exceeded = 0;
  util::WallTimer timer;

  auto run_cycle = [&](size_t session_idx, double arrival_s) {
    TOPPRIV_TRACE_SPAN(cycle_span, "serving.open_loop.cycle");
    // Degraded-mode choice is made at service time: if the system drained
    // below the watermark while this cycle queued, it serves at full
    // freshness again.
    const bool degraded = admission.degraded();
    size_t expired = 0;
    bool ok = true;
    {
      Ctx& ctx = *ctxs[session_idx];
      util::MutexLock l(&ctx.mu);
      const SessionWorkload& w = sessions[session_idx];
      const std::vector<text::TermId>& query =
          w.queries[ctx.next_query % w.queries.size()];
      ++ctx.next_query;
      core::QueryCycle cycle =
          degraded ? ctx.protector->ProtectShedRefresh(query, &ctx.rng)
                   : ctx.protector->Protect(query, &ctx.rng);
      TOPPRIV_HISTOGRAM_OBSERVE("toppriv.ghost_generation_us",
                                cycle.generation_seconds * 1e6,
                                util::LatencyBucketsUs());
      util::Deadline deadline = open.deadline_seconds > 0.0
                                    ? util::Deadline::After(open.deadline_seconds)
                                    : util::Deadline::Infinite();
      search::QueryOptions qopts;
      qopts.deadline = &deadline;
      for (const std::vector<text::TermId>& q : cycle.queries) {
        TOPPRIV_TRACE_SPAN(query_span, "serving.query");
        util::StatusOr<std::vector<search::ScoredDoc>> result =
            engine_.EvaluateWithOptions(q, options_.top_k, qopts);
        if (!result.ok()) {
          ok = false;
          if (result.status().code() == util::StatusCode::kDeadlineExceeded) {
            ++expired;
          }
          break;  // the cycle's budget is spent; drop its remaining fan-out
        }
      }
    }
    const double done_s = timer.ElapsedSeconds();
    TOPPRIV_COUNTER_INC("serving.cycles");
    TOPPRIV_COUNTER_ADD("serving.deadline_exceeded", expired);
    if (ok) TOPPRIV_COUNTER_INC("serving.open_loop.completed");
    TOPPRIV_HISTOGRAM_OBSERVE("serving.cycle_latency_us",
                              (done_s - arrival_s) * 1e6,
                              util::LatencyBucketsUs());
    {
      util::MutexLock l(&stats_mu);
      latencies.push_back(done_s - arrival_s);
      if (ok) ++completed;
      deadline_exceeded += expired;
    }
    admission.Finish();
  };

  for (size_t i = 0; i < open.num_arrivals; ++i) {
    const double target = arrival_times[i];
    const double now = timer.ElapsedSeconds();
    if (now < target) {
      std::this_thread::sleep_for(std::chrono::duration<double>(target - now));
    }
    ++report.arrivals;
    TOPPRIV_COUNTER_INC("serving.open_loop.arrivals");
    if (!admission.TryAdmit().ok()) continue;  // shed, counted by the gate
    const size_t s = i % sessions.size();
    if (pool_ == nullptr) {
      run_cycle(s, target);
    } else {
      pool_->Submit([&run_cycle, s, target] { run_cycle(s, target); });
    }
  }
  if (pool_ != nullptr) pool_->Wait();

  report.wall_seconds = timer.ElapsedSeconds();
  report.admitted = admission.admitted();
  report.shed = admission.shed();
  report.degraded_admissions = admission.degraded_admissions();
  report.peak_in_system = admission.peak_in_system();
  report.peak_queue_depth = admission.peak_queue_depth();
  report.completed = completed;
  report.deadline_exceeded = deadline_exceeded;
  if (report.arrivals > 0) {
    report.shed_rate = static_cast<double>(report.shed) /
                       static_cast<double>(report.arrivals);
  }
  if (report.wall_seconds > 0.0) {
    report.cycles_per_second =
        static_cast<double>(report.completed) / report.wall_seconds;
  }
  std::sort(latencies.begin(), latencies.end());
  report.p50_latency_seconds = Percentile(latencies, 0.50);
  report.p95_latency_seconds = Percentile(latencies, 0.95);
  report.p99_latency_seconds = Percentile(latencies, 0.99);
  return report;
}

std::vector<SessionWorkload> DealSessions(
    const std::vector<std::vector<text::TermId>>& queries,
    size_t num_sessions) {
  TOPPRIV_CHECK_GT(num_sessions, 0u);
  std::vector<SessionWorkload> sessions(num_sessions);
  for (size_t i = 0; i < queries.size(); ++i) {
    sessions[i % num_sessions].queries.push_back(queries[i]);
  }
  return sessions;
}

}  // namespace toppriv::serving
