// Query-path parity harness shared by fuzz/query_parity_fuzz.cc and the
// plain-build seed replay in tests/fuzz_corpus_test.cc.
//
// One input is a plan: a tiny corpus, a shard count, a live
// ingest/delete/refresh/merge schedule and a query set (empty,
// duplicate-term, out-of-vocabulary and huge-k queries are all in the
// grammar). The live index runs the schedule; after every Refresh step, and
// once more after the remaining documents are ingested, every query is
// evaluated under all three scorers on
//   - the monolithic engine over a static build of the surviving documents
//     (the reference),
//   - the sharded engine over the same documents,
//   - the live engine, sequential and with a fan-out pool,
// and all of them must agree bit for bit: same docs, same order, same score
// bits.
//
// Byte grammar (DecodeQueryParityPlan; a missing byte reads as 0, so every
// byte string is a valid plan):
//   vocab-1 (mod 12) · shards-1 (mod 4) · writer_docs-1 (mod 4) ·
//   merge_factor-2 (mod 3) · num_docs (mod 25) ·
//   per doc:   length (mod 7), then each term (mod vocab) ·
//   num_queries-1 (mod 6) ·
//   per query: length (mod 6), then each term (mod vocab+3; ids >= vocab
//              are out of vocabulary), then a k code (mod 8, kKChoices) ·
//   steps until the input ends (at most kMaxSteps): op (mod 6), arg.
// EncodeQueryParityPlan writes exactly these bytes, so an in-range plan
// round-trips.
#ifndef TOPPRIV_FUZZ_QUERY_PARITY_H_
#define TOPPRIV_FUZZ_QUERY_PARITY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "corpus/corpus.h"
#include "index/inverted_index.h"
#include "index/live/live_index.h"
#include "index/sharded_index.h"
#include "search/engine.h"
#include "search/scorer.h"

namespace toppriv::fuzz {

inline constexpr size_t kMaxVocab = 12;
inline constexpr size_t kMaxShards = 4;
inline constexpr size_t kMaxDocs = 24;
inline constexpr size_t kMaxDocLength = 6;
inline constexpr size_t kMaxQueries = 6;
inline constexpr size_t kMaxQueryLength = 5;
inline constexpr size_t kOovTerms = 3;
inline constexpr size_t kMaxSteps = 48;
inline constexpr size_t kKChoices[] = {
    0, 1, 2, 3, 5, 10, 1000, std::numeric_limits<size_t>::max()};

struct QueryParityPlan {
  enum class Op : uint8_t {
    kIngest = 0,          // the next 1 + arg % 4 documents, one batch
    kDelete = 1,          // survivor number arg % survivors
    kRefresh = 2,         // publish, then check parity
    kForceMerge = 3,
    kEnsureTermSpace = 4,  // grow to arg % (vocab + 1) terms
    kFlush = 5,
  };
  struct Query {
    std::vector<text::TermId> terms;
    size_t k = 10;
  };
  struct Step {
    Op op = Op::kIngest;
    uint8_t arg = 0;
  };

  size_t vocab = 1;
  size_t shards = 1;
  size_t writer_docs = 1;
  size_t merge_factor = 2;
  std::vector<std::vector<text::TermId>> docs;
  std::vector<Query> queries;
  std::vector<Step> steps;
};

namespace internal {

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  bool done() const { return pos_ >= size_; }
  uint8_t Next() { return done() ? 0 : data_[pos_++]; }
  size_t Next(size_t modulus) { return Next() % modulus; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

inline size_t KCode(size_t k) {
  for (size_t i = 0; i < std::size(kKChoices); ++i) {
    if (kKChoices[i] == k) return i;
  }
  return 0;
}

inline std::unique_ptr<search::Scorer> MakeScorer(int which) {
  switch (which) {
    case 0:
      return search::MakeBm25Scorer();
    case 1:
      return search::MakeTfIdfScorer();
    default:
      return std::make_unique<search::LmDirichletScorer>();
  }
}

/// A corpus with a `vocab`-term vocabulary and no documents.
inline corpus::Corpus EmptyCorpus(size_t vocab) {
  corpus::Corpus c;
  for (size_t t = 0; t < vocab; ++t) {
    c.mutable_vocabulary().AddTerm("t" + std::to_string(t));
  }
  return c;
}

/// "" when `got` equals `want` bit for bit, else a description.
inline std::string Diff(const std::vector<search::ScoredDoc>& got,
                        const std::vector<search::ScoredDoc>& want) {
  std::ostringstream out;
  if (got.size() != want.size()) {
    out << "size " << got.size() << " vs " << want.size();
    return out.str();
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].doc != want[i].doc || got[i].score != want[i].score) {
      out.precision(17);
      out << "rank " << i << ": doc " << got[i].doc << " score "
          << got[i].score << " vs doc " << want[i].doc << " score "
          << want[i].score;
      return out.str();
    }
  }
  return "";
}

}  // namespace internal

inline QueryParityPlan DecodeQueryParityPlan(const uint8_t* data,
                                             size_t size) {
  internal::ByteReader in(data, size);
  QueryParityPlan plan;
  plan.vocab = 1 + in.Next(kMaxVocab);
  plan.shards = 1 + in.Next(kMaxShards);
  plan.writer_docs = 1 + in.Next(4);
  plan.merge_factor = 2 + in.Next(3);
  plan.docs.resize(in.Next(kMaxDocs + 1));
  for (std::vector<text::TermId>& doc : plan.docs) {
    doc.resize(in.Next(kMaxDocLength + 1));
    for (text::TermId& t : doc) {
      t = static_cast<text::TermId>(in.Next(plan.vocab));
    }
  }
  plan.queries.resize(1 + in.Next(kMaxQueries));
  for (QueryParityPlan::Query& q : plan.queries) {
    q.terms.resize(in.Next(kMaxQueryLength + 1));
    for (text::TermId& t : q.terms) {
      t = static_cast<text::TermId>(in.Next(plan.vocab + kOovTerms));
    }
    q.k = kKChoices[in.Next(std::size(kKChoices))];
  }
  while (!in.done() && plan.steps.size() < kMaxSteps) {
    QueryParityPlan::Step step;
    step.op = static_cast<QueryParityPlan::Op>(in.Next(6));
    step.arg = in.Next();
    plan.steps.push_back(step);
  }
  return plan;
}

inline std::string EncodeQueryParityPlan(const QueryParityPlan& plan) {
  std::string out;
  auto put = [&out](size_t v) { out.push_back(static_cast<char>(v)); };
  put(plan.vocab - 1);
  put(plan.shards - 1);
  put(plan.writer_docs - 1);
  put(plan.merge_factor - 2);
  put(plan.docs.size());
  for (const std::vector<text::TermId>& doc : plan.docs) {
    put(doc.size());
    for (text::TermId t : doc) put(t);
  }
  put(plan.queries.size() - 1);
  for (const QueryParityPlan::Query& q : plan.queries) {
    put(q.terms.size());
    for (text::TermId t : q.terms) put(t);
    put(internal::KCode(q.k));
  }
  for (const QueryParityPlan::Step& step : plan.steps) {
    put(static_cast<size_t>(step.op));
    put(step.arg);
  }
  return out;
}

/// Runs `plan` and returns "" when every view agrees with the static
/// reference bit for bit, else a description of the first disagreement.
inline std::string CheckQueryParity(const QueryParityPlan& plan) {
  using search::ScoredDoc;
  using search::SearchEngine;
  constexpr int kScorers = 3;
  constexpr size_t kPoolThreads = 2;

  // The live engines borrow this corpus only for corpus(); they score from
  // the snapshot they acquire, so one engine per scorer lives across the
  // whole schedule.
  const corpus::Corpus host = internal::EmptyCorpus(plan.vocab);
  index::live::LiveIndexOptions options;
  options.max_writer_docs = plan.writer_docs;
  options.merge_factor = plan.merge_factor;
  index::live::LiveIndex live(options);
  std::vector<std::unique_ptr<SearchEngine>> live_seq;
  std::vector<std::unique_ptr<SearchEngine>> live_pooled;
  for (int s = 0; s < kScorers; ++s) {
    live_seq.push_back(
        std::make_unique<SearchEngine>(host, live, internal::MakeScorer(s)));
    live_pooled.push_back(std::make_unique<SearchEngine>(
        host, live, internal::MakeScorer(s), kPoolThreads));
  }

  // Mirror of the live collection: surviving documents in stable order.
  struct Survivor {
    index::live::StableId id;
    const std::vector<text::TermId>* doc;
  };
  std::vector<Survivor> survivors;
  size_t next_doc = 0;

  auto check = [&](const char* when, size_t step) -> std::string {
    auto fail = [&](const std::string& what) {
      std::ostringstream out;
      out << when << " (step " << step << ", " << survivors.size()
          << " docs): " << what;
      return out.str();
    };
    const std::shared_ptr<const index::live::IndexSnapshot> snapshot =
        live.Refresh();
    if (snapshot->num_documents() != survivors.size()) {
      return fail("live snapshot holds " +
                  std::to_string(snapshot->num_documents()) + " documents");
    }
    corpus::Corpus expected = internal::EmptyCorpus(plan.vocab);
    for (const Survivor& s : survivors) {
      expected.AddDocument("d" + std::to_string(s.id), *s.doc);
    }
    const index::InvertedIndex mono_index =
        index::InvertedIndex::Build(expected);
    const index::ShardedIndex sharded_index =
        index::ShardedIndex::Build(expected, plan.shards);
    for (int s = 0; s < kScorers; ++s) {
      const SearchEngine mono(expected, mono_index, internal::MakeScorer(s));
      const SearchEngine sharded(expected, sharded_index,
                                 internal::MakeScorer(s));
      const struct {
        const char* name;
        const SearchEngine* engine;
      } views[] = {{"sharded", &sharded},
                   {"live", live_seq[s].get()},
                   {"live-pooled", live_pooled[s].get()}};
      for (size_t qi = 0; qi < plan.queries.size(); ++qi) {
        const QueryParityPlan::Query& q = plan.queries[qi];
        const std::vector<ScoredDoc> want = mono.Evaluate(q.terms, q.k);
        for (const auto& view : views) {
          const std::string diff =
              internal::Diff(view.engine->Evaluate(q.terms, q.k), want);
          if (!diff.empty()) {
            return fail(std::string(view.name) + " scorer " +
                        std::to_string(s) + " query " + std::to_string(qi) +
                        ": " + diff);
          }
        }
      }
    }
    return "";
  };

  auto ingest = [&](size_t count) {
    std::vector<std::vector<text::TermId>> batch(
        plan.docs.begin() + static_cast<std::ptrdiff_t>(next_doc),
        plan.docs.begin() + static_cast<std::ptrdiff_t>(next_doc + count));
    const std::vector<index::live::StableId> ids = live.Ingest(batch);
    for (size_t i = 0; i < ids.size(); ++i) {
      survivors.push_back(Survivor{ids[i], &plan.docs[next_doc + i]});
    }
    next_doc += count;
  };

  for (size_t i = 0; i < plan.steps.size(); ++i) {
    const QueryParityPlan::Step& step = plan.steps[i];
    switch (step.op) {
      case QueryParityPlan::Op::kIngest:
        if (next_doc < plan.docs.size()) {
          ingest(std::min<size_t>(1 + step.arg % 4,
                                  plan.docs.size() - next_doc));
        }
        break;
      case QueryParityPlan::Op::kDelete:
        if (!survivors.empty()) {
          const size_t victim = step.arg % survivors.size();
          if (!live.Delete(survivors[victim].id)) {
            return "step " + std::to_string(i) + ": delete refused";
          }
          survivors.erase(survivors.begin() +
                          static_cast<std::ptrdiff_t>(victim));
        }
        break;
      case QueryParityPlan::Op::kRefresh: {
        const std::string failure = check("refresh", i);
        if (!failure.empty()) return failure;
        break;
      }
      case QueryParityPlan::Op::kForceMerge:
        live.ForceMerge();
        break;
      case QueryParityPlan::Op::kEnsureTermSpace:
        live.EnsureTermSpace(step.arg % (plan.vocab + 1));
        break;
      case QueryParityPlan::Op::kFlush:
        live.Flush();
        break;
    }
  }
  if (next_doc < plan.docs.size()) ingest(plan.docs.size() - next_doc);
  return check("final", plan.steps.size());
}

}  // namespace toppriv::fuzz

#endif  // TOPPRIV_FUZZ_QUERY_PARITY_H_
