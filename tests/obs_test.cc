// Tests for the observability layer (src/obs/): histogram math, registry
// concurrency, tracing semantics, Chrome JSON structure, and the
// instrumentation of the query / env / pool paths.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/core/collection_index.h"
#include "src/core/dynamic_index.h"
#include "src/obs/exposition.h"
#include "src/index/matcher.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/query/executor.h"
#include "src/util/env.h"
#include "src/util/thread_pool.h"
#include "tests/test_util.h"

namespace xseq {
namespace {

using testing::MakeIndex;

// --------------------------------------------------------------- histogram

TEST(Histogram, BucketOf) {
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(7), 3);
  EXPECT_EQ(obs::Histogram::BucketOf(8), 4);
  EXPECT_EQ(obs::Histogram::BucketOf(~uint64_t{0}), 63);
}

TEST(Histogram, BucketBounds) {
  EXPECT_EQ(obs::Histogram::BucketBounds(0), std::make_pair(uint64_t{0},
                                                            uint64_t{0}));
  EXPECT_EQ(obs::Histogram::BucketBounds(1), std::make_pair(uint64_t{1},
                                                            uint64_t{1}));
  EXPECT_EQ(obs::Histogram::BucketBounds(4), std::make_pair(uint64_t{8},
                                                            uint64_t{15}));
  auto top = obs::Histogram::BucketBounds(63);
  EXPECT_EQ(top.first, uint64_t{1} << 62);
  EXPECT_EQ(top.second, ~uint64_t{0});
}

TEST(Histogram, CountSumMaxExact) {
  obs::Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(100);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 106u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.average(), 106.0 / 4.0);
}

TEST(Histogram, EmptyPercentileIsZero) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 0.0);
}

TEST(Histogram, PercentileZerosOnly) {
  obs::Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(0);
  // Bucket 0 spans [0, 0], so every percentile is exactly 0.
  EXPECT_DOUBLE_EQ(h.Percentile(1), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0.0);
}

TEST(Histogram, PercentileSingleEntryBucket) {
  obs::Histogram h;
  h.Record(1);
  // Bucket 1 spans [1, 1]: exact regardless of interpolation.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1.0);
}

TEST(Histogram, PercentileInterpolationFormula) {
  // Three entries land in bucket 3 = [4, 7]. The model spaces c entries
  // evenly over [lo, hi]: the k-th (1-based) sits at lo + (hi-lo)*k/c.
  obs::Histogram h;
  h.Record(4);
  h.Record(5);
  h.Record(6);
  // p50 over n=3 -> rank ceil(1.5)=2 -> 4 + 3*2/3 = 6.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 6.0);
  // p100 -> rank 3 -> 4 + 3*3/3 = 7 (the bucket's upper bound), clamped to
  // the recorded max, 6.
  EXPECT_DOUBLE_EQ(h.Percentile(100), 6.0);
  // p1 -> rank 1 -> 4 + 3*1/3 = 5.
  EXPECT_DOUBLE_EQ(h.Percentile(1), 5.0);
}

TEST(Histogram, PercentileAcrossBuckets) {
  obs::Histogram h;
  h.Record(1);  // bucket 1 = [1, 1]
  h.Record(8);  // bucket 4 = [8, 15]
  // n=2: p50 -> rank 1 -> the bucket-1 entry, exactly 1.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 1.0);
  // p99 -> rank 2 -> sole bucket-4 entry modeled at the bucket top (15),
  // clamped to the recorded max, 8.
  EXPECT_DOUBLE_EQ(h.Percentile(99), 8.0);
}

TEST(Histogram, SingleSampleReportsItself) {
  // 18945 lands in bucket [16384, 32767]; unclamped interpolation would
  // report the bucket top, 32767, at every percentile.
  obs::Histogram h;
  h.Record(18945);
  EXPECT_EQ(h.min(), 18945u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 18945.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 18945.0);
}

TEST(Histogram, NoQuantileLeavesTheRecordedRange) {
  obs::Histogram h;
  // 3, 10, 31, ..., 7654: the top sample sits low in bucket [4096, 8191].
  for (uint64_t v = 3; v < 20000; v = v * 3 + 1) h.Record(v);
  for (double p = 0.0; p <= 100.0; p += 0.5) {
    EXPECT_LE(h.Percentile(p), static_cast<double>(h.max())) << p;
    EXPECT_GE(h.Percentile(p), static_cast<double>(h.min())) << p;
  }
}

TEST(Histogram, Reset) {
  obs::Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  // The minimum restarts too: it is not stuck at the pre-reset 5.
  h.Record(9);
  EXPECT_EQ(h.min(), 9u);
}

// ----------------------------------------------------------- counter/gauge

TEST(Counter, AddAndReset) {
  obs::Counter c;
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, TracksMax) {
  obs::Gauge g;
  g.Set(3);
  g.Set(7);
  g.Set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max(), 7);
  g.Add(10);
  EXPECT_EQ(g.value(), 12);
  EXPECT_EQ(g.max(), 12);
  g.Sub(5);
  EXPECT_EQ(g.value(), 7);
  EXPECT_EQ(g.max(), 12);
}

// ---------------------------------------------------------------- registry

TEST(MetricsRegistry, PointersAreStableAndShared) {
  obs::MetricsRegistry reg;
  obs::Counter* a = reg.GetCounter("x");
  obs::Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.GetCounter("y"), a);
}

TEST(MetricsRegistry, ConcurrentWriters) {
  obs::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      // Registration races with other registrants and writers; the counts
      // below must still be exact.
      obs::Counter* c = reg.GetCounter("shared.counter");
      obs::Histogram* h = reg.GetHistogram("shared.hist");
      obs::Gauge* g = reg.GetGauge("shared.gauge");
      for (int i = 0; i < kIters; ++i) {
        c->Increment();
        h->Record(static_cast<uint64_t>(i % 17));
        g->Set(i % 5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(reg.GetCounter("shared.counter")->value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetHistogram("shared.hist")->count(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.GetGauge("shared.gauge")->max(), 4);
}

TEST(MetricsRegistry, SnapshotAndDumps) {
  obs::MetricsRegistry reg;
  reg.GetCounter("c.one")->Add(5);
  reg.GetGauge("g.depth")->Set(3);
  reg.GetHistogram("h.lat")->Record(7);
  obs::MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "c.one");
  EXPECT_EQ(snap.counters[0].second, 5u);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);

  std::string text = reg.TextDump();
  EXPECT_NE(text.find("c.one"), std::string::npos);
  EXPECT_NE(text.find("g.depth"), std::string::npos);
  std::string json = reg.JsonDump();
  EXPECT_NE(json.find("\"c.one\":5"), std::string::npos);
  EXPECT_NE(json.find("\"h.lat\""), std::string::npos);

  reg.ResetAll();
  EXPECT_EQ(reg.GetCounter("c.one")->value(), 0u);
  EXPECT_EQ(reg.GetHistogram("h.lat")->count(), 0u);
}

// -------------------------------------------------------------- mini JSON

// Minimal structural JSON well-formedness checker (no external deps): used
// to validate the Chrome trace export and the registry dump.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    i_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return i_ == s_.size();
  }

 private:
  bool Value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++i_;  // '{'
    SkipWs();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != '}') return false;
    ++i_;
    return true;
  }

  bool Array() {
    ++i_;  // '['
    SkipWs();
    if (i_ < s_.size() && s_[i_] == ']') {
      ++i_;
      return true;
    }
    for (;;) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      break;
    }
    if (i_ >= s_.size() || s_[i_] != ']') return false;
    ++i_;
    return true;
  }

  bool String() {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
        if (i_ >= s_.size()) return false;
      }
      ++i_;
    }
    if (i_ >= s_.size()) return false;
    ++i_;  // closing quote
    return true;
  }

  bool Number() {
    size_t start = i_;
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }

  bool Literal(const char* lit) {
    size_t len = std::strlen(lit);
    if (s_.compare(i_, len, lit) != 0) return false;
    i_ += len;
    return true;
  }

  void SkipWs() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  const std::string& s_;
  size_t i_ = 0;
};

TEST(JsonCheckerSelfTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker(R"({"a":1,"b":[1,2,{"c":"d\"e"}]})").Valid());
  EXPECT_TRUE(JsonChecker(R"({})").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a":1)").Valid());
  EXPECT_FALSE(JsonChecker(R"({"a" 1})").Valid());
  EXPECT_FALSE(JsonChecker("{\"a\":1}}").Valid());
}

TEST(MetricsRegistry, JsonDumpIsWellFormed) {
  obs::MetricsRegistry reg;
  reg.GetCounter("a.b")->Add(1);
  reg.GetGauge("c.d")->Set(-2);
  reg.GetHistogram("e.f")->Record(3);
  EXPECT_TRUE(JsonChecker(reg.JsonDump()).Valid()) << reg.JsonDump();
}

// ----------------------------------------------------------------- tracing

TEST(TraceBuilder, SpanParentingAndContainment) {
  obs::TraceBuilder b;
  uint32_t root = b.StartTrace("query");
  EXPECT_EQ(root, 0u);
  EXPECT_TRUE(b.active());
  uint32_t compile = b.BeginSpan("compile", root);
  uint32_t inst = b.BeginSpan("instantiate", compile);
  b.Annotate(inst, "trees", 3);
  b.EndSpan(inst);
  b.EndSpan(compile);
  uint32_t match = b.BeginSpan("match", root);
  b.EndSpan(match);
  obs::Trace t = b.Finish();
  EXPECT_FALSE(b.active());

  ASSERT_EQ(t.spans.size(), 4u);
  EXPECT_EQ(t.spans[0].name, "query");
  EXPECT_EQ(t.spans[0].parent, obs::kNoSpan);
  EXPECT_EQ(t.spans[1].name, "compile");
  EXPECT_EQ(t.spans[1].parent, 0u);
  EXPECT_EQ(t.spans[2].name, "instantiate");
  EXPECT_EQ(t.spans[2].parent, 1u);
  EXPECT_EQ(t.spans[3].name, "match");
  EXPECT_EQ(t.spans[3].parent, 0u);
  ASSERT_EQ(t.spans[2].args.size(), 1u);
  EXPECT_EQ(t.spans[2].args[0].first, "trees");
  EXPECT_EQ(t.spans[2].args[0].second, 3u);

  // Every span is closed and chronologically contained in its parent.
  for (const obs::TraceSpan& s : t.spans) {
    EXPECT_TRUE(s.closed);
  }
  for (size_t i = 1; i < t.spans.size(); ++i) {
    const obs::TraceSpan& child = t.spans[i];
    const obs::TraceSpan& parent = t.spans[child.parent];
    EXPECT_GE(child.start_us, parent.start_us);
    EXPECT_LE(child.start_us + child.dur_us,
              parent.start_us + parent.dur_us);
  }
}

TEST(TraceBuilder, EndSpanIsIdempotent) {
  obs::TraceBuilder b;
  uint32_t root = b.StartTrace("r");
  uint32_t s = b.BeginSpan("s", root);
  b.EndSpan(s);
  // A second EndSpan must not reopen or restretch the span; Finish (which
  // closes open spans at "now") must leave it untouched too.
  b.EndSpan(s);
  obs::Trace t = b.Finish();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_TRUE(t.spans[1].closed);
  EXPECT_LE(t.spans[1].start_us + t.spans[1].dur_us,
            t.spans[0].start_us + t.spans[0].dur_us);
}

TEST(TraceBuilder, FinishClosesOpenSpans) {
  obs::TraceBuilder b;
  uint32_t root = b.StartTrace("r");
  b.BeginSpan("left_open", root);
  obs::Trace t = b.Finish();
  ASSERT_EQ(t.spans.size(), 2u);
  EXPECT_TRUE(t.spans[0].closed);
  EXPECT_TRUE(t.spans[1].closed);
}

TEST(TraceBuilder, InactiveBuilderIgnoresSpans) {
  obs::TraceBuilder b;
  EXPECT_EQ(b.BeginSpan("x", 0), obs::kNoSpan);
  b.EndSpan(0);                // no-op, must not crash
  b.Annotate(0, "k", 1);       // no-op, must not crash
}

TEST(SpanScope, NullBuilderIsNoop) {
  obs::SpanScope scope(nullptr, "x", obs::kNoSpan);
  EXPECT_EQ(scope.id(), obs::kNoSpan);
  scope.Annotate("k", 1);
  scope.End();
}

TEST(Tracer, RingBufferEviction) {
  obs::Tracer tracer(2);
  for (int i = 0; i < 3; ++i) {
    obs::TraceBuilder b;
    b.StartTrace("t");
    b.Commit(&tracer);
  }
  EXPECT_EQ(tracer.capacity(), 2u);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.total_recorded(), 3u);
  std::vector<obs::Trace> recent = tracer.Recent();
  ASSERT_EQ(recent.size(), 2u);
  // Oldest first; ids are assigned 1, 2, 3 — 1 was evicted.
  EXPECT_EQ(recent[0].id, 2u);
  EXPECT_EQ(recent[1].id, 3u);
  EXPECT_EQ(tracer.Latest().id, 3u);
}

TEST(Tracer, ChromeJsonIsWellFormedAndTagged) {
  obs::Tracer tracer;
  obs::TraceBuilder b;
  uint32_t root = b.StartTrace("query \"quoted\"");
  uint32_t child = b.BeginSpan("match", root);
  b.Annotate(child, "docs", 42);
  b.EndSpan(child);
  b.Commit(&tracer);

  obs::Trace t = tracer.Latest();
  std::string json = obs::TraceToChromeJson(t);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"docs\":42"), std::string::npos);
  EXPECT_NE(json.find("query \\\"quoted\\\""), std::string::npos);

  std::string all = tracer.ExportChromeJson();
  EXPECT_TRUE(JsonChecker(all).Valid()) << all;
  EXPECT_NE(all.find("\"pid\":1"), std::string::npos);
}

TEST(FormatTraceTree, IndentsChildren) {
  obs::TraceBuilder b;
  uint32_t root = b.StartTrace("query");
  uint32_t child = b.BeginSpan("match", root);
  b.Annotate(child, "docs", 7);
  b.EndSpan(child);
  obs::Trace t = b.Finish();
  std::string tree = obs::FormatTraceTree(t);
  EXPECT_NE(tree.find("query"), std::string::npos);
  EXPECT_NE(tree.find("\n  match"), std::string::npos);
  EXPECT_NE(tree.find("docs=7"), std::string::npos);
}

// ------------------------------------------------------------- stats::Add

TEST(MatchStatsAdd, SumsEveryField) {
  MatchStats a;
  a.link_binary_searches = 1;
  a.link_entries_read = 2;
  a.link_gallop_probes = 3;
  a.candidates = 4;
  a.sibling_checks = 5;
  a.sibling_rejections = 6;
  a.terminals = 7;
  a.result_docs = 8;
  MatchStats b;
  b.link_binary_searches = 10;
  b.link_entries_read = 20;
  b.link_gallop_probes = 30;
  b.candidates = 40;
  b.sibling_checks = 50;
  b.sibling_rejections = 60;
  b.terminals = 70;
  b.result_docs = 80;
  a.Add(b);
  EXPECT_EQ(a.link_binary_searches, 11u);
  EXPECT_EQ(a.link_entries_read, 22u);
  EXPECT_EQ(a.link_gallop_probes, 33u);
  EXPECT_EQ(a.candidates, 44u);
  EXPECT_EQ(a.sibling_checks, 55u);
  EXPECT_EQ(a.sibling_rejections, 66u);
  EXPECT_EQ(a.terminals, 77u);
  EXPECT_EQ(a.result_docs, 88u);
}

TEST(ExecStatsAdd, SumsEveryFieldAndOrsTruncated) {
  ExecStats a;
  a.instantiations = 1;
  a.orderings = 2;
  a.matched_sequences = 3;
  a.truncated = false;
  a.match.candidates = 4;
  a.compile_micros = 5;
  a.match_micros = 6;
  a.result_docs = 7;
  a.plan_cache_hits = 8;
  a.result_cache_hits = 9;
  a.pruned_instantiations = 100;
  ExecStats b;
  b.instantiations = 10;
  b.orderings = 20;
  b.matched_sequences = 30;
  b.truncated = true;
  b.match.candidates = 40;
  b.compile_micros = 50;
  b.match_micros = 60;
  b.result_docs = 70;
  b.plan_cache_hits = 80;
  b.result_cache_hits = 90;
  b.pruned_instantiations = 1000;
  a.Add(b);
  EXPECT_EQ(a.instantiations, 11u);
  EXPECT_EQ(a.orderings, 22u);
  EXPECT_EQ(a.matched_sequences, 33u);
  EXPECT_TRUE(a.truncated);
  EXPECT_EQ(a.match.candidates, 44u);
  EXPECT_EQ(a.compile_micros, 55);
  EXPECT_EQ(a.match_micros, 66);
  EXPECT_EQ(a.result_docs, 77u);
  EXPECT_EQ(a.plan_cache_hits, 88u);
  EXPECT_EQ(a.result_cache_hits, 99u);
  EXPECT_EQ(a.pruned_instantiations, 1100u);

  // truncated stays true when the increment is clean, and an all-false
  // pair stays false.
  ExecStats c;
  a.Add(c);
  EXPECT_TRUE(a.truncated);
  ExecStats d, e;
  d.Add(e);
  EXPECT_FALSE(d.truncated);
}

// ----------------------------------------------- instrumentation, end to end

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Default()->GetCounter(name)->value();
}

uint64_t HistCount(const char* name) {
  return obs::MetricsRegistry::Default()->GetHistogram(name)->count();
}

TEST(Instrumentation, QueryFeedsRegistry) {
  obs::ScopedMetricsEnabled on(true);
  CollectionIndex index = MakeIndex({"P(R(U,L),'v1')", "P(R(U),'v2')"});
  const uint64_t queries0 = CounterValue("xseq.query.count");
  const uint64_t calls0 = CounterValue("xseq.match.calls");
  const uint64_t lat0 = HistCount("xseq.query.latency_us");
  auto r = index.Query("/P/R/U");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->docs.size(), 2u);
  EXPECT_EQ(CounterValue("xseq.query.count"), queries0 + 1);
  EXPECT_GE(CounterValue("xseq.match.calls"), calls0 + 1);
  EXPECT_EQ(HistCount("xseq.query.latency_us"), lat0 + 1);
}

TEST(Instrumentation, DisabledMetricsRecordNothing) {
  CollectionIndex index = MakeIndex({"P(R(U))"});
  uint64_t queries0, calls0;
  {
    obs::ScopedMetricsEnabled off(false);
    queries0 = CounterValue("xseq.query.count");
    calls0 = CounterValue("xseq.match.calls");
    auto r = index.Query("/P/R");
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(CounterValue("xseq.query.count"), queries0);
    EXPECT_EQ(CounterValue("xseq.match.calls"), calls0);
  }
}

TEST(Instrumentation, BuildFeedsRegistry) {
  obs::ScopedMetricsEnabled on(true);
  const uint64_t finishes0 = CounterValue("xseq.build.finishes");
  const uint64_t docs0 = CounterValue("xseq.build.documents");
  CollectionIndex index = MakeIndex({"P(R)", "P(L)", "P(U)"});
  EXPECT_EQ(CounterValue("xseq.build.finishes"), finishes0 + 1);
  EXPECT_EQ(CounterValue("xseq.build.documents"), docs0 + 3);
  EXPECT_GE(HistCount("xseq.build.finish_us"), 1u);
}

TEST(Instrumentation, TracedQueryProducesSpanTree) {
  CollectionIndex index = MakeIndex({"P(R(U,L))", "P(R(U))"});
  obs::Tracer tracer;
  ExecOptions exec;
  exec.tracer = &tracer;
  auto r = index.Query("/P/R/U", exec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(tracer.size(), 1u);
  obs::Trace t = tracer.Latest();
  ASSERT_FALSE(t.spans.empty());
  EXPECT_EQ(t.spans[0].name, "query");
  EXPECT_EQ(t.spans[0].parent, obs::kNoSpan);

  auto has_span = [&](const char* name) {
    for (const obs::TraceSpan& s : t.spans) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_span("compile"));
  EXPECT_TRUE(has_span("instantiate"));
  EXPECT_TRUE(has_span("expand_orderings"));
  EXPECT_TRUE(has_span("match"));
  EXPECT_TRUE(has_span("match_seq"));
  for (const obs::TraceSpan& s : t.spans) {
    EXPECT_TRUE(s.closed) << s.name;
  }
  // Identical results with and without tracing.
  auto r2 = index.Query("/P/R/U");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r->docs, r2->docs);

  std::string json = obs::TraceToChromeJson(t);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

// Five adds seal two segments of two documents and buffer the fifth. A
// traced query right after them probes every segment and scans only the
// buffered document.
TEST(Instrumentation, TracedDynamicQueryShowsSegmentProbes) {
  DynamicOptions opts;
  opts.flush_threshold = 2;  // two docs per sealed segment
  DynamicIndex dyn(opts);
  for (int d = 0; d < 5; ++d) {
    Document doc = testing::MakeDoc("P(R(L('v" + std::to_string(d % 2) +
                                        "')))",
                                    dyn.names(), dyn.values(),
                                    static_cast<DocId>(d));
    ASSERT_TRUE(dyn.Add(std::move(doc)).ok());
  }
  ASSERT_GE(dyn.segment_count(), 2u);

  obs::Tracer tracer;
  ExecOptions exec;
  exec.tracer = &tracer;
  auto r = dyn.Query("/P/R/L", exec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 5u);
  ASSERT_EQ(tracer.size(), 1u);
  obs::Trace t = tracer.Latest();
  ASSERT_FALSE(t.spans.empty());
  EXPECT_EQ(t.spans[0].name, "dynamic_query");
  size_t probes = 0, scans = 0, matches = 0;
  for (const obs::TraceSpan& s : t.spans) {
    probes += s.name == "segment_probe";
    scans += s.name == "scan_unsealed";
    matches += s.name == "match";
    EXPECT_TRUE(s.closed) << s.name;
  }
  EXPECT_EQ(probes, dyn.segment_count());
  EXPECT_EQ(scans, 1u);
  // The scan says what it covered: the one buffered document, matched
  // through one concrete tree.
  for (const obs::TraceSpan& s : t.spans) {
    if (s.name != "scan_unsealed") continue;
    std::map<std::string, uint64_t> args(s.args.begin(), s.args.end());
    ASSERT_EQ(args.count("scanned_docs"), 1u);
    EXPECT_EQ(args["scanned_docs"], dyn.buffered_documents());
    EXPECT_EQ(args["scanned_docs"], 1u);
    EXPECT_EQ(args["trees"], 1u);
  }
  // Each probe runs the regular executor attached to this trace, so every
  // segment contributes its own compile/match subtree under its probe span.
  EXPECT_EQ(matches, probes);
}

TEST(Instrumentation, UntracedQueryRecordsNoTrace) {
  CollectionIndex index = MakeIndex({"P(R)"});
  auto r = index.Query("/P/R");
  ASSERT_TRUE(r.ok());
  // Nothing to assert on a tracer — the default options carry none; this
  // documents that the tracer is strictly opt-in.
  ExecOptions exec;
  EXPECT_EQ(exec.tracer, nullptr);
  EXPECT_EQ(exec.trace, nullptr);
}

TEST(Instrumentation, EnvFeedsRegistry) {
  obs::ScopedMetricsEnabled on(true);
  const uint64_t wb0 = CounterValue("xseq.env.write_bytes");
  const uint64_t rb0 = CounterValue("xseq.env.read_bytes");
  const uint64_t fs0 = CounterValue("xseq.env.fsyncs");
  const std::string path =
      ::testing::TempDir() + "/xseq_obs_env_test.dat";
  const std::string payload(1024, 'x');
  ASSERT_TRUE(AtomicWriteFile(Env::Default(), path, payload).ok());
  std::string back;
  ASSERT_TRUE(Env::Default()->ReadFileToString(path, &back).ok());
  EXPECT_EQ(back.size(), payload.size());
  EXPECT_GE(CounterValue("xseq.env.write_bytes"), wb0 + payload.size());
  EXPECT_GE(CounterValue("xseq.env.read_bytes"), rb0 + payload.size());
  EXPECT_GE(CounterValue("xseq.env.fsyncs"), fs0 + 1);
  std::remove(path.c_str());
}

TEST(Instrumentation, InjectedFaultsAreCounted) {
  obs::ScopedMetricsEnabled on(true);
  const uint64_t faults0 = CounterValue("xseq.env.injected_faults");
  FaultInjectionEnv env(Env::Default());
  env.FailOperation(0);
  const std::string path =
      ::testing::TempDir() + "/xseq_obs_fault_test.dat";
  Status st = AtomicWriteFile(&env, path, "data");
  EXPECT_FALSE(st.ok());
  EXPECT_GE(CounterValue("xseq.env.injected_faults"), faults0 + 1);
  std::remove(path.c_str());
}

TEST(Instrumentation, PoolFeedsRegistry) {
  obs::ScopedMetricsEnabled on(true);
  {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    pool.ParallelFor(8, [&](size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
  }
  EXPECT_GE(HistCount("xseq.pool.task_us"), 1u);
}

TEST(Instrumentation, RegistryJsonAfterQueryBatchIsNonZero) {
  // Mirrors the acceptance criterion: after a query batch, the JSON dump
  // reports non-zero query latencies and matcher counters.
  obs::ScopedMetricsEnabled on(true);
  CollectionIndex index = MakeIndex({"P(R(U,L),'a')", "P(R(U),'b')",
                                     "P(L('c'))"});
  std::vector<std::string> queries = {"/P/R/U", "/P/R", "//L"};
  auto results = index.QueryBatch(queries, ExecOptions{}, /*threads=*/2);
  for (const auto& r : results) ASSERT_TRUE(r.ok());

  std::string json = obs::MetricsRegistry::Default()->JsonDump();
  ASSERT_TRUE(JsonChecker(json).Valid());
  EXPECT_NE(json.find("\"xseq.query.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"xseq.match.calls\""), std::string::npos);
  EXPECT_GE(CounterValue("xseq.match.calls"), 3u);
  EXPECT_GE(HistCount("xseq.query.latency_us"), 3u);
  // The counter must not be serialized as zero: find its exact entry.
  EXPECT_EQ(json.find("\"xseq.query.count\":0,"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporters under concurrent mutation: every dump format must stay
// well-formed while writer threads hammer the registry and new metrics
// are still being created.

TEST(MetricsRegistry, ExportersRaceWithWriters) {
  obs::MetricsRegistry reg;
  // Create the fixed-name metrics up front so every dump below sees them;
  // the writers still race creation of the race.dyn* family.
  for (int t = 0; t < 4; ++t) (void)reg.GetCounter("race.w" + std::to_string(t));
  (void)reg.GetGauge("race.level");
  (void)reg.GetHistogram("race.lat");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&reg, &stop, t] {
      obs::Counter* c = reg.GetCounter("race.w" + std::to_string(t));
      obs::Gauge* g = reg.GetGauge("race.level");
      obs::Histogram* h = reg.GetHistogram("race.lat");
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        c->Increment();
        g->Add(t % 2 == 0 ? 1 : -1);
        h->Record(++i & 1023);
        // Metric creation itself races with the dumps below.
        if ((i & 255) == 0) {
          reg.GetCounter("race.dyn" + std::to_string(i & 7))->Increment();
        }
      }
    });
  }
  for (int iter = 0; iter < 100; ++iter) {
    const std::string text = reg.TextDump();
    EXPECT_NE(text.find("race.w0"), std::string::npos);
    const std::string json = reg.JsonDump();
    EXPECT_TRUE(JsonChecker(json).Valid()) << json;
    const std::string prom = obs::PrometheusDump(reg.Snapshot());
    EXPECT_NE(prom.find("# TYPE race_w0 counter"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE race_lat summary"), std::string::npos);
  }
  // Don't stop until every writer demonstrably ran (the dump loop above
  // can finish before the threads are even scheduled).
  for (int t = 0; t < 4; ++t) {
    while (reg.GetCounter("race.w" + std::to_string(t))->value() == 0) {
      std::this_thread::yield();
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();
  uint64_t sum = 0;
  for (int t = 0; t < 4; ++t) {
    sum += reg.GetCounter("race.w" + std::to_string(t))->value();
  }
  EXPECT_GT(sum, 0u);
}

TEST(Tracer, ChromeExportRacesWithCommits) {
  obs::Tracer tracer(4);
  std::atomic<bool> stop{false};
  std::thread committer([&] {
    uint64_t n = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::TraceBuilder tb;
      obs::TraceContext ctx;
      ctx.trace_id = ++n;
      ctx.sampled = true;
      uint32_t root = tb.StartTrace("q", ctx);
      uint32_t child = tb.BeginSpan("stage", root);
      tb.Annotate(child, "n", n);
      tb.EndSpan(child);
      tb.Commit(&tracer);
    }
  });
  for (int iter = 0; iter < 200; ++iter) {
    const std::string json = tracer.ExportChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // The ring never overshoots its capacity mid-export.
    EXPECT_LE(tracer.size(), tracer.capacity());
  }
  // Let the committer land at least one trace before tearing down.
  while (tracer.total_recorded() == 0) std::this_thread::yield();
  stop.store(true);
  committer.join();
  EXPECT_GT(tracer.total_recorded(), 0u);
  EXPECT_EQ(tracer.Latest().spans.size(), 2u);
}

}  // namespace
}  // namespace xseq
