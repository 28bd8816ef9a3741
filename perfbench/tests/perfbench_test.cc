// The benchmark's own tests: the statistics helpers on known data, each
// correctness gate firing on a deliberately wrong expected answer, strict
// command-line parsing, and a tiny-size smoke run of every workload.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "kge/trans_models.h"
#include "net/wire.h"
#include "perfbench/src/workloads.h"
#include "serve/types.h"
#include "util/rng.h"

namespace openbg::perfbench {
namespace {

TEST(PercentileTest, KnownData) {
  std::vector<double> v = {5, 1, 4, 2, 3};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2.0);
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  EXPECT_NEAR(Percentile(ten, 90), 9.1, 1e-12);  // numpy: 9.1
  EXPECT_DOUBLE_EQ(Median({1, 2, 3, 4}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 90), 7.0);
}

TEST(SamplesTest, ExactBelowCapacityFairAbove) {
  Samples s;
  for (int i = 1; i <= 10; ++i) s.Add(i);
  EXPECT_EQ(s.count(), 10u);
  EXPECT_NEAR(s.Percentile(90), 9.1, 1e-12);  // every sample kept

  // Past capacity the reservoir stays a fair sample: a uniform stream
  // over [0, 1) keeps its quantiles.
  Samples big;
  const size_t n = 4 * Samples::kCapacity;
  for (size_t i = 0; i < n; ++i) {
    big.Add(static_cast<double>((i * 7919) % n) / static_cast<double>(n));
  }
  EXPECT_EQ(big.count(), n);
  EXPECT_NEAR(big.Percentile(50), 0.5, 0.01);
  EXPECT_NEAR(big.Percentile(90), 0.9, 0.01);

  Samples merged;
  merged.Add(1);
  merged.Merge(s);
  EXPECT_EQ(merged.count(), 11u);
  EXPECT_DOUBLE_EQ(merged.Percentile(100), 10.0);
}

TEST(RoundMediansTest, ReportsMedianPerMetric) {
  RoundMedians m;
  for (double v : {3.0, 100.0, 1.0, 2.0, 4.0}) m.Add("p50_us", v, "us");
  RunResult r;
  m.Report(&r);
  EXPECT_DOUBLE_EQ(r.metrics["p50_us"].value, 3.0);  // the outlier is ignored
  EXPECT_EQ(r.metrics["p50_us"].unit, "us");
  EXPECT_EQ(r.rounds_json, "{\"p50_us\": [3, 100, 1, 2, 4]}");
}

TEST(MetricTableTest, MatchesBenchmarkJson) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in.good());
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricName& m : *table) {
      EXPECT_NE(json.find("\"name\": \"" + m.name + "\", \"unit\": \"" +
                          m.unit + "\""),
                std::string::npos)
          << m.name;
    }
  }
}

TEST(TraceTest, SelfTimeSubtractsChildren) {
  Trace t(true);
  const Clock::time_point t0 = Clock::now();
  auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  int64_t root = t.Add("root", at(0), at(100), 1);
  t.Add("child", at(10), at(40), 1, root);
  t.Add("child", at(30), at(60), 1, root);   // overlaps the first child
  t.Add("child", at(90), at(120), 1, root);  // runs past the parent's end
  std::vector<double> self = t.SelfTimes("root");
  ASSERT_EQ(self.size(), 1u);
  EXPECT_NEAR(self[0], 100 - 50 - 10, 1e-6);
  EXPECT_EQ(t.Durations("child").size(), 3u);
  EXPECT_TRUE(Trace(false).Durations("root").empty());
}

TEST(ArgsTest, StrictCommandLine) {
  RunOptions o;
  const char* good[] = {"perfbench", "--workload", "graph_rw", "--seed", "7",
                        "--seconds", "2",        "--trace", "1"};
  ASSERT_TRUE(ParseArgs(9, good, &o).ok());
  EXPECT_EQ(o.workload, "graph_rw");
  EXPECT_EQ(o.seed, 7u);
  EXPECT_TRUE(o.trace);

  const char* unknown[] = {"perfbench", "--workload", "graph_rw", "--fast",
                           "1"};
  EXPECT_FALSE(ParseArgs(5, unknown, &o).ok());
  const char* valueless[] = {"perfbench", "--workload", "graph_rw", "--trace"};
  EXPECT_FALSE(ParseArgs(4, valueless, &o).ok());
  const char* flag_as_value[] = {"perfbench", "--seed", "--workload", "x"};
  EXPECT_FALSE(ParseArgs(4, flag_as_value, &o).ok());
  const char* bad_number[] = {"perfbench", "--workload", "x", "--seed", "-3"};
  EXPECT_FALSE(ParseArgs(5, bad_number, &o).ok());
  const char* bad_trace[] = {"perfbench", "--workload", "x", "--trace", "2"};
  EXPECT_FALSE(ParseArgs(5, bad_trace, &o).ok());
  const char* repeated[] = {"perfbench", "--workload", "x", "--workload", "y"};
  EXPECT_FALSE(ParseArgs(5, repeated, &o).ok());
  const char* size[] = {"perfbench", "--workload", "x", "--size", "tiny"};
  EXPECT_FALSE(ParseArgs(5, size, &o).ok());  // tests-only, not a flag
  const char* missing[] = {"perfbench", "--seed", "1"};
  EXPECT_FALSE(ParseArgs(3, missing, &o).ok());
}

// ---- each gate fires on a wrong expected answer ----------------------------

TEST(GateTest, AnsweredOnce) {
  EXPECT_EQ(CheckAnsweredOnce({0, 1, 1, 1}, 3), "");
  EXPECT_NE(CheckAnsweredOnce({0, 1, 2, 1}, 3), "");     // duplicate
  EXPECT_NE(CheckAnsweredOnce({0, 1, 0, 1}, 3), "");     // lost
  EXPECT_NE(CheckAnsweredOnce({0, 1, 1, 1, 1}, 3), "");  // never sent
}

TEST(GateTest, WirePayloadDigest) {
  serve::Response resp;
  resp.payload.topk = {{4, 1.5f}, {2, 0.5f}};
  const std::string fresh =
      net::EncodeResponsePayload(net::Tag::kLinkPredict, resp);
  resp.from_cache = true;
  const std::string cached =
      net::EncodeResponsePayload(net::Tag::kLinkPredict, resp);
  ASSERT_NE(fresh, cached);
  // Provenance bytes are masked: a cached answer matches the fresh one.
  EXPECT_EQ(CheckDigest(1, PayloadDigest(cached), PayloadDigest(fresh)), "");
  serve::Response wrong = resp;
  wrong.payload.topk[1].id = 3;
  const uint64_t want = PayloadDigest(
      net::EncodeResponsePayload(net::Tag::kLinkPredict, wrong));
  EXPECT_NE(CheckDigest(1, PayloadDigest(cached), want), "");
}

TEST(GateTest, TopKAgainstReference) {
  util::Rng rng(3);
  kge::TransE model(300, 4, 16, 1.0f, &rng);
  serve::ServeContext::Bindings b;
  b.model = &model;
  serve::ServeContext ctx(b);
  serve::QueryEngine engine(&ctx, config::TopkEngine());
  serve::Response resp = engine.LinkPredictTopK(5, 1, 10);
  ASSERT_TRUE(resp.ok());
  std::vector<float> scores;
  model.ScoreTails(5, 1, &scores);
  EXPECT_EQ(CheckTopK(resp.payload.topk, serve::SelectTopK(scores, 10)), "");
  model.ScoreTails(6, 1, &scores);  // the reference for another head
  EXPECT_NE(CheckTopK(resp.payload.topk, serve::SelectTopK(scores, 10)), "");
}

TEST(GateTest, GraphAnswer) {
  const rdf::Triple a{1, 2, 3}, b{1, 2, 4}, c{1, 5, 6};
  EXPECT_EQ(CheckGraphAnswer({a, b}, {a, b}, {a}, {c}), "");
  EXPECT_NE(CheckGraphAnswer({a}, {a, b}, {}, {}), "");       // stale cache
  EXPECT_NE(CheckGraphAnswer({a, b}, {a, b}, {c}, {}), "");   // add missing
  EXPECT_NE(CheckGraphAnswer({a, b}, {a, b}, {}, {b}), "");   // retract kept
}

TEST(GateTest, Training) {
  EXPECT_EQ(CheckTraining(1.0, 0.5, 0.2, 0.05), "");
  EXPECT_NE(CheckTraining(1.0, 1.0, 0.2, 0.05), "");  // loss did not fall
  EXPECT_NE(CheckTraining(1.0, std::nan(""), 0.2, 0.05), "");
  EXPECT_NE(CheckTraining(1.0, std::numeric_limits<double>::infinity(), 0.2,
                          0.05),
            "");
  EXPECT_NE(CheckTraining(1.0, 0.5, 0.01, 0.05), "");  // MRR below floor
}

// ---- tiny-size smoke runs --------------------------------------------------

class SmokeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SmokeTest, UntracedAndTracedRunsPassTheirGates) {
  const std::string dir = "perfbench_test_work";
  std::filesystem::create_directories(dir);
  for (bool trace : {false, true}) {
    RunOptions o;
    o.workload = GetParam();
    o.seed = 5;
    o.seconds = 1.0;
    o.trace = trace;
    o.size = Size::kTiny;
    o.workdir = dir;
    RunResult r = RunWorkload(o);
    for (const std::string& e : r.gate_errors) ADD_FAILURE() << e;
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_GT(r.attempted, 0u);
    EXPECT_LE(r.threads, 4u);
    const std::vector<MetricName>& names =
        trace ? PerLayerMetrics() : EndToEndMetrics();
    EXPECT_EQ(r.metrics.size(), names.size());
    for (const MetricName& n : names) {
      ASSERT_EQ(r.metrics.count(n.name), 1u) << n.name;
      EXPECT_EQ(r.metrics[n.name].unit, n.unit) << n.name;
      EXPECT_TRUE(std::isfinite(r.metrics[n.name].value)) << n.name;
      if (!trace) {
        EXPECT_GT(r.metrics[n.name].value, 0.0) << n.name;
      }
    }
    if (trace) {
      EXPECT_TRUE(
          std::filesystem::exists(dir + "/trace_" + o.workload + ".tsv"));
    }
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SmokeTest,
                         ::testing::Values("wire_mixed", "topk_uncached",
                                           "graph_rw", "train_kge"));

TEST(RunWorkloadTest, UnknownWorkloadFails) {
  RunOptions o;
  o.workload = "nope";
  RunResult r = RunWorkload(o);
  EXPECT_FALSE(r.correct);
  EXPECT_EQ(r.failed, 1u);
}

}  // namespace
}  // namespace openbg::perfbench
