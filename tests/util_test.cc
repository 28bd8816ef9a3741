#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "util/parse.h"

#include "util/circuit_breaker.h"
#include "util/clock.h"
#include "util/fault_injection.h"
#include "util/flags.h"
#include "util/histogram.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/tsv.h"

namespace openbg::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such entity");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: no such entity");
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok(42);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> err(Status::InvalidArgument("bad"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(err.value_or(7), 7);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng(9);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_hit |= (v == -3);
    hi_hit |= (v == 3);
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(17);
  for (size_t k : {0ul, 1ul, 5ul, 50ul, 100ul}) {
    std::vector<size_t> s = rng.SampleWithoutReplacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), k);
    for (size_t v : s) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfTest, RankOneMostFrequent) {
  Rng rng(23);
  ZipfSampler zipf(50, 1.1);
  std::vector<size_t> counts(50, 0);
  for (int i = 0; i < 50000; ++i) counts[zipf.Sample(&rng)] += 1;
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[49]);
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfSampler zipf(100, 0.9);
  double sum = 0.0;
  for (size_t k = 0; k < 100; ++k) sum += zipf.Pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfSampler zipf(10, 0.0);
  for (size_t k = 0; k < 10; ++k) EXPECT_NEAR(zipf.Pmf(k), 0.1, 1e-9);
}

TEST(DiscreteSamplerTest, MatchesWeights) {
  Rng rng(29);
  DiscreteSampler s({1.0, 3.0, 6.0});
  std::vector<size_t> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) counts[s.Sample(&rng)] += 1;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.015);
}

TEST(DiscreteSamplerTest, ZeroWeightNeverSampled) {
  Rng rng(31);
  DiscreteSampler s({0.0, 1.0, 0.0});
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(s.Sample(&rng), 1u);
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a\tb\tc", '\t'),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a  b\tc \n"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, JoinAndTrim) {
  EXPECT_EQ(Join({"x", "y"}, ", "), "x, y");
  EXPECT_EQ(Trim("  hi  "), "hi");
  EXPECT_EQ(Trim(""), "");
}

TEST(StringUtilTest, CaseAndAffixes) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(StartsWith("openbg", "open"));
  EXPECT_FALSE(StartsWith("open", "openbg"));
  EXPECT_TRUE(EndsWith("triple.tsv", ".tsv"));
}

TEST(StringUtilTest, ReplaceAll) {
  EXPECT_EQ(ReplaceAll("a-b-c", "-", "+"), "a+b+c");
  EXPECT_EQ(ReplaceAll("aaa", "aa", "b"), "ba");
}

TEST(StringUtilTest, WithCommas) {
  EXPECT_EQ(WithCommas(0), "0");
  EXPECT_EQ(WithCommas(999), "999");
  EXPECT_EQ(WithCommas(1000), "1,000");
  EXPECT_EQ(WithCommas(2603046837ull), "2,603,046,837");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(StringUtilTest, EditDistance) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_NEAR(EditSimilarity("abcd", "abce"), 0.75, 1e-9);
}

TEST(StringUtilTest, Fnv1aStable) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
}

TEST(StringUtilTest, Utf8Chars) {
  std::vector<std::string> chars = Utf8Chars("a中b");
  ASSERT_EQ(chars.size(), 3u);
  EXPECT_EQ(chars[0], "a");
  EXPECT_EQ(chars[1], "中");
  EXPECT_EQ(chars[2], "b");
}

TEST(StringUtilTest, Utf8MalformedFallsBackToBytes) {
  std::string bad = "a";
  bad.push_back(static_cast<char>(0xE4));  // truncated 3-byte sequence
  std::vector<std::string> chars = Utf8Chars(bad);
  EXPECT_EQ(chars.size(), 2u);
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  // count/min/max/mean are tracked exactly; only interior percentiles are
  // answered at bucket resolution (documented <= ~2.2% relative error, 5%
  // asserted for slack).
  EXPECT_EQ(h.Min(), 1.0);
  EXPECT_EQ(h.Max(), 100.0);
  EXPECT_NEAR(h.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(h.Percentile(50), 50.5, 50.5 * 0.05);
  EXPECT_NEAR(h.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(h.Percentile(100), 100.0, 1e-9);
}

TEST(HistogramTest, EmptyHistogramReturnsZeros) {
  // The documented empty contract: no samples => every statistic is 0.0
  // (the serving metrics snapshot relies on this for endpoints that have
  // not been hit yet).
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Min(), 0.0);
  EXPECT_EQ(h.Max(), 0.0);
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
  EXPECT_EQ(h.Percentile(0), 0.0);
  EXPECT_EQ(h.Percentile(100), 0.0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a, b;
  for (int i = 1; i <= 50; ++i) a.Add(i);
  for (int i = 51; i <= 100; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.Min(), 1.0);
  EXPECT_EQ(a.Max(), 100.0);
  EXPECT_NEAR(a.Mean(), 50.5, 1e-9);
  EXPECT_NEAR(a.Percentile(50), 50.5, 50.5 * 0.05);
  // Merging does not disturb the source.
  EXPECT_EQ(b.count(), 50u);
  EXPECT_EQ(b.Min(), 51.0);
  // Merging an empty histogram is a no-op; merging into an empty one
  // copies.
  Histogram empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 100u);
  Histogram c;
  c.Merge(a);
  EXPECT_EQ(c.count(), 100u);
  EXPECT_NEAR(c.Percentile(50), a.Percentile(50), 1e-9);
}

TEST(HistogramTest, MergeAfterPercentileKeepsOrderCorrect) {
  // A Merge after a Percentile() query must fold into the same statistics
  // later queries see (the sample-keeping implementation had a lazily
  // sorted cache to invalidate here; the bucketed one must stay coherent
  // too).
  Histogram a, b;
  a.Add(10);
  a.Add(30);
  EXPECT_NEAR(a.Percentile(100), 30.0, 1e-9);
  b.Add(20);
  b.Add(5);
  a.Merge(b);
  EXPECT_NEAR(a.Percentile(0), 5.0, 1e-9);
  EXPECT_NEAR(a.Percentile(100), 30.0, 1e-9);
}

TEST(HistogramTest, ReserveDoesNotChangeStats) {
  Histogram h;
  h.Reserve(1000);
  EXPECT_EQ(h.count(), 0u);
  h.Add(2.0);
  h.Add(4.0);
  EXPECT_NEAR(h.Mean(), 3.0, 1e-9);
}

TEST(HistogramTest, AsciiChartRenders) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Add(std::pow(2.0, i % 12));
  std::string chart = h.AsciiChart(10, 40);
  EXPECT_FALSE(chart.empty());
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(HistogramTest, MemoryIsFlatInSampleCount) {
  // The histogram must hold O(buckets), not O(samples): seed the full
  // value range, snapshot the footprint, then pour in 200k more samples
  // from the same range — the footprint may not move, and stays bounded.
  Histogram h;
  for (int i = 0; i < 1000; ++i) {
    h.Add(1e-3 * std::pow(10.0, (i % 10)));  // spans 1e-3 .. 1e6
  }
  size_t bytes_after_seed = h.AllocatedBytes();
  for (int i = 0; i < 200000; ++i) {
    h.Add(1e-3 * std::pow(10.0, (i % 10)));
  }
  EXPECT_EQ(h.AllocatedBytes(), bytes_after_seed);
  EXPECT_LT(h.AllocatedBytes(), 64u * 1024u);
  EXPECT_EQ(h.count(), 201000u);
  EXPECT_EQ(h.Max(), 1e6);
}

TEST(HistogramTest, QuantileErrorWithinDocumentedBound) {
  // Uniform 1..10000: every interior percentile must land within the
  // documented relative error of the exact sorted-sample answer.
  Histogram h;
  for (int i = 1; i <= 10000; ++i) h.Add(i);
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9}) {
    double exact = p / 100.0 * 9999.0 + 1.0;
    EXPECT_NEAR(h.Percentile(p), exact, exact * 0.05)
        << "p=" << p;
  }
  // Non-positive samples rank below every positive one.
  Histogram g;
  g.Add(-5.0);
  g.Add(0.0);
  g.Add(10.0);
  EXPECT_EQ(g.Min(), -5.0);
  EXPECT_EQ(g.Percentile(0), -5.0);
  EXPECT_EQ(g.Percentile(100), 10.0);
}

TEST(TsvTest, RoundTrip) {
  std::string path = ::testing::TempDir() + "/openbg_util_test.tsv";
  {
    TsvWriter w(path);
    ASSERT_TRUE(w.ok());
    w.WriteRow({"h", "r", "t"});
    w.WriteRow({"a", "b", "c"});
    ASSERT_TRUE(w.Close().ok());
  }
  auto rows = ReadTsv(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(rows.value()[1], (std::vector<std::string>{"a", "b", "c"}));
  std::remove(path.c_str());
}

TEST(TsvTest, MissingFileIsIoError) {
  auto rows = ReadTsv("/nonexistent/openbg.tsv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
}

TEST(TsvTest, WriteRowRejectsFieldsThatWouldShearTheFile) {
  std::string path = ::testing::TempDir() + "/openbg_util_reject.tsv";
  TsvWriter w(path);
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(w.WriteRow({"clean", "row"}).ok());
  EXPECT_EQ(w.WriteRow({"embedded\ttab"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.WriteRow({"embedded\nnewline"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(w.WriteRow({"embedded\rcr"}).code(),
            StatusCode::kInvalidArgument);
  // The first rejection latches: Close() surfaces it even for callers that
  // ignored the per-row statuses, and the bad rows were never written.
  Status st = w.Close();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  auto rows = ReadTsv(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0], (std::vector<std::string>{"clean", "row"}));
  std::remove(path.c_str());
}

TEST(TsvTest, LenientReadSkipsShortRows) {
  std::string path = ::testing::TempDir() + "/openbg_util_lenient.tsv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a\tb\tc\nshort\nd\te\tf\nx\ty\n", f);
    std::fclose(f);
  }
  // Strict: the first short row kills the read.
  EXPECT_FALSE(ReadTsv(path, 3).ok());

  ParseOptions lenient;
  lenient.policy = ParsePolicy::kSkipAndReport;
  ParseReport report;
  auto rows = ReadTsv(path, 3, lenient, &report);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().size(), 2u);
  EXPECT_EQ(report.records, 2u);
  EXPECT_EQ(report.skipped, 2u);
  ASSERT_EQ(report.error_samples.size(), 2u);
  EXPECT_EQ(report.error_samples[0].line, 2u);
  EXPECT_EQ(report.error_samples[1].line, 4u);

  // max_errors caps how much garbage a "successful" load may contain.
  ParseOptions capped = lenient;
  capped.max_errors = 1;
  ParseReport capped_report;
  EXPECT_FALSE(ReadTsv(path, 3, capped, &capped_report).ok());
  std::remove(path.c_str());
}

TEST(ParseReportTest, SummaryAndSampleCap) {
  ParseOptions options;
  options.max_error_samples = 2;
  ParseReport report;
  report.records = 5;
  report.AddError(options, 3, "bad record");
  report.AddError(options, 8, "worse record");
  report.AddError(options, 9, "dropped sample");
  EXPECT_EQ(report.skipped, 3u);
  ASSERT_EQ(report.error_samples.size(), 2u);
  EXPECT_EQ(report.error_samples[0].line, 3u);
  std::string summary = report.Summary();
  EXPECT_NE(summary.find("5 records"), std::string::npos);
  EXPECT_NE(summary.find("3 skipped"), std::string::npos);
  EXPECT_NE(summary.find("bad record"), std::string::npos);
}

// Property sweep: Uniform(n) stays in range and hits both endpoints across
// a spread of n.
class UniformRangeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniformRangeTest, BoundsAndCoverage) {
  uint64_t n = GetParam();
  Rng rng(n * 31 + 1);
  bool lo = false, hi = false;
  for (int i = 0; i < 4000; ++i) {
    uint64_t v = rng.Uniform(n);
    ASSERT_LT(v, n);
    lo |= (v == 0);
    hi |= (v == n - 1);
  }
  if (n <= 64) {
    EXPECT_TRUE(lo);
    EXPECT_TRUE(hi);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, UniformRangeTest,
                         ::testing::Values(1, 2, 3, 7, 64, 1000, 1 << 20));

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { count.fetch_add(1); });
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 3);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<int> visits(n, 0);
  ParallelFor(&pool, n, [&visits](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) visits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0),
            static_cast<int>(n));
  EXPECT_TRUE(std::all_of(visits.begin(), visits.end(),
                          [](int v) { return v == 1; }));
}

TEST(ParallelForTest, ShardBoundariesAreDeterministic) {
  // Same (n, num_threads) must shard identically across runs — the property
  // the evaluator's bit-identical guarantee leans on.
  ThreadPool pool(3);
  auto collect = [&pool] {
    std::vector<std::pair<size_t, size_t>> shards(3, {0, 0});
    std::mutex mu;
    ParallelFor(&pool, 10,
                [&](size_t shard, size_t begin, size_t end) {
                  std::lock_guard<std::mutex> lock(mu);
                  shards[shard] = {begin, end};
                });
    return shards;
  };
  EXPECT_EQ(collect(), collect());
}

TEST(ParallelForTest, NullPoolAndTinyRangesRunInline) {
  size_t calls = 0;
  ParallelFor(nullptr, 5, [&calls](size_t shard, size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(shard, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
  });
  EXPECT_EQ(calls, 1u);

  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  ParallelFor(&pool, 0, [&total](size_t, size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 0u);
}

TEST(ThreadPoolTest, TryEnqueueRespectsQueueBound) {
  // One worker blocked on a latch; further tasks pile up in the queue.
  // TryEnqueue admits tasks only while fewer than max_queued are waiting
  // (the running task does not count against the bound).
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  pool.Submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
  });
  // Wait until the blocker is actually running (queue empty).
  std::atomic<int> ran{0};
  while (true) {
    if (pool.TryEnqueue([&ran] { ran.fetch_add(1); }, 1)) break;
    std::this_thread::yield();
  }
  // Queue now holds exactly 1 waiting task: bound of 1 rejects, 2 admits.
  EXPECT_FALSE(pool.TryEnqueue([&ran] { ran.fetch_add(1); }, 1));
  EXPECT_TRUE(pool.TryEnqueue([&ran] { ran.fetch_add(1); }, 2));
  EXPECT_FALSE(pool.TryEnqueue([&ran] { ran.fetch_add(1); }, 2));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 2);  // the two admitted tasks ran; rejects did not
}

TEST(ThreadPoolTest, TryEnqueueZeroBoundAlwaysRejects) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_FALSE(pool.TryEnqueue([&ran] { ran.fetch_add(1); }, 0));
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPoolTest, WaitIdleWithNoTasksReturnsImmediately) {
  ThreadPool pool(3);
  pool.WaitIdle();
  pool.WaitIdle();
  std::atomic<int> count{0};
  pool.Submit([&count] { count.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  // 8 workers over 3 items: some shards are empty; every index is still
  // covered exactly once.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(3);
  for (auto& v : visits) v.store(0);
  ParallelFor(&pool, 3, [&visits](size_t, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
  });
  for (size_t i = 0; i < visits.size(); ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, ShardExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  std::atomic<size_t> completed{0};
  EXPECT_THROW(
      ParallelFor(&pool, 100,
                  [&completed](size_t shard, size_t, size_t) {
                    if (shard == 1) throw std::runtime_error("shard boom");
                    completed.fetch_add(1);
                  }),
      std::runtime_error);
  // Every non-throwing shard still ran; the pool is reusable afterwards.
  EXPECT_EQ(completed.load(), 3u);
  std::atomic<size_t> total{0};
  ParallelFor(&pool, 100, [&total](size_t, size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 100u);
}

TEST(FakeClockTest, SleepAdvancesInsteadOfStalling) {
  FakeClock clock(100);
  EXPECT_EQ(clock.NowMicros(), 100u);
  clock.SleepFor(50);
  EXPECT_EQ(clock.NowMicros(), 150u);
  clock.Advance(10);
  EXPECT_EQ(clock.NowMicros(), 160u);
}

TEST(RetryPolicyTest, FirstTrySuccessDoesNotSleep) {
  FakeClock clock;
  RetryOptions opts;
  opts.clock = &clock;
  RetryPolicy policy(opts);
  RetryPolicy::Outcome out = policy.Run([] { return Status::OK(); });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.backoff_us, 0u);
  EXPECT_EQ(clock.NowMicros(), 0u);
}

TEST(RetryPolicyTest, TransientFaultIsAbsorbedWithExponentialBackoff) {
  FakeClock clock;
  RetryOptions opts;
  opts.max_attempts = 5;
  opts.initial_backoff_us = 200;
  opts.multiplier = 2.0;
  opts.jitter = false;  // exact backoff sequence: 200, 400
  opts.clock = &clock;
  RetryPolicy policy(opts);
  int calls = 0;
  RetryPolicy::Outcome out = policy.Run([&calls] {
    return ++calls <= 2 ? Status::IoError("transient") : Status::OK();
  });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(out.backoff_us, 600u);
  EXPECT_EQ(clock.NowMicros(), 600u);  // slept exactly the backoff
}

TEST(RetryPolicyTest, NonRetryableStatusStopsImmediately) {
  FakeClock clock;
  RetryOptions opts;
  opts.clock = &clock;
  RetryPolicy policy(opts);
  int calls = 0;
  RetryPolicy::Outcome out = policy.Run([&calls] {
    ++calls;
    return Status::InvalidArgument("terminal");
  });
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(clock.NowMicros(), 0u);  // no backoff for a terminal error
}

TEST(RetryPolicyTest, AttemptBudgetExhaustsWithLastStatus) {
  FakeClock clock;
  RetryOptions opts;
  opts.max_attempts = 3;
  opts.jitter = false;
  opts.clock = &clock;
  RetryPolicy policy(opts);
  int calls = 0;
  RetryPolicy::Outcome out = policy.Run([&calls] {
    ++calls;
    return Status::IoError(StrFormat("fault %d", calls));
  });
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.attempts, 3);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(out.status.ToString(), "IoError: fault 3");
}

TEST(RetryPolicyTest, WallClockBudgetStopsRetrying) {
  FakeClock clock;
  RetryOptions opts;
  opts.max_attempts = 100;
  opts.initial_backoff_us = 200;
  opts.total_budget_us = 500;
  opts.jitter = false;
  opts.clock = &clock;
  RetryPolicy policy(opts);
  int calls = 0;
  RetryPolicy::Outcome out = policy.Run([&calls] {
    ++calls;
    return Status::IoError("never heals");
  });
  EXPECT_FALSE(out.ok());
  // Far fewer than 100 attempts: the 500us budget (with 200us+ backoffs)
  // admits only the first few. Sleeps never overshoot the budget.
  EXPECT_LT(calls, 5);
  EXPECT_EQ(out.attempts, calls);
  EXPECT_LE(clock.NowMicros(), 500u);
}

TEST(RetryPolicyTest, JitterIsDeterministicPerSeed) {
  RetryOptions opts;
  opts.max_attempts = 6;
  opts.jitter = true;
  opts.seed = 1234;
  auto always_fail = [] { return Status::IoError("x"); };
  FakeClock c1, c2;
  RetryOptions o1 = opts, o2 = opts;
  o1.clock = &c1;
  o2.clock = &c2;
  RetryPolicy::Outcome a = RetryPolicy(o1).Run(always_fail);
  RetryPolicy::Outcome b = RetryPolicy(o2).Run(always_fail);
  EXPECT_EQ(a.backoff_us, b.backoff_us);
  EXPECT_GT(a.backoff_us, 0u);
  RetryOptions o3 = opts;
  o3.seed = 99;
  FakeClock c3;
  o3.clock = &c3;
  RetryPolicy::Outcome c = RetryPolicy(o3).Run(always_fail);
  EXPECT_NE(a.backoff_us, c.backoff_us);  // different stream
}

TEST(RetryPolicyTest, CustomRetryablePredicateWins) {
  FakeClock clock;
  RetryOptions opts;
  opts.max_attempts = 3;
  opts.jitter = false;
  opts.clock = &clock;
  RetryPolicy policy(opts);
  int calls = 0;
  // NotFound is not retryable by default; the custom predicate makes it so.
  RetryPolicy::Outcome out = policy.Run(
      [&calls] {
        return ++calls < 3 ? Status::NotFound("eventually appears")
                           : Status::OK();
      },
      [](const Status& s) { return s.code() == StatusCode::kNotFound; });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 3);
}

TEST(CircuitBreakerTest, StaysClosedOnSuccesses) {
  CircuitBreaker breaker;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ZeroThresholdDoesNotTripOnPureSuccesses) {
  // Regression: threshold 0.0 must mean "trip on ANY failure", not "trip
  // on 0 failures >= 0".
  CircuitBreakerOptions opts;
  opts.failure_threshold = 0.0;
  opts.min_samples = 4;
  CircuitBreaker breaker(opts);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordSuccess();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, TripsAtFailureThresholdAfterMinSamples) {
  FakeClock clock;
  CircuitBreakerOptions opts;
  opts.window = 8;
  opts.min_samples = 4;
  opts.failure_threshold = 0.5;
  opts.clock = &clock;
  CircuitBreaker breaker(opts);
  // Three failures: below min_samples, must not trip yet.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // 4 of 4 failed >= 50%
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.stats().opens, 1u);
  EXPECT_GE(breaker.stats().rejected, 1u);
}

TEST(CircuitBreakerTest, CooldownProbesThenRecloses) {
  FakeClock clock;
  CircuitBreakerOptions opts;
  opts.window = 8;
  opts.min_samples = 2;
  opts.failure_threshold = 0.5;
  opts.open_cooldown_us = 1000;
  opts.half_open_probes = 2;
  opts.clock = &clock;
  CircuitBreaker breaker(opts);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());  // cooldown still running
  clock.Advance(1000);
  EXPECT_TRUE(breaker.Allow());  // first probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Allow());   // second probe
  EXPECT_FALSE(breaker.Allow());  // probe quota reached
  breaker.RecordSuccess();
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().closes, 1u);
  // The window was blanked on open: one new failure (below min_samples)
  // must not immediately re-trip the fresh close.
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
}

TEST(CircuitBreakerTest, ProbeFailureReopensAndRestartsCooldown) {
  FakeClock clock;
  CircuitBreakerOptions opts;
  opts.min_samples = 2;
  opts.open_cooldown_us = 1000;
  opts.clock = &clock;
  CircuitBreaker breaker(opts);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  clock.Advance(1000);
  ASSERT_TRUE(breaker.Allow());  // probe
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.stats().opens, 2u);
  EXPECT_FALSE(breaker.Allow());  // new cooldown
}

TEST(CircuitBreakerTest, RecordCancelReleasesProbeSlot) {
  FakeClock clock;
  CircuitBreakerOptions opts;
  opts.min_samples = 2;
  opts.open_cooldown_us = 100;
  opts.half_open_probes = 1;
  opts.clock = &clock;
  CircuitBreaker breaker(opts);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  clock.Advance(100);
  ASSERT_TRUE(breaker.Allow());   // the only probe slot
  EXPECT_FALSE(breaker.Allow());  // quota reached
  breaker.RecordCancel();         // probe abandoned (e.g. deadline expiry)
  EXPECT_TRUE(breaker.Allow());   // slot released: next caller probes
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.stats().cancels, 1u);
}

class FailpointSpecTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::DisarmAll(); }
};

TEST_F(FailpointSpecTest, FireCountHealsTheSite) {
  failpoints::FailpointSpec spec;
  spec.fire_count = 1;  // one transient fault, then healed
  failpoints::ArmSpec("test::heal", spec);
  EXPECT_TRUE(failpoints::Triggered("test::heal"));
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(failpoints::Triggered("test::heal")) << "hit " << i;
  }
  EXPECT_EQ(failpoints::FireCount("test::heal"), 1u);
}

TEST_F(FailpointSpecTest, SucceedFirstWindowThenFires) {
  failpoints::FailpointSpec spec;
  spec.succeed_first = 2;
  failpoints::ArmSpec("test::window", spec);
  EXPECT_FALSE(failpoints::Triggered("test::window"));
  EXPECT_FALSE(failpoints::Triggered("test::window"));
  EXPECT_TRUE(failpoints::Triggered("test::window"));
  EXPECT_TRUE(failpoints::Triggered("test::window"));
}

TEST_F(FailpointSpecTest, ProbabilisticFiringIsSeedDeterministic) {
  failpoints::FailpointSpec spec;
  spec.probability = 0.5;
  spec.seed = 42;
  failpoints::ArmSpec("test::prob", spec);
  std::vector<bool> first;
  for (int i = 0; i < 200; ++i) first.push_back(failpoints::Triggered("test::prob"));
  failpoints::ArmSpec("test::prob", spec);  // re-arm resets the hit counter
  std::vector<bool> second;
  for (int i = 0; i < 200; ++i) second.push_back(failpoints::Triggered("test::prob"));
  EXPECT_EQ(first, second);
  size_t fired = static_cast<size_t>(std::count(first.begin(), first.end(), true));
  // Loose bounds: p=0.5 over 200 hits lands well inside [60, 140].
  EXPECT_GT(fired, 60u);
  EXPECT_LT(fired, 140u);
  failpoints::FailpointSpec other = spec;
  other.seed = 43;
  failpoints::ArmSpec("test::prob", other);
  std::vector<bool> third;
  for (int i = 0; i < 200; ++i) third.push_back(failpoints::Triggered("test::prob"));
  EXPECT_NE(first, third);  // a different seed decides differently
}

TEST_F(FailpointSpecTest, KindSelectionCoversRange) {
  failpoints::FailpointSpec spec;
  spec.num_kinds = 3;
  spec.seed = 7;
  failpoints::ArmSpec("test::kinds", spec);
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    int kind = failpoints::TriggeredKind("test::kinds");
    ASSERT_GE(kind, 0);  // probability 1: every hit fires
    ASSERT_LT(kind, 3);
    seen.insert(kind);
  }
  EXPECT_EQ(seen.size(), 3u) << "200 draws should cover all 3 kinds";
}

TEST_F(FailpointSpecTest, RetryPolicyAbsorbsTransientFailpoint) {
  // The composition the serving layer relies on: a fire_count=1 fault plus
  // a 3-attempt policy means the caller never sees the error.
  failpoints::FailpointSpec spec;
  spec.fire_count = 1;
  failpoints::ArmSpec("test::transient", spec);
  FakeClock clock;
  RetryOptions opts;
  opts.clock = &clock;
  RetryPolicy policy(opts);
  RetryPolicy::Outcome out = policy.Run([] {
    return failpoints::Triggered("test::transient")
               ? Status::IoError("injected")
               : Status::OK();
  });
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 2);
}

// ---------------------------------------------------------------- Flags

struct FlagTargets {
  std::string name = "default";
  std::string mode = "hogwild";
  size_t count = 4;
  uint16_t port = 0;
  double scale = 1.0;
  bool on = false;
};

Flags MakeFlags(FlagTargets* t) {
  Flags flags("prog");
  flags.String("--name", &t->name, "a name");
  flags.String("--mode", &t->mode, "a mode", {"hogwild", "deterministic"});
  flags.Unsigned("--count", &t->count, "a count");
  flags.Unsigned("--port", &t->port, "a port");
  flags.Double("--scale", &t->scale, "a scale");
  flags.Bool("--on", &t->on, "a switch");
  return flags;
}

Status ParseArgs(Flags* flags, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return flags->Parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagsTest, ValidParseSetsEveryType) {
  FlagTargets t;
  Flags flags = MakeFlags(&t);
  ASSERT_TRUE(ParseArgs(&flags, {"--name", "x", "--mode", "deterministic",
                                 "--count", "18446744073709551615", "--port",
                                 "65535", "--scale", "-0.25", "--on"})
                  .ok());
  EXPECT_FALSE(flags.help_requested());
  EXPECT_EQ(t.name, "x");
  EXPECT_EQ(t.mode, "deterministic");
  EXPECT_EQ(t.count, std::numeric_limits<size_t>::max());
  EXPECT_EQ(t.port, 65535);
  EXPECT_EQ(t.scale, -0.25);
  EXPECT_TRUE(t.on);

  // No arguments leaves every default in place.
  FlagTargets d;
  Flags empty = MakeFlags(&d);
  ASSERT_TRUE(ParseArgs(&empty, {}).ok());
  EXPECT_EQ(d.count, 4u);
  EXPECT_FALSE(d.on);
}

TEST(FlagsTest, RejectsBadInputWithAMessage) {
  const std::vector<std::pair<std::vector<const char*>, std::string>> cases =
      {
          {{"--no-such-flag"}, "unknown flag '--no-such-flag'"},
          {{"--count"}, "--count needs a <uint> value"},
          {{"--count", "--on"}, "--count needs a <uint> value"},
          {{"--count", "abc"}, "bad value 'abc' for --count"},
          {{"--count", "12x"}, "bad value '12x' for --count"},
          {{"--count", "-1"}, "bad value '-1' for --count"},
          {{"--count", " 1"}, "bad value ' 1' for --count"},
          {{"--count", "18446744073709551616"}, "bad value"},
          {{"--port", "70000"}, "bad value '70000' for --port (expects "
                                "<0..65535>)"},
          {{"--scale", "x"}, "bad value 'x' for --scale"},
          {{"--scale", "inf"}, "bad value 'inf' for --scale"},
          {{"--mode", "fast"}, "bad value 'fast' for --mode (expects "
                               "<hogwild|deterministic>)"},
          {{"--on", "--on"}, "flag --on given twice"},
      };
  for (const auto& [args, message] : cases) {
    FlagTargets t;
    Flags flags = MakeFlags(&t);
    Status s = ParseArgs(&flags, args);
    ASSERT_FALSE(s.ok()) << args.front();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find(message), std::string::npos) << s.message();
  }
}

TEST(FlagsTest, BoolFlagTakesNoValue) {
  FlagTargets t;
  Flags flags = MakeFlags(&t);
  // A valueless bool does not swallow the next flag.
  ASSERT_TRUE(ParseArgs(&flags, {"--on", "--count", "9"}).ok());
  EXPECT_TRUE(t.on);
  EXPECT_EQ(t.count, 9u);

  FlagTargets u;
  Flags with_value = MakeFlags(&u);
  Status s = ParseArgs(&with_value, {"--on", "1"});
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unknown flag '1'"), std::string::npos);
}

TEST(FlagsTest, HelpReturnsTheUsageTable) {
  FlagTargets t;
  Flags flags = MakeFlags(&t);
  ASSERT_TRUE(ParseArgs(&flags, {"--help", "--no-such-flag"}).ok());
  EXPECT_TRUE(flags.help_requested());
  const std::string usage = flags.Usage();
  EXPECT_EQ(usage.rfind("usage: prog [flags]\n", 0), 0u);
  for (const char* line :
       {"--name <string>", "--mode <hogwild|deterministic>",
        "--count <uint>", "--port <0..65535>", "--scale <float>", "--on ",
        "(default: 4)", "--help"}) {
    EXPECT_NE(usage.find(line), std::string::npos) << line;
  }
}

}  // namespace
}  // namespace openbg::util
