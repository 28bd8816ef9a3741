// topk_uncached: in-process LinkPredictTopK(k=10) with the result cache and
// ANN off, uniform random (h, r) over a synthetic Gaussian-mixture TransE of
// kTopkEntities x kTopkDim (bench/serving_load's ann-scenario construction).
// The 5 MiB entity table exceeds one core's L2 and fits in L3. Two caller
// threads feed an engine with two workers; every call is a full ScoreTails
// scan plus SelectTopK, so kge/nn do most of the work. The workload is
// read-only; its model update is the fine-tune in set-up.

#include <memory>
#include <thread>
#include <vector>

#include "kge/trainer.h"
#include "perfbench/src/workloads.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace openbg::perfbench {
namespace {

struct TopkSetup {
  std::unique_ptr<kge::TransE> model;
  std::unique_ptr<serve::ServeContext> ctx;
  std::unique_ptr<serve::QueryEngine> engine;
  size_t entities = 0;
  double train_triples_s = 0.0;
  Samples tune_epoch_us;  // fine-tune epochs but the first
};

std::unique_ptr<TopkSetup> Setup(const RunOptions& opts) {
  auto s = std::make_unique<TopkSetup>();
  const size_t E = opts.size == Size::kTiny ? 2000 : config::kTopkEntities;
  const size_t D = config::kTopkDim;
  const size_t R = config::kTopkRelations;
  s->entities = E;
  util::Rng rng(opts.seed + 0xA55);
  auto model = std::make_unique<kge::TransE>(E, R, D, 1.0f, &rng);

  // Trained product embeddings cluster by category; a mixture of 96
  // centres with small per-entity jitter stands in for that structure.
  const size_t kCenters = 96;
  std::vector<float> centers(kCenters * D);
  for (float& c : centers) c = static_cast<float>(rng.Normal(0.0, 1.0));
  for (uint32_t e = 0; e < E; ++e) {
    const float* c = &centers[(e % kCenters) * D];
    float* row = model->entities().Row(e);
    for (size_t d = 0; d < D; ++d) {
      row[d] = c[d] + static_cast<float>(rng.Normal(0.0, 0.08));
    }
  }
  for (uint32_t r = 0; r < R; ++r) {
    float* row = model->relations().Row(r);
    for (size_t d = 0; d < D; ++d) {
      row[d] = static_cast<float>(rng.Normal(0.0, 0.05));
    }
  }

  // Fine-tuning on cluster-consistent triples (tails drawn from the head's
  // cluster): the served model is trained in set-up, as in wire_mixed, and
  // its throughput and epoch times are this workload's training readings.
  kge::Dataset ds;
  ds.entity_names.resize(E);
  ds.relation_names.resize(R);
  for (size_t i = 0; i < E; ++i) {
    ds.entity_names[i] = util::StrFormat("e%zu", i);
  }
  for (size_t i = 0; i < R; ++i) {
    ds.relation_names[i] = util::StrFormat("r%zu", i);
  }
  for (size_t i = 0; i < config::kTopkTuneTriplesPerEntity * E; ++i) {
    const uint32_t h = static_cast<uint32_t>(rng.Uniform(E));
    const uint32_t t = static_cast<uint32_t>(
        (rng.Uniform(E / kCenters) * kCenters + h % kCenters) % E);
    ds.train.push_back({h, static_cast<uint32_t>(rng.Uniform(R)), t});
  }
  kge::TrainConfig tc;
  tc.epochs = config::kTopkTuneEpochs;
  tc.batch_size = config::kTrainBatch;
  tc.lr = 0.01f;
  tc.seed = opts.seed;
  tc.num_threads = config::kSetupTrainThreads;
  s->train_triples_s =
      TrainAndMeasure(model.get(), ds, tc, &s->tune_epoch_us);
  model->PrepareEval();
  s->model = std::move(model);

  serve::ServeContext::Bindings b;
  b.model = s->model.get();
  s->ctx = std::make_unique<serve::ServeContext>(b);
  s->engine =
      std::make_unique<serve::QueryEngine>(s->ctx.get(), config::TopkEngine());
  return s;
}

struct Answer {
  uint32_t h = 0, r = 0;
  std::vector<serve::ScoredEntity> topk;
};

/// One caller's share of a window.
struct CallerStats {
  Samples call_us;
  uint64_t not_ok = 0;
  std::vector<Answer> kept;  // answers kept for the reference check
  Trace trace;

  explicit CallerStats(bool traced) : trace(traced) {}
};

/// A caller issues uniform queries until the window closes.
void Caller(TopkSetup* s, util::Rng* rng, Clock::time_point end, size_t keep,
            CallerStats* out) {
  for (uint64_t i = 0;; ++i) {
    const uint32_t h = static_cast<uint32_t>(rng->Uniform(s->entities));
    const uint32_t r =
        static_cast<uint32_t>(rng->Uniform(config::kTopkRelations));
    Clock::time_point t0 = Clock::now();
    if (t0 >= end) break;
    int64_t span = out->trace.Begin("serve.engine_call", i);
    serve::Response resp = s->engine->LinkPredictTopK(h, r, config::kTopkK);
    out->trace.End(span);
    out->call_us.Add(MicrosSince(t0));
    if (!resp.ok()) ++out->not_ok;
    if (out->kept.size() < keep) out->kept.push_back({h, r, resp.payload.topk});
  }
}

/// One window with kTopkCallers threads (the calling thread is caller 0).
struct TopkWindow {
  CallerStats all;
  double seconds = 0;
  double rate() const {
    return static_cast<double>(all.call_us.count()) / seconds;
  }
};

TopkWindow RunWindow(TopkSetup* s, std::vector<util::Rng>* rngs,
                     double seconds, bool traced, size_t keep) {
  std::vector<std::unique_ptr<CallerStats>> stats;
  for (size_t c = 0; c < config::kTopkCallers; ++c) {
    stats.push_back(std::make_unique<CallerStats>(traced));
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 1; c < config::kTopkCallers; ++c) {
    threads.emplace_back(Caller, s, &(*rngs)[c], end, keep, stats[c].get());
  }
  Caller(s, &(*rngs)[0], end, keep, stats[0].get());
  for (std::thread& t : threads) t.join();
  TopkWindow w{std::move(*stats[0]), SecondsSince(start)};
  for (size_t c = 1; c < stats.size(); ++c) {
    CallerStats& o = *stats[c];
    w.all.call_us.Merge(o.call_us);
    w.all.not_ok += o.not_ok;
    w.all.kept.insert(w.all.kept.end(), o.kept.begin(), o.kept.end());
    w.all.trace.Merge(o.trace);
  }
  return w;
}

/// Checks a window's calls, outside the window: every call ok, and every
/// kept answer equal to a direct ScoreTails + SelectTopK on the model.
void CheckWindow(const TopkSetup& s, const TopkWindow& w, RunResult* result) {
  result->attempted += w.all.call_us.count();
  if (w.all.not_ok > 0) {
    result->Fail(util::StrFormat(
        "%llu top-K calls not ok",
        static_cast<unsigned long long>(w.all.not_ok)));
  }
  std::vector<float> scores;
  for (const Answer& a : w.all.kept) {
    s.model->ScoreTails(a.h, a.r, &scores);
    std::string bad =
        CheckTopK(a.topk, serve::SelectTopK(scores, config::kTopkK));
    if (!bad.empty()) result->Fail(bad);
  }
}

std::vector<util::Rng> CallerRngs(uint64_t seed) {
  std::vector<util::Rng> rngs;
  for (size_t c = 0; c < config::kTopkCallers; ++c) {
    rngs.emplace_back(seed * 1000 + c);
  }
  return rngs;
}

/// The per-layer run: one set-up, an untraced and a traced half window,
/// then direct kge/serve calls on the workload's query distribution.
RunResult TracedRun(const RunOptions& opts, RunResult result) {
  std::unique_ptr<TopkSetup> s = Setup(opts);
  std::vector<util::Rng> rngs = CallerRngs(opts.seed);
  RunWindow(s.get(), &rngs, config::kWarmupSeconds, false, 0);
  TopkWindow w = RunWindow(s.get(), &rngs, opts.seconds / 2, false, 0);
  TopkWindow tw = RunWindow(s.get(), &rngs, opts.seconds / 2, true, 0);
  CheckWindow(*s, w, &result);
  CheckWindow(*s, tw, &result);
  Trace& trace = tw.all.trace;

  // Single-threaded, with nothing else running.
  util::Rng probe_rng(opts.seed * 1000 + 99);
  const size_t probes = opts.size == Size::kTiny ? 100 : 2000;
  std::vector<float> scores;
  for (size_t i = 0; i < probes; ++i) {
    const uint32_t h = static_cast<uint32_t>(probe_rng.Uniform(s->entities));
    const uint32_t r =
        static_cast<uint32_t>(probe_rng.Uniform(config::kTopkRelations));
    {
      ScopedSpan span(&trace, "kge.score_tails", i);
      s->model->ScoreTails(h, r, &scores);
    }
    std::vector<serve::ScoredEntity> top;
    {
      ScopedSpan span(&trace, "serve.select_topk", i);
      top = serve::SelectTopK(scores, config::kTopkK);
    }
    if (top.size() != config::kTopkK) result.Fail("SelectTopK short answer");
  }
  const double score_us = Median(trace.Durations("kge.score_tails"));
  const double select_us = Median(trace.Durations("serve.select_topk"));
  const double table_bytes =
      static_cast<double>(s->entities * config::kTopkDim * sizeof(float));
  result.Set("kge.score_tails_us", score_us, "us");
  // Computed bytes (the entity table) over the measured scan time.
  result.Set("nn.scan_gbps", table_bytes / (score_us * 1e3), "GB/s");
  result.Set("serve.select_topk_us", select_us, "us");
  result.Set("serve.handoff_us",
             w.all.call_us.Percentile(50) - score_us - select_us, "us");
  result.Set("trace.overhead_pct", TraceOverheadPct(w.rate(), tw.rate()), "%");
  util::Status st = trace.Write(opts.workdir + "/trace_topk_uncached.tsv");
  if (!st.ok()) result.Fail(st.message());
  return result;
}

}  // namespace

RunResult RunTopkUncached(const RunOptions& opts) {
  RunResult result;
  result.threads = config::kTopkCallers + config::TopkEngine().num_threads;
  if (opts.trace) return TracedRun(opts, std::move(result));

  RoundMedians m;
  // Ten epochs per set-up are too few for a p90 with ten samples beyond it,
  // so the epoch times of all rounds' set-ups are pooled.
  Samples tune_epoch_us;
  const size_t keep = opts.size == Size::kTiny ? 20 : 100;
  for (size_t round = 0; round < config::kRounds; ++round) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<TopkSetup> s = Setup(opts);
    const double setup_s = SecondsSince(t0);
    std::vector<util::Rng> rngs = CallerRngs(opts.seed);
    RunWindow(s.get(), &rngs, config::kWarmupSeconds, false, 0);
    TopkWindow w =
        RunWindow(s.get(), &rngs, opts.seconds / config::kRounds, false, keep);
    CheckWindow(*s, w, &result);

    m.Add("throughput_qps", w.rate(), "1/s");
    m.Add("p50_us", w.all.call_us.Percentile(50), "us");
    m.Add("p90_us", w.all.call_us.Percentile(90), "us");
    m.Add("train_triples_s", s->train_triples_s, "1/s");
    m.Add("setup_s", setup_s, "s");
    tune_epoch_us.Merge(s->tune_epoch_us);
  }
  m.Report(&result);
  result.Set("write_p50_us", tune_epoch_us.Percentile(50), "us");
  result.Set("write_p90_us", tune_epoch_us.Percentile(90), "us");
  result.Set("peak_rss_mib", PeakRssMib(), "MiB");
  return result;
}

}  // namespace openbg::perfbench
