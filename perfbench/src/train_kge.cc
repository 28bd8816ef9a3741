// train_kge: Hogwild TransE training on the serving world's benchmark split
// with kTrainThreads trainer threads, in passes of kTrainEpochs epochs from
// the same seeded initialisation. After each pass the freshly trained model
// answers the held-out (dev + test) top-10 queries (ScoreTails +
// SelectTopK) — the read side of this workload. The only workload for the
// kge trainer, negative sampler, GradSink and the nn axpy kernels.

#include <memory>
#include <thread>
#include <vector>

#include "kge/evaluator.h"
#include "kge/trainer.h"
#include "perfbench/src/workloads.h"
#include "util/rng.h"

namespace openbg::perfbench {
namespace {

struct TrainSetup {
  ServingWorld world;
  std::unique_ptr<kge::RankingEvaluator> evaluator;  // filtered, dev split
  std::vector<kge::LpTriple> held_out;                // dev + test
};

std::unique_ptr<TrainSetup> Setup(const RunOptions& opts) {
  auto s = std::make_unique<TrainSetup>();
  const size_t products =
      opts.size == Size::kTiny ? 400 : config::kTrainProducts;
  s->world = BuildServingWorld(opts.seed, products, 0);
  kge::RankingEvaluator::Options eo;
  eo.filtered = true;
  s->evaluator =
      std::make_unique<kge::RankingEvaluator>(s->world.dataset, eo);
  const kge::Dataset& ds = s->world.dataset;
  s->held_out = ds.dev;
  s->held_out.insert(s->held_out.end(), ds.test.begin(), ds.test.end());
  return s;
}

/// What one window of training passes measured.
struct Window {
  Samples epoch_us;  // epoch wall times
  Samples read_us;   // held-out top-10 queries on the trained model
  std::vector<double> pass_triples_s;
  std::vector<double> pass_reads_s;  // held-out queries answered per second
  std::unique_ptr<kge::TransE> last_model;
  std::vector<double> last_losses;
};

/// Answers the top-10 `queries` on `model`, dealt round-robin to
/// kTrainThreads reader threads (the trainer's threads have ended): one
/// thread would take on the state of whichever core it ran on. Spans go to
/// `trace` from the calling thread's share only.
void ReadHeldOut(const kge::KgeModel& model,
                 const std::vector<kge::LpTriple>& queries, uint64_t pass,
                 Trace* trace, Samples* out) {
  std::vector<Samples> lat(config::kTrainThreads);
  Trace off(false);
  auto read = [&](size_t t) {
    std::vector<float> scores;
    Trace* tr = t == 0 ? trace : &off;
    for (size_t i = t; i < queries.size(); i += config::kTrainThreads) {
      const Clock::time_point r0 = Clock::now();
      int64_t span = tr->Begin("kge.held_out_query", pass);
      model.ScoreTails(queries[i].h, queries[i].r, &scores);
      std::vector<serve::ScoredEntity> top =
          serve::SelectTopK(scores, config::kTopkK);
      tr->End(span);
      lat[t].Add(MicrosSince(r0));
    }
  };
  std::vector<std::thread> threads;
  for (size_t t = 1; t < config::kTrainThreads; ++t) {
    threads.emplace_back(read, t);
  }
  read(0);
  for (std::thread& th : threads) th.join();
  for (const Samples& s : lat) out->Merge(s);
}

/// Trains in passes until `seconds` have elapsed (at least one pass).
void RunPasses(TrainSetup* s, uint64_t seed, size_t threads, double seconds,
               Trace* trace, Window* w) {
  const kge::Dataset& ds = s->world.dataset;
  const Clock::time_point start = Clock::now();
  for (uint64_t pass = 0; pass == 0 || SecondsSince(start) < seconds; ++pass) {
    util::Rng rng(seed);
    auto model = std::make_unique<kge::TransE>(
        ds.num_entities(), ds.num_relations(), config::kModelDim, 1.0f, &rng);
    std::vector<double> losses;
    std::vector<Clock::time_point> marks;
    kge::TrainConfig tc;
    tc.epochs = config::kTrainEpochs;
    tc.batch_size = config::kTrainBatch;
    tc.seed = seed;
    tc.num_threads = threads;
    tc.mode = kge::TrainMode::kHogwild;
    tc.on_epoch = [&](size_t, double loss) {
      marks.push_back(Clock::now());
      losses.push_back(loss);
    };
    const Clock::time_point t0 = Clock::now();
    int64_t root = trace->Begin("kge.train_pass", pass);
    kge::TrainKgeModel(model.get(), ds, tc);
    trace->End(root);
    const double train_s = SecondsSince(t0);
    Clock::time_point prev = t0;
    for (Clock::time_point m : marks) {
      trace->Add("kge.epoch", prev, m, pass, root);
      w->epoch_us.Add(
          std::chrono::duration<double, std::micro>(m - prev).count());
      prev = m;
    }
    const double triples =
        static_cast<double>(ds.train.size() * config::kTrainEpochs);
    w->pass_triples_s.push_back(triples / train_s);

    model->PrepareEval();
    const Clock::time_point r0 = Clock::now();
    ReadHeldOut(*model, s->held_out, pass, trace, &w->read_us);
    w->pass_reads_s.push_back(static_cast<double>(s->held_out.size()) /
                              SecondsSince(r0));
    w->last_model = std::move(model);
    w->last_losses = losses;
  }
}

/// Gate on a window's last pass: loss finite and falling, dev MRR above a
/// floor.
void CheckWindow(const TrainSetup& s, const Window& w, RunResult* result) {
  result->attempted += w.epoch_us.count() + w.read_us.count();
  const kge::RankingMetrics m =
      s.evaluator->EvaluateOn(w.last_model.get(), s.world.dataset.dev);
  std::string bad =
      w.last_losses.empty()
          ? "no epoch reported a loss"
          : CheckTraining(w.last_losses.front(), w.last_losses.back(), m.mrr,
                          config::kMinDevMrr);
  if (!bad.empty()) result->Fail(bad);
}

/// The per-layer run: one set-up, an untraced and a traced half window,
/// then the 1-thread reference passes for the scaling ratio.
RunResult TracedRun(const RunOptions& opts, RunResult result) {
  std::unique_ptr<TrainSetup> s = Setup(opts);
  Trace off(false), trace(true);
  Window warm, w, tw, one;
  RunPasses(s.get(), opts.seed, config::kTrainThreads, config::kWarmupSeconds,
            &off, &warm);
  RunPasses(s.get(), opts.seed, config::kTrainThreads, opts.seconds / 2, &off,
            &w);
  RunPasses(s.get(), opts.seed, config::kTrainThreads, opts.seconds / 2,
            &trace, &tw);
  RunPasses(s.get(), opts.seed, 1, opts.size == Size::kTiny ? 0.2 : 1.0, &off,
            &one);
  CheckWindow(*s, w, &result);
  CheckWindow(*s, tw, &result);
  CheckWindow(*s, one, &result);

  result.Set("kge.epoch_s", Median(trace.Durations("kge.epoch")) * 1e-6, "s");
  result.Set("kge.scaling_4x",
             Median(tw.pass_triples_s) / Median(one.pass_triples_s), "ratio");
  result.Set("trace.overhead_pct",
             TraceOverheadPct(Median(w.pass_triples_s),
                              Median(tw.pass_triples_s)),
             "%");
  util::Status st = trace.Write(opts.workdir + "/trace_train_kge.tsv");
  if (!st.ok()) result.Fail(st.message());
  return result;
}

}  // namespace

RunResult RunTrainKge(const RunOptions& opts) {
  RunResult result;
  // The calling thread only waits inside TrainKgeModel while the trainer's
  // pool threads work.
  result.threads = config::kTrainThreads;
  if (opts.trace) return TracedRun(opts, std::move(result));

  RoundMedians m;
  Trace off(false);
  for (size_t round = 0; round < config::kRounds; ++round) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<TrainSetup> s = Setup(opts);
    const double setup_s = SecondsSince(t0);
    Window warm, w;
    RunPasses(s.get(), opts.seed, config::kTrainThreads,
              config::kWarmupSeconds, &off, &warm);
    RunPasses(s.get(), opts.seed, config::kTrainThreads,
              opts.seconds / config::kRounds, &off, &w);
    CheckWindow(*s, w, &result);

    m.Add("throughput_qps", Median(w.pass_reads_s), "1/s");
    m.Add("p50_us", w.read_us.Percentile(50), "us");
    m.Add("p90_us", w.read_us.Percentile(90), "us");
    m.Add("write_p50_us", w.epoch_us.Percentile(50), "us");
    m.Add("write_p90_us", w.epoch_us.Percentile(90), "us");
    m.Add("train_triples_s", Median(w.pass_triples_s), "1/s");
    m.Add("setup_s", setup_s, "s");
  }
  m.Report(&result);
  result.Set("peak_rss_mib", PeakRssMib(), "MiB");
  return result;
}

}  // namespace openbg::perfbench
