// google-benchmark micro-benchmarks for the hot substrate paths: triple
// store insert/query, trie matching, fuzzy resolution, CRF decode, GEMM,
// and the samplers. These guard the performance assumptions the
// table-reproduction benches rely on. Two one-shot serving scenarios
// (BM_AnnTopK, BM_ShardedServe) report their results as counters.

#include <benchmark/benchmark.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>

#include "ann/ivf_index.h"
#include "ann/quantizer.h"
#include "crf/crf.h"
#include "kge/bilinear_models.h"
#include "kge/evaluator.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "nn/kernels.h"
#include "nn/simd.h"
#include "rdf/graph.h"
#include "rdf/sharded_store.h"
#include "rdf/snapshot.h"
#include "serve/engine.h"
#include "serve/types.h"
#include "text/fuzzy.h"
#include "text/trie.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace openbg;

void BM_TripleStoreInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rdf::TripleStore store;
    util::Rng rng(7);
    state.ResumeTiming();
    for (int i = 0; i < state.range(0); ++i) {
      store.Add(static_cast<rdf::TermId>(rng.Uniform(10000)),
                static_cast<rdf::TermId>(rng.Uniform(50)),
                static_cast<rdf::TermId>(rng.Uniform(10000)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TripleStoreInsert)->Arg(10000)->Arg(100000);

void BM_TripleStoreQuery(benchmark::State& state) {
  rdf::TripleStore store;
  util::Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    store.Add(static_cast<rdf::TermId>(rng.Uniform(10000)),
              static_cast<rdf::TermId>(rng.Uniform(50)),
              static_cast<rdf::TermId>(rng.Uniform(10000)));
  }
  // Warm the indexes.
  benchmark::DoNotOptimize(store.CountMatches(
      {0, rdf::TriplePattern::kAny, rdf::TriplePattern::kAny}));
  for (auto _ : state) {
    rdf::TermId s = static_cast<rdf::TermId>(rng.Uniform(10000));
    benchmark::DoNotOptimize(store.CountMatches(
        {s, rdf::TriplePattern::kAny, rdf::TriplePattern::kAny}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleStoreQuery);

// Concurrent reads against a sealed store: the serving-path shape. The
// thread count comes from the benchmark's own --benchmark_ ... /threads.
void BM_TripleStoreSealedQueryParallel(benchmark::State& state) {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    util::Rng rng(7);
    for (int i = 0; i < 100000; ++i) {
      s->Add(static_cast<rdf::TermId>(rng.Uniform(10000)),
             static_cast<rdf::TermId>(rng.Uniform(50)),
             static_cast<rdf::TermId>(rng.Uniform(10000)));
    }
    s->SealIndexes();
    return s;
  }();
  util::Rng rng(100 + state.thread_index());
  for (auto _ : state) {
    rdf::TermId s = static_cast<rdf::TermId>(rng.Uniform(10000));
    benchmark::DoNotOptimize(store->CountMatches(
        {s, rdf::TriplePattern::kAny, rdf::TriplePattern::kAny}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TripleStoreSealedQueryParallel)->Threads(1)->Threads(8);

// Filtered link-prediction ranking. Args: {num_threads, query_batched}.
// The test split deliberately repeats (h, r) queries (each query has 4 true
// tails), so query batching scores 64 unique queries instead of 256 triples
// — the dedup ratio billion-scale splits exhibit. Metrics are identical
// across every arg combination; only wall-clock should move.
void BM_FilteredEvaluation(benchmark::State& state) {
  const size_t kEntities = 4000;
  static kge::Dataset* ds = [] {
    auto* d = new kge::Dataset();
    d->name = "bm";
    for (size_t i = 0; i < kEntities; ++i) {
      d->entity_names.push_back("e" + std::to_string(i));
      d->entity_text.push_back("t");
      d->entity_images.push_back({});
    }
    for (uint32_t r = 0; r < 4; ++r) {
      d->relation_names.push_back("r" + std::to_string(r));
    }
    for (uint32_t h = 0; h < kEntities; ++h) {
      for (uint32_t r = 0; r < 4; ++r) {
        for (uint32_t j = 0; j < 4; ++j) {
          d->train.push_back(
              {h, r,
               static_cast<uint32_t>((h + 17 * (r + 1) + 101 * j) %
                                     kEntities)});
        }
      }
    }
    // First 256 train triples = 16 heads x 4 relations x 4 tails: 64
    // unique tail-queries, each shared by 4 test triples.
    for (size_t i = 0; i < 256; ++i) d->test.push_back(d->train[i]);
    return d;
  }();
  static kge::TransE* model = [] {
    util::Rng rng(31);
    return new kge::TransE(kEntities, 4, 32, 1.0f, &rng);
  }();
  kge::RankingEvaluator::Options opts;
  opts.filtered = true;
  opts.num_threads = static_cast<size_t>(state.range(0));
  opts.query_batched = state.range(1) != 0;
  kge::RankingEvaluator evaluator(*ds, opts);
  for (auto _ : state) {
    kge::RankingMetrics m = evaluator.Evaluate(model);
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * ds->test.size());
}
BENCHMARK(BM_FilteredEvaluation)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_TrieLongestMatch(benchmark::State& state) {
  text::Trie trie;
  util::Rng rng(11);
  std::vector<std::string> keys;
  for (int i = 0; i < 5000; ++i) {
    std::string k = util::StrFormat("brand%05llu",
                                    (unsigned long long)rng.Uniform(99999));
    trie.Insert(k, i);
    keys.push_back(k);
  }
  std::string haystack = "new " + keys[42] + " deluxe " + keys[7] + " pack";
  for (auto _ : state) {
    benchmark::DoNotOptimize(trie.FindAll(haystack));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLongestMatch);

void BM_FuzzyResolve(benchmark::State& state) {
  text::FuzzyMatcher fuzzy(0.8);
  util::Rng rng(13);
  for (int i = 0; i < 2000; ++i) {
    fuzzy.AddCanonical(util::StrFormat("gazetteer%05llu",
                                       (unsigned long long)rng.Uniform(99999)),
                       i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fuzzy.Resolve("gazetteer01234x"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FuzzyResolve);

void BM_CrfDecode(benchmark::State& state) {
  const size_t num_labels = state.range(0);
  crf::LinearChainCrf model(num_labels, 1 << 15);
  crf::Sequence seq(16);
  util::Rng rng(17);
  for (auto& tok : seq) {
    for (int f = 0; f < 8; ++f) {
      tok.features.push_back(static_cast<uint32_t>(rng.Next()));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Decode(seq));
  }
  state.SetItemsProcessed(state.iterations() * seq.size());
}
BENCHMARK(BM_CrfDecode)->Arg(5)->Arg(49);

// Square GEMM under a forced kernel backend ("scalar" = reference loops,
// "auto" = best the CPU supports). The scalar/dispatched pair at the same
// size is the headline kernel-speedup number in BENCH_kernels.json.
void BM_Gemm(benchmark::State& state, const char* kernel) {
  const size_t n = state.range(0);
  util::Rng rng(19);
  nn::Matrix a(n, n), b(n, n), c(n, n);
  a.InitUniform(&rng, 1.0f);
  b.InitUniform(&rng, 1.0f);
  nn::simd::ForceKernel(kernel);
  for (auto _ : state) {
    nn::Gemm(a, false, b, false, 1.0f, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK_CAPTURE(BM_Gemm, scalar, "scalar")->Arg(64)->Arg(128)->Arg(512);
BENCHMARK_CAPTURE(BM_Gemm, dispatched, "auto")->Arg(64)->Arg(128)->Arg(512);

// Single-vector kernels at embedding-sized lengths.
void BM_DotKernel(benchmark::State& state, const char* kernel) {
  const size_t n = state.range(0);
  util::Rng rng(43);
  std::vector<float> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.UniformDouble());
    b[i] = static_cast<float>(rng.UniformDouble());
  }
  nn::simd::ForceKernel(kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::simd::Dot(a.data(), b.data(), n));
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_DotKernel, scalar, "scalar")->Arg(128)->Arg(1024);
BENCHMARK_CAPTURE(BM_DotKernel, dispatched, "auto")->Arg(128)->Arg(1024);

void BM_L1DistanceKernel(benchmark::State& state, const char* kernel) {
  const size_t n = state.range(0);
  util::Rng rng(47);
  std::vector<float> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.UniformDouble());
    b[i] = static_cast<float>(rng.UniformDouble());
  }
  nn::simd::ForceKernel(kernel);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::simd::L1Distance(a.data(), b.data(), n));
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK_CAPTURE(BM_L1DistanceKernel, scalar, "scalar")->Arg(128)->Arg(1024);
BENCHMARK_CAPTURE(BM_L1DistanceKernel, dispatched, "auto")
    ->Arg(128)
    ->Arg(1024);

// Full-entity candidate scans, the evaluator's inner loop: one
// translational model (TransE, L1-distance scan) and one bilinear model
// (DistMult, matrix-vector product), each under scalar vs dispatched
// kernels.
constexpr size_t kScoreEntities = 20000;
constexpr size_t kScoreDim = 128;

void BM_ScoreTailsTransE(benchmark::State& state, const char* kernel) {
  static kge::TransE* model = [] {
    util::Rng rng(41);
    auto* m = new kge::TransE(kScoreEntities, 4, kScoreDim, 1.0f, &rng);
    m->PrepareEval();
    return m;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<float> scores;
  uint32_t h = 0;
  for (auto _ : state) {
    model->ScoreTails(h, h % 4, &scores);
    benchmark::DoNotOptimize(scores.data());
    h = (h + 1) % kScoreEntities;
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
}
BENCHMARK_CAPTURE(BM_ScoreTailsTransE, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScoreTailsTransE, dispatched, "auto");

void BM_ScoreTailsDistMult(benchmark::State& state, const char* kernel) {
  static kge::DistMult* model = [] {
    util::Rng rng(53);
    auto* m = new kge::DistMult(kScoreEntities, 4, kScoreDim, &rng);
    m->PrepareEval();
    return m;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<float> scores;
  uint32_t h = 0;
  for (auto _ : state) {
    model->ScoreTails(h, h % 4, &scores);
    benchmark::DoNotOptimize(scores.data());
    h = (h + 1) % kScoreEntities;
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
}
BENCHMARK_CAPTURE(BM_ScoreTailsDistMult, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScoreTailsDistMult, dispatched, "auto");

// Quantized row scans — the ANN cluster-scan inner loop (PR 8). Same
// 20000 x 128 table as the float ScoreTails benches above, so the
// ScoreTails-vs-ScanI8 ratio at equal backend is the raw int8 win before
// IVF pruning multiplies it.
void BM_ScanDotI8(benchmark::State& state, const char* kernel) {
  static const auto* fixture = [] {
    struct Fixture {
      ann::QuantizedMatrix qm;
      std::vector<int8_t> q;
      float q_scale;
    };
    auto* f = new Fixture();
    util::Rng rng(59);
    nn::Matrix m(kScoreEntities, kScoreDim);
    m.InitUniform(&rng, 1.0f);
    f->qm.Build(m);
    std::vector<float> query(kScoreDim);
    for (float& x : query) x = static_cast<float>(rng.UniformDouble());
    f->q.resize(kScoreDim);
    f->q_scale = ann::QuantizeRowInt8(query.data(), kScoreDim, f->q.data());
    return f;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<float> out(kScoreEntities);
  for (auto _ : state) {
    nn::simd::Active().scan_dot_i8(fixture->q.data(), fixture->q_scale,
                                   fixture->qm.data(), fixture->qm.scales(),
                                   kScoreEntities, kScoreDim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
}
BENCHMARK_CAPTURE(BM_ScanDotI8, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScanDotI8, dispatched, "auto");

void BM_ScanL1I8(benchmark::State& state, const char* kernel) {
  static const auto* fixture = [] {
    struct Fixture {
      ann::QuantizedMatrix qm;
      std::vector<float> q;
    };
    auto* f = new Fixture();
    util::Rng rng(61);
    nn::Matrix m(kScoreEntities, kScoreDim);
    m.InitUniform(&rng, 1.0f);
    f->qm.Build(m);
    f->q.resize(kScoreDim);
    for (float& x : f->q) x = static_cast<float>(rng.UniformDouble());
    return f;
  }();
  nn::simd::ForceKernel(kernel);
  std::vector<float> out(kScoreEntities);
  for (auto _ : state) {
    nn::simd::Active().scan_l1_i8(fixture->q.data(), fixture->qm.data(),
                                  fixture->qm.scales(), kScoreEntities,
                                  kScoreDim, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  nn::simd::ForceKernel("auto");
  state.SetItemsProcessed(state.iterations() * kScoreEntities);
}
BENCHMARK_CAPTURE(BM_ScanL1I8, scalar, "scalar");
BENCHMARK_CAPTURE(BM_ScanL1I8, dispatched, "auto");

// Completion of a 100-way coalesced LinkPredictTopK group (PR 8's drain
// fix). Before: every request sliced its own k-prefix from the selected
// candidates AND built its own cache copy — O(reqs) allocations of up to
// k_max entries each. After (what serve/engine.cc does now): one shared
// prefix payload per *distinct* k (few), built once, cache-inserted by
// pointer, copy-assigned per response.
void BM_TopKGroupCompletion(benchmark::State& state, bool shared_prefix) {
  constexpr size_t kMaxK = 64, kReqs = 100;
  std::vector<serve::ScoredEntity> cands(kMaxK);
  for (size_t i = 0; i < kMaxK; ++i) {
    cands[i] = {static_cast<uint32_t>(i * 7), 1.0f / (1.0f + i)};
  }
  // The serving mix: most clients ask k=10, a few ask deeper.
  std::vector<size_t> ks(kReqs);
  for (size_t i = 0; i < kReqs; ++i) {
    ks[i] = i % 10 == 0 ? kMaxK : (i % 10 == 1 ? 25 : 10);
  }
  std::vector<serve::Response> resps(kReqs);
  for (auto _ : state) {
    if (shared_prefix) {
      std::map<size_t, std::shared_ptr<serve::ResultPayload>> by_k;
      for (size_t i = 0; i < kReqs; ++i) {
        std::shared_ptr<serve::ResultPayload>& shared = by_k[ks[i]];
        if (shared == nullptr) {
          shared = std::make_shared<serve::ResultPayload>();
          shared->topk.assign(cands.begin(), cands.begin() + ks[i]);
        }
        benchmark::DoNotOptimize(shared.get());  // stands in: cache Insert
        resps[i].payload = *shared;
      }
    } else {
      for (size_t i = 0; i < kReqs; ++i) {
        resps[i].payload.topk.assign(cands.begin(), cands.begin() + ks[i]);
        auto owned =
            std::make_shared<serve::ResultPayload>(resps[i].payload);
        benchmark::DoNotOptimize(owned.get());
      }
    }
    benchmark::DoNotOptimize(resps.data());
  }
  state.SetItemsProcessed(state.iterations() * kReqs);
}
BENCHMARK_CAPTURE(BM_TopKGroupCompletion, per_request_slice, false);
BENCHMARK_CAPTURE(BM_TopKGroupCompletion, shared_prefix, true);

// KGE trainer throughput at 1/2/4 threads under both parallel strategies.
// Args: {num_threads, deterministic?}. Items processed = training triples,
// so the Rate column is triples/sec — the headline number BENCH_train.json
// exists for. Hogwild at T threads should approach T× the 1-thread rate on
// a multi-core host; deterministic trades some of that for bit-exactness.
void BM_Train(benchmark::State& state) {
  static kge::Dataset* ds = [] {
    auto* d = new kge::Dataset();
    d->name = "bm-train";
    const size_t kEntities = 2000;
    for (size_t i = 0; i < kEntities; ++i) {
      d->entity_names.push_back("e" + std::to_string(i));
      d->entity_text.push_back("t");
      d->entity_images.push_back({});
    }
    for (uint32_t r = 0; r < 4; ++r) {
      d->relation_names.push_back("r" + std::to_string(r));
    }
    for (uint32_t h = 0; h < kEntities; ++h) {
      for (uint32_t r = 0; r < 4; ++r) {
        d->train.push_back(
            {h, r, static_cast<uint32_t>((h + 17 * (r + 1)) % kEntities)});
      }
    }
    return d;
  }();
  kge::TrainConfig config;
  config.epochs = 1;
  config.batch_size = 256;
  config.num_threads = static_cast<size_t>(state.range(0));
  config.mode = state.range(1) != 0 ? kge::TrainMode::kDeterministic
                                    : kge::TrainMode::kHogwild;
  for (auto _ : state) {
    state.PauseTiming();
    util::Rng rng(31);
    kge::TransE model(ds->num_entities(), ds->num_relations(), 64, 1.0f,
                      &rng);
    state.ResumeTiming();
    kge::TrainKgeModel(&model, *ds, config);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(state.iterations() * ds->train.size());
}
BENCHMARK(BM_Train)
    ->ArgsProduct({{1, 2, 4}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Exact full scan vs the IVF+int8 index on uncached LinkPredictTopK
// (DESIGN.md Sec. 13). The entity table is a Gaussian mixture, the
// stand-in for category-clustered product embeddings and what IVF
// exploits. Two cache-off engines answer the same uniform (h, r) stream;
// counters give both throughputs, recall@10 of the ANN answers against
// the exact ones, the probed-cluster fraction and the index cost.
void BM_AnnTopK(benchmark::State& state) {
  constexpr size_t kEntities = 40000, kDim = 64, kRelations = 16;
  constexpr size_t kCenters = 96, kQueries = 1500, kRecallQueries = 400;
  util::Rng rng(7 + 0xA55);
  kge::TransE model(kEntities, kRelations, kDim, 1.0f, &rng);
  // 96 centres, per-entity jitter well inside the inter-centre distance.
  std::vector<float> centers(kCenters * kDim);
  for (float& c : centers) c = static_cast<float>(rng.Normal(0.0, 1.0));
  for (uint32_t e = 0; e < kEntities; ++e) {
    const float* c = &centers[(e % kCenters) * kDim];
    float* row = model.entities().Row(e);
    for (size_t d = 0; d < kDim; ++d) {
      row[d] = c[d] + static_cast<float>(rng.Normal(0.0, 0.08));
    }
  }
  for (uint32_t r = 0; r < kRelations; ++r) {
    float* row = model.relations().Row(r);
    for (size_t d = 0; d < kDim; ++d) {
      row[d] = static_cast<float>(rng.Normal(0.0, 0.05));
    }
  }

  for (auto _ : state) {
    ann::IvfOptions iopts;
    iopts.num_clusters = 128;
    iopts.nprobe = 8;
    util::Timer build_timer;
    std::shared_ptr<const ann::TailIndex> index =
        ann::TailIndex::Build(&model, iopts);
    const double build_s = build_timer.Seconds();

    serve::ServeContext::Bindings exact_b;
    exact_b.model = &model;
    serve::ServeContext exact_ctx(exact_b);
    serve::ServeContext::Bindings ann_b = exact_b;
    ann_b.ann_enabled = true;
    ann_b.ann = iopts;
    serve::ServeContext ann_ctx(ann_b);
    serve::EngineOptions eopts;
    eopts.num_threads = 1;
    eopts.cache_enabled = false;
    serve::QueryEngine exact_engine(&exact_ctx, eopts);
    serve::QueryEngine ann_engine(&ann_ctx, eopts);

    // Uniform pairs, so no coalescing or caching flatters either engine.
    std::vector<std::pair<uint32_t, uint32_t>> queries(kQueries);
    for (auto& q : queries) {
      q.first = static_cast<uint32_t>(rng.Uniform(kEntities));
      q.second = static_cast<uint32_t>(rng.Uniform(kRelations));
    }

    // Recall@10 first (also warms both engines' code paths).
    double recall_sum = 0.0;
    size_t recall_n = 0;
    for (size_t i = 0; i < kRecallQueries; ++i) {
      const auto& [h, r] = queries[i];
      serve::Response ex = exact_engine.LinkPredictTopK(h, r, 10);
      serve::Response ap = ann_engine.LinkPredictTopK(h, r, 10);
      if (!ex.ok() || !ap.ok() || ex.payload.topk.empty()) continue;
      size_t hit = 0;
      for (const serve::ScoredEntity& g : ex.payload.topk) {
        hit += std::any_of(
            ap.payload.topk.begin(), ap.payload.topk.end(),
            [&](const serve::ScoredEntity& a) { return a.id == g.id; });
      }
      recall_sum += static_cast<double>(hit) /
                    static_cast<double>(ex.payload.topk.size());
      ++recall_n;
    }

    auto qps = [&](serve::QueryEngine* engine) {
      util::Timer t;
      size_t ok = 0;
      for (const auto& [h, r] : queries) {
        ok += engine->LinkPredictTopK(h, r, 10).ok();
      }
      const double sec = t.Seconds();
      return sec > 0 ? static_cast<double>(ok) / sec : 0.0;
    };
    const double exact_qps = qps(&exact_engine);
    const double ann_qps = qps(&ann_engine);

    const serve::QueryEngine::AnnStats st = ann_engine.ann_stats();
    const double clusters = static_cast<double>(index->num_clusters());
    state.counters["exact_qps"] = exact_qps;
    state.counters["ann_qps"] = ann_qps;
    state.counters["speedup"] = exact_qps > 0 ? ann_qps / exact_qps : 0.0;
    state.counters["recall_at_10"] =
        recall_n > 0 ? recall_sum / static_cast<double>(recall_n) : 0.0;
    state.counters["probed_fraction"] =
        st.queries > 0 && clusters > 0
            ? static_cast<double>(st.probed_clusters) /
                  (static_cast<double>(st.queries) * clusters)
            : 0.0;
    state.counters["index_build_s"] = build_s;
    state.counters["index_bytes"] =
        static_cast<double>(index->memory_bytes());
  }
}
BENCHMARK(BM_AnnTopK)->Iterations(1)->Unit(benchmark::kMillisecond);

// fdatasync so the pages are clean, then POSIX_FADV_DONTNEED: evicts the
// store just written from the page cache, so the timed open and the cold
// pass measure lazy page-in rather than write-back residue.
void DropFileCaches(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    ::fdatasync(fd);
    ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
    ::close(fd);
  }
}

// The out-of-core store (DESIGN.md Sec. 14): a uniform graph about 11x an
// 8 MiB RAM budget is built into an OBGSNAP2 store, opened zero-copy with
// lazy verification, and serves a Zipf-skewed hot set of 256 subjects
// twice through the QueryEngine, cold (faulting pages in) then warm. The
// resident set must track the working set, not the graph size.
void BM_ShardedServe(benchmark::State& state) {
  constexpr size_t kTriples = 6'000'000, kShards = 32, kQueries = 2000;
  constexpr size_t kBudgetBytes = size_t{8} << 20;
  constexpr size_t kSubjects = kTriples / 5, kPredicates = 32;

  for (auto _ : state) {
    char tmpl[] = "/tmp/openbg-sharded-XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      state.SkipWithError("mkdtemp failed");
      break;
    }
    const std::string dir = tmpl;
    util::Rng rng(7 + 0x5AD);
    util::Timer build_timer;
    rdf::ShardedBuildOptions bopts;
    bopts.num_shards = kShards;
    rdf::ShardedStoreBuilder builder(dir, bopts);
    for (size_t i = 0; i < kTriples && builder.status().ok(); ++i) {
      builder.Add(static_cast<rdf::TermId>(rng.Uniform(kSubjects)),
                  static_cast<rdf::TermId>(rng.Uniform(kPredicates)),
                  static_cast<rdf::TermId>(rng.Uniform(kSubjects)));
    }
    const util::Status built = builder.Finish();
    const double build_ms = build_timer.Seconds() * 1e3;
    if (!built.ok()) {
      state.SkipWithError(("build failed: " + built.message()).c_str());
      std::filesystem::remove_all(dir);
      break;
    }
    DropFileCaches(dir);

    rdf::ShardedOpenOptions oopts;
    oopts.verify = rdf::ShardedOpenOptions::Verify::kOnFirstUse;
    util::Timer open_timer;
    util::Result<std::shared_ptr<const rdf::ShardedStore>> opened =
        rdf::ShardedStore::Open(dir, oopts);
    const double open_ms = open_timer.Seconds() * 1e3;
    if (!opened.ok()) {
      state.SkipWithError(
          ("open failed: " + opened.status().message()).c_str());
      std::filesystem::remove_all(dir);
      break;
    }
    std::shared_ptr<const rdf::ShardedStore> store = opened.value();
    const rdf::ShardedStoreStats at_open = store->Stats();

    serve::ServeContext::Bindings bindings;
    bindings.sharded = store;
    serve::ServeContext ctx(bindings);
    serve::EngineOptions eopts;
    eopts.num_threads = 1;
    eopts.cache_enabled = false;  // isolate page-cache warmth, not cache hits
    serve::QueryEngine engine(&ctx, eopts);

    util::ZipfSampler subject_zipf(256, 1.1);
    util::Rng qrng(7 + 0x5AE);
    std::vector<rdf::TermId> queries(kQueries);
    for (rdf::TermId& s : queries) {
      s = static_cast<rdf::TermId>(subject_zipf.Sample(&qrng));
    }
    auto pass_qps = [&] {
      util::Timer t;
      size_t completed = 0;
      for (rdf::TermId s : queries) completed += engine.Neighbors(s).ok();
      const double sec = t.Seconds();
      return sec > 0 ? static_cast<double>(completed) / sec : 0.0;
    };
    const double cold_qps = pass_qps();
    const double warm_qps = pass_qps();
    const rdf::ShardedStoreStats served = store->Stats();

    state.counters["build_ms"] = build_ms;
    state.counters["open_ms"] = open_ms;
    state.counters["cold_qps"] = cold_qps;
    state.counters["warm_qps"] = warm_qps;
    state.counters["graph_bytes"] = static_cast<double>(at_open.mapped_bytes);
    state.counters["budget_bytes"] = static_cast<double>(kBudgetBytes);
    state.counters["resident_after_open_bytes"] =
        static_cast<double>(at_open.resident_bytes);
    state.counters["resident_after_serve_bytes"] =
        static_cast<double>(served.resident_bytes);
    state.counters["resident_within_budget"] =
        served.resident_bytes <= kBudgetBytes;
    state.counters["store_ok"] = served.ok;
    std::filesystem::remove_all(dir);
  }
}
BENCHMARK(BM_ShardedServe)->Iterations(1)->Unit(benchmark::kMillisecond);

void BM_ZipfSampler(benchmark::State& state) {
  util::ZipfSampler zipf(100000, 1.1);
  util::Rng rng(23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSampler);

// KG snapshot durability path: serialize/deserialize a dict + store of
// Arg triples through the CRC-checked atomic-write container.
void PopulateSnapshotGraph(size_t num_triples, rdf::TermDict* dict,
                           rdf::TripleStore* store) {
  util::Rng rng(37);
  const size_t kTerms = num_triples / 4 + 8;
  for (size_t i = 0; i < kTerms; ++i) {
    dict->AddIri(util::StrFormat("http://openbg.example/t%zu", i));
  }
  for (size_t i = 0; i < num_triples; ++i) {
    store->Add(static_cast<rdf::TermId>(rng.Uniform(kTerms)),
               static_cast<rdf::TermId>(rng.Uniform(64)),
               static_cast<rdf::TermId>(rng.Uniform(kTerms)));
  }
}

void BM_SnapshotSave(benchmark::State& state) {
  rdf::TermDict dict;
  rdf::TripleStore store;
  PopulateSnapshotGraph(static_cast<size_t>(state.range(0)), &dict, &store);
  const std::string path = "/tmp/openbg_bm_snapshot.snap";
  for (auto _ : state) {
    OPENBG_CHECK_OK(rdf::SaveSnapshot(dict, store, path));
  }
  state.SetItemsProcessed(state.iterations() * store.size());
}
BENCHMARK(BM_SnapshotSave)->Arg(10000)->Arg(100000);

void BM_SnapshotLoad(benchmark::State& state) {
  rdf::TermDict dict;
  rdf::TripleStore store;
  PopulateSnapshotGraph(static_cast<size_t>(state.range(0)), &dict, &store);
  const std::string path = "/tmp/openbg_bm_snapshot.snap";
  OPENBG_CHECK_OK(rdf::SaveSnapshot(dict, store, path));
  for (auto _ : state) {
    rdf::TermDict loaded_dict;
    rdf::TripleStore loaded_store;
    OPENBG_CHECK_OK(rdf::LoadSnapshot(path, &loaded_dict, &loaded_store));
    benchmark::DoNotOptimize(loaded_store);
  }
  state.SetItemsProcessed(state.iterations() * store.size());
}
BENCHMARK(BM_SnapshotLoad)->Arg(10000)->Arg(100000);

void BM_DiscreteSampler(benchmark::State& state) {
  util::Rng rng(29);
  std::vector<double> weights(100000);
  for (double& w : weights) w = rng.UniformDouble() + 0.01;
  util::DiscreteSampler sampler(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(&rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiscreteSampler);

}  // namespace

// BENCHMARK_MAIN, plus the active SIMD backend in the JSON context and
// exit code 2 on an unknown flag, like every other bench binary.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::AddCustomContext("isa", openbg::nn::simd::Active().name);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
