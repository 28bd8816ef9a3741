#include <chrono>
#include <unordered_set>
#include <vector>

#include "kge/trainer.h"
#include "perfbench/src/workloads.h"
#include "util/rng.h"

namespace openbg::perfbench {

namespace config {

serve::EngineOptions WireEngine() {
  serve::EngineOptions o;
  o.num_threads = 1;
  o.cache_enabled = true;
  o.cache_capacity = kWireCacheCapacity;
  return o;
}

net::ServerOptions WireServer() {
  net::ServerOptions o;
  o.event_threads = 1;
  o.worker_threads = 1;
  // One paid tenant with an unlimited bucket: nothing is ever shed.
  o.governor.default_tenant = {1e12, 1e12, net::Tier::kPaid};
  return o;
}

serve::EngineOptions TopkEngine() {
  serve::EngineOptions o;
  o.num_threads = 2;
  // Uniform keys never coalesce; one request per drain keeps the two
  // workers scanning in parallel instead of one draining both.
  o.max_batch = 1;
  o.cache_enabled = false;
  return o;
}

serve::EngineOptions GraphEngine(bool cache) {
  serve::EngineOptions o;
  o.num_threads = 1;
  o.cache_enabled = cache;
  o.cache_capacity = kGraphCacheCapacity;
  return o;
}

}  // namespace config

double TrainAndMeasure(kge::KgeModel* model, const kge::Dataset& dataset,
                       kge::TrainConfig config, Samples* epoch_us) {
  std::vector<Clock::time_point> marks;
  config.on_epoch = [&marks](size_t, double) { marks.push_back(Clock::now()); };
  kge::TrainKgeModel(model, dataset, config);
  if (marks.size() < 2) return 0.0;
  for (size_t i = 1; epoch_us != nullptr && i < marks.size(); ++i) {
    epoch_us->Add(
        std::chrono::duration<double, std::micro>(marks[i] - marks[i - 1])
            .count());
  }
  const double s =
      std::chrono::duration<double>(marks.back() - marks.front()).count();
  return static_cast<double>(dataset.train.size() * (marks.size() - 1)) / s;
}

std::unique_ptr<core::OpenBG> BuildWorldKg(uint64_t seed, size_t products) {
  core::OpenBG::Options opts;
  opts.world.scale = config::kWorldScale;
  opts.world.num_products = products;
  opts.world.seed = seed;
  return core::OpenBG::Build(opts);
}

ServingWorld BuildServingWorld(uint64_t seed, size_t products,
                               size_t train_epochs) {
  ServingWorld w;
  w.kg = BuildWorldKg(seed, products);

  bench_builder::BenchmarkSpec spec;
  spec.name = "serving-load";
  spec.num_relations = 20;
  spec.dev_size = 100;
  spec.test_size = 400;
  w.dataset = w.kg->BuildBenchmark(spec, nullptr);

  util::Rng rng(seed);
  w.model = std::make_unique<kge::TransE>(w.dataset.num_entities(),
                                          w.dataset.num_relations(),
                                          config::kModelDim, 1.0f, &rng);
  if (train_epochs > 0) {
    kge::TrainConfig tc;
    tc.epochs = train_epochs;
    tc.batch_size = config::kTrainBatch;
    tc.seed = seed;
    tc.num_threads = config::kSetupTrainThreads;
    w.train_triples_s = TrainAndMeasure(w.model.get(), w.dataset, tc);
  }
  w.model->PrepareEval();

  w.mapper = std::make_unique<construction::SchemaMapper>(w.kg->world().brands);
  // Distinct (h, r) top-K keys of the test split, in split order.
  std::unordered_set<uint64_t> seen;
  for (const kge::LpTriple& q : w.dataset.test) {
    if (seen.insert((static_cast<uint64_t>(q.h) << 32) | q.r).second) {
      w.topk_queries.push_back(q);
    }
  }
  w.products = w.kg->assembly().product_terms;
  std::unordered_set<std::string> mention_seen;
  for (const datagen::Product& p : w.kg->world().products) {
    if (!p.brand_mention.empty() &&
        mention_seen.insert(p.brand_mention).second) {
      w.mentions.push_back(p.brand_mention);
    }
  }
  return w;
}

}  // namespace openbg::perfbench
