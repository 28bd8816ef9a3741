#ifndef OPENBG_PERFBENCH_WORKLOADS_H_
#define OPENBG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "construction/schema_mapper.h"
#include "core/openbg.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "net/server.h"
#include "perfbench/src/common.h"
#include "rdf/triple_store.h"
#include "serve/engine.h"

namespace openbg::perfbench {

// Every server and engine setting the benchmark uses lives here, applied
// only through the public option structs. Thread budget per workload (all
// layers counted) must stay <= nproc, which RunWorkload asserts.
namespace config {

// A run measures kRounds rounds of --seconds / kRounds each, every round
// with its own set-up and warm-up; metrics are medians over the rounds.
inline constexpr size_t kRounds = 10;
inline constexpr double kWarmupSeconds = 0.25;

// The serving world (bench/serving_load's defaults).
inline constexpr double kWorldScale = 0.25;
inline constexpr size_t kWorldProducts = 1500;
inline constexpr size_t kModelDim = 32;
// wire_mixed's set-up training: 40 epochs, so the 39 it times take about
// 0.12 s. With 10 epochs (about 30 ms timed) its throughput spread 9-26%.
inline constexpr size_t kSetupTrainEpochs = 40;
// Set-up training runs Hogwild on every core; no other thread of the
// workload exists yet. Single-threaded, its throughput spread 20-40%.
inline constexpr size_t kSetupTrainThreads = 4;
inline constexpr size_t kTrainBatch = 512;

// wire_mixed: 1 client + 1 event + 1 worker + 1 drainer = 4 threads.
inline constexpr size_t kWireInFlight = 16;
inline constexpr double kZipf = 1.1;
inline constexpr size_t kWireCacheCapacity = 8192;
serve::EngineOptions WireEngine();
net::ServerOptions WireServer();

// topk_uncached: 2 callers + 2 engine workers = 4 threads.
inline constexpr size_t kTopkEntities = 20000;
inline constexpr size_t kTopkDim = 64;
inline constexpr size_t kTopkRelations = 16;
inline constexpr size_t kTopkCallers = 2;
inline constexpr size_t kTopkK = 10;
// The served model is fine-tuned in set-up on kTopkTuneTriplesPerEntity x
// kTopkEntities triples: kTopkTuneEpochs epochs, every one but the first
// timed, so a run's ten set-ups give 100 epoch times.
inline constexpr size_t kTopkTuneEpochs = 11;
inline constexpr size_t kTopkTuneTriplesPerEntity = 4;
serve::EngineOptions TopkEngine();

// graph_rw: 2 clients + 1 idle engine drainer = 3 threads. Two clients,
// not one: a single-threaded run took on the state of whichever core it
// ran on, and its spread was three times that of the other workloads.
inline constexpr size_t kGraphClients = 2;
inline constexpr size_t kGraphProducts = 2000;
inline constexpr size_t kGraphShards = 16;
inline constexpr size_t kGraphCacheCapacity = 256;
inline constexpr size_t kGraphWriteEvery = 16;  // one write per 16 operations
inline constexpr size_t kGraphHot = 256;        // Zipf-hot write targets
serve::EngineOptions GraphEngine(bool cache);

// train_kge: 4 Hogwild trainer threads (the caller only waits).
inline constexpr size_t kTrainProducts = 4000;
inline constexpr size_t kTrainThreads = 4;
inline constexpr size_t kTrainEpochs = 5;
inline constexpr double kMinDevMrr = 0.05;

}  // namespace config

/// The serving world: the synthetic business KG, its link-prediction split,
/// a TransE trained on it in set-up, and the request key spaces the
/// serving workloads draw from (rank 0 = hottest under Zipf).
struct ServingWorld {
  std::unique_ptr<core::OpenBG> kg;
  kge::Dataset dataset;
  std::unique_ptr<kge::TransE> model;
  std::unique_ptr<construction::SchemaMapper> mapper;
  std::vector<kge::LpTriple> topk_queries;
  std::vector<rdf::TermId> products;
  std::vector<std::string> mentions;
  double train_triples_s = 0.0;  // throughput of the set-up training
};

/// Trains `model` per `config` (which needs at least 2 epochs) and returns
/// the training throughput in triples per second over every epoch but the
/// first, which also pays for cold caches and the sampler's set-up. Those
/// epochs' wall times go to `epoch_us` when it is given.
double TrainAndMeasure(kge::KgeModel* model, const kge::Dataset& dataset,
                       kge::TrainConfig config, Samples* epoch_us = nullptr);

/// The serving world's synthetic business KG alone, built from `seed`.
std::unique_ptr<core::OpenBG> BuildWorldKg(uint64_t seed, size_t products);

/// Builds the world from `seed`. `train_epochs` == 0 skips model training.
ServingWorld BuildServingWorld(uint64_t seed, size_t products,
                               size_t train_epochs);

/// Runs one workload per `opts` (see RunOptions); the result carries the
/// end-to-end metrics, or the per-layer metrics when opts.trace is set.
RunResult RunWorkload(const RunOptions& opts);

RunResult RunWireMixed(const RunOptions& opts);
RunResult RunTopkUncached(const RunOptions& opts);
RunResult RunGraphRw(const RunOptions& opts);
RunResult RunTrainKge(const RunOptions& opts);

/// Every metric a run reports (untraced / traced), in BENCHMARK.json order
/// and with its units there; an untraced run that misses one fails.
struct MetricName {
  std::string name;
  std::string unit;
};
const std::vector<MetricName>& EndToEndMetrics();
const std::vector<MetricName>& PerLayerMetrics();

// ---- correctness gates ----------------------------------------------------
// Each returns an empty string when the check passes, else what differed.

/// wire_mixed: each request id in [1, sent] answered exactly once.
std::string CheckAnsweredOnce(const std::vector<uint8_t>& answers_per_id,
                              uint64_t sent);
/// wire_mixed: a wire payload digest against the precomputed in-process one.
std::string CheckDigest(uint64_t request_id, uint64_t got, uint64_t want);
/// topk_uncached: an engine answer against the ScoreTails + SelectTopK
/// reference.
std::string CheckTopK(const std::vector<serve::ScoredEntity>& got,
                      const std::vector<serve::ScoredEntity>& want);
/// graph_rw: a cached answer against the cache-off one, and the triples the
/// benchmark applied: every `present` triple must appear, no `absent` one.
std::string CheckGraphAnswer(const std::vector<rdf::Triple>& cached,
                             const std::vector<rdf::Triple>& uncached,
                             const std::vector<rdf::Triple>& present,
                             const std::vector<rdf::Triple>& absent);
/// train_kge: loss finite and below the first epoch's; dev MRR >= floor.
std::string CheckTraining(double first_loss, double final_loss, double mrr,
                          double min_mrr);

/// Wire payload with the provenance bytes (from_cache, degraded) zeroed, so
/// a cached answer digests like the in-process one.
uint64_t PayloadDigest(std::string_view payload);

/// The serve.cache_* per-layer metrics from ResultCache::stats() taken
/// before and after the measured windows; the hit ratio's base is lookups.
void SetCacheMetrics(const serve::ResultCache::Stats& before,
                     const serve::ResultCache::Stats& after, RunResult* r);

}  // namespace openbg::perfbench

#endif  // OPENBG_PERFBENCH_WORKLOADS_H_
