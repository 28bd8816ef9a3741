#ifndef OPENBG_BENCH_LP_COMMON_H_
#define OPENBG_BENCH_LP_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ann/ivf_index.h"
#include "bench/bench_common.h"
#include "kge/bilinear_models.h"
#include "kge/evaluator.h"
#include "kge/multimodal_models.h"
#include "kge/text_models.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "util/timer.h"

namespace openbg::bench {

/// One baseline row of Tables III/IV: a factory plus its training recipe
/// (epochs/lr/batch follow each model family's usual setup, scaled down;
/// text models use small batches because their dense heads train with
/// batch-mean gradients, while the embedding models apply per-triple
/// sparse updates).
struct LpBaseline {
  std::string paper_name;
  std::function<std::unique_ptr<kge::KgeModel>(const kge::Dataset&,
                                               util::Rng*)>
      make;
  kge::TrainConfig config;
};

inline kge::TrainConfig LpConfig(size_t epochs, float lr,
                                 size_t batch = 512) {
  kge::TrainConfig c;
  c.epochs = epochs;
  c.batch_size = batch;
  c.lr = lr;
  return c;
}

/// The single-modal baselines of Tables III/IV.
inline std::vector<LpBaseline> SingleModalBaselines(size_t dim) {
  return {
      {"TransE",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::TransE>(ds.num_entities(),
                                              ds.num_relations(), dim, 1.0f,
                                              rng);
       },
       LpConfig(30, 0.05f)},
      {"TransH",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::TransH>(ds.num_entities(),
                                              ds.num_relations(), dim, 1.0f,
                                              rng);
       },
       LpConfig(30, 0.05f)},
      {"TransD",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::TransD>(ds.num_entities(),
                                              ds.num_relations(), dim, 1.0f,
                                              rng);
       },
       LpConfig(30, 0.05f)},
      {"DistMult",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::DistMult>(ds.num_entities(),
                                                ds.num_relations(), dim,
                                                rng);
       },
       LpConfig(15, 0.1f)},
      {"ComplEx",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::ComplEx>(ds.num_entities(),
                                               ds.num_relations(), dim / 2,
                                               rng);
       },
       LpConfig(15, 0.1f)},
      {"TuckER",
       [](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::TuckEr>(ds.num_entities(),
                                              ds.num_relations(), 24, 16,
                                              rng);
       },
       LpConfig(20, 1.0f)},  // 1-N training: lr is per-query, scaled by 1/E
      {"KG-BERT",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::TextMatchModel>(ds, dim / 2, rng);
       },
       LpConfig(20, 0.05f, 64)},
      {"StAR",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::StarStyleModel>(ds, dim, rng);
       },
       LpConfig(8, 0.1f, 64)},
  };
}

/// The multimodal baselines of Table III.
inline std::vector<LpBaseline> MultiModalBaselines(size_t dim) {
  return {
      {"TransAE",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::TransAeModel>(ds, dim, 1.0f, 0.01f,
                                                    rng);
       },
       LpConfig(6, 0.05f)},
      {"RSME",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::RsmeModel>(ds, dim, 1.0f, rng);
       },
       LpConfig(15, 0.05f)},
      {"MKGformer",
       [dim](const kge::Dataset& ds, util::Rng* rng) {
         return std::make_unique<kge::MkgFusionModel>(ds, dim, 1.0f, rng);
       },
       LpConfig(10, 0.05f)},
  };
}

inline LpBaseline GenKgcBaseline(size_t dim) {
  return {"GenKGC",
          [dim](const kge::Dataset& ds, util::Rng* rng) {
            return std::make_unique<kge::GenKgcModel>(ds, dim, rng);
          },
          LpConfig(3, 0.3f, 64)};
}

/// Trains and evaluates one baseline; prints a Table-III-style row.
/// `eval_cap` bounds the ranked test triples (the paper similarly bounds
/// expensive baselines by available compute — "only one V100").
/// `threads > 1` shards the ranking across an evaluator thread pool; the
/// printed metrics are bit-identical to the serial run.
/// `train_threads`/`train_mode` select the trainer's parallel strategy
/// (kge/trainer.h): hogwild trades bit-reproducibility for speed, while
/// deterministic keeps results identical to a 1-thread run.
/// A non-empty `checkpoint_dir` makes training crash-safe: a per-model
/// checkpoint is written there each epoch and picked up on the next run.
inline kge::RankingMetrics RunLpBaseline(
    const LpBaseline& baseline, const kge::Dataset& ds, size_t eval_cap,
    bool print_mr, size_t threads = 1,
    const std::string& checkpoint_dir = std::string(),
    size_t train_threads = 1,
    kge::TrainMode train_mode = kge::TrainMode::kHogwild,
    const LpAnnOptions& ann = LpAnnOptions()) {
  util::Rng rng(0xBEEF ^ ds.train.size());
  std::unique_ptr<kge::KgeModel> model = baseline.make(ds, &rng);
  util::Timer timer;
  kge::TrainConfig config = baseline.config;
  config.num_threads = train_threads;
  config.mode = train_mode;
  if (!checkpoint_dir.empty()) {
    // Keyed by dataset AND model: one bench process trains the same model
    // names on several datasets (table4's -S and -L worlds), and a stale
    // checkpoint from another dataset must not be picked up.
    config.checkpoint_path = checkpoint_dir + "/" + ds.name + "-" +
                             baseline.paper_name + ".ckpt";
  }
  TrainKgeModel(model.get(), ds, config);
  double train_s = timer.Seconds();

  kge::RankingEvaluator::Options eopts;
  eopts.filtered = true;
  eopts.max_triples = eval_cap;
  eopts.num_threads = threads;
  bool ann_active = false;
  std::shared_ptr<const ann::TailIndex> index;
  if (ann.enabled) {
    model->PrepareEval();  // the spec's table must be eval-frozen
    ann::IvfOptions iopts;
    iopts.num_clusters = ann.clusters;
    iopts.nprobe = ann.nprobe;
    index = ann::TailIndex::Build(model.get(), iopts);
    if (index != nullptr) {
      // Deep enough that filtered ranks up to ~Hits@10 depth survive the
      // retrieval cut with room for filtered-out candidates.
      const size_t depth = std::max<size_t>(1024, 64 * ann.nprobe);
      eopts.tail_scorer = [index, depth](const kge::KgeModel&, uint32_t h,
                                         uint32_t r,
                                         std::vector<float>* out) {
        index->ScoreTailsApprox(h, r, depth, /*nprobe=*/0, out);
      };
      ann_active = true;
    }
  }
  kge::RankingEvaluator evaluator(ds, eopts);
  timer.Reset();
  kge::RankingMetrics m = evaluator.Evaluate(model.get());
  const char* suffix = ann_active ? ", ann" : "";
  if (print_mr) {
    std::printf("  %-12s %7.3f %7.3f %8.3f %7.0f %7.3f   (train %.0fs, eval %.0fs%s)\n",
                baseline.paper_name.c_str(), m.hits1, m.hits3, m.hits10,
                m.mr, m.mrr, train_s, timer.Seconds(), suffix);
  } else {
    std::printf("  %-12s %7.3f %7.3f %8.3f %7s %7.3f   (train %.0fs, eval %.0fs%s)\n",
                baseline.paper_name.c_str(), m.hits1, m.hits3, m.hits10, "-",
                m.mrr, train_s, timer.Seconds(), suffix);
  }
  std::fflush(stdout);
  return m;
}

inline void PrintLpHeader() {
  std::printf("  %-12s %7s %7s %8s %7s %7s\n", "Model", "Hits@1", "Hits@3",
              "Hits@10", "MR", "MRR");
}

}  // namespace openbg::bench

#endif  // OPENBG_BENCH_LP_COMMON_H_
