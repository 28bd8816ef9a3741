// Parallel-trainer suite: deterministic mode must be bit-identical to a
// 1-thread run at any thread count (per-epoch losses AND final parameters),
// Hogwild must still learn, capability fallbacks must preserve the serial
// arithmetic, and checkpoints written mid-run by a parallel trainer must
// resume exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kge/bilinear_models.h"
#include "kge/checkpoint.h"
#include "kge/evaluator.h"
#include "kge/multimodal_models.h"
#include "kge/text_models.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace openbg::kge {
namespace {

// Same deterministic world as kge_test's: relation r maps
// h -> (h + 11*(r+1)) % N, even ids carry images.
Dataset MakeParityDataset(size_t n = 40) {
  Dataset ds;
  ds.name = "parity";
  for (size_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back(util::StrFormat("uniq%zu", i));
    if (i % 2 == 0) {
      ds.entity_images.push_back(
          {static_cast<float>(i % 5), static_cast<float>(i % 3), 1.0f,
           static_cast<float>(i) / n});
    } else {
      ds.entity_images.push_back({});
    }
  }
  for (uint32_t r = 0; r < 3; ++r) {
    ds.relation_names.push_back("rel" + std::to_string(r));
  }
  for (uint32_t h = 0; h < n; ++h) {
    for (uint32_t r = 0; r < 3; ++r) {
      ds.train.push_back({h, r, static_cast<uint32_t>((h + 11 * (r + 1)) % n)});
    }
  }
  for (size_t i = 0; i < 15; ++i) ds.dev.push_back(ds.train[i * 3]);
  ds.test = ds.dev;
  return ds;
}

std::vector<std::vector<float>> SnapshotParams(KgeModel* model) {
  std::vector<std::vector<float>> out;
  model->VisitParams([&out](const std::string&, nn::Matrix* m) {
    out.emplace_back(m->data(), m->data() + m->size());
  });
  return out;
}

struct TrainRun {
  std::vector<double> epoch_losses;
  double final_loss = 0.0;
};

TrainRun Train(KgeModel* model, const Dataset& ds, TrainConfig config) {
  TrainRun run;
  config.on_epoch = [&run](size_t, double loss) {
    run.epoch_losses.push_back(loss);
  };
  run.final_loss = TrainKgeModel(model, ds, config);
  return run;
}

struct ModelFactory {
  std::string name;
  std::function<std::unique_ptr<KgeModel>(const Dataset&, util::Rng*)> make;
  float lr = 0.05f;
};

// Every checkpointable (VisitParams-bearing) model with deferred-gradient
// support: parity is asserted on raw parameter bytes.
const std::vector<ModelFactory>& CheckpointableFactories() {
  static const std::vector<ModelFactory> factories = {
      {"TransE",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransE>(ds.num_entities(),
                                         ds.num_relations(), 16, 1.0f, rng);
       }},
      {"TransH",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransH>(ds.num_entities(),
                                         ds.num_relations(), 16, 1.0f, rng);
       }},
      {"TransD",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransD>(ds.num_entities(),
                                         ds.num_relations(), 16, 1.0f, rng);
       }},
      {"DistMult",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<DistMult>(ds.num_entities(),
                                           ds.num_relations(), 16, rng);
       },
       0.1f},
      {"ComplEx",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<ComplEx>(ds.num_entities(),
                                          ds.num_relations(), 16, rng);
       },
       0.1f},
  };
  return factories;
}

class DeterministicParityTest : public ::testing::TestWithParam<size_t> {
 protected:
  const ModelFactory& factory() const {
    return CheckpointableFactories()[GetParam()];
  }
};

TEST_P(DeterministicParityTest, ThreadCountDoesNotChangeOneBit) {
  Dataset ds = MakeParityDataset();
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 32;
  config.lr = factory().lr;
  config.seed = 111;
  config.mode = TrainMode::kDeterministic;
  config.round_batches = 3;  // deliberately not a divisor of the batch count

  config.num_threads = 1;
  util::Rng rng1(42);
  auto reference = factory().make(ds, &rng1);
  TrainRun ref_run = Train(reference.get(), ds, config);
  std::vector<std::vector<float>> ref_params = SnapshotParams(reference.get());
  ASSERT_FALSE(ref_params.empty()) << factory().name;
  ASSERT_EQ(ref_run.epoch_losses.size(), config.epochs);

  for (size_t threads : {size_t{3}, size_t{8}}) {
    config.num_threads = threads;
    util::Rng rng(42);
    auto model = factory().make(ds, &rng);
    TrainRun run = Train(model.get(), ds, config);
    // Exact double equality: the per-batch losses are computed from
    // identical round-start parameters and folded in batch order with
    // Neumaier compensation, independent of sharding.
    EXPECT_EQ(ref_run.epoch_losses, run.epoch_losses)
        << factory().name << " threads=" << threads;
    EXPECT_EQ(ref_run.final_loss, run.final_loss)
        << factory().name << " threads=" << threads;
    std::vector<std::vector<float>> params = SnapshotParams(model.get());
    ASSERT_EQ(ref_params.size(), params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      EXPECT_EQ(ref_params[i], params[i])
          << factory().name << " threads=" << threads << " param block " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CheckpointableModels, DeterministicParityTest,
    ::testing::Range<size_t>(0, 5),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return CheckpointableFactories()[info.param].name;
    });

// Multimodal models have no VisitParams, so parity is asserted through the
// scoring function over every training triple instead of raw bytes.
TEST(DeterministicParityMultimodalTest, ScoresMatchAtAnyThreadCount) {
  Dataset ds = MakeParityDataset();
  std::vector<ModelFactory> factories = {
      {"TransAE",
       [](const Dataset& ds2, util::Rng* rng) {
         return std::make_unique<TransAeModel>(ds2, 16, 1.0f, 0.01f, rng);
       }},
      {"RSME",
       [](const Dataset& ds2, util::Rng* rng) {
         return std::make_unique<RsmeModel>(ds2, 16, 1.0f, rng);
       },
       0.1f},
      {"MkgFusion",
       [](const Dataset& ds2, util::Rng* rng) {
         return std::make_unique<MkgFusionModel>(ds2, 16, 1.0f, rng, 1 << 12);
       },
       0.1f},
  };
  for (const ModelFactory& factory : factories) {
    TrainConfig config;
    config.epochs = 3;
    config.batch_size = 32;
    config.lr = factory.lr;
    config.seed = 113;
    config.mode = TrainMode::kDeterministic;

    config.num_threads = 1;
    util::Rng rng1(57);
    auto reference = factory.make(ds, &rng1);
    TrainRun ref_run = Train(reference.get(), ds, config);
    reference->PrepareEval();

    config.num_threads = 8;
    util::Rng rng8(57);
    auto parallel = factory.make(ds, &rng8);
    TrainRun par_run = Train(parallel.get(), ds, config);
    parallel->PrepareEval();

    EXPECT_EQ(ref_run.epoch_losses, par_run.epoch_losses) << factory.name;
    for (const LpTriple& t : ds.train) {
      // Bitwise-equal floats, not NEAR: deterministic mode replays the
      // exact same op-log either way.
      EXPECT_EQ(reference->ScoreTriple(t.h, t.r, t.t),
                parallel->ScoreTriple(t.h, t.r, t.t))
          << factory.name << " (" << t.h << "," << t.r << "," << t.t << ")";
    }
  }
}

// Hogwild gives up bit-reproducibility; what it must keep is learning. The
// racing-update run has to improve ranking just like the serial baseline.
TEST(HogwildTest, RacingUpdatesStillLearn) {
  Dataset ds = MakeParityDataset(50);
  util::Rng rng(79);
  TransE model(ds.num_entities(), ds.num_relations(), 16, 1.0f, &rng);

  RankingEvaluator::Options eopts;
  eopts.filtered = true;
  RankingEvaluator evaluator(ds, eopts);
  RankingMetrics before = evaluator.EvaluateOn(&model, ds.dev);

  TrainConfig config;
  config.epochs = 40;
  config.batch_size = 32;
  config.seed = 101;
  config.num_threads = 4;
  config.mode = TrainMode::kHogwild;
  TrainKgeModel(&model, ds, config);

  RankingMetrics after = evaluator.EvaluateOn(&model, ds.dev);
  EXPECT_GT(after.mrr, before.mrr);
  EXPECT_GE(after.hits10, 0.2);
}

// Hogwild-safe stub that counts the triples its serial pre-pass sees.
class PrePassCounter : public KgeModel {
 public:
  explicit PrePassCounter(const Dataset& ds)
      : KgeModel(ds.num_entities(), ds.num_relations()) {}
  std::string name() const override { return "PrePassCounter"; }
  float ScoreTriple(uint32_t, uint32_t, uint32_t) const override {
    return 0.0f;
  }
  double TrainPairs(const std::vector<LpTriple>&,
                    const std::vector<LpTriple>&, float) override {
    return 0.0;
  }
  TrainCaps train_caps() const override { return {true, false}; }
  void AccumulateTargets(const std::vector<LpTriple>& pos) override {
    accumulated += pos.size();
  }
  size_t accumulated = 0;
};

// The Hogwild pre-pass (TuckER's target index) is complete after one pass
// over the train split, so each TrainKgeModel call runs it exactly once.
TEST(HogwildTest, PrePassRunsOncePerCall) {
  Dataset ds = MakeParityDataset();
  for (size_t epochs : {1, 3, 7}) {
    PrePassCounter model(ds);
    TrainConfig config;
    config.epochs = epochs;
    config.batch_size = 32;
    config.num_threads = 4;
    config.mode = TrainMode::kHogwild;
    TrainKgeModel(&model, ds, config);
    EXPECT_EQ(model.accumulated, ds.train.size()) << "epochs=" << epochs;
    TrainKgeModel(&model, ds, config);
    EXPECT_EQ(model.accumulated, 2 * ds.train.size()) << "epochs=" << epochs;
  }
}

// A model that declares no capabilities must fall back to the serial loop
// under both parallel modes — with arithmetic identical to num_threads=1.
TEST(StrategyFallbackTest, IncapableModelKeepsSerialArithmetic) {
  Dataset ds = MakeParityDataset();
  for (TrainMode mode : {TrainMode::kHogwild, TrainMode::kDeterministic}) {
    TrainConfig config;
    config.epochs = 2;
    config.batch_size = 32;
    config.lr = 0.02f;
    config.seed = 131;
    config.mode = mode;

    config.num_threads = 1;
    util::Rng rng1(61);
    TextMatchModel serial(ds, 16, &rng1, 1 << 12);
    TrainRun serial_run = Train(&serial, ds, config);

    config.num_threads = 4;
    util::Rng rng4(61);
    TextMatchModel requested(ds, 16, &rng4, 1 << 12);
    TrainRun fallback_run = Train(&requested, ds, config);

    EXPECT_EQ(serial_run.epoch_losses, fallback_run.epoch_losses)
        << "mode=" << static_cast<int>(mode);
    EXPECT_EQ(serial_run.final_loss, fallback_run.final_loss)
        << "mode=" << static_cast<int>(mode);
  }
}

// TuckER is hogwild-safe but cannot defer its 1-N updates, so a
// deterministic-mode request must serialize — and thus already be
// bit-identical at any thread count.
TEST(StrategyFallbackTest, TuckErDeterministicRequestSerializes) {
  Dataset ds = MakeParityDataset();
  TrainConfig config;
  config.epochs = 2;
  config.batch_size = 32;
  config.lr = 0.5f;
  config.seed = 137;
  config.mode = TrainMode::kDeterministic;

  config.num_threads = 1;
  util::Rng rng1(67);
  TuckEr serial(ds.num_entities(), ds.num_relations(), 12, 8, &rng1);
  TrainRun serial_run = Train(&serial, ds, config);

  config.num_threads = 8;
  util::Rng rng8(67);
  TuckEr parallel(ds.num_entities(), ds.num_relations(), 12, 8, &rng8);
  TrainRun parallel_run = Train(&parallel, ds, config);

  EXPECT_EQ(serial_run.epoch_losses, parallel_run.epoch_losses);
  EXPECT_EQ(serial_run.final_loss, parallel_run.final_loss);
}

// Crash/resume under the parallel deterministic trainer: interrupting after
// 3 of 6 epochs and resuming on a fresh model must reproduce the
// uninterrupted 6-epoch run bit for bit, at num_threads=4.
TEST(ParallelCheckpointTest, DeterministicResumeIsBitIdentical) {
  Dataset ds = MakeParityDataset();
  std::string path = ::testing::TempDir() + "/openbg_par_det.ckpt";
  std::remove(path.c_str());

  TrainConfig config;
  config.epochs = 6;
  config.batch_size = 32;
  config.lr = 0.05f;
  config.seed = 17;
  config.num_threads = 4;
  config.mode = TrainMode::kDeterministic;

  util::Rng rng_a(99);
  TransE uninterrupted(ds.num_entities(), ds.num_relations(), 16, 1.0f,
                       &rng_a);
  double loss_a = TrainKgeModel(&uninterrupted, ds, config);

  util::Rng rng_b(99);
  TransE crashed(ds.num_entities(), ds.num_relations(), 16, 1.0f, &rng_b);
  TrainConfig half = config;
  half.epochs = 3;
  half.checkpoint_path = path;
  TrainKgeModel(&crashed, ds, half);
  ASSERT_TRUE(util::FileExists(path));

  util::Rng rng_c(99);
  TransE resumed(ds.num_entities(), ds.num_relations(), 16, 1.0f, &rng_c);
  TrainConfig full = config;
  full.checkpoint_path = path;
  double loss_c = TrainKgeModel(&resumed, ds, full);

  EXPECT_EQ(loss_a, loss_c);
  std::vector<std::vector<float>> pa = SnapshotParams(&uninterrupted);
  std::vector<std::vector<float>> pc = SnapshotParams(&resumed);
  ASSERT_EQ(pa.size(), pc.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i], pc[i]) << "parameter block " << i << " diverged";
  }
  std::remove(path.c_str());
}

// A Hogwild run's checkpoint persists one RNG stream per worker (racing
// float updates make the *parameters* interleaving-dependent, but the
// sampler streams must still resume exactly). Verify the streams round-trip
// and that a resumed run completes training.
TEST(ParallelCheckpointTest, HogwildCheckpointPersistsWorkerStreams) {
  Dataset ds = MakeParityDataset();
  std::string path = ::testing::TempDir() + "/openbg_par_hog.ckpt";
  std::remove(path.c_str());

  TrainConfig config;
  config.epochs = 3;
  config.batch_size = 32;
  config.lr = 0.05f;
  config.seed = 19;
  config.num_threads = 4;
  config.mode = TrainMode::kHogwild;
  config.checkpoint_path = path;

  util::Rng rng(77);
  TransE model(ds.num_entities(), ds.num_relations(), 16, 1.0f, &rng);
  TrainKgeModel(&model, ds, config);
  ASSERT_TRUE(util::FileExists(path));

  TrainerCheckpoint ckpt;
  util::Rng rng2(77);
  TransE probe(ds.num_entities(), ds.num_relations(), 16, 1.0f, &rng2);
  ASSERT_TRUE(LoadCheckpoint(path, &probe, &ckpt).ok());
  EXPECT_EQ(ckpt.worker_rngs.size(), config.num_threads);

  // Resume for three more epochs; the run must pick the streams back up and
  // finish without error.
  util::Rng rng3(77);
  TransE resumed(ds.num_entities(), ds.num_relations(), 16, 1.0f, &rng3);
  TrainConfig more = config;
  more.epochs = 6;
  double loss = TrainKgeModel(&resumed, ds, more);
  EXPECT_TRUE(std::isfinite(loss));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace openbg::kge
