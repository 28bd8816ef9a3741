#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>

#include "kge/bilinear_models.h"
#include "kge/evaluator.h"
#include "kge/grad_sink.h"
#include "kge/multimodal_models.h"
#include "kge/negative_sampler.h"
#include "kge/text_models.h"
#include "kge/trainer.h"
#include "kge/trans_models.h"
#include "util/string_util.h"

namespace openbg::kge {
namespace {

// A tiny deterministic link-prediction world: N entities, 3 relations,
// relation r maps h -> (h + 11*(r+1)) % N. Entities carry distinctive text
// and (for even ids) an image whose features encode the id, so structure,
// text and image models can all learn it.
Dataset MakeTinyDataset(size_t n = 50) {
  Dataset ds;
  ds.name = "tiny";
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
      uint32_t t = (h + 11 * (r + 1)) % n;
      ds.train.push_back({h, r, t});
    }
  }
  // Dev/test duplicate a slice of train (memorization check).
  for (size_t i = 0; i < 20; ++i) ds.dev.push_back(ds.train[i * 3]);
  ds.test = ds.dev;
  return ds;
}

struct ModelFactory {
  std::string name;
  std::function<std::unique_ptr<KgeModel>(const Dataset&, util::Rng*)> make;
  float lr = 0.05f;
  size_t epochs = 40;
};

// Returns a reference to a function-local static: callers keep references
// into the list (see KgeModelTest::factory), so it must outlive them.
const std::vector<ModelFactory>& AllFactories() {
  auto e = [](const Dataset& ds) { return ds.num_entities(); };
  auto r = [](const Dataset& ds) { return ds.num_relations(); };
  static const std::vector<ModelFactory> factories = {
      {"TransE",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransE>(e(ds), r(ds), 16, 1.0f, rng);
       }},
      {"TransH",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransH>(e(ds), r(ds), 16, 1.0f, rng);
       }},
      {"TransD",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransD>(e(ds), r(ds), 16, 1.0f, rng);
       }},
      {"DistMult",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<DistMult>(e(ds), r(ds), 16, rng);
       },
       0.1f, 80},
      {"ComplEx",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<ComplEx>(e(ds), r(ds), 16, rng);
       },
       0.1f, 120},
      {"TuckER",
       [e, r](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TuckEr>(e(ds), r(ds), 12, 8, rng);
       }},
      {"TextMatch",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TextMatchModel>(ds, 16, rng, 1 << 12);
       },
       0.02f, 60},
      {"StarStyle",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<StarStyleModel>(ds, 16, rng, 1 << 12);
       }},
      {"GenKgc",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<GenKgcModel>(ds, 32, rng, 1 << 12);
       },
       0.2f, 120},
      {"TransAE",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<TransAeModel>(ds, 16, 1.0f, 0.01f, rng);
       },
       0.05f, 60},
      {"RSME",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<RsmeModel>(ds, 16, 1.0f, rng);
       },
       0.1f, 60},
      {"MkgFusion",
       [](const Dataset& ds, util::Rng* rng) {
         return std::make_unique<MkgFusionModel>(ds, 16, 1.0f, rng, 1 << 12);
       },
       0.1f, 60},
  };
  return factories;
}

class KgeModelTest : public ::testing::TestWithParam<size_t> {
 protected:
  const ModelFactory& factory() const { return AllFactories()[GetParam()]; }
};

TEST_P(KgeModelTest, ScoreTailsAgreesWithScoreTriple) {
  Dataset ds = MakeTinyDataset(20);
  util::Rng rng(71);
  auto model = factory().make(ds, &rng);
  model->PrepareEval();
  std::vector<float> tails;
  model->ScoreTails(3, 1, &tails);
  ASSERT_EQ(tails.size(), ds.num_entities());
  for (uint32_t t = 0; t < ds.num_entities(); ++t) {
    EXPECT_NEAR(tails[t], model->ScoreTriple(3, 1, t), 1e-3f)
        << factory().name << " tail " << t;
  }
}

TEST_P(KgeModelTest, ScoreHeadsCoversAllEntities) {
  Dataset ds = MakeTinyDataset(20);
  util::Rng rng(73);
  auto model = factory().make(ds, &rng);
  model->PrepareEval();
  std::vector<float> heads;
  model->ScoreHeads(1, 5, &heads);
  EXPECT_EQ(heads.size(), ds.num_entities());
}

TEST_P(KgeModelTest, TrainingImprovesRanking) {
  Dataset ds = MakeTinyDataset(50);
  util::Rng rng(79);
  auto model = factory().make(ds, &rng);

  RankingEvaluator::Options eopts;
  eopts.filtered = true;
  RankingEvaluator evaluator(ds, eopts);
  RankingMetrics before = evaluator.EvaluateOn(model.get(), ds.dev);

  TrainConfig config;
  config.epochs = factory().epochs;
  config.batch_size = 32;
  config.lr = factory().lr;
  config.seed = 101;
  TrainKgeModel(model.get(), ds, config);

  RankingMetrics after = evaluator.EvaluateOn(model.get(), ds.dev);
  EXPECT_GT(after.mrr, before.mrr) << factory().name;
  EXPECT_GE(after.hits10, 0.2) << factory().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, KgeModelTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return AllFactories()[info.param].name;
    });

TEST(NegativeSamplerTest, NeverReturnsPositiveWhenFiltering) {
  Dataset ds = MakeTinyDataset(30);
  NegativeSampler::Options opts;
  opts.filter_true = true;
  NegativeSampler sampler(ds, opts, 7);
  for (const LpTriple& pos : ds.train) {
    for (int i = 0; i < 3; ++i) {
      LpTriple neg = sampler.Corrupt(pos);
      EXPECT_NE(neg, pos);
      EXPECT_FALSE(sampler.IsKnownPositive(neg));
    }
  }
}

TEST(NegativeSamplerTest, CorruptsExactlyOneSide) {
  Dataset ds = MakeTinyDataset(30);
  NegativeSampler sampler(ds, {}, 11);
  for (const LpTriple& pos : ds.train) {
    LpTriple neg = sampler.Corrupt(pos);
    bool head_changed = neg.h != pos.h;
    bool tail_changed = neg.t != pos.t;
    EXPECT_NE(head_changed, tail_changed)
        << "exactly one side corrupted";
    EXPECT_EQ(neg.r, pos.r);
  }
}

TEST(NegativeSamplerTest, FallbackNeverReturnsThePositive) {
  // Two entities, one relation, and every possible triple is a known
  // positive, so the filtered retry loop always exhausts max_retries and
  // lands in the fallback. The old fallback re-drew the tail uniformly
  // (50% chance of returning `pos` unchanged) and ignored the head/tail
  // choice entirely.
  Dataset ds;
  for (int i = 0; i < 2; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  for (uint32_t h = 0; h < 2; ++h) {
    for (uint32_t t = 0; t < 2; ++t) ds.train.push_back({h, 0, t});
  }
  NegativeSampler::Options opts;
  opts.filter_true = true;
  opts.max_retries = 4;
  NegativeSampler sampler(ds, opts, 17);
  size_t head_side = 0, tail_side = 0;
  for (int i = 0; i < 200; ++i) {
    for (const LpTriple& pos : ds.train) {
      LpTriple neg = sampler.Corrupt(pos);
      ASSERT_NE(neg, pos) << "fallback returned the positive unchanged";
      bool head_changed = neg.h != pos.h;
      bool tail_changed = neg.t != pos.t;
      EXPECT_NE(head_changed, tail_changed) << "exactly one side corrupted";
      EXPECT_EQ(neg.r, pos.r);
      head_changed ? ++head_side : ++tail_side;
    }
  }
  // The fallback honors the (uniform, p = 0.5) side choice: both sides
  // must actually occur.
  EXPECT_GT(head_side, 0u);
  EXPECT_GT(tail_side, 0u);
}

TEST(NegativeSamplerTest, BernoulliSkewsTowardTailForNto1) {
  // Relation 0 is N-to-1 (many heads, one tail). Corrupting the *head*
  // would often create a false negative (many heads are true), so Wang et
  // al.'s bernoulli scheme corrupts the tail most of the time:
  // P(corrupt head) = tph / (tph + hpt) = 1 / (1 + 39).
  Dataset ds;
  ds.name = "n_to_1";
  for (int i = 0; i < 40; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  for (uint32_t h = 1; h < 40; ++h) ds.train.push_back({h, 0, 0});
  NegativeSampler::Options opts;
  opts.bernoulli = true;
  opts.filter_true = false;
  NegativeSampler sampler(ds, opts, 13);
  size_t head_corruptions = 0, total = 0;
  for (const LpTriple& pos : ds.train) {
    for (int i = 0; i < 20; ++i) {
      LpTriple neg = sampler.Corrupt(pos);
      if (neg.h != pos.h) ++head_corruptions;
      ++total;
    }
  }
  EXPECT_LT(static_cast<double>(head_corruptions) / total, 0.2);
}

// A dense world for the known-triple set: about two thirds of all
// (h, r, t) over 7 entities and 2 relations are train triples, so filtered
// corruption collides often and sometimes exhausts its retries.
Dataset MakeDenseDataset() {
  Dataset ds;
  for (int i = 0; i < 7; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names = {"r0", "r1"};
  for (uint32_t h = 0; h < 7; ++h) {
    for (uint32_t r = 0; r < 2; ++r) {
      for (uint32_t t = 0; t < 7; ++t) {
        if ((h + t + r) % 3 != 0) ds.train.push_back({h, r, t});
      }
    }
  }
  return ds;
}

TEST(KnownTripleSetTest, EveryTrainTripleIsKnown) {
  for (const Dataset& ds : {MakeTinyDataset(50), MakeDenseDataset()}) {
    NegativeSampler sampler(ds, {}, 3);
    for (const LpTriple& t : ds.train) {
      EXPECT_TRUE(sampler.IsKnownPositive(t))
          << "(" << t.h << "," << t.r << "," << t.t << ")";
    }
  }
}

TEST(KnownTripleSetTest, RandomNonMembersAreNotKnown) {
  Dataset ds = MakeTinyDataset(50);
  NegativeSampler sampler(ds, {}, 3);
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> members;
  for (const LpTriple& t : ds.train) members.insert({t.h, t.r, t.t});
  util::Rng rng(41);
  size_t checked = 0;
  while (checked < 2000) {
    // Ids beyond the id space too: the set must answer for any triple.
    LpTriple t{static_cast<uint32_t>(rng.Uniform(60)),
               static_cast<uint32_t>(rng.Uniform(4)),
               static_cast<uint32_t>(rng.Uniform(60))};
    if (members.count({t.h, t.r, t.t})) continue;
    EXPECT_FALSE(sampler.IsKnownPositive(t))
        << "(" << t.h << "," << t.r << "," << t.t << ")";
    ++checked;
  }
  EXPECT_FALSE(sampler.IsKnownPositive({UINT32_MAX, 0, 0}));
}

TEST(KnownTripleSetTest, NeighboursDifferingInTailOrRelationAreDistinct) {
  // Train holds (h, 0, t) only; (h, 0, t+1) and (h, 1, t) share the head
  // and all but one field, and must all miss.
  Dataset ds = MakeTinyDataset(20);
  ds.relation_names.push_back("rel3");
  std::vector<LpTriple> rel0;
  for (const LpTriple& t : ds.train) {
    if (t.r == 0) rel0.push_back(t);
  }
  ds.train = rel0;
  NegativeSampler sampler(ds, {}, 5);
  for (const LpTriple& t : ds.train) {
    EXPECT_TRUE(sampler.IsKnownPositive(t));
    EXPECT_FALSE(sampler.IsKnownPositive({t.h, 1, t.t}));
    EXPECT_FALSE(sampler.IsKnownPositive({t.h, 3, t.t}));
    EXPECT_FALSE(sampler.IsKnownPositive({t.h, 0, (t.t + 1) % 20}));
    EXPECT_FALSE(sampler.IsKnownPositive({t.h, 0, t.t + 20}));
  }
}

TEST(KnownTripleSetTest, SingleTripleDataset) {
  Dataset ds;
  for (int i = 0; i < 3; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  ds.train.push_back({1, 0, 2});
  NegativeSampler sampler(ds, {}, 9);
  EXPECT_TRUE(sampler.IsKnownPositive({1, 0, 2}));
  EXPECT_FALSE(sampler.IsKnownPositive({2, 0, 1}));
  EXPECT_FALSE(sampler.IsKnownPositive({1, 0, 0}));
  EXPECT_FALSE(sampler.IsKnownPositive({0, 0, 2}));
  for (int i = 0; i < 50; ++i) {
    LpTriple neg = sampler.Corrupt(ds.train[0]);
    EXPECT_NE(neg, ds.train[0]);
    EXPECT_FALSE(sampler.IsKnownPositive(neg));
  }
}

// The sampler's draw sequence, restated with a linear scan of the train
// split as the membership test (uniform side choice, no bernoulli).
LpTriple BruteForceCorrupt(const Dataset& ds, const LpTriple& pos,
                           int max_retries, util::Rng* rng) {
  const size_t n = ds.num_entities();
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    LpTriple neg = pos;
    bool corrupt_head = rng->UniformDouble() < 0.5;
    uint32_t e = static_cast<uint32_t>(rng->Uniform(n));
    (corrupt_head ? neg.h : neg.t) = e;
    if (neg == pos ||
        std::find(ds.train.begin(), ds.train.end(), neg) != ds.train.end()) {
      continue;
    }
    return neg;
  }
  LpTriple neg = pos;
  bool corrupt_head = rng->UniformDouble() < 0.5;
  uint32_t orig = corrupt_head ? pos.h : pos.t;
  uint32_t e = static_cast<uint32_t>((orig + 1 + rng->Uniform(n - 1)) % n);
  (corrupt_head ? neg.h : neg.t) = e;
  return neg;
}

TEST(KnownTripleSetTest, CorruptBatchMatchesBruteForceFilter) {
  Dataset ds = MakeDenseDataset();
  NegativeSampler::Options opts;
  opts.max_retries = 3;  // dense enough that the fallback also runs
  NegativeSampler sampler(ds, opts, 23);
  util::Rng stream(1234), reference(1234);
  std::vector<LpTriple> negs;
  for (int round = 0; round < 20; ++round) {
    sampler.CorruptBatch(ds.train, &negs, &stream);
    ASSERT_EQ(negs.size(), ds.train.size());
    for (size_t i = 0; i < ds.train.size(); ++i) {
      EXPECT_EQ(negs[i], BruteForceCorrupt(ds, ds.train[i], opts.max_retries,
                                           &reference))
          << "round " << round << " triple " << i;
    }
  }
}

// Forwards every op to an OpLogSink and counts the AxpyRow ops per
// (matrix, row).
class CountingSink final : public GradSink {
 public:
  explicit CountingSink(OpLogSink* log) : log_(log) {}
  void AxpyRow(nn::Matrix* m, uint32_t row, float alpha, const float* x,
               size_t n) override {
    ++axpys_[m][row];
    log_->AxpyRow(m, row, alpha, x, n);
  }
  void ProjectToUnitBall(nn::Matrix* m, uint32_t row) override {
    log_->ProjectToUnitBall(m, row);
  }
  void NormalizeRow(nn::Matrix* m, uint32_t row) override {
    log_->NormalizeRow(m, row);
  }
  const std::map<uint32_t, size_t>& axpys(const nn::Matrix* m) {
    return axpys_[m];
  }

 private:
  OpLogSink* log_;
  std::map<const nn::Matrix*, std::map<uint32_t, size_t>> axpys_;
};

TEST(TransEBatchTest, RelationRowsGetOneFlushPerDistinctRelation) {
  Dataset ds = MakeTinyDataset(30);
  // 90 pairs over 3 relations; a margin of 100 makes every pair active.
  std::vector<LpTriple> pos = ds.train;
  NegativeSampler sampler(ds, {}, 31);
  std::vector<LpTriple> neg = sampler.CorruptBatch(pos);

  util::Rng rng_a(5), rng_b(5);
  TransE logged(ds.num_entities(), ds.num_relations(), 16, 100.0f, &rng_a);
  TransE initial(ds.num_entities(), ds.num_relations(), 16, 100.0f, &rng_b);
  OpLogSink log;
  CountingSink counting(&log);
  logged.TrainBatch(pos, neg, 0.01f, &counting);

  const std::map<uint32_t, size_t>& rel =
      counting.axpys(&logged.relations().matrix());
  EXPECT_EQ(rel.size(), ds.num_relations());
  for (const auto& [row, count] : rel) {
    EXPECT_EQ(count, 1u) << "relation " << row;
  }
  // Entities still move once per side of every pair.
  size_t entity_axpys = 0;
  for (const auto& [row, count] : counting.axpys(&logged.entities().matrix())) {
    entity_axpys += count;
  }
  EXPECT_EQ(entity_axpys, 4 * pos.size());

  // The flushed step is the sum of every pair's -lr * sign(h + r - t),
  // all taken at the batch-start rows (nothing moves until Replay).
  const nn::Matrix& start = initial.relations().matrix();
  std::vector<float> expected(start.data(), start.data() + start.size());
  for (size_t i = 0; i < pos.size(); ++i) {
    for (const auto& [t, dir] : {std::pair{pos[i], 1.0f}, {neg[i], -1.0f}}) {
      const float* h = initial.entities().Row(t.h);
      const float* r = initial.relations().Row(t.r);
      const float* tt = initial.entities().Row(t.t);
      for (size_t d = 0; d < 16; ++d) {
        float diff = h[d] + r[d] - tt[d];
        float g = dir * (diff > 0.0f ? 1.0f : (diff < 0.0f ? -1.0f : 0.0f));
        expected[t.r * 16 + d] -= 0.01f * g;
      }
    }
  }
  log.Replay();
  const nn::Matrix& got = logged.relations().matrix();
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(got.data()[i], expected[i], 1e-5f) << "element " << i;
  }
}

// A fake model whose scores are fully determined: score(h,r,t) = -|t - g|
// where g is the gold tail by construction.
class OracleModel : public KgeModel {
 public:
  OracleModel(size_t n, uint32_t offset)
      : KgeModel(n, 1), offset_(offset) {}
  std::string name() const override { return "Oracle"; }
  float ScoreTriple(uint32_t h, uint32_t, uint32_t t) const override {
    uint32_t gold = (h + offset_) % num_entities_;
    return -std::fabs(static_cast<float>(t) - static_cast<float>(gold));
  }
  double TrainPairs(const std::vector<LpTriple>&,
                    const std::vector<LpTriple>&, float) override {
    return 0.0;
  }

 private:
  uint32_t offset_;
};

TEST(EvaluatorTest, PerfectModelScoresPerfectMetrics) {
  Dataset ds;
  const size_t n = 30;
  for (size_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e");
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  for (uint32_t h = 0; h < n; ++h) ds.train.push_back({h, 0, static_cast<uint32_t>((h + 5) % n)});
  ds.test = {{0, 0, 5}, {1, 0, 6}, {2, 0, 7}};
  RankingEvaluator eval(ds, {});
  OracleModel model(n, 5);
  RankingMetrics m = eval.Evaluate(&model);
  EXPECT_DOUBLE_EQ(m.hits1, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_DOUBLE_EQ(m.mr, 1.0);
  EXPECT_EQ(m.n, 3u);
}

TEST(EvaluatorTest, FilteringRemovesKnownTails) {
  // Two gold tails for (0, r): 5 (train) and 6 (test). The oracle prefers
  // 5, so raw rank of 6 is 2 but filtered rank is 1.
  Dataset ds;
  const size_t n = 10;
  for (size_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e");
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  ds.train = {{0, 0, 5}};
  ds.test = {{0, 0, 6}};
  OracleModel model(n, 5);  // scores peak at tail 5

  RankingEvaluator::Options raw;
  raw.filtered = false;
  RankingMetrics m_raw = RankingEvaluator(ds, raw).Evaluate(&model);
  EXPECT_DOUBLE_EQ(m_raw.mr, 2.0);

  RankingEvaluator::Options filt;
  filt.filtered = true;
  RankingMetrics m_filt = RankingEvaluator(ds, filt).Evaluate(&model);
  EXPECT_DOUBLE_EQ(m_filt.mr, 1.0);
}

TEST(EvaluatorTest, DuplicateTriplesAcrossSplitsDoNotCorruptRanks) {
  // Regression: (0, r, 5) appears in train, dev AND test. Before the skip
  // lists were deduplicated, RankOf subtracted the outscoring candidate 5
  // once per copy when ranking (0, r, 6), underflowing `better` from 1 to
  // size_t(-2) and reporting a nonsense rank (mr dropped below 1).
  Dataset ds;
  const size_t n = 10;
  for (size_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e");
    ds.entity_text.push_back("t");
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("r");
  ds.train = {{0, 0, 5}};
  ds.dev = {{0, 0, 5}};
  ds.test = {{0, 0, 5}, {0, 0, 6}};
  OracleModel model(n, 5);  // scores peak at tail 5

  RankingEvaluator::Options opts;
  opts.filtered = true;
  RankingMetrics m = RankingEvaluator(ds, opts).Evaluate(&model);
  // Gold 5 ranks 1 outright; gold 6 ranks 1 once the known tail 5 is
  // filtered — exactly once despite its three copies.
  EXPECT_EQ(m.n, 2u);
  EXPECT_DOUBLE_EQ(m.mr, 1.0);
  EXPECT_DOUBLE_EQ(m.mrr, 1.0);
  EXPECT_DOUBLE_EQ(m.hits1, 1.0);
}

// All candidates tie: rank must be 1 + #strictly-better = 1 for every
// triple, in serial and parallel runs alike (ties never depend on
// evaluation order or thread count).
class ConstantModel : public KgeModel {
 public:
  explicit ConstantModel(size_t n) : KgeModel(n, 1) {}
  std::string name() const override { return "Constant"; }
  float ScoreTriple(uint32_t, uint32_t, uint32_t) const override {
    return 0.25f;
  }
  double TrainPairs(const std::vector<LpTriple>&,
                    const std::vector<LpTriple>&, float) override {
    return 0.0;
  }
};

TEST(EvaluatorTest, TiedScoresRankDeterministically) {
  Dataset ds = MakeTinyDataset(24);
  ConstantModel model(24);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    RankingEvaluator::Options opts;
    opts.filtered = true;
    opts.num_threads = threads;
    RankingMetrics m = RankingEvaluator(ds, opts).Evaluate(&model);
    EXPECT_DOUBLE_EQ(m.mr, 1.0) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(m.hits1, 1.0) << "threads=" << threads;
  }
}

TEST(EvaluatorTest, ParallelMetricsAreBitIdenticalToSerial) {
  Dataset ds = MakeTinyDataset(50);
  util::Rng rng(83);
  // TransE exercises the plain embedding path; TextMatchModel exercises the
  // Mlp-scored path, which once raced on shared activation caches until
  // scoring switched to Mlp::ForwardInference.
  std::vector<std::unique_ptr<KgeModel>> models;
  models.push_back(std::make_unique<TransE>(ds.num_entities(),
                                            ds.num_relations(), 16, 1.0f,
                                            &rng));
  models.push_back(std::make_unique<TextMatchModel>(ds, 16, &rng, 1 << 12));
  for (auto& model : models) {
    TrainConfig config;
    config.epochs = 5;
    config.batch_size = 32;
    TrainKgeModel(model.get(), ds, config);
    for (bool both : {false, true}) {
      RankingEvaluator::Options serial;
      serial.filtered = true;
      serial.both_directions = both;
      RankingMetrics ms = RankingEvaluator(ds, serial).Evaluate(model.get());
      for (size_t threads : {size_t{2}, size_t{4}, size_t{7}}) {
        RankingEvaluator::Options par = serial;
        par.num_threads = threads;
        RankingMetrics mp = RankingEvaluator(ds, par).Evaluate(model.get());
        EXPECT_EQ(ms.n, mp.n);
        // Bit-identical, not approximately equal: ranks are integers and
        // the metric fold runs serially in triple order at any thread
        // count.
        EXPECT_DOUBLE_EQ(ms.mr, mp.mr)
            << model->name() << " threads=" << threads;
        EXPECT_DOUBLE_EQ(ms.mrr, mp.mrr)
            << model->name() << " threads=" << threads;
        EXPECT_DOUBLE_EQ(ms.hits1, mp.hits1)
            << model->name() << " threads=" << threads;
        EXPECT_DOUBLE_EQ(ms.hits3, mp.hits3)
            << model->name() << " threads=" << threads;
        EXPECT_DOUBLE_EQ(ms.hits10, mp.hits10)
            << model->name() << " threads=" << threads;
      }
    }
  }
}

TEST(EvaluatorTest, QueryBatchedMetricsAreBitIdenticalToPerTriple) {
  // A world built to exercise query dedup: relation 0 maps each head to TWO
  // tails, so the test split repeats (h, r) tail-queries (and, since tails
  // are shared between neighboring heads, (t, r) head-queries too). The
  // batched path must score each unique query once yet reproduce the
  // per-triple reference metrics exactly.
  Dataset ds;
  ds.name = "multi-tail";
  const uint32_t n = 30;
  for (uint32_t i = 0; i < n; ++i) {
    ds.entity_names.push_back("e" + std::to_string(i));
    ds.entity_text.push_back(util::StrFormat("uniq%u", i));
    ds.entity_images.push_back({});
  }
  ds.relation_names.push_back("rel0");
  for (uint32_t h = 0; h < n; ++h) {
    ds.train.push_back({h, 0, (h + 1) % n});
    ds.train.push_back({h, 0, (h + 2) % n});
  }
  for (size_t i = 0; i < 24; ++i) ds.test.push_back(ds.train[i]);
  ds.dev = ds.test;

  util::Rng rng(97);
  TransE model(ds.num_entities(), ds.num_relations(), 16, 1.0f, &rng);
  TrainConfig config;
  config.epochs = 5;
  config.batch_size = 16;
  TrainKgeModel(&model, ds, config);

  for (bool both : {false, true}) {
    RankingEvaluator::Options per_triple;
    per_triple.filtered = true;
    per_triple.both_directions = both;
    per_triple.query_batched = false;
    RankingMetrics ref = RankingEvaluator(ds, per_triple).Evaluate(&model);
    for (size_t threads : {size_t{1}, size_t{8}}) {
      RankingEvaluator::Options batched = per_triple;
      batched.query_batched = true;
      batched.num_threads = threads;
      RankingMetrics got = RankingEvaluator(ds, batched).Evaluate(&model);
      EXPECT_EQ(ref.n, got.n) << "threads=" << threads;
      // Exactly equal, not approximately: both paths compute the same
      // integer ranks and fold them in the same (triple) order.
      EXPECT_DOUBLE_EQ(ref.mr, got.mr) << "both=" << both
                                       << " threads=" << threads;
      EXPECT_DOUBLE_EQ(ref.mrr, got.mrr) << "both=" << both
                                         << " threads=" << threads;
      EXPECT_DOUBLE_EQ(ref.hits1, got.hits1) << "both=" << both
                                             << " threads=" << threads;
      EXPECT_DOUBLE_EQ(ref.hits3, got.hits3) << "both=" << both
                                             << " threads=" << threads;
      EXPECT_DOUBLE_EQ(ref.hits10, got.hits10) << "both=" << both
                                               << " threads=" << threads;
    }
  }
}

TEST(EvaluatorTest, MaxTriplesCapsWork) {
  Dataset ds = MakeTinyDataset(20);
  RankingEvaluator::Options opts;
  opts.max_triples = 5;
  RankingEvaluator eval(ds, opts);
  OracleModel model(20, 11);
  RankingMetrics m = eval.Evaluate(&model);
  EXPECT_EQ(m.n, 5u);
}

TEST(EvaluatorTest, BothDirectionsDoublesCount) {
  Dataset ds = MakeTinyDataset(20);
  RankingEvaluator::Options opts;
  opts.both_directions = true;
  opts.max_triples = 4;
  RankingEvaluator eval(ds, opts);
  OracleModel model(20, 11);
  RankingMetrics m = eval.Evaluate(&model);
  EXPECT_EQ(m.n, 8u);
}

}  // namespace
}  // namespace openbg::kge
