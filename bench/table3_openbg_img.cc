// Reproduces Table III: link prediction on OpenBG-IMG — eight single-modal
// baselines plus three multimodal ones. The expected *shape* (per the
// paper): translational >> vanilla bilinear on Hits@K; TuckER strongest
// single-modal on Hits/MRR; text baselines weak on Hits but decent MR;
// multimodal models on top, RSME best overall.

#include <cstdio>

#include "bench/bench_common.h"
#include "bench/lp_common.h"
#include "bench_builder/benchmark_builder.h"

int main(int argc, char** argv) {
  using namespace openbg;
  bench::BenchArgs args = bench::BenchArgs::Parse(argc, argv);
  bench::PrintHeader("Table III — link prediction on OpenBG-IMG",
                     "Table III");

  auto kg = core::OpenBG::Build(args.ToOptions());
  bench_builder::BenchmarkSpec spec;
  spec.name = "openbg-img";
  spec.num_relations = 30;
  spec.require_image = true;
  spec.dev_size = 300;
  spec.test_size = 800;
  kge::Dataset ds = kg->BuildBenchmark(spec, nullptr);
  std::printf("dataset: %zu entities (%zu multimodal), %zu relations, "
              "%zu/%zu/%zu train/dev/test\n\n",
              ds.num_entities(), ds.num_multimodal_entities(),
              ds.num_relations(), ds.train.size(), ds.dev.size(),
              ds.test.size());

  const size_t kEvalCap = 300;
  std::printf("Single-modal approaches (filtered tail ranking, first %zu "
              "test triples):\n", kEvalCap);
  bench::PrintLpHeader();
  for (const auto& baseline : bench::SingleModalBaselines(32)) {
    bench::RunLpBaseline(baseline, ds, kEvalCap, /*print_mr=*/true,
                         args.threads, args.checkpoint_dir,
                         args.train_threads, args.train_mode, args.ann);
  }
  std::printf("\nMultimodal approaches:\n");
  bench::PrintLpHeader();
  for (const auto& baseline : bench::MultiModalBaselines(32)) {
    bench::RunLpBaseline(baseline, ds, kEvalCap, /*print_mr=*/true,
                         args.threads, args.checkpoint_dir,
                         args.train_threads, args.train_mode, args.ann);
  }
  std::printf("\npaper reference (Table III): TransE .150/.387/.647, "
              "TuckER .497/.690/.820,\n  KG-BERT .092/.207/.405 (MR 61), "
              "RSME .485/.687/.838, MKGformer .448/.651/.822 (MR 23)\n");
  return 0;
}
