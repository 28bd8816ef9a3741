#ifndef OPENBG_BENCH_BENCH_COMMON_H_
#define OPENBG_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>

#include "core/openbg.h"
#include "kge/trainer.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace openbg::bench {

/// ANN ranking knobs for the evaluation tables (--ann/--ann-nprobe/
/// --ann-clusters). When enabled, models exposing a tail-scan spec rank
/// tails through ann::TailIndex::ScoreTailsApprox instead of the exact
/// full scan; metrics become approximate (a missed gold tail ranks last,
/// so misses only ever deflate the row). Models without a spec silently
/// keep the exact path.
struct LpAnnOptions {
  bool enabled = false;
  size_t nprobe = 8;
  size_t clusters = 0;  // 0 = auto ~sqrt(E)
};

/// Shared CLI for the table/figure reproduction binaries, parsed strictly
/// by util::Flags (`--help` lists the table; an unknown flag, a missing
/// value or a malformed number exits 2). Defaults give a
/// ~1/1000-of-paper world that runs each bench in minutes on one core.
struct BenchArgs {
  double scale = 1.0;
  size_t products = 4000;
  uint64_t seed = 7;
  size_t threads = 1;
  size_t train_threads = 1;
  kge::TrainMode train_mode = kge::TrainMode::kHogwild;
  std::string checkpoint_dir;
  LpAnnOptions ann;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    std::string mode = "hogwild";
    util::Flags flags(argv[0]);
    flags.Double("--scale", &args.scale,
                 "multiplies the synthetic-world taxonomy sizes");
    flags.Unsigned("--products", &args.products, "product count");
    flags.Unsigned("--seed", &args.seed, "world seed");
    flags.Unsigned("--threads", &args.threads,
                   "evaluator worker threads (metrics are identical to "
                   "serial; only wall-clock changes)");
    flags.Unsigned("--train-threads", &args.train_threads,
                   "KGE trainer threads (0 = hardware)");
    flags.String("--train-mode", &mode,
                 "hogwild updates race benignly; deterministic is "
                 "bit-identical to 1 thread",
                 {"hogwild", "deterministic"});
    flags.String("--checkpoint-dir", &args.checkpoint_dir,
                 "write/resume per-model trainer checkpoints here "
                 "(empty = disabled)");
    flags.Bool("--ann", &args.ann.enabled,
               "rank with the IVF+int8 ANN path where the model allows it");
    flags.Unsigned("--ann-nprobe", &args.ann.nprobe,
                   "clusters probed per ANN query (>= clusters is exact)");
    flags.Unsigned("--ann-clusters", &args.ann.clusters,
                   "IVF cluster count (0 = auto ~sqrt(E))");
    flags.ParseOrExit(argc, argv);
    args.train_mode = mode == "deterministic" ? kge::TrainMode::kDeterministic
                                              : kge::TrainMode::kHogwild;
    return args;
  }

  core::OpenBG::Options ToOptions() const {
    core::OpenBG::Options opts;
    opts.world.scale = scale;
    opts.world.num_products = products;
    opts.world.seed = seed;
    return opts;
  }
};

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s of the OpenBG paper, ICDE 2023; synthetic\n",
              paper_ref);
  std::printf(" world stands in for the proprietary Alibaba data — see\n");
  std::printf(" DESIGN.md; compare *shapes*, not absolute values)\n");
  std::printf("================================================================\n");
}

}  // namespace openbg::bench

#endif  // OPENBG_BENCH_BENCH_COMMON_H_
