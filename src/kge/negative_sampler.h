#ifndef OPENBG_KGE_NEGATIVE_SAMPLER_H_
#define OPENBG_KGE_NEGATIVE_SAMPLER_H_

#include <cstdint>
#include <vector>

#include "bench_builder/dataset.h"
#include "util/rng.h"

namespace openbg::kge {

using bench_builder::Dataset;
using bench_builder::LpTriple;

/// Negative-triple generator with the two strategies the ablation bench
/// contrasts: uniform head/tail corruption, and "bernoulli" corruption
/// (Wang et al. 2014) that picks the side to corrupt based on the
/// relation's head/tail multiplicity, reducing false negatives for N-to-1
/// relations. Filtering against the known true set is optional.
class NegativeSampler {
 public:
  struct Options {
    bool bernoulli = false;
    bool filter_true = true;
    int max_retries = 16;
  };

  NegativeSampler(const Dataset& dataset, Options options, uint64_t seed);

  /// One corrupted counterpart for `pos`.
  LpTriple Corrupt(const LpTriple& pos);

  /// Aligned negatives for a batch, into a caller-provided vector whose
  /// capacity survives across batches (the training loop reuses one).
  void CorruptBatch(const std::vector<LpTriple>& batch,
                    std::vector<LpTriple>* out);

  /// Allocating convenience overload.
  std::vector<LpTriple> CorruptBatch(const std::vector<LpTriple>& batch);

  /// Explicit-stream variants: draw from a caller-owned RNG instead of the
  /// member stream. Const — they touch no sampler state, so concurrent
  /// workers each corrupting with their own Rng are race-free. The member
  /// versions above delegate here with &rng_.
  LpTriple Corrupt(const LpTriple& pos, util::Rng* rng) const;
  void CorruptBatch(const std::vector<LpTriple>& batch,
                    std::vector<LpTriple>* out, util::Rng* rng) const;

  /// True iff the triple is a known positive (train split).
  bool IsKnownPositive(const LpTriple& t) const;

  /// RNG state capture/restore so checkpointed training resumes with the
  /// exact corruption stream an uninterrupted run would have drawn.
  util::RngState rng_state() const { return rng_.GetState(); }
  void RestoreRngState(const util::RngState& state) { rng_.SetState(state); }

 private:
  struct TripleHash {
    size_t operator()(const LpTriple& t) const {
      uint64_t h = t.h;
      h = h * 0x9E3779B97F4A7C15ull + t.r;
      h = h * 0x9E3779B97F4A7C15ull + t.t;
      return static_cast<size_t>(h ^ (h >> 31));
    }
  };

  // Marks an empty slot of known_ (as its h), so entity ids stay below it.
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  size_t num_entities_;
  Options options_;
  util::Rng rng_;
  // The train triples as a flat open-addressing set: a power-of-two slot
  // array at load <= 0.5 with linear probing, so a lookup is one hash and
  // a short scan of adjacent slots instead of a node-based bucket walk.
  std::vector<LpTriple> known_;
  size_t known_mask_ = 0;
  // Per relation: probability of corrupting the head (bernoulli mode).
  std::vector<double> head_corrupt_prob_;
};

}  // namespace openbg::kge

#endif  // OPENBG_KGE_NEGATIVE_SAMPLER_H_
