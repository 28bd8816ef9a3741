#include "kge/negative_sampler.h"

#include <map>

#include "util/logging.h"

namespace openbg::kge {

NegativeSampler::NegativeSampler(const Dataset& dataset, Options options,
                                 uint64_t seed)
    : num_entities_(dataset.num_entities()), options_(options), rng_(seed) {
  size_t slots = 1;
  while (slots < 2 * dataset.train.size()) slots <<= 1;
  known_.assign(slots, LpTriple{kEmptySlot, 0, 0});
  known_mask_ = slots - 1;
  for (const LpTriple& t : dataset.train) {
    OPENBG_CHECK(t.h != kEmptySlot && t.t != kEmptySlot)
        << "entity id " << kEmptySlot << " is reserved";
    size_t i = TripleHash{}(t) & known_mask_;
    while (known_[i].h != kEmptySlot && !(known_[i] == t)) {
      i = (i + 1) & known_mask_;
    }
    known_[i] = t;
  }

  // Bernoulli statistics: tph (tails per head) and hpt (heads per tail)
  // per relation; P(corrupt head) = tph / (tph + hpt).
  head_corrupt_prob_.assign(dataset.num_relations(), 0.5);
  if (options_.bernoulli) {
    std::vector<std::map<uint32_t, size_t>> tails_of_head(
        dataset.num_relations());
    std::vector<std::map<uint32_t, size_t>> heads_of_tail(
        dataset.num_relations());
    for (const LpTriple& t : dataset.train) {
      tails_of_head[t.r][t.h] += 1;
      heads_of_tail[t.r][t.t] += 1;
    }
    for (size_t r = 0; r < dataset.num_relations(); ++r) {
      if (tails_of_head[r].empty()) continue;
      double tph = 0.0, hpt = 0.0;
      for (const auto& [h, n] : tails_of_head[r]) tph += n;
      tph /= static_cast<double>(tails_of_head[r].size());
      for (const auto& [t, n] : heads_of_tail[r]) hpt += n;
      hpt /= static_cast<double>(heads_of_tail[r].size());
      head_corrupt_prob_[r] = tph / (tph + hpt);
    }
  }
}

bool NegativeSampler::IsKnownPositive(const LpTriple& t) const {
  // Load <= 0.5 guarantees an empty slot, so the probe always ends.
  for (size_t i = TripleHash{}(t) & known_mask_;; i = (i + 1) & known_mask_) {
    if (known_[i].h == kEmptySlot) return false;
    if (known_[i] == t) return true;
  }
}

LpTriple NegativeSampler::Corrupt(const LpTriple& pos) {
  return Corrupt(pos, &rng_);
}

LpTriple NegativeSampler::Corrupt(const LpTriple& pos,
                                  util::Rng* rng) const {
  for (int attempt = 0; attempt < options_.max_retries; ++attempt) {
    LpTriple neg = pos;
    bool corrupt_head = rng->UniformDouble() < head_corrupt_prob_[pos.r];
    uint32_t random_entity =
        static_cast<uint32_t>(rng->Uniform(num_entities_));
    if (corrupt_head) {
      neg.h = random_entity;
    } else {
      neg.t = random_entity;
    }
    if (neg == pos) continue;
    if (options_.filter_true && IsKnownPositive(neg)) continue;
    return neg;
  }
  // Fall back to an unfiltered corruption after repeated collisions. Still
  // honor the bernoulli head/tail choice, and draw the replacement from the
  // other num_entities_ - 1 ids so the positive is never returned unchanged
  // (possible whenever num_entities_ >= 2; a 1-entity world has no negative).
  LpTriple neg = pos;
  if (num_entities_ >= 2) {
    bool corrupt_head = rng->UniformDouble() < head_corrupt_prob_[pos.r];
    uint32_t orig = corrupt_head ? pos.h : pos.t;
    uint32_t replacement = static_cast<uint32_t>(
        (orig + 1 + rng->Uniform(num_entities_ - 1)) % num_entities_);
    if (corrupt_head) {
      neg.h = replacement;
    } else {
      neg.t = replacement;
    }
  }
  return neg;
}

void NegativeSampler::CorruptBatch(const std::vector<LpTriple>& batch,
                                   std::vector<LpTriple>* out) {
  CorruptBatch(batch, out, &rng_);
}

void NegativeSampler::CorruptBatch(const std::vector<LpTriple>& batch,
                                   std::vector<LpTriple>* out,
                                   util::Rng* rng) const {
  out->clear();
  out->reserve(batch.size());
  for (const LpTriple& t : batch) out->push_back(Corrupt(t, rng));
}

std::vector<LpTriple> NegativeSampler::CorruptBatch(
    const std::vector<LpTriple>& batch) {
  std::vector<LpTriple> out;
  CorruptBatch(batch, &out);
  return out;
}

}  // namespace openbg::kge
