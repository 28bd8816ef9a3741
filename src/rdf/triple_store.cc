#include "rdf/triple_store.h"

#include <algorithm>

#include "util/logging.h"

namespace openbg::rdf {

TripleStore& TripleStore::operator=(TripleStore&& other) noexcept {
  triples_ = std::move(other.triples_);
  dedup_ = std::move(other.dedup_);
  for (int ord = 0; ord < 3; ++ord) {
    idx_[ord] = std::move(other.idx_[ord]);
    dirty_[ord].store(other.dirty_[ord].load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  }
  return *this;
}

bool TripleStore::Add(TermId s, TermId p, TermId o) {
  OPENBG_CHECK(s != kInvalidTerm && p != kInvalidTerm && o != kInvalidTerm)
      << "cannot add wildcard triple";
  Triple t{s, p, o};
  if (!dedup_.insert(t).second) return false;
  triples_.push_back(t);
  for (std::atomic<bool>& dirty : dirty_) {
    dirty.store(true, std::memory_order_relaxed);
  }
  return true;
}

bool TripleStore::Contains(TermId s, TermId p, TermId o) const {
  return dedup_.count(Triple{s, p, o}) > 0;
}

void TripleStore::EnsureSorted(int ord) const {
  std::vector<uint32_t>& idx = idx_[ord];
  std::atomic<bool>& dirty = dirty_[ord];
  // Fast path: acquire-load pairs with the release-store below, so a clean
  // flag also publishes the rebuilt index contents to this thread.
  if (!dirty.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(index_mu_);
  if (!dirty.load(std::memory_order_relaxed)) return;  // lost the race: done
  idx.resize(triples_.size());
  for (uint32_t i = 0; i < triples_.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [this, ord](uint32_t a, uint32_t b) {
    return KeyOf(triples_[a], ord) < KeyOf(triples_[b], ord);
  });
  dirty.store(false, std::memory_order_release);
}

void TripleStore::SealIndexes() const {
  for (int ord = 0; ord < 3; ++ord) EnsureSorted(ord);
}

std::pair<const uint32_t*, const uint32_t*> TripleStore::PrefixRange(
    const PatternPlan& plan) const {
  const int ord = plan.ord;
  const int bound = plan.bound;
  EnsureSorted(ord);
  const std::vector<uint32_t>& idx = idx_[ord];
  auto cmp_lo = [this, ord, bound](uint32_t a, const std::array<TermId, 2>& k) {
    auto ka = KeyOf(triples_[a], ord);
    for (int i = 0; i < bound; ++i) {
      if (ka[i] != k[i]) return ka[i] < k[i];
    }
    return false;
  };
  auto cmp_hi = [this, ord, bound](const std::array<TermId, 2>& k, uint32_t a) {
    auto ka = KeyOf(triples_[a], ord);
    for (int i = 0; i < bound; ++i) {
      if (ka[i] != k[i]) return k[i] < ka[i];
    }
    return false;
  };
  auto lo = std::lower_bound(idx.begin(), idx.end(), plan.prefix, cmp_lo);
  auto hi = std::upper_bound(idx.begin(), idx.end(), plan.prefix, cmp_hi);
  return {idx.data() + (lo - idx.begin()), idx.data() + (hi - idx.begin())};
}

size_t TripleStore::ScanCost(const TriplePattern& pattern) const {
  const PatternPlan plan = PlanPattern(pattern);
  if (plan.bound == 0) return triples_.size();
  auto [begin, end] = PrefixRange(plan);
  return static_cast<size_t>(end - begin);
}

TripleStoreMemory TripleStore::MemoryUsage() const {
  TripleStoreMemory m;
  m.triples_bytes = triples_.capacity() * sizeof(Triple);
  // unordered_set lower bound: the bucket array plus one heap node per
  // element (value + next pointer + cached hash in libstdc++/libc++).
  m.dedup_bytes = dedup_.bucket_count() * sizeof(void*) +
                  dedup_.size() * (sizeof(Triple) + 2 * sizeof(void*));
  m.idx_spo_bytes = idx_[0].capacity() * sizeof(uint32_t);
  m.idx_pos_bytes = idx_[1].capacity() * sizeof(uint32_t);
  m.idx_osp_bytes = idx_[2].capacity() * sizeof(uint32_t);
  return m;
}

std::vector<TermId> TripleStore::DistinctPredicates() const {
  EnsureSorted(1);  // POS: the predicate leads the key
  std::vector<TermId> out;
  TermId last = kInvalidTerm;
  for (uint32_t i : idx_[1]) {
    TermId p = triples_[i].p;
    if (p != last) {
      out.push_back(p);
      last = p;
    }
  }
  return out;
}

}  // namespace openbg::rdf
