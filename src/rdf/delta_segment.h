#ifndef OPENBG_RDF_DELTA_SEGMENT_H_
#define OPENBG_RDF_DELTA_SEGMENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "rdf/triple_store.h"
#include "util/rng.h"
#include "util/status.h"

namespace openbg::rdf {

/// One batch of live-graph mutations: triples to add and triples to
/// retract, both expressed against the *base* state plus every previously
/// published delta. Ids must already be interned in the owning TermDict —
/// the live layer moves triples, never text. If the same triple appears in
/// both lists, the retract wins (adds are folded in first).
struct UpdateBatch {
  std::vector<Triple> adds;
  std::vector<Triple> retracts;

  bool empty() const { return adds.empty() && retracts.empty(); }
};

/// Dependency fingerprint of one entity term, the unit of the serving
/// layer's selective cache invalidation: a published batch "touches" the
/// subject and object entity of every add/retract, and a cached answer
/// lists the entity keys it read. Domain-separated from the model-space
/// keys in serve/types.h so graph updates never collide with (h, r) scoring
/// dependencies.
inline uint64_t EntityDepKey(TermId id) {
  return util::SplitMix64(0xE5717AB1D3C2F401ull ^ id);
}

/// An immutable overlay on a sealed base TripleStore: a sorted set of added
/// triples plus a hash set of retracted base triples. Segments are built
/// once (from the previous segment plus one UpdateBatch, normalized against
/// the base) and then shared read-only across any number of query threads —
/// the value type of the RCU snapshot swap in LiveGraph.
///
/// Invariants (established by Build, relied on by readers):
///  * `adds` contains no triple present in the base; `retracts` contains
///    only triples present in the base. A batch add of a base triple merely
///    cancels a pending retract, and a batch retract of a delta add just
///    removes the add.
///  * `adds` is sorted in (s, p, o) order and duplicate-free, so merged
///    query results are deterministic.
class DeltaSegment {
 public:
  /// An empty delta (generation-1 snapshot of a freshly wrapped base).
  DeltaSegment() = default;

  /// The next segment after applying `batch` on top of `prev` (which may be
  /// null, meaning an empty delta) against `base`. Returns InvalidArgument
  /// if any triple has a kInvalidTerm component; the base is only read.
  static util::Result<std::shared_ptr<const DeltaSegment>> Build(
      const DeltaSegment* prev, const UpdateBatch& batch,
      const TripleStore& base);

  /// Same normalization, but the base is abstracted to a membership
  /// predicate — what lets LiveGraph overlay deltas on an out-of-core
  /// ShardedStore base without rdf depending on its type here.
  static util::Result<std::shared_ptr<const DeltaSegment>> Build(
      const DeltaSegment* prev, const UpdateBatch& batch,
      const std::function<bool(const Triple&)>& base_contains);

  const std::vector<Triple>& adds() const { return adds_; }
  size_t num_retracts() const { return retracts_.size(); }

  /// Total mutations carried (adds + retracts) — the compaction trigger.
  size_t size() const { return adds_.size() + retracts_.size(); }
  bool empty() const { return adds_.empty() && retracts_.empty(); }

  bool IsRetracted(const Triple& t) const {
    return !retracts_.empty() && retracts_.count(t) > 0;
  }

  bool ContainsAdd(const Triple& t) const {
    return !add_set_.empty() && add_set_.count(t) > 0;
  }

  /// Calls `fn(triple)` for every added triple matching `pattern`, in
  /// (s, p, o) order; stops early if `fn` returns false. Deltas are bounded
  /// small by compaction, so this is a filtered linear scan.
  template <typename Fn>
  void ForEachAdd(const TriplePattern& pattern, Fn&& fn) const {
    for (const Triple& t : adds_) {
      if (Matches(pattern, t) && !fn(t)) return;
    }
  }

  /// Calls `fn` for every retracted triple (unordered).
  template <typename Fn>
  void ForEachRetract(Fn&& fn) const {
    for (const Triple& t : retracts_) {
      if (!fn(t)) return;
    }
  }

  /// Estimated heap bytes (sorted adds vector + the two hash sets as
  /// bucket-array + per-node lower bounds). The "delta overlay" line of the
  /// serve memory metrics.
  size_t MemoryUsage() const {
    auto set_bytes = [](const std::unordered_set<Triple, TripleHash>& s) {
      return s.bucket_count() * sizeof(void*) +
             s.size() * (sizeof(Triple) + 2 * sizeof(void*));
    };
    return adds_.capacity() * sizeof(Triple) + set_bytes(add_set_) +
           set_bytes(retracts_);
  }

 private:
  std::vector<Triple> adds_;  // sorted (s, p, o), deduplicated
  std::unordered_set<Triple, TripleHash> add_set_;
  std::unordered_set<Triple, TripleHash> retracts_;
};

/// Sorted, deduplicated entity dependency keys touched by `batch`: the
/// EntityDepKey of the subject and object of every add and retract. This is
/// what a publish hands the result cache for selective invalidation.
std::vector<uint64_t> TouchedKeys(const UpdateBatch& batch);

/// Durable form of one UpdateBatch ("OBGDELT1" container, CRC-guarded,
/// written through util::AtomicFile): the publish-side write-ahead record
/// that makes a live graph recoverable. A crash mid-save leaves either no
/// file or a fully valid one — never a torn batch.
util::Status SaveDeltaBatch(const UpdateBatch& batch, uint64_t generation,
                            const std::string& path);

/// Loads a batch written by SaveDeltaBatch, failing closed on any
/// truncation or corruption. `*generation` receives the publish generation
/// the file was stamped with.
util::Status LoadDeltaBatch(const std::string& path, UpdateBatch* batch,
                            uint64_t* generation);

}  // namespace openbg::rdf

#endif  // OPENBG_RDF_DELTA_SEGMENT_H_
