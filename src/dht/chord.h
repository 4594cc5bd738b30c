#ifndef SBON_DHT_CHORD_H_
#define SBON_DHT_CHORD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "dht/u128.h"

namespace sbon::dht {

/// A simulated Chord ring [19]: the decentralized catalog the paper proposes
/// for mapping cost-space coordinates back to physical nodes (Sec. 3.2).
///
/// This is a functional simulation, not a networked implementation: the ring
/// membership is held centrally, but *lookups are routed* exactly as Chord
/// routes them — greedy closest-preceding-finger hops — so the library can
/// account for lookup cost (hop counts) the way a deployment would pay it.
class ChordRing {
 public:
  struct Member {
    U128 key;
    NodeId node = kInvalidNode;
  };

  struct LookupResult {
    NodeId node = kInvalidNode;  ///< successor(key) owner
    U128 key;                    ///< its ring key
    size_t hops = 0;             ///< routing hops taken
    size_t member_index = 0;     ///< index into sorted membership
  };

  /// Cumulative ring-maintenance work, as exact counts: membership entries
  /// inserted or removed, and per-member finger lists Stabilize computed
  /// (a full rebuild computes all of them; an incremental one only those a
  /// membership change can reach).
  struct WorkCounters {
    size_t entries_spliced = 0;
    size_t finger_lists_rebuilt = 0;
  };

  /// Adds a member with the given ring key. Duplicate exact keys are
  /// perturbed by the node id (low bits) to keep keys unique.
  void Join(U128 key, NodeId node);
  /// Removes all entries owned by `node`.
  void Leave(NodeId node);

  /// Applies a batch of publishes in one pass. Entry i stands for
  /// `Leave(entries[i].node); Join(entries[i].key, entries[i].node)`, in
  /// entry order, and the resulting membership is bit-identical to that
  /// sequence. The moved members leave in one compaction pass and the new
  /// entries are sorted and merged in: O(N + m log m) for m entries instead
  /// of m O(N) splices. The keys are first resolved in entry order against
  /// the evolving key set, so a key already held is perturbed exactly as
  /// the sequential Join would perturb it. Lookups are invalid until the
  /// next Stabilize.
  void ApplyBatch(const std::vector<Member>& entries);

  size_t NumMembers() const { return members_.size(); }
  const std::vector<Member>& members() const { return members_; }

  /// (Re)builds finger tables. Must be called after membership changes and
  /// before Lookup; Join/Leave/ApplyBatch mark the tables stale. When only a
  /// few keys changed since the last Stabilize (by a cost comparison against
  /// a full rebuild), it recomputes just the finger lists those changes can
  /// reach and re-indexes the rest; either way the tables are bit-identical
  /// to a full rebuild.
  void Stabilize();

  /// Distinct fingers stored across all members (memory diagnostics: the
  /// table costs 4 bytes per entry plus 4 per member).
  size_t NumFingerEntries() const { return fingers_.size(); }
  /// The compact finger table itself (see `fingers_`), for equivalence
  /// checks against a full rebuild.
  const std::vector<uint32_t>& finger_begin() const { return finger_begin_; }
  const std::vector<uint32_t>& fingers() const { return fingers_; }

  const WorkCounters& work() const { return work_; }

  /// Chord-routes from the member owning `origin_key` toward `key`;
  /// returns successor(key). Requires a stabilized, non-empty ring.
  StatusOr<LookupResult> Lookup(U128 key, U128 origin_key) const;

  /// Lookup starting from the first member (deterministic origin).
  StatusOr<LookupResult> Lookup(U128 key) const;

  /// The i-th member clockwise from `member_index` (wraps).
  const Member& SuccessorAt(size_t member_index, size_t i) const;
  /// The i-th member counter-clockwise from `member_index` (wraps).
  const Member& PredecessorAt(size_t member_index, size_t i) const;

 private:
  /// Chord finger slots per member (one per key bit).
  static constexpr unsigned kFingerBits = 128;
  /// `origin_` marker of a member that joined since the last Stabilize.
  static constexpr uint32_t kNew = UINT32_MAX;

  /// One batch entry: its (resolved) key, node, the index of the next entry
  /// for the same node (`entries.size()` when it is the last), and whether
  /// a pre-batch member still holds its original key when it joins.
  struct Staged {
    U128 key;
    NodeId node = kInvalidNode;
    uint32_t next = 0;
    bool ring_held = false;
  };
  /// A batch entry's original key and its index, for the key-order pass.
  struct Keyed {
    U128 key;
    uint32_t entry = 0;
  };
  /// Per node id: whether the node is in the current batch (`stamp ==
  /// batch_stamp_`), its first entry and its latest entry so far.
  struct NodeMark {
    uint32_t stamp = 0;
    uint32_t first = 0;
    uint32_t last = 0;
  };
  /// Open-addressing slot of the key-resolution table (valid iff `stamp ==
  /// batch_stamp_`): a resolved batch key and the entry that joined it.
  struct KeySlot {
    U128 key;
    uint32_t entry = 0;
    uint32_t stamp = 0;
  };

  // Sorted by key.
  std::vector<Member> members_;
  // Compact finger table. Chord's finger i of member m is
  // successor(members_[m].key + 2^i); on an N-member ring the 128 slots hold
  // only about log2(N) distinct members, each repeated over a run of
  // consecutive slots. fingers_[finger_begin_[m] .. finger_begin_[m + 1])
  // lists m's distinct fingers in slot order (strictly increasing clockwise
  // distance from m); slots whose successor wraps back to m itself are not
  // stored, since routing never forwards to the current member.
  std::vector<uint32_t> finger_begin_;
  std::vector<uint32_t> fingers_;
  bool stale_ = false;
  bool fingers_built_ = false;  ///< the table describes the last Stabilize

  // Change log since the last Stabilize, kept while it stays within
  // `change_budget_` keys (beyond that a full rebuild is cheaper, and
  // `tracking_` drops until the next Stabilize). `origin_[j]` is member j's
  // index at the last Stabilize, or kNew; `changed_keys_` lists every key
  // that joined or left.
  bool tracking_ = false;
  size_t change_budget_ = 0;
  std::vector<uint32_t> origin_;
  std::vector<U128> changed_keys_;

  WorkCounters work_;

  // Reused scratch (O(N + max node id); allocation-free in steady state).
  std::vector<Staged> staged_;       ///< batch entries in entry order
  std::vector<Keyed> by_key_;        ///< batch entries in key order
  std::vector<Member> sorted_;       ///< batch keys in key order
  std::vector<NodeMark> node_mark_;  ///< by node id
  std::vector<KeySlot> key_table_;   ///< resolution hash table
  uint32_t batch_stamp_ = 0;
  std::vector<Member> merged_;
  std::vector<uint32_t> merged_origin_;
  std::vector<uint32_t> old_to_new_;
  std::vector<uint8_t> affected_;
  std::vector<uint32_t> next_begin_;
  std::vector<uint32_t> next_fingers_;

  size_t SuccessorIndex(U128 key) const;
  /// First member with key >= `key` / > `key` (members_.size() when none).
  size_t LowerBound(U128 key) const;
  size_t UpperBound(U128 key) const;
  /// Appends member m's distinct fingers, in slot order, to `out`.
  void AppendFingers(size_t m, std::vector<uint32_t>* out) const;
  /// Records a joined or departed key in the change log (or drops tracking
  /// once the log outgrows its budget).
  void NoteChange(const U128& key);
  /// True when `node`'s members have left by the Join of batch entry `i`
  /// (the node is in the batch and its first entry is not after `i`).
  bool LeftBy(NodeId node, uint32_t i) const;
  /// True when an earlier batch entry still holds key `k` just before the
  /// Join of entry `i`.
  bool HeldInBatch(const U128& k, uint32_t i) const;
  /// Rewrites staged_ keys into the keys the sequential Join order assigns;
  /// true when some key was perturbed.
  bool ResolveBatchKeys();
  /// Recomputes only the finger lists the logged changes can reach; false
  /// (table untouched) when every member is reached.
  bool RebuildIncremental();
  void RebuildAll();
};

}  // namespace sbon::dht

#endif  // SBON_DHT_CHORD_H_
