#ifndef SBON_DHT_CHORD_H_
#define SBON_DHT_CHORD_H_

#include <cstdint>
#include <map>
#include <unordered_map>
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

  /// Adds a member with the given ring key. Duplicate exact keys are
  /// perturbed by the node id (low bits) to keep keys unique.
  void Join(U128 key, NodeId node);
  /// Removes all entries owned by `node`.
  void Leave(NodeId node);

  /// Bulk-update window for mass re-publish (index refresh, bring-up): the
  /// sorted membership vector makes each Leave/Join O(members) — quadratic
  /// when every node re-publishes in one refresh. Between BeginBulk and
  /// EndBulk the membership lives in an ordered map instead, so the same
  /// Join/Leave sequence (including duplicate-key perturbation, which only
  /// asks "does this exact key exist?") costs O(log members) per call and
  /// produces a bit-identical final membership. Lookups and successor walks
  /// are invalid inside the window — the ring is stale until the Stabilize
  /// that follows EndBulk, exactly as after any Join/Leave.
  void BeginBulk();
  void EndBulk();

  size_t NumMembers() const {
    return in_bulk_ ? bulk_members_.size() : members_.size();
  }
  const std::vector<Member>& members() const { return members_; }

  /// (Re)builds finger tables. Must be called after membership changes and
  /// before Lookup; Join/Leave mark the tables stale.
  void Stabilize();

  /// Distinct fingers stored across all members (memory diagnostics: the
  /// table costs 4 bytes per entry plus 4 per member).
  size_t NumFingerEntries() const { return fingers_.size(); }

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

  // Sorted by key.
  std::vector<Member> members_;
  // Bulk-window state: key-sorted membership plus the reverse index Leave
  // needs (each node holds at most one ring entry — Publish always Leaves
  // before re-Joining).
  bool in_bulk_ = false;
  std::map<U128, NodeId> bulk_members_;
  std::unordered_map<NodeId, U128> bulk_key_of_;
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

  size_t SuccessorIndex(U128 key) const;
};

}  // namespace sbon::dht

#endif  // SBON_DHT_CHORD_H_
