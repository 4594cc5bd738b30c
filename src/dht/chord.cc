#include "dht/chord.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace sbon::dht {
namespace {

// True if `x` lies in the half-open clockwise interval (a, b].
bool InIntervalOpenClosed(const U128& x, const U128& a, const U128& b) {
  // Ring distance trick: x in (a, b] iff (x - a) <= (b - a) and x != a.
  if (x == a) return false;
  return (x - a) <= (b - a);
}

// Number of significant bits of `x` (0 for x == 0): the smallest i with
// x < 2^i.
unsigned BitWidth(const U128& x) {
  return x.hi != 0 ? 64 + static_cast<unsigned>(std::bit_width(x.hi))
                   : static_cast<unsigned>(std::bit_width(x.lo));
}

// Hash of a ring key for the batch's key-resolution table.
size_t KeyHash(const U128& k) {
  uint64_t h = k.lo ^ (k.hi * 0x9E3779B97F4A7C15ULL);
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return static_cast<size_t>(h);
}

bool KeyLess(const ChordRing::Member& a, const ChordRing::Member& b) {
  return a.key < b.key;
}

}  // namespace

void ChordRing::Join(U128 key, NodeId node) {
  // Perturb exact duplicates so every member has a unique ring key.
  // `members_` stays sorted by key, so existence is a binary search and the
  // new member is spliced in at its lower bound instead of re-sorting the
  // whole ring on every join.
  U128 k = key;
  size_t at = LowerBound(k);
  while (at < members_.size() && members_[at].key == k) {
    k = k + U128::FromU64((static_cast<uint64_t>(node) << 1) | 1);
    at = LowerBound(k);
  }
  members_.insert(members_.begin() + at, Member{k, node});
  if (tracking_) origin_.insert(origin_.begin() + at, kNew);
  NoteChange(k);
  ++work_.entries_spliced;
  stale_ = true;
}

void ChordRing::Leave(NodeId node) {
  size_t kept = 0;
  for (size_t r = 0; r < members_.size(); ++r) {
    if (members_[r].node == node) {
      NoteChange(members_[r].key);
      ++work_.entries_spliced;
      continue;
    }
    if (tracking_) origin_[kept] = origin_[r];
    members_[kept++] = members_[r];
  }
  members_.resize(kept);
  if (tracking_) origin_.resize(kept);
  stale_ = true;
}

void ChordRing::NoteChange(const U128& key) {
  if (!tracking_) return;
  if (changed_keys_.size() >= change_budget_) {
    tracking_ = false;  // a full rebuild is now the cheaper Stabilize
    return;
  }
  changed_keys_.push_back(key);
}

void ChordRing::ApplyBatch(const std::vector<Member>& entries) {
  if (entries.empty()) return;
  stale_ = true;
  const uint32_t m = static_cast<uint32_t>(entries.size());
  if (++batch_stamp_ == 0) {  // stamp wrap-around: invalidate all marks
    for (NodeMark& mark : node_mark_) mark.stamp = 0;
    for (KeySlot& slot : key_table_) slot.stamp = 0;
    batch_stamp_ = 1;
  }
  // Entry-order bookkeeping: each node's first and latest entry, and each
  // entry's next entry for the same node (a node published twice ends at
  // its last key; the earlier entries only matter to key resolution).
  staged_.resize(m);
  size_t distinct = 0;
  for (uint32_t i = 0; i < m; ++i) {
    const NodeId node = entries[i].node;
    if (node >= node_mark_.size()) {
      node_mark_.resize(static_cast<size_t>(node) + 1);
    }
    NodeMark& mark = node_mark_[node];
    if (mark.stamp != batch_stamp_) {
      mark.stamp = batch_stamp_;
      mark.first = i;
      ++distinct;
    } else {
      staged_[mark.last].next = i;
    }
    mark.last = i;
    staged_[i] = Staged{entries[i].key, node, m, false};
  }

  // Every entry in key order, and for each whether a pre-batch member still
  // holds its key when it joins: one scan against the ring instead of a
  // search per entry.
  by_key_.resize(m);
  for (uint32_t i = 0; i < m; ++i) by_key_[i] = Keyed{entries[i].key, i};
  std::sort(by_key_.begin(), by_key_.end(),
            [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  for (size_t j = 0, r = 0; j < m; ++j) {
    const Keyed& e = by_key_[j];
    while (r < members_.size() && members_[r].key < e.key) ++r;
    staged_[e.entry].ring_held = r < members_.size() &&
                                 members_[r].key == e.key &&
                                 !LeftBy(members_[r].node, e.entry);
  }

  // Each key becomes the one the sequential Join order gives it; then each
  // node's last entry joins, in key order.
  const bool perturbed = ResolveBatchKeys();
  sorted_.clear();
  for (const Keyed& e : by_key_) {
    const Staged& st = staged_[e.entry];
    if (st.next == m) sorted_.push_back(Member{st.key, st.node});
  }
  if (perturbed) std::sort(sorted_.begin(), sorted_.end(), KeyLess);

  // One merge: members of batch nodes leave, the resolved entries join.
  const bool track =
      tracking_ && changed_keys_.size() + 2 * distinct <= change_budget_;
  tracking_ = track;
  merged_.clear();
  merged_origin_.clear();
  size_t removed = 0;
  size_t i = 0;
  auto keep = [&](size_t r) {
    const NodeId node = members_[r].node;
    if (node < node_mark_.size() && node_mark_[node].stamp == batch_stamp_) {
      ++removed;
      if (track) changed_keys_.push_back(members_[r].key);
      return;
    }
    merged_.push_back(members_[r]);
    if (track) merged_origin_.push_back(origin_[r]);
  };
  for (const Member& e : sorted_) {
    for (; i < members_.size() && members_[i].key < e.key; ++i) keep(i);
    merged_.push_back(e);
    if (track) {
      merged_origin_.push_back(kNew);
      changed_keys_.push_back(e.key);
    }
  }
  for (; i < members_.size(); ++i) keep(i);
  members_.swap(merged_);
  if (track) origin_.swap(merged_origin_);
  work_.entries_spliced += removed + sorted_.size();
}

bool ChordRing::LeftBy(NodeId node, uint32_t i) const {
  return node < node_mark_.size() && node_mark_[node].stamp == batch_stamp_ &&
         node_mark_[node].first <= i;
}

bool ChordRing::HeldInBatch(const U128& k, uint32_t i) const {
  // An earlier entry holds k until its node's next entry Leaves it. Keys
  // held at any one time are unique, so only the latest entry that took k
  // can still hold it.
  const size_t mask = key_table_.size() - 1;
  for (size_t s = KeyHash(k) & mask;; s = (s + 1) & mask) {
    const KeySlot& slot = key_table_[s];
    if (slot.stamp != batch_stamp_) return false;
    if (slot.key == k) return staged_[slot.entry].next > i;
  }
}

bool ChordRing::ResolveBatchKeys() {
  const size_t m = staged_.size();
  size_t capacity = 16;
  while (capacity < 2 * m) capacity <<= 1;
  if (key_table_.size() < capacity) key_table_.assign(capacity, KeySlot{});
  const size_t mask = key_table_.size() - 1;
  bool perturbed = false;
  for (uint32_t i = 0; i < m; ++i) {
    Staged& e = staged_[i];
    const U128 step =
        U128::FromU64((static_cast<uint64_t>(e.node) << 1) | 1);
    // A pre-batch member holds a key until its node's first entry Leaves
    // it; the key-order scan already answered that for the original key.
    bool held = e.ring_held || HeldInBatch(e.key, i);
    while (held) {
      perturbed = true;
      e.key = e.key + step;
      const size_t at = LowerBound(e.key);
      held = (at < members_.size() && members_[at].key == e.key &&
              !LeftBy(members_[at].node, i)) ||
             HeldInBatch(e.key, i);
    }
    size_t s = KeyHash(e.key) & mask;
    while (key_table_[s].stamp == batch_stamp_ && key_table_[s].key != e.key) {
      s = (s + 1) & mask;
    }
    key_table_[s] = KeySlot{e.key, i, batch_stamp_};
  }
  return perturbed;
}

size_t ChordRing::SuccessorIndex(U128 key) const {
  assert(!members_.empty());
  // First member with key >= `key`, wrapping to 0.
  const size_t at = LowerBound(key);
  return at == members_.size() ? 0 : at;
}

size_t ChordRing::LowerBound(U128 key) const {
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), key,
      [](const Member& m, const U128& k) { return m.key < k; });
  return static_cast<size_t>(it - members_.begin());
}

size_t ChordRing::UpperBound(U128 key) const {
  const auto it = std::upper_bound(
      members_.begin(), members_.end(), key,
      [](const U128& k, const Member& m) { return k < m.key; });
  return static_cast<size_t>(it - members_.begin());
}

void ChordRing::AppendFingers(size_t m, std::vector<uint32_t>* out) const {
  const U128& base = members_[m].key;
  // Slot i holds the first member at clockwise distance >= 2^i from m, so
  // a finger at distance d fills every slot up to floor(log2(d)); the next
  // binary search starts at the first slot it cannot fill. When the search
  // wraps back to m, no member lies that far out and every larger slot
  // wraps too. Slot 0 needs no search: keys are unique, so it is the next
  // member.
  size_t f = m + 1 == members_.size() ? 0 : m + 1;
  while (f != m) {
    out->push_back(static_cast<uint32_t>(f));
    const unsigned i = BitWidth(members_[f].key - base);
    if (i >= kFingerBits) break;
    f = SuccessorIndex(base + PowerOfTwo(i));
  }
}

void ChordRing::Stabilize() {
  if (!stale_ && fingers_built_) return;  // membership unchanged
  if (!tracking_ || !fingers_built_ || !RebuildIncremental()) RebuildAll();
  stale_ = false;
  fingers_built_ = true;

  // Start a fresh change log against this membership. Its budget is the
  // number of changed keys up to which the incremental path is cheaper,
  // counted in ring-key comparisons: a full rebuild runs one ~log2(N)-step
  // successor search per stored finger and per member; the incremental one
  // copies the table once (F + N), and per changed key splices the origin
  // map (N), runs two searches per finger slot to find the members the key
  // can reach, and recomputes the ~log2(N) + 1 lists it reaches.
  const size_t n = members_.size();
  const size_t f = fingers_.size();
  origin_.resize(n);
  for (size_t j = 0; j < n; ++j) origin_[j] = static_cast<uint32_t>(j);
  changed_keys_.clear();
  const size_t lg = static_cast<size_t>(std::bit_width(n));
  const size_t full = (f + n) * lg;
  const size_t per_change =
      n + (2 * kFingerBits + (f / std::max<size_t>(n, 1) + 2) * (lg + 1)) * lg;
  change_budget_ = full > f + n ? (full - f - n) / per_change : 0;
  tracking_ = change_budget_ > 0;
}

void ChordRing::RebuildAll() {
  const size_t n = members_.size();
  finger_begin_.resize(n + 1);
  fingers_.clear();
  for (size_t m = 0; m < n; ++m) {
    finger_begin_[m] = static_cast<uint32_t>(fingers_.size());
    AppendFingers(m, &fingers_);
  }
  finger_begin_[n] = static_cast<uint32_t>(fingers_.size());
  work_.finger_lists_rebuilt += n;
}

bool ChordRing::RebuildIncremental() {
  const size_t n = members_.size();
  if (n < 2) return false;
  affected_.assign(n, 0);
  size_t reached = 0;
  auto reach = [&](size_t lo, size_t hi) {
    for (size_t j = lo; j < hi; ++j) {
      reached += affected_[j] == 0;
      affected_[j] = 1;
    }
  };
  for (size_t j = 0; j < n; ++j) {
    if (origin_[j] == kNew) reach(j, j + 1);
  }
  // successor(t) can differ between the old and the new membership only for
  // t in (pred(x), x] of some changed key x, with pred(x) the nearest
  // current member key before x. Member m's list reads successor(key_m +
  // 2^i) for each slot i, so it can change only when key_m lies in the
  // cyclic interval (pred(x) - 2^i, x - 2^i]: one member range per slot.
  for (const U128& x : changed_keys_) {
    const size_t lb = LowerBound(x);
    const U128 pred = members_[(lb == 0 ? n : lb) - 1].key;
    size_t last_s = n + 1, last_e = n + 1;
    bool last_wraps = false;
    for (unsigned i = 0; i < kFingerBits; ++i) {
      const U128 lo = pred - PowerOfTwo(i);
      const U128 hi = x - PowerOfTwo(i);
      const size_t s = UpperBound(lo);
      const size_t e = UpperBound(hi);
      const bool wraps = hi < lo;
      if (s == last_s && e == last_e && wraps == last_wraps) continue;
      last_s = s;
      last_e = e;
      last_wraps = wraps;
      if (wraps) {
        reach(s, n);
        reach(0, e);
      } else {
        reach(s, e);
      }
      if (reached == n) return false;  // no cheaper than a full rebuild
    }
  }

  // Re-index the unreached lists through the old -> new member map and
  // recompute the reached ones, writing the new table in one pass.
  const size_t old_n = finger_begin_.size() - 1;
  old_to_new_.assign(old_n, kNew);
  for (size_t j = 0; j < n; ++j) {
    if (origin_[j] != kNew) old_to_new_[origin_[j]] = static_cast<uint32_t>(j);
  }
  next_begin_.resize(n + 1);
  next_fingers_.clear();
  for (size_t m = 0; m < n; ++m) {
    next_begin_[m] = static_cast<uint32_t>(next_fingers_.size());
    if (affected_[m]) {
      AppendFingers(m, &next_fingers_);
      continue;
    }
    const uint32_t o = origin_[m];
    for (uint32_t k = finger_begin_[o]; k < finger_begin_[o + 1]; ++k) {
      assert(old_to_new_[fingers_[k]] != kNew);
      next_fingers_.push_back(old_to_new_[fingers_[k]]);
    }
  }
  next_begin_[n] = static_cast<uint32_t>(next_fingers_.size());
  finger_begin_.swap(next_begin_);
  fingers_.swap(next_fingers_);
  work_.finger_lists_rebuilt += reached;
  return true;
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 key,
                                                    U128 origin_key) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  if (stale_) return Status::FailedPrecondition("ring not stabilized");

  // Start at the member owning origin_key (its successor).
  size_t cur = SuccessorIndex(origin_key);
  size_t hops = 0;
  const size_t n = members_.size();
  const size_t target_idx = SuccessorIndex(key);

  // Greedy Chord routing: while the key is not between cur and its
  // immediate successor, forward to the closest preceding finger.
  while (cur != target_idx) {
    const U128& cur_key = members_[cur].key;
    const size_t succ = (cur + 1) % n;
    if (InIntervalOpenClosed(key, cur_key, members_[succ].key)) {
      cur = succ;
      ++hops;
      break;
    }
    // Closest preceding finger: the farthest finger strictly between
    // cur_key and key. Distinct fingers are stored nearest first, so the
    // backward scan meets the same member the 128-slot scan from the top
    // slot would.
    size_t next = succ;
    for (uint32_t k = finger_begin_[cur + 1]; k-- > finger_begin_[cur];) {
      const U128& fkey = members_[fingers_[k]].key;
      if (InIntervalOpenClosed(fkey, cur_key, key) && fkey != key) {
        next = fingers_[k];
        break;
      }
    }
    cur = next;
    ++hops;
    if (hops > n + 130) {
      return Status::Internal("chord routing failed to converge");
    }
  }
  LookupResult r;
  r.node = members_[cur].node;
  r.key = members_[cur].key;
  r.hops = hops;
  r.member_index = cur;
  return r;
}

StatusOr<ChordRing::LookupResult> ChordRing::Lookup(U128 key) const {
  if (members_.empty()) return Status::FailedPrecondition("empty ring");
  return Lookup(key, members_[0].key);
}

const ChordRing::Member& ChordRing::SuccessorAt(size_t member_index,
                                                size_t i) const {
  return members_[(member_index + i) % members_.size()];
}

const ChordRing::Member& ChordRing::PredecessorAt(size_t member_index,
                                                  size_t i) const {
  const size_t n = members_.size();
  return members_[(member_index + n - (i % n)) % n];
}

}  // namespace sbon::dht
