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

}  // namespace

void ChordRing::Join(U128 key, NodeId node) {
  if (in_bulk_) {
    // Same perturbation rule against the map: "does this exact key exist?"
    // is what the vector's lower_bound equality probe asks, so the final
    // key assignment is identical to the sequential vector path.
    U128 k = key;
    while (bulk_members_.count(k) != 0) {
      k = k + U128::FromU64((static_cast<uint64_t>(node) << 1) | 1);
    }
    bulk_members_.emplace(k, node);
    bulk_key_of_[node] = k;
    stale_ = true;
    return;
  }
  // Perturb exact duplicates so every member has a unique ring key.
  // `members_` stays sorted by key, so existence is a binary search and the
  // new member is spliced in at its lower bound instead of re-sorting the
  // whole ring on every join.
  const auto key_less = [](const Member& m, const U128& k) {
    return m.key < k;
  };
  U128 k = key;
  auto pos = std::lower_bound(members_.begin(), members_.end(), k, key_less);
  while (pos != members_.end() && pos->key == k) {
    k = k + U128::FromU64((static_cast<uint64_t>(node) << 1) | 1);
    pos = std::lower_bound(members_.begin(), members_.end(), k, key_less);
  }
  members_.insert(pos, Member{k, node});
  stale_ = true;
}

void ChordRing::Leave(NodeId node) {
  if (in_bulk_) {
    auto it = bulk_key_of_.find(node);
    if (it != bulk_key_of_.end()) {
      bulk_members_.erase(it->second);
      bulk_key_of_.erase(it);
      stale_ = true;
    }
    return;
  }
  members_.erase(std::remove_if(members_.begin(), members_.end(),
                                [&](const Member& m) {
                                  return m.node == node;
                                }),
                 members_.end());
  stale_ = true;
}

void ChordRing::BeginBulk() {
  if (in_bulk_) return;
  in_bulk_ = true;
  bulk_members_.clear();
  bulk_key_of_.clear();
  bulk_key_of_.reserve(members_.size());
  for (const Member& m : members_) {
    bulk_members_.emplace(m.key, m.node);
    bulk_key_of_.emplace(m.node, m.key);
  }
}

void ChordRing::EndBulk() {
  if (!in_bulk_) return;
  in_bulk_ = false;
  members_.clear();
  members_.reserve(bulk_members_.size());
  for (const auto& [k, node] : bulk_members_) {
    members_.push_back(Member{k, node});
  }
  bulk_members_.clear();
  bulk_key_of_.clear();
}

size_t ChordRing::SuccessorIndex(U128 key) const {
  assert(!members_.empty());
  // First member with key >= `key`, wrapping to 0.
  const auto it = std::lower_bound(
      members_.begin(), members_.end(), key,
      [](const Member& m, const U128& k) { return m.key < k; });
  if (it == members_.end()) return 0;
  return static_cast<size_t>(it - members_.begin());
}

void ChordRing::Stabilize() {
  const size_t n = members_.size();
  finger_begin_.resize(n + 1);
  fingers_.clear();
  for (size_t m = 0; m < n; ++m) {
    finger_begin_[m] = static_cast<uint32_t>(fingers_.size());
    const U128& base = members_[m].key;
    // Slot i holds the first member at clockwise distance >= 2^i from m, so
    // a finger at distance d fills every slot up to floor(log2(d)); the next
    // binary search starts at the first slot it cannot fill. When the search
    // wraps back to m, no member lies that far out and every larger slot
    // wraps too.
    unsigned i = 0;
    while (i < kFingerBits) {
      const size_t f = SuccessorIndex(base + PowerOfTwo(i));
      if (f == m) break;
      fingers_.push_back(static_cast<uint32_t>(f));
      i = BitWidth(members_[f].key - base);
    }
  }
  finger_begin_[n] = static_cast<uint32_t>(fingers_.size());
  stale_ = false;
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
