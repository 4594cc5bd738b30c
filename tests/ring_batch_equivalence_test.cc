// Ring-maintenance equivalence pins: the batched ring apply
// (ChordRing::ApplyBatch), the incremental finger rebuild inside
// ChordRing::Stabilize and the branchless Hilbert encoder must reproduce the
// code they replaced exactly. The references below are that code, kept
// verbatim in algorithm: per-entry Leave + Join splices on a sorted member
// vector, a full finger-table rebuild, greedy compact-finger routing, and
// Skilling's branching transpose. Any difference in a member key, a finger
// index, a routed hop count or a Hilbert key fails here before it can move
// a placement golden.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dht/chord.h"
#include "dht/hilbert.h"
#include "dht/u128.h"

namespace sbon {
namespace {

using dht::ChordRing;
using dht::U128;

// ----------------------------- Ring reference -----------------------------

bool InIntervalOpenClosed(const U128& x, const U128& a, const U128& b) {
  if (x == a) return false;
  return (x - a) <= (b - a);
}

unsigned BitWidth(const U128& x) {
  return x.hi != 0 ? 64 + static_cast<unsigned>(std::bit_width(x.hi))
                   : static_cast<unsigned>(std::bit_width(x.lo));
}

// Sequential splices, a full finger rebuild and greedy routing, as the ring
// did them before batching and incremental fingers.
class ReferenceRing {
 public:
  void Join(U128 key, NodeId node) {
    const auto key_less = [](const ChordRing::Member& m, const U128& k) {
      return m.key < k;
    };
    U128 k = key;
    auto pos = std::lower_bound(members_.begin(), members_.end(), k, key_less);
    while (pos != members_.end() && pos->key == k) {
      k = k + U128::FromU64((static_cast<uint64_t>(node) << 1) | 1);
      pos = std::lower_bound(members_.begin(), members_.end(), k, key_less);
    }
    members_.insert(pos, ChordRing::Member{k, node});
  }

  void Leave(NodeId node) {
    members_.erase(std::remove_if(members_.begin(), members_.end(),
                                  [&](const ChordRing::Member& m) {
                                    return m.node == node;
                                  }),
                   members_.end());
  }

  void Stabilize() {
    const size_t n = members_.size();
    finger_begin_.assign(n + 1, 0);
    fingers_.clear();
    for (size_t m = 0; m < n; ++m) {
      finger_begin_[m] = static_cast<uint32_t>(fingers_.size());
      const U128& base = members_[m].key;
      unsigned i = 0;
      while (i < 128) {
        const size_t f = SuccessorIndex(base + dht::PowerOfTwo(i));
        if (f == m) break;
        fingers_.push_back(static_cast<uint32_t>(f));
        i = BitWidth(members_[f].key - base);
      }
    }
    finger_begin_[n] = static_cast<uint32_t>(fingers_.size());
  }

  ChordRing::LookupResult Lookup(U128 key, U128 origin_key) const {
    size_t cur = SuccessorIndex(origin_key);
    size_t hops = 0;
    const size_t n = members_.size();
    const size_t target_idx = SuccessorIndex(key);
    while (cur != target_idx) {
      const U128& cur_key = members_[cur].key;
      const size_t succ = (cur + 1) % n;
      if (InIntervalOpenClosed(key, cur_key, members_[succ].key)) {
        cur = succ;
        ++hops;
        break;
      }
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
    }
    ChordRing::LookupResult r;
    r.node = members_[cur].node;
    r.key = members_[cur].key;
    r.hops = hops;
    r.member_index = cur;
    return r;
  }

  const std::vector<ChordRing::Member>& members() const { return members_; }
  const std::vector<uint32_t>& finger_begin() const { return finger_begin_; }
  const std::vector<uint32_t>& fingers() const { return fingers_; }

 private:
  size_t SuccessorIndex(U128 key) const {
    const auto it = std::lower_bound(
        members_.begin(), members_.end(), key,
        [](const ChordRing::Member& m, const U128& k) { return m.key < k; });
    return it == members_.end() ? 0
                                : static_cast<size_t>(it - members_.begin());
  }

  std::vector<ChordRing::Member> members_;
  std::vector<uint32_t> finger_begin_;
  std::vector<uint32_t> fingers_;
};

void ExpectSameMembers(const ChordRing& got, const ReferenceRing& want) {
  ASSERT_EQ(got.members().size(), want.members().size());
  for (size_t i = 0; i < want.members().size(); ++i) {
    ASSERT_EQ(got.members()[i].key, want.members()[i].key) << "entry " << i;
    ASSERT_EQ(got.members()[i].node, want.members()[i].node) << "entry " << i;
  }
}

void ExpectSameFingers(const ChordRing& got, const ReferenceRing& want) {
  ASSERT_EQ(got.finger_begin(), want.finger_begin());
  ASSERT_EQ(got.fingers(), want.fingers());
}

void ExpectSameLookups(const ChordRing& got, const ReferenceRing& want,
                       Rng* rng, const auto& random_key) {
  const auto& members = want.members();
  if (members.empty()) return;
  for (int q = 0; q < 24; ++q) {
    // Member keys and their neighbours stress the interval edges.
    U128 key = random_key();
    if (q % 3 == 0) key = members[rng->UniformInt(members.size())].key;
    if (q % 3 == 1) {
      key = members[rng->UniformInt(members.size())].key + U128(0, 1);
    }
    const U128 origin = q % 2 == 0
                            ? members[rng->UniformInt(members.size())].key
                            : random_key();
    auto r = got.Lookup(key, origin);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ChordRing::LookupResult w = want.Lookup(key, origin);
    ASSERT_EQ(r->node, w.node);
    ASSERT_EQ(r->key, w.key);
    ASSERT_EQ(r->hops, w.hops);
    ASSERT_EQ(r->member_index, w.member_index);
  }
}

// A seeded random script of joins, leaves, publish batches (with keys that
// collide with each other and with the ring, and with subjects published
// more than once), crashes and rejoins, applied three ways: `batched` uses
// ApplyBatch, `sequential` the production Leave + Join, and the reference
// the pre-batch code. After every step the memberships must be identical;
// after every Stabilize the finger tables and routed lookups too.
void RunScript(uint64_t seed, int key_regime) {
  Rng rng(seed);
  // Key regimes: uniform 128-bit keys; Hilbert-like keys in the low 30
  // bits; and a crowded space of 64 keys (plus both ends of the key space)
  // where collisions and perturbation chains are the norm.
  auto random_key = [&]() -> U128 {
    switch (key_regime) {
      case 0:
        return U128(rng.Next(), rng.Next());
      case 1:
        return U128::FromU64(rng.UniformInt(uint64_t{1} << 30));
      default: {
        const uint64_t k = rng.UniformInt(66);
        if (k == 64) return U128::Max();
        if (k == 65) return U128(0, 0);
        return U128::FromU64(k * 1000);
      }
    }
  };
  constexpr NodeId kNodes = 160;
  ChordRing batched, sequential;
  ReferenceRing reference;

  // Bring-up as one batch, like CoordinateIndex::PublishBatch at build.
  std::vector<ChordRing::Member> batch;
  for (NodeId n = 0; n < 120; ++n) {
    batch.push_back(ChordRing::Member{random_key(), n});
  }
  auto apply_batch = [&](const std::vector<ChordRing::Member>& entries) {
    batched.ApplyBatch(entries);
    for (const ChordRing::Member& e : entries) {
      sequential.Leave(e.node);
      sequential.Join(e.key, e.node);
      reference.Leave(e.node);
      reference.Join(e.key, e.node);
    }
  };
  auto stabilize = [&]() {
    batched.Stabilize();
    sequential.Stabilize();
    reference.Stabilize();
    ExpectSameFingers(batched, reference);
    ExpectSameFingers(sequential, reference);
    ExpectSameLookups(batched, reference, &rng, random_key);
    ExpectSameLookups(sequential, reference, &rng, random_key);
  };
  apply_batch(batch);
  ExpectSameMembers(batched, reference);
  stabilize();

  for (int step = 0; step < 300; ++step) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed << " regime="
                                    << key_regime << " step=" << step);
    const NodeId node = static_cast<NodeId>(rng.UniformInt(kNodes));
    switch (rng.UniformInt(6)) {
      case 0: {  // crash: one leave, then the repair path's Stabilize
        for (ChordRing* r : {&batched, &sequential}) r->Leave(node);
        reference.Leave(node);
        stabilize();
        break;
      }
      case 1: {  // rejoin (or republish) of one node, then Stabilize
        const U128 key = random_key();
        for (ChordRing* r : {&batched, &sequential}) {
          r->Leave(node);
          r->Join(key, node);
        }
        reference.Leave(node);
        reference.Join(key, node);
        stabilize();
        break;
      }
      case 2:  // a bare join or leave, with no Stabilize until later
        if (rng.UniformInt(2) == 0) {
          const U128 key = random_key();
          for (ChordRing* r : {&batched, &sequential}) {
            r->Leave(node);
            r->Join(key, node);
          }
          reference.Leave(node);
          reference.Join(key, node);
          } else {
          for (ChordRing* r : {&batched, &sequential}) r->Leave(node);
          reference.Leave(node);
          }
        break;
      case 3:
      case 4: {  // a publish batch: small, or most of the ring
        const size_t size =
            rng.UniformInt(2) == 0 ? 1 + rng.UniformInt(4)
                                   : 40 + rng.UniformInt(100);
        batch.clear();
        for (size_t i = 0; i < size; ++i) {
          // A duplicated delivery (an earlier entry again), and a member
          // republishing its unchanged ring key: both leave every key
          // where it was.
          if (!batch.empty() && rng.UniformInt(10) == 0) {
            batch.push_back(batch[rng.UniformInt(batch.size())]);
            continue;
          }
          if (!reference.members().empty() && rng.UniformInt(10) == 0) {
            batch.push_back(reference.members()[rng.UniformInt(
                reference.members().size())]);
            continue;
          }
          // Repeat an earlier subject of this batch now and then, with a
          // new key or with the key another entry used.
          NodeId subject = static_cast<NodeId>(rng.UniformInt(kNodes));
          U128 key = random_key();
          if (!batch.empty() && rng.UniformInt(8) == 0) {
            subject = batch[rng.UniformInt(batch.size())].node;
          }
          if (!batch.empty() && rng.UniformInt(8) == 0) {
            key = batch[rng.UniformInt(batch.size())].key;
          }
          if (!reference.members().empty() && rng.UniformInt(8) == 0) {
            key = reference.members()[rng.UniformInt(
                                          reference.members().size())]
                      .key;
          }
          batch.push_back(ChordRing::Member{key, subject});
        }
        apply_batch(batch);
        if (rng.UniformInt(3) != 0) {
          ExpectSameMembers(batched, reference);
          stabilize();
        }
        break;
      }
      default:
        stabilize();
        break;
    }
    ExpectSameMembers(batched, reference);
    ExpectSameMembers(sequential, reference);
    if (testing::Test::HasFatalFailure()) return;
  }
}

class RingScriptTest : public ::testing::TestWithParam<int> {};

TEST_P(RingScriptTest, BatchAndIncrementalFingersMatchSequentialRebuild) {
  for (uint64_t seed : {1, 7, 42, 1234}) {
    RunScript(seed, GetParam());
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(KeyRegimes, RingScriptTest,
                         ::testing::Values(0, 1, 2));

// A single crash or rejoin on a large ring recomputes only the finger lists
// the changed key can reach, and still lands on the full rebuild's table.
TEST(RingIncrementalFingers, SingleChangeRebuildsFewLists) {
  Rng rng(3);
  ChordRing ring;
  ReferenceRing reference;
  constexpr NodeId kMembers = 512;
  std::vector<ChordRing::Member> batch;
  for (NodeId n = 0; n < kMembers; ++n) {
    batch.push_back(
        ChordRing::Member{U128::FromU64(rng.UniformInt(uint64_t{1} << 30)),
                          n});
  }
  ring.ApplyBatch(batch);
  for (const ChordRing::Member& e : batch) reference.Join(e.key, e.node);
  ring.Stabilize();
  reference.Stabilize();
  EXPECT_EQ(ring.work().finger_lists_rebuilt, kMembers);
  EXPECT_EQ(ring.work().entries_spliced, kMembers);

  for (NodeId n = 10; n < 20; ++n) {
    const size_t before = ring.work().finger_lists_rebuilt;
    ring.Leave(n);
    reference.Leave(n);
    ring.Stabilize();
    reference.Stabilize();
    ExpectSameFingers(ring, reference);
    const size_t rebuilt = ring.work().finger_lists_rebuilt - before;
    EXPECT_GT(rebuilt, 0u);
    EXPECT_LT(rebuilt, kMembers / 8) << "leave of node " << n;

    const U128 key = U128::FromU64(rng.UniformInt(uint64_t{1} << 30));
    const size_t before_join = ring.work().finger_lists_rebuilt;
    ring.Join(key, n);
    reference.Join(key, n);
    ring.Stabilize();
    reference.Stabilize();
    ExpectSameFingers(ring, reference);
    EXPECT_LT(ring.work().finger_lists_rebuilt - before_join, kMembers / 8)
        << "join of node " << n;
  }
  // A Stabilize with nothing changed rebuilds nothing.
  const size_t settled = ring.work().finger_lists_rebuilt;
  ring.Stabilize();
  EXPECT_EQ(ring.work().finger_lists_rebuilt, settled);
}

// --------------------------- Hilbert reference ----------------------------

// Skilling's transpose with data-dependent branches and per-bit SetBit
// interleave: the encoder before the branchless rewrite.
U128 SkillingEncode(uint32_t* x, unsigned n, unsigned bits) {
  const uint32_t m = 1u << (bits - 1);
  for (uint32_t q = m; q > 1; q >>= 1) {
    const uint32_t p = q - 1;
    for (unsigned i = 0; i < n; ++i) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        const uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  for (unsigned i = 1; i < n; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[n - 1] & q) t ^= q - 1;
  }
  for (unsigned i = 0; i < n; ++i) x[i] ^= t;
  U128 out;
  unsigned out_bit = n * bits;
  for (unsigned b = bits; b-- > 0;) {
    for (unsigned d = 0; d < n; ++d) {
      --out_bit;
      if ((x[d] >> b) & 1u) out.SetBit(out_bit);
    }
  }
  return out;
}

// Encodes `axes` with both encoders (each on its own copy, since both
// clobber their input) and reports whether they agree.
bool EncodersAgree(const uint32_t* axes, unsigned dims, unsigned bits) {
  uint32_t a[128], b[128];
  std::copy(axes, axes + dims, a);
  std::copy(axes, axes + dims, b);
  return dht::HilbertEncodeInPlace(a, dims, bits) ==
         SkillingEncode(b, dims, bits);
}

TEST(HilbertBranchless, MatchesSkillingExhaustivelyUpTo20Bits) {
  size_t checked = 0;
  uint32_t axes[128];
  for (unsigned dims = 1; dims <= 20; ++dims) {
    for (unsigned bits = 1; dims * bits <= 20; ++bits) {
      const uint64_t cells = uint64_t{1} << (dims * bits);
      const uint32_t mask = (1u << bits) - 1;
      for (uint64_t c = 0; c < cells; ++c) {
        for (unsigned d = 0; d < dims; ++d) {
          axes[d] = static_cast<uint32_t>(c >> (d * bits)) & mask;
        }
        ASSERT_TRUE(EncodersAgree(axes, dims, bits))
            << "dims=" << dims << " bits=" << bits << " cell=" << c;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 4'000'000u);
}

TEST(HilbertBranchless, MatchesSkillingOnRandomCells) {
  struct Shape {
    unsigned dims, bits;
    size_t samples;
  };
  // The index's default shape (3 x 10), a wide 8 x 16 grid, and the
  // extremes of the dims * bits <= 128 contract.
  const Shape shapes[] = {
      {3, 10, 10'000'000}, {8, 16, 1'000'000}, {4, 32, 100'000},
      {128, 1, 100'000},   {16, 8, 100'000},
  };
  Rng rng(2004);
  uint32_t axes[128];
  for (const Shape& s : shapes) {
    const uint64_t span = uint64_t{1} << s.bits;
    for (size_t i = 0; i < s.samples; ++i) {
      for (unsigned d = 0; d < s.dims; ++d) {
        axes[d] = static_cast<uint32_t>(rng.UniformInt(span));
      }
      ASSERT_TRUE(EncodersAgree(axes, s.dims, s.bits))
          << "dims=" << s.dims << " bits=" << s.bits << " sample=" << i;
    }
  }
}

}  // namespace
}  // namespace sbon
