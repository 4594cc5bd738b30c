// Submit-path equivalence pins: the compact Chord finger table, the id-only
// hyper-sphere walk and the placers' prebuilt adjacency must reproduce the
// implementations they replaced exactly — the same routed member and hop
// count, the same in-sphere node set and DHT bill, bitwise-equal virtual
// coordinates. Each reference below is the replaced code, kept verbatim in
// algorithm, so a change to routing order or to a sweep's summation order
// fails here before it reaches the placement goldens.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "dht/chord.h"
#include "dht/coord_index.h"
#include "dht/u128.h"
#include "harness/fixtures.h"
#include "overlay/circuit.h"
#include "placement/relaxation.h"
#include "placement/virtual_placement.h"
#include "query/catalog.h"
#include "query/plan.h"

namespace sbon {
namespace {

using dht::ChordRing;
using dht::U128;

constexpr uint64_t kSeeds[] = {1, 42, 9001};

// ------------------------ Chord routing reference ------------------------

bool InIntervalOpenClosed(const U128& x, const U128& a, const U128& b) {
  if (x == a) return false;
  return (x - a) <= (b - a);
}

// The 128-slot finger table and greedy routing the compact table replaced:
// every member stores successor(key + 2^i) for all i, and each hop scans the
// slots from the top for the closest preceding finger.
class FlatFingerRouting {
 public:
  explicit FlatFingerRouting(const std::vector<ChordRing::Member>& members)
      : members_(members), fingers_(members.size() * kBits) {
    for (size_t m = 0; m < members_.size(); ++m) {
      for (unsigned i = 0; i < kBits; ++i) {
        fingers_[m * kBits + i] = static_cast<uint32_t>(
            SuccessorIndex(members_[m].key + dht::PowerOfTwo(i)));
      }
    }
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
      const uint32_t* row = fingers_.data() + cur * kBits;
      for (unsigned i = kBits; i-- > 0;) {
        const size_t f = row[i];
        const U128& fkey = members_[f].key;
        if (f != cur && InIntervalOpenClosed(fkey, cur_key, key) &&
            fkey != key) {
          next = f;
          break;
        }
      }
      if (next == cur) next = succ;
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

 private:
  static constexpr unsigned kBits = 128;

  size_t SuccessorIndex(U128 key) const {
    const auto it = std::lower_bound(
        members_.begin(), members_.end(), key,
        [](const ChordRing::Member& m, const U128& k) { return m.key < k; });
    return it == members_.end() ? 0
                                : static_cast<size_t>(it - members_.begin());
  }

  std::vector<ChordRing::Member> members_;
  std::vector<uint32_t> fingers_;
};

U128 RandomKey(Rng* rng) { return U128(rng->Next(), rng->Next()); }

// A ring of `n` members: random keys, a cluster just below the 2^128 wrap
// and just above zero, and repeated keys that Join perturbs apart.
ChordRing MakeRing(size_t n, Rng* rng) {
  ChordRing ring;
  for (size_t i = 0; i < n; ++i) {
    U128 key;
    switch (i % 5) {
      case 1:  // near the top of the key space
        key = U128(~0ULL, ~0ULL - rng->UniformInt(uint64_t{1} << 20));
        break;
      case 2:  // just past the wrap
        key = U128(0, rng->UniformInt(uint64_t{1} << 20));
        break;
      case 3:  // an exact duplicate of an earlier key
        key = ring.members().empty()
                  ? RandomKey(rng)
                  : ring.members()[rng->UniformInt(ring.members().size())].key;
        break;
      default:
        key = RandomKey(rng);
    }
    ring.Join(key, static_cast<NodeId>(i));
  }
  ring.Stabilize();
  return ring;
}

// Keys that stress the interval arithmetic: member keys and their
// neighbours, both ends of the key space, and random keys.
std::vector<U128> ProbeKeys(const ChordRing& ring, Rng* rng) {
  std::vector<U128> keys = {U128(0, 0), U128(0, 1), U128(~0ULL, ~0ULL),
                            U128(~0ULL, ~0ULL - 1), dht::PowerOfTwo(127)};
  for (int i = 0; i < 24; ++i) keys.push_back(RandomKey(rng));
  for (int i = 0; i < 8 && !ring.members().empty(); ++i) {
    const U128 k = ring.members()[rng->UniformInt(ring.members().size())].key;
    keys.push_back(k);
    keys.push_back(k + U128(0, 1));
    keys.push_back(k - U128(0, 1));
  }
  return keys;
}

void ExpectSameLookup(const ChordRing::LookupResult& got,
                      const ChordRing::LookupResult& want) {
  EXPECT_EQ(got.node, want.node);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.member_index, want.member_index);
  EXPECT_EQ(got.hops, want.hops);
}

TEST(SubmitPathEquivalence, CompactFingersRouteLikeFlatTable) {
  for (uint64_t seed : kSeeds) {
    for (size_t n : {1, 2, 3, 17, 256, 513}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed << " n=" << n);
      Rng rng(seed * 1000 + n);
      const ChordRing ring = MakeRing(n, &rng);
      ASSERT_EQ(ring.NumMembers(), n);  // duplicates were perturbed apart
      const FlatFingerRouting reference(ring.members());
      const std::vector<U128> keys = ProbeKeys(ring, &rng);
      // Every member as origin, plus origins between members (message-mode
      // agents route from arbitrary keys).
      std::vector<U128> origins;
      for (const ChordRing::Member& m : ring.members()) {
        origins.push_back(m.key);
      }
      for (int i = 0; i < 8; ++i) origins.push_back(RandomKey(&rng));
      for (const U128& origin : origins) {
        for (size_t j = 0; j < 6; ++j) {
          const U128& key = keys[rng.UniformInt(keys.size())];
          auto got = ring.Lookup(key, origin);
          ASSERT_TRUE(got.ok());
          ExpectSameLookup(*got, reference.Lookup(key, origin));
        }
      }
      for (const U128& key : keys) {
        auto got = ring.Lookup(key);
        ASSERT_TRUE(got.ok());
        ExpectSameLookup(*got, reference.Lookup(key, ring.members()[0].key));
      }
    }
  }
}

TEST(SubmitPathEquivalence, CompactFingerTableStaysLogarithmic) {
  Rng rng(7);
  ChordRing ring;
  constexpr size_t kMembers = 4096;
  for (size_t i = 0; i < kMembers; ++i) {
    ring.Join(RandomKey(&rng), static_cast<NodeId>(i));
  }
  ring.Stabilize();
  // Random keys give about log2(N) + O(1) distinct fingers per member, far
  // below the 128 slots of the flat table.
  const size_t log2n = std::bit_width(kMembers) - 1;
  EXPECT_LE(ring.NumFingerEntries(), kMembers * (log2n + 4));
  EXPECT_GE(ring.NumFingerEntries(), kMembers * (log2n - 4));
}

TEST(SubmitPathEquivalence, FingersFollowMembershipChanges) {
  Rng rng(11);
  ChordRing ring = MakeRing(64, &rng);
  for (NodeId gone = 0; gone < 64; gone += 3) ring.Leave(gone);
  for (NodeId fresh = 100; fresh < 120; ++fresh) {
    ring.Join(RandomKey(&rng), fresh);
  }
  ring.Stabilize();
  const FlatFingerRouting reference(ring.members());
  for (const U128& key : ProbeKeys(ring, &rng)) {
    for (const ChordRing::Member& m : ring.members()) {
      auto got = ring.Lookup(key, m.key);
      ASSERT_TRUE(got.ok());
      ExpectSameLookup(*got, reference.Lookup(key, m.key));
    }
  }
}

// ----------------------- Placer sweep references -------------------------

// Edges incident to `v` as (edge index, other end), in edge-list order: the
// per-vertex scan the placers ran inside every sweep before the adjacency
// was prebuilt.
std::vector<std::pair<int, int>> IncidentEdges(const overlay::Circuit& c,
                                               int v) {
  std::vector<std::pair<int, int>> out;
  for (int e = 0; e < static_cast<int>(c.edges().size()); ++e) {
    if (c.edges()[e].from == v) out.emplace_back(e, c.edges()[e].to);
    if (c.edges()[e].to == v) out.emplace_back(e, c.edges()[e].from);
  }
  return out;
}

void ReferenceRelaxation(overlay::Circuit* circuit,
                         const coords::CostSpace& space,
                         const placement::RelaxationPlacer::Params& params) {
  using placement::internal::AnchorCoord;
  const std::vector<int> placeable = circuit->PlaceableVertices();
  if (placeable.empty()) return;
  placement::internal::SeedAtPinnedCentroid(circuit, space);
  for (size_t sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double max_move = 0.0;
    for (int v : placeable) {
      Vec num(space.spec().vector_dims());
      double den = 0.0;
      for (const auto& [edge_idx, other] : IncidentEdges(*circuit, v)) {
        const double rate = circuit->edges()[edge_idx].rate_bytes_per_s;
        if (rate <= 0.0) continue;
        num.AddScaled(AnchorCoord(*circuit, other, space), rate);
        den += rate;
      }
      if (den <= 0.0) continue;
      const Vec target = num / den;
      overlay::CircuitVertex& cv = circuit->mutable_vertex(v);
      max_move = std::max(max_move, cv.virtual_coord.DistanceTo(target));
      cv.virtual_coord = target;
    }
    if (max_move < params.tolerance) break;
  }
}

void ReferenceGradient(overlay::Circuit* circuit,
                       const coords::CostSpace& space,
                       const placement::GradientPlacer::Params& params) {
  using placement::internal::AnchorCoord;
  const std::vector<int> placeable = circuit->PlaceableVertices();
  if (placeable.empty()) return;
  ReferenceRelaxation(circuit, space, placement::RelaxationPlacer::Params());
  for (size_t sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double max_move = 0.0;
    for (int v : placeable) {
      Vec num(space.spec().vector_dims());
      double den = 0.0;
      const Vec cur = circuit->vertex(v).virtual_coord;
      for (const auto& [edge_idx, other] : IncidentEdges(*circuit, v)) {
        const double rate = circuit->edges()[edge_idx].rate_bytes_per_s;
        if (rate <= 0.0) continue;
        const Vec a = AnchorCoord(*circuit, other, space);
        const double d = std::max(cur.DistanceTo(a), params.epsilon);
        num.AddScaled(a, rate / d);
        den += rate / d;
      }
      if (den <= 0.0) continue;
      const Vec target = num / den;
      overlay::CircuitVertex& cv = circuit->mutable_vertex(v);
      max_move = std::max(max_move, cv.virtual_coord.DistanceTo(target));
      cv.virtual_coord = target;
    }
    if (max_move < params.tolerance) break;
  }
}

// A random annotated plan over `catalog`: producers optionally filtered,
// joined in random order, optionally aggregated (sometimes to rate zero),
// delivered to `consumer`.
query::LogicalPlan RandomPlan(const query::Catalog& catalog, NodeId consumer,
                              Rng* rng) {
  query::LogicalPlan p;
  std::vector<int> roots;
  const size_t streams = 2 + rng->UniformInt(uint64_t{4});
  for (size_t i = 0; i < streams; ++i) {
    int op = p.AddProducer(
        static_cast<StreamId>(rng->UniformInt(catalog.NumStreams())));
    if (rng->UniformInt(uint64_t{3}) == 0) {
      op = p.AddSelect(op, rng->Uniform(0.05, 1.0));
    }
    roots.push_back(op);
  }
  while (roots.size() > 1) {
    const size_t a = rng->UniformInt(roots.size());
    const int left = roots[a];
    roots.erase(roots.begin() + static_cast<std::ptrdiff_t>(a));
    const size_t b = rng->UniformInt(roots.size());
    roots[b] = p.AddJoin(left, roots[b], rng->Uniform(0.001, 0.1));
  }
  int top = roots[0];
  if (rng->UniformInt(uint64_t{3}) == 0) {
    const double factor =
        rng->UniformInt(uint64_t{2}) == 0 ? 0.0 : rng->Uniform(0.1, 1.0);
    top = p.AddAggregate(top, factor);
  }
  p.SetConsumer(top, consumer);
  EXPECT_TRUE(p.AnnotateRates(catalog).ok());
  return p;
}

// Random circuits over `sbon`, some with a reused subtree bound. The
// catalog includes a zero-rate stream, so some edges exert no force.
std::vector<overlay::Circuit> RandomCircuits(const overlay::Sbon& sbon,
                                             uint64_t seed, size_t count) {
  Rng rng(seed);
  const std::vector<NodeId>& nodes = sbon.overlay_nodes();
  auto node = [&] { return nodes[rng.UniformInt(nodes.size())]; };
  query::Catalog catalog;
  for (int s = 0; s < 6; ++s) {
    const double rate = s == 5 ? 0.0 : rng.Uniform(1.0, 200.0);
    catalog.AddStream(std::string(1, static_cast<char>('a' + s)), rate,
                      rng.Uniform(16.0, 256.0), node());
  }
  std::vector<overlay::Circuit> out;
  while (out.size() < count) {
    auto circuit =
        overlay::Circuit::FromPlan(RandomPlan(catalog, node(), &rng), catalog);
    EXPECT_TRUE(circuit.ok());
    if (!circuit.ok()) break;
    const std::vector<int> interior = circuit->PlaceableVertices();
    if (!interior.empty() && rng.UniformInt(uint64_t{2}) == 0) {
      const int v = interior[rng.UniformInt(interior.size())];
      circuit->BindReusedSubtree(v, /*instance=*/7, node(),
                                 rng.Uniform(0.0, 50.0));
    }
    out.push_back(std::move(circuit.value()));
  }
  return out;
}

void ExpectBitwiseEqualCoords(const overlay::Circuit& got,
                              const overlay::Circuit& want) {
  ASSERT_EQ(got.NumVertices(), want.NumVertices());
  for (size_t v = 0; v < got.NumVertices(); ++v) {
    const Vec& a = got.vertex(static_cast<int>(v)).virtual_coord;
    const Vec& b = want.vertex(static_cast<int>(v)).virtual_coord;
    ASSERT_EQ(a.dims(), b.dims()) << "vertex " << v;
    for (size_t d = 0; d < a.dims(); ++d) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a[d]), std::bit_cast<uint64_t>(b[d]))
          << "vertex " << v << " dim " << d;
    }
  }
}

TEST(SubmitPathEquivalence, PlacersMatchPerSweepIncidentEdges) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    auto sbon = test::MakeTransitStubSbon(test::TopologySize::kTiny, seed);
    const coords::CostSpace& space = sbon->cost_space();
    const placement::RelaxationPlacer relaxation;
    const placement::GradientPlacer gradient;
    size_t reused = 0, zero_rate = 0;
    for (const overlay::Circuit& c : RandomCircuits(*sbon, seed, 40)) {
      for (const overlay::CircuitVertex& v : c.vertices()) reused += v.reused;
      for (const overlay::CircuitEdge& e : c.edges()) {
        zero_rate += e.rate_bytes_per_s <= 0.0;
      }

      overlay::Circuit got = c, want = c;
      ASSERT_TRUE(relaxation.Place(&got, space).ok());
      ReferenceRelaxation(&want, space, placement::RelaxationPlacer::Params());
      ExpectBitwiseEqualCoords(got, want);

      got = c;
      want = c;
      ASSERT_TRUE(gradient.Place(&got, space).ok());
      ReferenceGradient(&want, space, placement::GradientPlacer::Params());
      ExpectBitwiseEqualCoords(got, want);
    }
    // The random mix really exercised both special cases.
    EXPECT_GT(reused, 0u);
    EXPECT_GT(zero_rate, 0u);
  }
}

// --------------------------- Sphere walk ---------------------------------

TEST(SubmitPathEquivalence, IdOnlySphereWalkMatchesWithinRadius) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    auto sbon = test::MakeTransitStubSbon(test::TopologySize::kSmall, seed);
    const dht::CoordinateIndex& index = sbon->index();
    const std::vector<NodeId>& nodes = sbon->overlay_nodes();
    Rng rng(seed + 5);
    std::vector<NodeId> ids;
    for (int q = 0; q < 60; ++q) {
      Vec target = sbon->cost_space().FullCoord(nodes[rng.UniformInt(
          nodes.size())]);
      for (size_t d = 0; d < target.dims(); ++d) {
        target[d] += rng.Uniform(-20.0, 20.0);
      }
      for (double radius : {0.0, 5.0, 30.0, 80.0, 1e9}) {
        dht::IndexQueryCost want_cost, got_cost;
        auto matches = index.WithinRadius(target, radius, &want_cost);
        ASSERT_TRUE(matches.ok());
        ASSERT_TRUE(
            index.WithinRadiusIdsInto(target, radius, &got_cost, &ids).ok());
        std::vector<NodeId> want;
        for (const dht::IndexMatch& m : *matches) want.push_back(m.node);
        std::sort(want.begin(), want.end());
        EXPECT_EQ(ids, want) << "radius " << radius;
        EXPECT_EQ(got_cost.lookups, want_cost.lookups);
        EXPECT_EQ(got_cost.routing_hops, want_cost.routing_hops);
        EXPECT_EQ(got_cost.ring_probes, want_cost.ring_probes);
      }
    }
  }
}

TEST(SubmitPathEquivalence, IdOnlySphereWalkFailsOnEmptyIndex) {
  dht::CoordinateIndex index(
      dht::HilbertQuantizer({-10.0, -10.0}, {10.0, 10.0}, /*bits=*/8));
  index.Stabilize();
  std::vector<NodeId> ids = {3};
  EXPECT_FALSE(index.WithinRadiusIdsInto(Vec{0.0, 0.0}, 1.0, nullptr, &ids)
                   .ok());
  EXPECT_TRUE(ids.empty());
  EXPECT_FALSE(index.WithinRadius(Vec{0.0, 0.0}, 1.0).ok());
}

}  // namespace
}  // namespace sbon
