// net::NetworkFabric's base-latency sources. The exact-rows source must read
// bit-identically to the dense matrix source, and both must equal the
// closed-form live composition, in every state the fabric can be in
// (pristine, jittered epochs, partitions, the end-partition-without-tick
// edge, down endpoints). Also pinned: the Rng draw contract, the sketch
// estimator's guarantees, and value-invariance of the memo caches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/fixtures.h"
#include "net/dynamics.h"
#include "net/fabric.h"

namespace sbon::test {
namespace {

using net::NetworkFabric;
using Source = NetworkFabric::BaseSource;

net::Topology TinyTopo(uint64_t seed) {
  return MakeTransitStubTopology(TopologySize::kTiny, seed);
}

net::SparseOptions ExactOptions() {
  net::SparseOptions o;
  o.base_mode = net::SparseOptions::BaseMode::kExact;
  return o;
}

// The matrix and exact-rows sources driven in lockstep from equal Rng
// streams, plus a shadow of the state the closed form reads: an
// independently built pristine matrix, the epoch seed (replayed from a
// third equal stream), the cut and the down set. EXPECT_EQ on doubles is
// exact equality: one differing ulp anywhere fails.
class FabricPair {
 public:
  FabricPair(const net::Topology& topo, double sigma, uint64_t seed,
             const net::SparseOptions& rows_options = ExactOptions())
      : n_(topo.NumNodes()),
        sigma_(sigma),
        rd_(seed),
        rs_(seed),
        shadow_(seed),
        pristine_(topo),
        dense_(topo, sigma, &rd_, Source::kMatrix),
        rows_(topo, sigma, &rs_, Source::kExactRows, rows_options),
        cut_(n_, false),
        down_(n_, false) {
    if (sigma_ > 0.0) epoch_seed_ = shadow_.Next();
  }

  NetworkFabric& dense() { return dense_; }
  NetworkFabric& rows() { return rows_; }
  size_t n() const { return n_; }

  void Tick() {
    dense_.TickNetwork(&rd_);
    rows_.TickNetwork(&rs_);
    if (sigma_ > 0.0) {
      epoch_seed_ = shadow_.Next();
      jittered_ = true;
    }
  }

  StatusCode Begin(const std::vector<NodeId>& group, double factor) {
    const StatusCode code = dense_.BeginPartition(group, factor).code();
    EXPECT_EQ(code, rows_.BeginPartition(group, factor).code());
    if (code == StatusCode::kOk) {
      std::fill(cut_.begin(), cut_.end(), false);
      for (NodeId g : group) cut_[g] = true;
      partition_ = true;
      factor_ = factor;
    }
    return code;
  }

  StatusCode End() {
    const StatusCode code = dense_.EndPartition().code();
    EXPECT_EQ(code, rows_.EndPartition().code());
    if (code == StatusCode::kOk) {
      partition_ = false;
      if (sigma_ > 0.0) jittered_ = true;
    }
    return code;
  }

  void SetDown(NodeId v, bool down) {
    dense_.SetEndpointDown(v, down);
    rows_.SetEndpointDown(v, down);
    down_[v] = down;
  }

  // The closed-form live latency of (a, b).
  double Expected(NodeId a, NodeId b) const {
    if (down_[a] || down_[b]) return std::numeric_limits<double>::infinity();
    if (a == b) return pristine_.Latency(a, a);
    double v;
    if (jittered_) {
      const NodeId lo = std::min(a, b);
      const NodeId hi = std::max(a, b);
      v = pristine_.Latency(lo, hi) *
          net::JitterFactorAt(epoch_seed_, sigma_,
                              net::JitterPairIndex(lo, hi, n_));
    } else {
      v = pristine_.Latency(a, b);
    }
    if (partition_ && cut_[a] != cut_[b]) v *= factor_;
    return v;
  }

  // Live and base reads of (a, b) from both sources against the closed
  // form and the pristine matrix.
  void ExpectPair(NodeId a, NodeId b, const std::string& where) {
    const double want = Expected(a, b);
    EXPECT_EQ(dense_.live().Latency(a, b), want)
        << where << ": dense live (" << a << "," << b << ")";
    EXPECT_EQ(rows_.live().Latency(a, b), want)
        << where << ": rows live (" << a << "," << b << ")";
    EXPECT_EQ(dense_.base().Latency(a, b), pristine_.Latency(a, b))
        << where << ": dense base (" << a << "," << b << ")";
    EXPECT_EQ(rows_.base().Latency(a, b), pristine_.Latency(a, b))
        << where << ": rows base (" << a << "," << b << ")";
  }

  void ExpectAll(const std::string& where) {
    for (NodeId a = 0; a < n_; ++a) {
      for (NodeId b = 0; b < n_; ++b) ExpectPair(a, b, where);
    }
  }

  // Both sources and the shadow stream must be at the same draw.
  void ExpectStreamsAligned(const std::string& where) {
    const uint64_t want = shadow_.Next();
    EXPECT_EQ(rd_.Next(), want) << where << ": matrix source drew off-contract";
    EXPECT_EQ(rs_.Next(), want) << where << ": rows source drew off-contract";
  }

 private:
  size_t n_;
  double sigma_;
  Rng rd_, rs_, shadow_;
  net::LatencyMatrix pristine_;
  NetworkFabric dense_;
  NetworkFabric rows_;
  uint64_t epoch_seed_ = 0;
  bool jittered_ = false;
  bool partition_ = false;
  double factor_ = 1.0;
  std::vector<bool> cut_;
  std::vector<bool> down_;
};

TEST(SparseFabricTest, PristineViewsMatchDenseBitwise) {
  FabricPair fp(TinyTopo(3), 0.0, 11);
  EXPECT_STREQ(fp.dense().name(), "dense");
  EXPECT_STREQ(fp.rows().name(), "sparse");
  EXPECT_EQ(fp.dense().source(), Source::kMatrix);
  EXPECT_EQ(fp.rows().source(), Source::kExactRows);
  EXPECT_FALSE(fp.rows().has_jitter());
  EXPECT_TRUE(fp.rows().exact_base());
  EXPECT_FALSE(fp.dense().exact_base());
  fp.ExpectAll("pristine");
}

TEST(SparseFabricTest, JitteredEpochsMatchDenseBitwise) {
  FabricPair fp(TinyTopo(5), 0.15, 99);
  EXPECT_TRUE(fp.rows().has_jitter());
  // Pre-first-tick the live views equal base on both sources.
  fp.ExpectAll("pre-tick");
  for (int epoch = 0; epoch < 3; ++epoch) {
    fp.Tick();
    fp.ExpectAll("epoch " + std::to_string(epoch));
  }
}

TEST(SparseFabricTest, PartitionLifecycleMatchesDenseBitwise) {
  FabricPair fp(TinyTopo(7), 0.1, 21);
  fp.Tick();
  ASSERT_EQ(fp.Begin({0, 1, 2, 5}, 8.0), StatusCode::kOk);
  EXPECT_TRUE(fp.rows().partition_active());
  fp.ExpectAll("partitioned");
  // The penalty composes on top of a fresh epoch's factors.
  fp.Tick();
  fp.ExpectAll("partitioned+ticked");
  ASSERT_EQ(fp.End(), StatusCode::kOk);
  EXPECT_FALSE(fp.rows().partition_active());
  fp.ExpectAll("healed");
}

// Healing a partition on a jittered fabric that was never ticked applies
// the construction epoch's factors for the first time: live != base after.
TEST(SparseFabricTest, EndPartitionWithoutTickMatchesDenseBitwise) {
  FabricPair fp(TinyTopo(9), 0.2, 5);
  ASSERT_EQ(fp.Begin({1, 3}, 4.0), StatusCode::kOk);
  ASSERT_EQ(fp.End(), StatusCode::kOk);
  fp.ExpectAll("end-without-tick");
  // And the state really is jittered now, not pristine.
  bool any_jittered = false;
  const size_t n = fp.n();
  for (NodeId a = 0; a < n && !any_jittered; ++a) {
    for (NodeId b = a + 1; b < n && !any_jittered; ++b) {
      any_jittered =
          fp.dense().live().Latency(a, b) != fp.dense().base().Latency(a, b);
    }
  }
  EXPECT_TRUE(any_jittered);
}

// Both sources follow the same draw contract, so a shared caller Rng stays
// stream-aligned whichever source backs the fabric.
TEST(SparseFabricTest, RngDrawCountsMatchDense) {
  for (const double sigma : {0.0, 0.1}) {
    FabricPair fp(TinyTopo(13), sigma, 77);
    fp.ExpectStreamsAligned("construction, sigma=" + std::to_string(sigma));
    fp.Tick();
    ASSERT_EQ(fp.Begin({0, 2}, 2.0), StatusCode::kOk);
    ASSERT_EQ(fp.End(), StatusCode::kOk);
    fp.ExpectStreamsAligned("lifecycle, sigma=" + std::to_string(sigma));
  }
}

TEST(SparseFabricTest, PartitionValidationMatchesDense) {
  const net::Topology topo = TinyTopo(17);
  FabricPair fp(topo, 0.0, 1);
  EXPECT_EQ(fp.End(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(fp.Begin({}, 2.0), StatusCode::kInvalidArgument);
  EXPECT_EQ(fp.Begin({0}, 0.5), StatusCode::kInvalidArgument);
  EXPECT_EQ(fp.Begin({static_cast<NodeId>(topo.NumNodes())}, 2.0),
            StatusCode::kOutOfRange);
  ASSERT_EQ(fp.Begin({0, 1}, 2.0), StatusCode::kOk);
  EXPECT_EQ(fp.Begin({2}, 2.0), StatusCode::kFailedPrecondition);
  ASSERT_EQ(fp.End(), StatusCode::kOk);
}

TEST(SparseFabricTest, SketchIsSymmetricZeroDiagonalUpperBound) {
  const net::Topology topo = TinyTopo(23);
  net::SparseOptions opts;
  opts.base_mode = net::SparseOptions::BaseMode::kSketch;
  opts.num_landmarks = 8;
  Rng rs(4), rd(4);
  NetworkFabric sketch(topo, 0.0, &rs,
                       NetworkFabric::OnDemandSource(topo.NumNodes(), opts),
                       opts);
  NetworkFabric dense(topo, 0.0, &rd);
  EXPECT_EQ(sketch.source(), Source::kSketch);
  EXPECT_FALSE(sketch.exact_base());
  EXPECT_EQ(sketch.num_landmarks(), 8u);
  const size_t n = topo.NumNodes();
  for (NodeId a = 0; a < n; ++a) {
    EXPECT_EQ(sketch.base().Latency(a, a), 0.0);
    for (NodeId b = a + 1; b < n; ++b) {
      const double est = sketch.base().Latency(a, b);
      EXPECT_EQ(est, sketch.base().Latency(b, a)) << "asymmetric sketch";
      // Triangle inequality: the landmark detour can only overestimate.
      EXPECT_GE(est, dense.base().Latency(a, b) - 1e-9)
          << "sketch undercut the true shortest path at (" << a << "," << b
          << ")";
    }
  }
}

// The caches are pure memoization: reads in any order, under any (tiny)
// cache geometry, return exactly what the matrix source returns.
TEST(SparseFabricTest, CachesNeverChangeValues) {
  net::SparseOptions opts = ExactOptions();
  opts.neighbor_cache_slots = 1;  // maximal eviction pressure
  opts.row_cache_rows = 1;
  FabricPair fp(TinyTopo(29), 0.1, 8, opts);
  fp.Tick();
  const size_t n = fp.n();
  // Adversarial access order: stride through pairs to churn both caches,
  // reading each pair twice (cold, then possibly cached).
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < n * n; i += 7) {
      const NodeId a = static_cast<NodeId>(i / n);
      const NodeId b = static_cast<NodeId>(i % n);
      fp.ExpectPair(a, b, "strided");
      fp.ExpectPair(b, a, "strided mirror");
    }
  }
  const auto& stats = fp.rows().cache_stats();
  EXPECT_GT(stats.base_reads, 0u);
  EXPECT_GT(stats.row_builds, 0u);
  // The matrix source keeps no cache bookkeeping at all.
  EXPECT_EQ(fp.dense().cache_stats().base_reads, 0u);
}

// Mean/Max run the generic O(n^2) LatencyView walk in one loop order on
// every source, so even the fp accumulation matches.
TEST(SparseFabricTest, MeanAndMaxMatchDense) {
  FabricPair fp(TinyTopo(31), 0.1, 6);
  fp.Tick();
  EXPECT_EQ(fp.dense().live().MeanLatency(), fp.rows().live().MeanLatency());
  EXPECT_EQ(fp.dense().live().MaxLatency(), fp.rows().live().MaxLatency());
  EXPECT_EQ(fp.dense().base().MeanLatency(), fp.rows().base().MeanLatency());
}

// The Rng contract, counted: construction draws exactly once iff sigma > 0,
// each TickNetwork exactly once iff sigma > 0, and partitions, liveness
// flips and reads never draw — on every source.
TEST(NetworkFabricTest, RngDrawContract) {
  const net::Topology topo = TinyTopo(37);
  net::SparseOptions sketch_opts;
  sketch_opts.num_landmarks = 4;
  for (const Source source :
       {Source::kMatrix, Source::kExactRows, Source::kSketch}) {
    for (const double sigma : {0.0, 0.25}) {
      const size_t per_call = sigma > 0.0 ? 1 : 0;
      Rng rng(314), ref(314);
      NetworkFabric fabric(topo, sigma, &rng, source, sketch_opts);
      for (size_t i = 0; i < per_call; ++i) ref.Next();
      EXPECT_EQ(rng.Next(), ref.Next())
          << "construction, source=" << static_cast<int>(source)
          << " sigma=" << sigma;
      for (int tick = 0; tick < 3; ++tick) {
        fabric.TickNetwork(&rng);
        for (size_t i = 0; i < per_call; ++i) ref.Next();
      }
      ASSERT_TRUE(fabric.BeginPartition({0, 1}, 3.0).ok());
      fabric.SetEndpointDown(2, true);
      (void)fabric.live().Latency(0, 5);
      (void)fabric.base().Latency(5, 0);
      fabric.SetEndpointDown(2, false);
      ASSERT_TRUE(fabric.EndPartition().ok());
      EXPECT_EQ(rng.Next(), ref.Next())
          << "ticks, source=" << static_cast<int>(source)
          << " sigma=" << sigma;
    }
  }
}

// A seeded random script of ~400 fabric operations — ticks, partitions
// begun and healed (including a heal before any tick), endpoints downed and
// revived, invalid lifecycle calls — with live/base reads of random pairs,
// their mirrors and self-pairs after every step and a full sweep every 40
// steps. Matrix and exact-rows sources must agree bitwise with each other
// and with the closed form throughout, and stay Rng-aligned.
TEST(NetworkFabricTest, RandomScriptMatchesClosedForm) {
  for (const double sigma : {0.0, 0.15}) {
    for (const uint64_t seed : {41u, 43u}) {
      const net::Topology topo = TinyTopo(seed);
      net::SparseOptions opts = ExactOptions();
      opts.row_cache_rows = 4;  // small enough that the script evicts rows
      opts.neighbor_cache_slots = 2;
      FabricPair fp(topo, sigma, seed, opts);
      const size_t n = fp.n();
      Rng script(seed * 1000 + 7);
      const std::string tag =
          "sigma=" + std::to_string(sigma) + " seed=" + std::to_string(seed);

      // Heal before the first tick: the jitter-stamping edge.
      ASSERT_EQ(fp.Begin({1, 4, 9}, 3.0), StatusCode::kOk);
      fp.ExpectAll(tag + " partition before tick");
      ASSERT_EQ(fp.End(), StatusCode::kOk);
      fp.ExpectAll(tag + " healed before tick");

      std::vector<bool> down(n, false);
      for (int step = 0; step < 400; ++step) {
        const std::string where = tag + " step " + std::to_string(step);
        const uint64_t op = script.UniformInt(10);
        if (op < 3) {
          fp.Tick();
        } else if (op < 5) {
          std::vector<NodeId> group;
          const size_t size = 1 + script.UniformInt(n / 3);
          for (size_t g = 0; g < size; ++g) {
            group.push_back(static_cast<NodeId>(script.UniformInt(n)));
          }
          const double factor = script.Uniform(1.0, 8.0);
          const StatusCode code = fp.Begin(group, factor);
          EXPECT_TRUE(code == StatusCode::kOk ||
                      code == StatusCode::kFailedPrecondition)
              << where;
        } else if (op < 6) {
          const StatusCode code = fp.End();
          EXPECT_TRUE(code == StatusCode::kOk ||
                      code == StatusCode::kFailedPrecondition)
              << where;
        } else if (op < 8) {
          const NodeId v = static_cast<NodeId>(script.UniformInt(n));
          down[v] = !down[v];
          fp.SetDown(v, down[v]);
        }
        // Reads after every step: a random pair, its mirror, a self-pair.
        for (int r = 0; r < 6; ++r) {
          const NodeId a = static_cast<NodeId>(script.UniformInt(n));
          const NodeId b = static_cast<NodeId>(script.UniformInt(n));
          fp.ExpectPair(a, b, where);
          fp.ExpectPair(b, a, where + " mirror");
          fp.ExpectPair(a, a, where + " self");
        }
        if (step % 40 == 39) fp.ExpectAll(where + " sweep");
        if (::testing::Test::HasFailure()) return;
      }
      fp.ExpectStreamsAligned(tag);
    }
  }
}

}  // namespace
}  // namespace sbon::test
