#ifndef SBON_NET_FABRIC_H_
#define SBON_NET_FABRIC_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/status.h"
#include "net/shortest_path.h"
#include "net/topology.h"

namespace sbon::net {

/// Tuning of the fabric's on-demand base-latency sources (exact Dijkstra
/// rows and the landmark sketch). Ignored when the base is the dense matrix.
struct SparseOptions {
  enum class BaseMode {
    kAuto,    ///< exact rows at n <= exact_threshold, sketch above
    kExact,   ///< force on-demand Dijkstra rows (tests, equivalence pins)
    kSketch,  ///< force the landmark sketch (tests at small n)
  };
  BaseMode base_mode = BaseMode::kAuto;
  /// Largest n the exact on-demand source auto-selects at.
  size_t exact_threshold = 2048;
  /// Landmarks of the sketch source (each costs one n-vector of doubles).
  size_t num_landmarks = 32;
  /// Per-node direct-mapped base-latency cache slots (0 disables).
  size_t neighbor_cache_slots = 16;
  /// Exact-rows LRU capacity in whole Dijkstra rows (min 1).
  size_t row_cache_rows = 32;
};

/// The physical-network substrate of the overlay: a pristine pairwise-latency
/// view, the live view every cost measurement reads, per-epoch congestion
/// jitter, the soft-partition overlay, and dead-endpoint liveness.
///
/// Only the base-latency source varies with scale:
///
///  - kMatrix: the materialized all-pairs matrix (O(n^2) memory, exact,
///    one load per read). The default up to a few thousand nodes.
///  - kExactRows: on-demand single-source Dijkstra rows behind an LRU —
///    the same DijkstraLatencies the matrix is built from, resolved through
///    the same source row the matrix stores for an entry, so every read is
///    bit-identical to kMatrix. O(rows * n) memory.
///  - kSketch: `num_landmarks` landmarks by deterministic farthest-point
///    traversal; a pair's base is min over landmarks of d(l,a) + d(l,b).
///    Symmetric, exact when a shortest path crosses a landmark, an upper
///    bound otherwise. O(landmarks * n) memory — what reaches 100k+ nodes.
///
/// Everything else is written once, over whichever source is attached, and
/// evaluated at read time — no O(n^2) state is ever rewritten:
///
///  - a down endpoint reads +inf, the self-pair included;
///  - a self-pair otherwise reads its unjittered base;
///  - before the first TickNetwork (or a jittered EndPartition) a live read
///    is base(a, b) through row a;
///  - after it, both argument orders read base(lo, hi) times
///    JitterFactorAt(epoch seed, sigma, JitterPairIndex(lo, hi, n)) — the
///    base mirrors can differ in the last ulp (per-source Dijkstra sums a
///    path in opposite orders), so the resolving row is part of the value;
///  - the partition factor multiplies cross-cut pairs last.
///
/// A matrix-source view with nothing composed on top (no jitter applied, no
/// partition, no endpoint down) reads the matrix directly.
///
/// Rng contract: construction consumes exactly one draw iff
/// jitter_sigma > 0, and so does each TickNetwork; nothing else draws.
///
/// On-demand reads fill memo caches (pure memoization — a read is a pure
/// function of topology, epoch state and pair, so cache contents never
/// change a value); concurrent reads need external ordering. The epoch
/// pipeline reads live latencies only from serial stages.
class NetworkFabric {
 public:
  /// Where pristine base latencies come from.
  enum class BaseSource { kMatrix, kExactRows, kSketch };

  /// Cumulative on-demand read/cache counters (bench + test observability;
  /// a matrix source records nothing).
  struct CacheStats {
    size_t base_reads = 0;      ///< base resolutions (cache hits included)
    size_t neighbor_hits = 0;   ///< served from the per-node slot cache
    size_t row_hits = 0;        ///< served from an already-built row
    size_t row_builds = 0;      ///< on-demand Dijkstra row computations
  };

  /// The on-demand source `options.base_mode` selects at `num_nodes` nodes.
  static BaseSource OnDemandSource(size_t num_nodes,
                                   const SparseOptions& options);

  /// Builds the fabric over `topo` with base latencies from `source`
  /// (`options` tunes the on-demand sources). Consumes exactly one draw
  /// from `rng` iff `jitter_sigma > 0`: the construction epoch's seed.
  NetworkFabric(const Topology& topo, double jitter_sigma, Rng* rng,
                BaseSource source = BaseSource::kMatrix,
                const SparseOptions& options = SparseOptions());

  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  /// The live latency view: jitter times base, partition penalty on top,
  /// +inf against down endpoints.
  const LatencyView& live() const { return live_view_; }
  /// The pristine view (no jitter, partition or liveness): "what would the
  /// healed network look like", for drift measurement and rejoin placement.
  const LatencyView& base() const { return base_view_; }
  bool has_jitter() const { return sigma_ > 0.0; }
  size_t NumNodes() const { return n_; }
  BaseSource source() const { return source_; }
  /// Name for logs/bench JSON: "dense" (matrix) or "sparse" (on demand).
  const char* name() const {
    return source_ == BaseSource::kMatrix ? "dense" : "sparse";
  }

  /// Starts a new congestion epoch: one draw from `rng` becomes the seed
  /// every jitter factor is derived from at read time. O(1) at every n.
  /// No-op (and no draw) without jitter.
  void TickNetwork(Rng* rng);

  /// Soft link partition: the live latency of every pair that crosses the
  /// cut (`group` vs. the rest) is scaled by `factor` until EndPartition.
  /// One partition may be active at a time.
  Status BeginPartition(const std::vector<NodeId>& group, double factor);
  /// Heals the active partition. Not a new congestion epoch (no draw), but
  /// on a jittered fabric it applies the current epoch's factors even if the
  /// network was never ticked.
  Status EndPartition();
  bool partition_active() const { return partition_active_; }
  /// True when an active partition separates `a` and `b`; always false
  /// without one. Message delivery tests this before paying cross-cut
  /// latency.
  bool CrossesPartition(NodeId a, NodeId b) const {
    return partition_active_ && static_cast<bool>(partitioned_[a]) !=
                                    static_cast<bool>(partitioned_[b]);
  }

  /// Marks an endpoint down (crashed) or back up. While down, every live
  /// read involving it — the self-pair included — is +infinity: unreachable,
  /// never stale-finite and never NaN. base() is unaffected. O(1).
  void SetEndpointDown(NodeId n, bool down);
  bool EndpointDown(NodeId n) const { return static_cast<bool>(down_[n]); }

  /// True when base reads resolve through exact on-demand Dijkstra rows.
  bool exact_base() const { return source_ == BaseSource::kExactRows; }
  /// Landmarks actually placed (0 unless the source is the sketch).
  size_t num_landmarks() const { return landmarks_.size(); }
  const CacheStats& cache_stats() const { return stats_; }

 private:
  /// A read view over the fabric. `plain` is the matrix buffer while the
  /// view reads the matrix unmodified (null otherwise): that read is one
  /// load, with no liveness, jitter, partition or cache bookkeeping.
  class View final : public LatencyView {
   public:
    View(const NetworkFabric* fabric, bool live)
        : fabric_(fabric), live_(live), n_(fabric->n_) {}
    size_t NumNodes() const override { return n_; }
    double Latency(NodeId a, NodeId b) const override {
      if (plain_ != nullptr) return plain_[static_cast<size_t>(a) * n_ + b];
      return live_ ? fabric_->LiveLatency(a, b) : fabric_->Base(a, b);
    }

    const NetworkFabric* fabric_;
    bool live_;
    size_t n_;
    const double* plain_ = nullptr;
  };

  /// Re-derives which views may read the matrix directly. Runs after every
  /// state change the live composition depends on.
  void RefreshPlainReads();
  /// The live composition (see the class comment), over any source.
  double LiveLatency(NodeId a, NodeId b) const;
  /// Pristine base of entry (row, col), resolved through source row `row`.
  double Base(NodeId row, NodeId col) const;
  /// On-demand base resolution through the per-node neighbor cache.
  double CachedBase(NodeId row, NodeId col) const;
  double SketchBase(NodeId a, NodeId b) const;
  /// Exact Dijkstra row of `row`, LRU-cached.
  const std::vector<double>& RowFor(NodeId row) const;
  void PlaceLandmarks(const Topology& topo);

  size_t n_;
  double sigma_;
  BaseSource source_;
  SparseOptions options_;
  std::unique_ptr<LatencyMatrix> matrix_;  ///< kMatrix only
  std::unique_ptr<const Topology> topo_;   ///< kExactRows only (row builds)

  // Congestion epoch. `jitter_applied_` is false until the first
  // TickNetwork (or a jittered EndPartition); until then live reads are
  // the base itself.
  uint64_t epoch_seed_ = 0;
  bool jitter_applied_ = false;

  bool partition_active_ = false;
  double partition_factor_ = 1.0;
  std::vector<bool> partitioned_;  ///< by node id; one side of the cut
  std::vector<uint8_t> down_;      ///< by node id; endpoint marked down
  size_t down_count_ = 0;

  std::vector<NodeId> landmarks_;
  std::vector<std::vector<double>> landmark_rows_;  ///< per landmark: n dists

  // Memo caches of the on-demand sources. The neighbor cache holds
  // `neighbor_cache_slots` resolved bases per node, direct-mapped by peer id
  // (the fixed-size-bucket idiom of up4w's DhtSpace); the row LRU turns the
  // consecutive per-self reads of the Vivaldi stage into one build per row.
  struct NeighborSlot {
    NodeId peer = kInvalidNode;
    double value = 0.0;
  };
  mutable std::vector<NeighborSlot> neighbor_cache_;  ///< n * slots
  struct CachedRow {
    NodeId row = kInvalidNode;
    uint64_t stamp = 0;
    std::vector<double> dist;
  };
  mutable std::vector<CachedRow> row_cache_;
  mutable uint64_t row_stamp_ = 0;
  mutable CacheStats stats_;

  View live_view_;
  View base_view_;
};

}  // namespace sbon::net

#endif  // SBON_NET_FABRIC_H_
