#include "net/fabric.h"

#include <limits>

#include "net/dynamics.h"

namespace sbon::net {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

NetworkFabric::BaseSource NetworkFabric::OnDemandSource(
    size_t num_nodes, const SparseOptions& options) {
  switch (options.base_mode) {
    case SparseOptions::BaseMode::kExact:
      return BaseSource::kExactRows;
    case SparseOptions::BaseMode::kSketch:
      return BaseSource::kSketch;
    case SparseOptions::BaseMode::kAuto:
      break;
  }
  return num_nodes <= options.exact_threshold ? BaseSource::kExactRows
                                              : BaseSource::kSketch;
}

NetworkFabric::NetworkFabric(const Topology& topo, double jitter_sigma,
                             Rng* rng, BaseSource source,
                             const SparseOptions& options)
    : n_(topo.NumNodes()),
      sigma_(jitter_sigma),
      source_(source),
      options_(options),
      live_view_(this, /*live=*/true),
      base_view_(this, /*live=*/false) {
  down_.assign(n_, 0);
  switch (source_) {
    case BaseSource::kMatrix:
      matrix_ = std::make_unique<LatencyMatrix>(topo);
      break;
    case BaseSource::kExactRows: {
      topo_ = std::make_unique<const Topology>(topo);
      const size_t rows = options_.row_cache_rows < n_
                              ? options_.row_cache_rows
                              : n_;
      row_cache_.resize(rows < 1 ? 1 : rows);
      break;
    }
    case BaseSource::kSketch:
      PlaceLandmarks(topo);
      break;
  }
  if (source_ != BaseSource::kMatrix && options_.neighbor_cache_slots > 0) {
    neighbor_cache_.resize(n_ * options_.neighbor_cache_slots);
  }
  // The construction epoch's seed: exactly one draw iff jitter is attached.
  if (sigma_ > 0.0) epoch_seed_ = rng->Next();
  RefreshPlainReads();
}

void NetworkFabric::RefreshPlainReads() {
  const double* m = matrix_ != nullptr ? matrix_->data() : nullptr;
  base_view_.plain_ = m;
  const bool composed =
      jitter_applied_ || partition_active_ || down_count_ > 0;
  live_view_.plain_ = composed ? nullptr : m;
}

void NetworkFabric::TickNetwork(Rng* rng) {
  if (sigma_ <= 0.0) return;
  epoch_seed_ = rng->Next();
  jitter_applied_ = true;
  RefreshPlainReads();
}

Status NetworkFabric::BeginPartition(const std::vector<NodeId>& group,
                                     double factor) {
  if (partition_active_) {
    return Status::FailedPrecondition("a partition is already active");
  }
  if (group.empty()) return Status::InvalidArgument("empty partition group");
  if (factor < 1.0) {
    return Status::InvalidArgument("partition factor must be >= 1");
  }
  partitioned_.assign(n_, false);
  for (NodeId n : group) {
    if (n >= n_) {
      return Status::OutOfRange("partition member out of range");
    }
    partitioned_[n] = true;
  }
  partition_active_ = true;
  partition_factor_ = factor;
  RefreshPlainReads();
  return Status::OK();
}

Status NetworkFabric::EndPartition() {
  if (!partition_active_) {
    return Status::FailedPrecondition("no active partition");
  }
  partition_active_ = false;
  // Healing restores "current jitter over base": on a jittered fabric that
  // is the current epoch's factors even when the network was never ticked,
  // so from here on live reads compose jitter.
  if (sigma_ > 0.0) jitter_applied_ = true;
  RefreshPlainReads();
  return Status::OK();
}

void NetworkFabric::SetEndpointDown(NodeId n, bool down) {
  if (static_cast<bool>(down_[n]) == down) return;
  down_[n] = down ? 1 : 0;
  if (down) {
    ++down_count_;
  } else {
    --down_count_;
  }
  RefreshPlainReads();
}

double NetworkFabric::LiveLatency(NodeId a, NodeId b) const {
  if (down_[a] || down_[b]) return kInf;
  double v;
  if (jitter_applied_ && a != b) {
    // Both argument orders resolve through row min(a, b): one value per
    // pair, whichever way it is read.
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    v = Base(lo, hi) *
        JitterFactorAt(epoch_seed_, sigma_, JitterPairIndex(lo, hi, n_));
  } else {
    v = Base(a, b);
  }
  if (CrossesPartition(a, b)) v *= partition_factor_;
  return v;
}

double NetworkFabric::Base(NodeId row, NodeId col) const {
  if (matrix_ != nullptr) return matrix_->Latency(row, col);
  if (row == col) return 0.0;
  return CachedBase(row, col);
}

double NetworkFabric::CachedBase(NodeId row, NodeId col) const {
  ++stats_.base_reads;
  const bool exact = source_ == BaseSource::kExactRows;
  const size_t slots = options_.neighbor_cache_slots;
  if (slots == 0) return exact ? RowFor(row)[col] : SketchBase(row, col);
  NeighborSlot& slot =
      neighbor_cache_[static_cast<size_t>(row) * slots + col % slots];
  if (slot.peer == col) {
    ++stats_.neighbor_hits;
    return slot.value;
  }
  const double v = exact ? RowFor(row)[col] : SketchBase(row, col);
  slot.peer = col;
  slot.value = v;
  return v;
}

double NetworkFabric::SketchBase(NodeId a, NodeId b) const {
  // Symmetric in (a, b): addition is commutative and the landmark walk
  // order is fixed, so both argument orders see identical fp ops.
  double best = kInf;
  for (const std::vector<double>& row : landmark_rows_) {
    const double via = row[a] + row[b];
    if (via < best) best = via;
  }
  return best;
}

const std::vector<double>& NetworkFabric::RowFor(NodeId row) const {
  CachedRow* victim = &row_cache_[0];
  for (CachedRow& c : row_cache_) {
    if (c.row == row) {
      ++stats_.row_hits;
      c.stamp = ++row_stamp_;
      return c.dist;
    }
    if (c.stamp < victim->stamp) victim = &c;
  }
  ++stats_.row_builds;
  victim->dist = DijkstraLatencies(*topo_, row);
  victim->row = row;
  victim->stamp = ++row_stamp_;
  return victim->dist;
}

void NetworkFabric::PlaceLandmarks(const Topology& topo) {
  // Deterministic farthest-point traversal from node 0: each new landmark is
  // the node farthest (first-index tie-break) from the landmark set so far.
  // No Rng involved — placement must not perturb the caller's draw sequence.
  const size_t want =
      options_.num_landmarks < 1
          ? 1
          : (options_.num_landmarks < n_ ? options_.num_landmarks : n_);
  landmarks_.reserve(want);
  landmark_rows_.reserve(want);
  std::vector<double> min_dist(n_, kInf);
  NodeId next = 0;
  for (size_t k = 0; k < want; ++k) {
    landmarks_.push_back(next);
    landmark_rows_.push_back(DijkstraLatencies(topo, next));
    const std::vector<double>& row = landmark_rows_.back();
    NodeId farthest = kInvalidNode;
    double far_d = -1.0;
    for (NodeId i = 0; i < n_; ++i) {
      if (row[i] < min_dist[i]) min_dist[i] = row[i];
      // Unreachable nodes (inf) are the farthest of all: the next landmark
      // lands in their component and covers it.
      if (min_dist[i] > far_d && min_dist[i] > 0.0) {
        far_d = min_dist[i];
        farthest = i;
      }
    }
    if (farthest == kInvalidNode || far_d == 0.0) break;  // n small: covered
    next = farthest;
  }
}

}  // namespace sbon::net
