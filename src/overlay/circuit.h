#ifndef SBON_OVERLAY_CIRCUIT_H_
#define SBON_OVERLAY_CIRCUIT_H_

#include <memory>
#include <vector>

#include "common/ids.h"
#include "common/status.h"
#include "common/vec.h"
#include "query/catalog.h"
#include "query/plan.h"

namespace sbon::overlay {

/// One vertex of a circuit: a plan operator bound (eventually) to a physical
/// node. Producers and the consumer are pinned; interior services are
/// unpinned until placement runs.
struct CircuitVertex {
  int plan_op = -1;                 ///< index into the circuit's plan
  NodeId host = kInvalidNode;       ///< physical node (kInvalidNode = unplaced)
  bool pinned = false;
  Vec virtual_coord;                ///< last virtual-placement coordinate
  ServiceInstanceId service = kInvalidService;  ///< deployed instance
  /// True if this vertex is served by a pre-existing instance from another
  /// circuit (multi-query reuse). Reused vertices deploy nothing; their
  /// subtree edges carry no new traffic.
  bool reused = false;
  /// For reused vertices: the source circuit's producer-to-instance
  /// critical-path latency, so end-to-end latency accounting stays correct.
  double reused_upstream_latency_ms = 0.0;
};

/// One stream edge of a circuit, carrying `rate_bytes_per_s` from vertex
/// `from` to vertex `to`.
struct CircuitEdge {
  int from = -1;
  int to = -1;
  double rate_bytes_per_s = 0.0;
  /// False for edges inside a reused subtree: the data already flows on the
  /// source circuit's edges, so this circuit adds no traffic there.
  bool physical = true;
};

/// The instantiation of a query in the SBON (paper Sec. 3): a tree of
/// services with pinned endpoints, unpinned interior, and data rates on
/// every edge. Cost accounting and placement both operate on this.
class Circuit {
 public:
  Circuit() = default;

  /// Builds an unplaced circuit from an annotated logical plan: producer
  /// vertices pinned at their catalog nodes, consumer pinned at
  /// `plan.consumer()`, interior vertices unpinned.
  static StatusOr<Circuit> FromPlan(const query::LogicalPlan& plan,
                                    const query::Catalog& catalog);
  /// Same, sharing `plan` instead of copying it. The plan is immutable, so
  /// every copy of the circuit (the optimizer's reuse variants included)
  /// shares it too; copying a circuit copies only its vertices and edges.
  static StatusOr<Circuit> FromPlan(
      std::shared_ptr<const query::LogicalPlan> plan,
      const query::Catalog& catalog);

  CircuitId id() const { return id_; }
  void set_id(CircuitId id) { id_ = id; }

  const query::LogicalPlan& plan() const;
  size_t NumVertices() const { return vertices_.size(); }
  size_t NumEdges() const { return edges_.size(); }

  const CircuitVertex& vertex(int i) const { return vertices_[i]; }
  CircuitVertex& mutable_vertex(int i) { return vertices_[i]; }
  const std::vector<CircuitVertex>& vertices() const { return vertices_; }
  const std::vector<CircuitEdge>& edges() const { return edges_; }

  /// Vertex indices that are unpinned (interior services).
  std::vector<int> UnpinnedVertices() const;
  /// True if vertex `i` is unpinned and not reused: it still needs placement
  /// and deployment.
  bool IsPlaceable(int i) const {
    return !vertices_[i].pinned && !vertices_[i].reused;
  }
  /// The placeable vertices, ascending.
  std::vector<int> PlaceableVertices() const;
  /// True once every vertex has a host.
  bool FullyPlaced() const;

  /// Total data rate (bytes/s) summed over physical edges.
  double TotalEdgeRate() const;

  /// Binds `vertex` to a pre-existing service instance hosted at
  /// `instance_host` (multi-query reuse): marks the vertex and its whole
  /// subtree reused, pins their hosts to the instance host, and turns the
  /// subtree's edges non-physical. `upstream_latency_ms` is the source
  /// circuit's latency up to the instance (for end-to-end accounting).
  void BindReusedSubtree(int vertex, ServiceInstanceId instance,
                         NodeId instance_host, double upstream_latency_ms);

 private:
  CircuitId id_ = kInvalidCircuit;
  std::shared_ptr<const query::LogicalPlan> plan_;  // null: empty plan
  std::vector<CircuitVertex> vertices_;
  std::vector<CircuitEdge> edges_;
};

}  // namespace sbon::overlay

#endif  // SBON_OVERLAY_CIRCUIT_H_
