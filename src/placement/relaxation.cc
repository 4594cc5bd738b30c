#include "placement/relaxation.h"

#include <algorithm>
#include <cmath>

namespace sbon::placement {

using internal::Adjacency;
using internal::AnchorCoord;
using internal::BuildAdjacency;
using internal::SeedAtPinnedCentroid;

namespace {

// Per-thread adjacency scratch shared by the placers: reused across Place
// calls, so steady-state placement allocates nothing.
Adjacency& AdjacencyScratch() {
  thread_local Adjacency adj;
  return adj;
}

// Gauss-Seidel spring sweeps over `adj` (see RelaxationPlacer).
void RelaxationSweeps(overlay::Circuit* circuit, const Adjacency& adj,
                      size_t dims, const RelaxationPlacer::Params& params) {
  for (size_t sweep = 0; sweep < params.max_sweeps; ++sweep) {
    double max_move = 0.0;
    for (size_t j = 0; j < adj.vertices.size(); ++j) {
      Vec num(dims);
      double den = 0.0;
      for (size_t k = adj.begin[j]; k < adj.begin[j + 1]; ++k) {
        const Adjacency::Spring& s = adj.springs[k];
        num.AddScaled(adj.Coord(s, *circuit), s.rate);
        den += s.rate;
      }
      if (den <= 0.0) continue;
      const Vec target = num / den;
      overlay::CircuitVertex& cv = circuit->mutable_vertex(adj.vertices[j]);
      max_move = std::max(max_move, cv.virtual_coord.DistanceTo(target));
      cv.virtual_coord = target;
    }
    if (max_move < params.tolerance) break;
  }
}

}  // namespace

Status RelaxationPlacer::Place(overlay::Circuit* circuit,
                               const coords::CostSpace& space) const {
  Adjacency& adj = AdjacencyScratch();
  BuildAdjacency(*circuit, space, &adj);
  if (adj.vertices.empty()) return Status::OK();
  SeedAtPinnedCentroid(circuit, space);
  RelaxationSweeps(circuit, adj, space.spec().vector_dims(), params_);
  return Status::OK();
}

Status CentroidPlacer::Place(overlay::Circuit* circuit,
                             const coords::CostSpace& space) const {
  SeedAtPinnedCentroid(circuit, space);
  return Status::OK();
}

Status GradientPlacer::Place(overlay::Circuit* circuit,
                             const coords::CostSpace& space) const {
  Adjacency& adj = AdjacencyScratch();
  BuildAdjacency(*circuit, space, &adj);
  if (adj.vertices.empty()) return Status::OK();
  // Seed from the spring equilibrium: Weiszfeld sweeps are monotone
  // non-increasing in the linear objective (each per-vertex step minimizes
  // an MM majorizer), so starting there guarantees the result is at least
  // as good as relaxation on sum(rate * dist) — and avoids the coordinate-
  // descent stalls the centroid seed can hit at non-smooth points.
  const size_t dims = space.spec().vector_dims();
  SeedAtPinnedCentroid(circuit, space);
  RelaxationSweeps(circuit, adj, dims, RelaxationPlacer::Params());

  for (size_t sweep = 0; sweep < params_.max_sweeps; ++sweep) {
    double max_move = 0.0;
    for (size_t j = 0; j < adj.vertices.size(); ++j) {
      // Weiszfeld step for the rate-weighted geometric median of the
      // neighbor anchors.
      Vec num(dims);
      double den = 0.0;
      const Vec cur = circuit->vertex(adj.vertices[j]).virtual_coord;
      for (size_t k = adj.begin[j]; k < adj.begin[j + 1]; ++k) {
        const Adjacency::Spring& s = adj.springs[k];
        const Vec& a = adj.Coord(s, *circuit);
        const double d = std::max(cur.DistanceTo(a), params_.epsilon);
        num.AddScaled(a, s.rate / d);
        den += s.rate / d;
      }
      if (den <= 0.0) continue;
      const Vec target = num / den;
      overlay::CircuitVertex& cv = circuit->mutable_vertex(adj.vertices[j]);
      max_move = std::max(max_move, cv.virtual_coord.DistanceTo(target));
      cv.virtual_coord = target;
    }
    if (max_move < params_.tolerance) break;
  }
  return Status::OK();
}

namespace {

Vec EndpointCoord(const overlay::Circuit& c, int i,
                  const coords::CostSpace& space) {
  return AnchorCoord(c, i, space);
}

}  // namespace

double VirtualLinearCost(const overlay::Circuit& circuit,
                         const coords::CostSpace& space) {
  double total = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    total += e.rate_bytes_per_s *
             EndpointCoord(circuit, e.from, space)
                 .DistanceTo(EndpointCoord(circuit, e.to, space));
  }
  return total;
}

double VirtualQuadraticCost(const overlay::Circuit& circuit,
                            const coords::CostSpace& space) {
  double total = 0.0;
  for (const overlay::CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    const double d = EndpointCoord(circuit, e.from, space)
                         .DistanceTo(EndpointCoord(circuit, e.to, space));
    total += e.rate_bytes_per_s * d * d;
  }
  return total;
}

}  // namespace sbon::placement
