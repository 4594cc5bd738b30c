#ifndef SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_
#define SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "coords/cost_space.h"
#include "overlay/circuit.h"

namespace sbon::placement {

/// Computes ideal cost-space coordinates for a circuit's placeable services
/// (paper Sec. 3.2, "Virtual Placement"). Operates only over the vector
/// dimensions; scalar dimensions enter later, during physical mapping.
///
/// Implementations read the coordinates of pinned vertices (producers,
/// consumer) and of already-bound reused vertices from `space` via their
/// hosts, and write `virtual_coord` on every placeable vertex.
class VirtualPlacer {
 public:
  virtual ~VirtualPlacer() = default;

  /// Fills `virtual_coord` (vector dims) for all placeable vertices.
  /// Virtual placement is computationally cheap and instantiates nothing.
  virtual Status Place(overlay::Circuit* circuit,
                       const coords::CostSpace& space) const = 0;

  /// Identifier used in bench output.
  virtual std::string Name() const = 0;
};

namespace internal {

/// Anchor coordinate of vertex `i`: pinned and reused vertices anchor at
/// their host's vector coordinate; placeable vertices use their current
/// `virtual_coord`. Shared by the iterative placers.
Vec AnchorCoord(const overlay::Circuit& c, int i,
                const coords::CostSpace& space);

/// Initializes every placeable vertex's virtual_coord to the rate-weighted
/// centroid of the circuit's pinned endpoints (a sane, deterministic start
/// for the iterative refiners). Returns that centroid.
Vec SeedAtPinnedCentroid(overlay::Circuit* circuit,
                         const coords::CostSpace& space);

/// The springs of a circuit's placeable vertices, built once per placement
/// so the refinement sweeps neither re-scan the edge list nor re-read fixed
/// anchors from the cost space.
///
/// Placeable vertex `vertices[j]` owns springs[begin[j] .. begin[j + 1]),
/// in edge-list order (an edge contributes the spring toward its other end
/// when the vertex is its source or its target, in that order). Edges with
/// rate <= 0 exert no force and are left out. Keeping the order is what
/// keeps every sweep's floating-point sums bit-identical.
struct Adjacency {
  struct Spring {
    double rate = 0.0;
    /// A placeable neighbour, whose virtual_coord moves between sweeps...
    int vertex = -1;
    /// ...or, when >= 0, the index into `anchors` of a pinned or reused
    /// neighbour's fixed coordinate.
    int anchor = -1;
  };

  std::vector<int> vertices;
  std::vector<size_t> begin;
  std::vector<Spring> springs;
  std::vector<Vec> anchors;

  /// The current coordinate of spring `s`'s far end.
  const Vec& Coord(const Spring& s, const overlay::Circuit& c) const {
    return s.anchor >= 0 ? anchors[s.anchor] : c.vertex(s.vertex).virtual_coord;
  }
};

/// Rebuilds `adj` for `circuit`, reusing its buffers (heap-free once they
/// have grown to the largest circuit seen).
void BuildAdjacency(const overlay::Circuit& circuit,
                    const coords::CostSpace& space, Adjacency* adj);

}  // namespace internal

}  // namespace sbon::placement

#endif  // SBON_PLACEMENT_VIRTUAL_PLACEMENT_H_
