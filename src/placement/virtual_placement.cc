#include "placement/virtual_placement.h"

namespace sbon::placement::internal {

Vec AnchorCoord(const overlay::Circuit& c, int i,
                const coords::CostSpace& space) {
  const overlay::CircuitVertex& v = c.vertex(i);
  if (v.pinned || v.reused) return space.VectorCoord(v.host);
  return v.virtual_coord;
}

Vec SeedAtPinnedCentroid(overlay::Circuit* circuit,
                         const coords::CostSpace& space) {
  const size_t dims = space.spec().vector_dims();
  Vec centroid(dims);
  double weight = 0.0;
  for (const overlay::CircuitEdge& e : circuit->edges()) {
    for (int end : {e.from, e.to}) {
      const overlay::CircuitVertex& v = circuit->vertex(end);
      if (v.pinned || v.reused) {
        centroid.AddScaled(space.VectorCoord(v.host), e.rate_bytes_per_s);
        weight += e.rate_bytes_per_s;
      }
    }
  }
  if (weight > 0.0) {
    centroid /= weight;
  }
  for (int i = 0; i < static_cast<int>(circuit->NumVertices()); ++i) {
    if (circuit->IsPlaceable(i)) {
      circuit->mutable_vertex(i).virtual_coord = centroid;
    }
  }
  return centroid;
}

void BuildAdjacency(const overlay::Circuit& circuit,
                    const coords::CostSpace& space, Adjacency* adj) {
  adj->vertices.clear();
  adj->begin.clear();
  adj->springs.clear();
  adj->anchors.clear();
  const std::vector<overlay::CircuitEdge>& edges = circuit.edges();
  auto add = [&](double rate, int other) {
    if (rate <= 0.0) return;
    Adjacency::Spring s;
    s.rate = rate;
    s.vertex = other;
    if (!circuit.IsPlaceable(other)) {
      s.anchor = static_cast<int>(adj->anchors.size());
      adj->anchors.push_back(AnchorCoord(circuit, other, space));
    }
    adj->springs.push_back(s);
  };
  for (int v = 0; v < static_cast<int>(circuit.NumVertices()); ++v) {
    if (!circuit.IsPlaceable(v)) continue;
    adj->vertices.push_back(v);
    adj->begin.push_back(adj->springs.size());
    for (const overlay::CircuitEdge& e : edges) {
      if (e.from == v) add(e.rate_bytes_per_s, e.to);
      if (e.to == v) add(e.rate_bytes_per_s, e.from);
    }
  }
  adj->begin.push_back(adj->springs.size());
}

}  // namespace sbon::placement::internal
