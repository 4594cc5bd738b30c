#include "overlay/metrics.h"

#include <algorithm>
#include <vector>

namespace sbon::overlay {
namespace {

// The per-op DP buffer of the latency walks below (zeroed, `ops` long),
// reused per thread: cost estimation runs for every candidate circuit on the
// Submit path. The walks never nest.
std::vector<double>& LongestScratch(size_t ops) {
  thread_local std::vector<double> longest;
  longest.assign(ops, 0.0);
  return longest;
}

// Longest root-ward latency path from any producer leaf to the consumer.
// Circuits are trees, so a bottom-up DP over plan ops suffices. A reused
// vertex acts as a leaf whose path already accumulated the source circuit's
// upstream latency.
double CriticalPathLatency(const Circuit& c, const net::LatencyView& lat) {
  const query::LogicalPlan& plan = c.plan();
  std::vector<double>& longest = LongestScratch(plan.NumOps());
  double best = 0.0;
  for (int i = 0; i < static_cast<int>(plan.NumOps()); ++i) {
    const query::PlanOp& op = plan.op(i);
    const CircuitVertex& v = c.vertex(i);
    double l = 0.0;
    if (v.reused && v.service != kInvalidService) {
      l = v.reused_upstream_latency_ms;
    } else if (!v.reused) {
      for (int child : op.children) {
        const double hop =
            lat.Latency(c.vertex(child).host, c.vertex(i).host);
        l = std::max(l, longest[child] + hop);
      }
    }
    longest[i] = l;
    if (i == plan.root()) best = l;
  }
  return best;
}

// Load penalty of newly deployed services: weighted scalar penalty of each
// service's host times the data rate the service processes.
double LoadPenalty(const Circuit& circuit, const coords::CostSpace& space) {
  double penalty = 0.0;
  for (int i = 0; i < static_cast<int>(circuit.NumVertices()); ++i) {
    const CircuitVertex& v = circuit.vertex(i);
    if (v.pinned || v.reused) continue;
    double input_rate = 0.0;
    for (const CircuitEdge& e : circuit.edges()) {
      if (e.physical && e.to == i) input_rate += e.rate_bytes_per_s;
    }
    penalty += space.ScalarPenalty(v.host) * input_rate;
  }
  return penalty;
}

}  // namespace

StatusOr<CircuitCost> ComputeCircuitCost(const Circuit& circuit,
                                         const net::LatencyView& lat,
                                         const coords::CostSpace* space) {
  if (!circuit.FullyPlaced()) {
    return Status::FailedPrecondition("circuit not fully placed");
  }
  CircuitCost cost;
  for (const CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    const NodeId a = circuit.vertex(e.from).host;
    const NodeId b = circuit.vertex(e.to).host;
    cost.network_usage += e.rate_bytes_per_s * lat.Latency(a, b);
  }
  cost.critical_path_latency_ms = CriticalPathLatency(circuit, lat);
  if (space != nullptr) cost.node_penalty = LoadPenalty(circuit, *space);
  return cost;
}

StatusOr<CircuitCost> EstimateCircuitCostInSpace(
    const Circuit& circuit, const coords::CostSpace& space) {
  if (!circuit.FullyPlaced()) {
    return Status::FailedPrecondition("circuit not fully placed");
  }
  CircuitCost cost;
  for (const CircuitEdge& e : circuit.edges()) {
    if (!e.physical) continue;
    const NodeId a = circuit.vertex(e.from).host;
    const NodeId b = circuit.vertex(e.to).host;
    cost.network_usage += e.rate_bytes_per_s * space.VectorDistance(a, b);
  }
  // Critical path in coordinate space.
  const query::LogicalPlan& plan = circuit.plan();
  std::vector<double>& longest = LongestScratch(plan.NumOps());
  for (int i = 0; i < static_cast<int>(plan.NumOps()); ++i) {
    double l = 0.0;
    for (int child : plan.op(i).children) {
      const double hop = space.VectorDistance(circuit.vertex(child).host,
                                              circuit.vertex(i).host);
      l = std::max(l, longest[child] + hop);
    }
    longest[i] = l;
    if (i == plan.root()) cost.critical_path_latency_ms = l;
  }
  cost.node_penalty = LoadPenalty(circuit, space);
  return cost;
}

StatusOr<double> UpstreamLatencyToService(const Circuit& circuit,
                                          ServiceInstanceId service,
                                          const net::LatencyView& lat) {
  const query::LogicalPlan& plan = circuit.plan();
  std::vector<double>& longest = LongestScratch(plan.NumOps());
  for (int i = 0; i < static_cast<int>(plan.NumOps()); ++i) {
    const CircuitVertex& v = circuit.vertex(i);
    double l = 0.0;
    if (v.reused && v.service != kInvalidService &&
        v.service != service) {
      l = v.reused_upstream_latency_ms;
    } else if (!v.reused || v.service == service) {
      for (int child : plan.op(i).children) {
        const double hop =
            lat.Latency(circuit.vertex(child).host, circuit.vertex(i).host);
        l = std::max(l, longest[child] + hop);
      }
    }
    longest[i] = l;
    if (v.service == service) return l;
  }
  return Status::NotFound("service not part of circuit");
}

}  // namespace sbon::overlay
