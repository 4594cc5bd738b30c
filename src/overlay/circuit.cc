#include "overlay/circuit.h"

namespace sbon::overlay {

StatusOr<Circuit> Circuit::FromPlan(const query::LogicalPlan& plan,
                                    const query::Catalog& catalog) {
  return FromPlan(std::make_shared<const query::LogicalPlan>(plan), catalog);
}

StatusOr<Circuit> Circuit::FromPlan(
    std::shared_ptr<const query::LogicalPlan> shared_plan,
    const query::Catalog& catalog) {
  const query::LogicalPlan& plan = *shared_plan;
  Status valid = plan.Validate();
  if (!valid.ok()) return valid;
  Circuit c;
  c.plan_ = std::move(shared_plan);
  c.vertices_.resize(plan.NumOps());
  for (int i = 0; i < static_cast<int>(plan.NumOps()); ++i) {
    const query::PlanOp& op = plan.op(i);
    CircuitVertex& v = c.vertices_[i];
    v.plan_op = i;
    switch (op.kind) {
      case query::OpKind::kProducer: {
        if (!catalog.Has(op.stream)) {
          return Status::NotFound("circuit references unknown stream");
        }
        v.pinned = true;
        v.host = catalog.stream(op.stream).producer;
        break;
      }
      case query::OpKind::kConsumer:
        v.pinned = true;
        v.host = plan.consumer();
        break;
      default:
        v.pinned = false;
        break;
    }
    for (int child : op.children) {
      c.edges_.push_back(
          CircuitEdge{child, i, plan.op(child).out_bytes_per_s});
    }
  }
  return c;
}

const query::LogicalPlan& Circuit::plan() const {
  static const query::LogicalPlan kEmpty;
  return plan_ != nullptr ? *plan_ : kEmpty;
}

std::vector<int> Circuit::UnpinnedVertices() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(vertices_.size()); ++i) {
    if (!vertices_[i].pinned) out.push_back(i);
  }
  return out;
}

std::vector<int> Circuit::PlaceableVertices() const {
  std::vector<int> out;
  for (int i = 0; i < static_cast<int>(vertices_.size()); ++i) {
    if (IsPlaceable(i)) out.push_back(i);
  }
  return out;
}

bool Circuit::FullyPlaced() const {
  for (const CircuitVertex& v : vertices_) {
    if (v.host == kInvalidNode) return false;
  }
  return true;
}

double Circuit::TotalEdgeRate() const {
  double s = 0.0;
  for (const CircuitEdge& e : edges_) {
    if (e.physical) s += e.rate_bytes_per_s;
  }
  return s;
}

void Circuit::BindReusedSubtree(int vertex, ServiceInstanceId instance,
                                NodeId instance_host,
                                double upstream_latency_ms) {
  CircuitVertex& v = vertices_[vertex];
  v.reused = true;
  v.service = instance;
  v.host = instance_host;
  v.reused_upstream_latency_ms = upstream_latency_ms;
  // Everything below the reused vertex is served by the existing instance:
  // mark descendants reused (no deployment) and their edges non-physical.
  // Children precede their parents in the plan arena, so one descending
  // pass reaches every descendant after its parent was marked.
  thread_local std::vector<char> in_subtree;
  in_subtree.assign(vertices_.size(), 0);
  in_subtree[vertex] = 1;
  for (int i = vertex; i >= 0; --i) {
    if (!in_subtree[i]) continue;
    CircuitVertex& d = vertices_[i];
    if (i != vertex && !d.pinned) {
      d.reused = true;
      d.service = kInvalidService;
      d.host = instance_host;
    }
    for (int c : plan_->op(i).children) in_subtree[c] = 1;
  }
  for (CircuitEdge& e : edges_) {
    if (in_subtree[e.to] && in_subtree[e.from]) e.physical = false;
  }
}

}  // namespace sbon::overlay
