#include "core/multi_query.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/two_step.h"
#include "overlay/metrics.h"

namespace sbon::core {
namespace {

// A compatible, in-radius instance for one placeable vertex.
struct ReuseCandidate {
  int vertex = -1;
  const overlay::ServiceInstance* instance = nullptr;
  double distance = 0.0;
};

// Ideal full-space target for a virtual coordinate (zero scalars).
Vec IdealTarget(const Vec& virtual_coord, size_t scalar_dims) {
  Vec t = virtual_coord;
  for (size_t i = 0; i < scalar_dims; ++i) t.Append(0.0);
  return t;
}

double UpstreamLatencyOf(const overlay::ServiceInstance& inst,
                         const overlay::Sbon& sbon) {
  for (CircuitId cid : inst.circuits) {
    const overlay::Circuit* src = sbon.FindCircuit(cid);
    if (src == nullptr) continue;
    auto lat = overlay::UpstreamLatencyToService(*src, inst.id,
                                                 sbon.latency());
    if (lat.ok()) return *lat;
  }
  return 0.0;
}

// Buffers reused across Optimize calls on one thread (the engine builds a
// fresh optimizer per Submit, so member buffers would not survive), keeping
// the per-vertex and per-candidate loops heap-free in steady state.
struct OptimizeScratch {
  std::vector<int> order;
  std::vector<NodeId> in_sphere;  // sorted ids from the sphere walk
  std::vector<ReuseCandidate> cands;
  // Surviving instances and their hosts, so the cost-space pruning distance
  // runs as one batched kernel call per service instead of a per-instance
  // strided probe.
  std::vector<const overlay::ServiceInstance*> instances;
  std::vector<NodeId> hosts;
  std::vector<double> dists;
  // Candidate circuits: copy-assigning into these reuses their vertex and
  // edge buffers, and the immutable plan is shared, not copied.
  overlay::Circuit variant;
  overlay::Circuit pass_best;
};

OptimizeScratch& Scratch() {
  thread_local OptimizeScratch scratch;
  return scratch;
}

}  // namespace

MultiQueryOptimizer::MultiQueryOptimizer(
    OptimizerConfig config,
    std::shared_ptr<const placement::VirtualPlacer> placer, Params params)
    : config_(std::move(config)), placer_(std::move(placer)),
      params_(params) {}

StatusOr<OptimizeResult> MultiQueryOptimizer::Optimize(
    const query::QuerySpec& spec, const query::Catalog& catalog,
    overlay::Sbon* sbon) {
  auto plans = query::EnumeratePlans(spec, catalog, config_.enumeration);
  if (!plans.ok()) return plans.status();

  const size_t scalar_dims = sbon->cost_space().spec().num_scalar_dims();
  OptimizeResult best;
  bool have_best = false;
  OptimizeScratch& scratch = Scratch();
  std::vector<int>& order = scratch.order;
  std::vector<ReuseCandidate>& cands = scratch.cands;
  overlay::Circuit& variant = scratch.variant;
  overlay::Circuit& pass_best = scratch.pass_best;

  for (query::LogicalPlan& owned_plan : *plans) {
    auto shared_plan =
        std::make_shared<const query::LogicalPlan>(std::move(owned_plan));
    const query::LogicalPlan& plan = *shared_plan;
    auto base = overlay::Circuit::FromPlan(std::move(shared_plan), catalog);
    if (!base.ok()) return base.status();
    placement::MappingReport report;
    Status st = PlaceAndMap(&base.value(), sbon, *placer_, config_.mapping,
                            &report);
    if (!st.ok()) return st;
    best.placements_evaluated += 1;

    auto base_cost = EstimateCost(*base, *sbon, config_.lambda);
    if (!base_cost.ok()) return base_cost.status();
    overlay::Circuit current = std::move(base.value());
    double current_cost = *base_cost;
    size_t current_reused = 0;

    // Greedy reuse passes.
    for (size_t pass = 0;
         pass < params_.max_reuse_bindings && params_.reuse_radius != 0.0;
         ++pass) {
      // Consider larger subtrees first (bigger savings when reused).
      order.clear();
      for (int v = 0; v < static_cast<int>(current.NumVertices()); ++v) {
        if (current.IsPlaceable(v)) order.push_back(v);
      }
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        return plan.op(a).stream_set.size() > plan.op(b).stream_set.size();
      });

      bool improved = false;
      double pass_best_cost = current_cost;
      size_t pass_best_extra_reused = 0;

      for (int v : order) {
        const uint64_t sig = plan.OpSignature(v);
        const auto instances = sbon->ServicesWithSignature(sig);
        if (instances.empty()) continue;

        // Cost-space pruning: keep instances whose hosts fall inside the
        // radius-r hyper-sphere around the service's virtual coordinate.
        cands.clear();
        if (params_.reuse_radius < 0.0) {
          scratch.instances.assign(instances.begin(), instances.end());
        } else {
          // Hyper-sphere search via the Hilbert/Chord index, charged as
          // DHT traffic; only nodes the sphere search returns are eligible.
          dht::IndexQueryCost qcost;
          Status near = sbon->index().WithinRadiusIdsInto(
              IdealTarget(current.vertex(v).virtual_coord, scalar_dims),
              params_.reuse_radius, &qcost, &scratch.in_sphere);
          report.dht_cost += qcost;
          if (!near.ok()) return near;
          scratch.instances.clear();
          for (const overlay::ServiceInstance* inst : instances) {
            if (std::binary_search(scratch.in_sphere.begin(),
                                   scratch.in_sphere.end(), inst->host)) {
              scratch.instances.push_back(inst);
            }
          }
        }
        // One batched distance sweep over the surviving instances' hosts.
        scratch.hosts.clear();
        for (const overlay::ServiceInstance* inst : scratch.instances) {
          scratch.hosts.push_back(inst->host);
        }
        scratch.dists.resize(scratch.hosts.size());
        sbon->cost_space().VectorDistancesToMany(
            current.vertex(v).virtual_coord, scratch.hosts.data(),
            scratch.hosts.size(), scratch.dists.data());
        for (size_t i = 0; i < scratch.instances.size(); ++i) {
          cands.push_back(
              ReuseCandidate{v, scratch.instances[i], scratch.dists[i]});
        }
        std::sort(cands.begin(), cands.end(),
                  [](const ReuseCandidate& a, const ReuseCandidate& b) {
                    return a.distance < b.distance;
                  });
        if (cands.size() > params_.max_candidates_per_service) {
          cands.resize(params_.max_candidates_per_service);
        }
        best.reuse_candidates_considered += cands.size();

        for (const ReuseCandidate& rc : cands) {
          variant = current;
          variant.BindReusedSubtree(
              rc.vertex, rc.instance->id, rc.instance->host,
              UpstreamLatencyOf(*rc.instance, *sbon));
          // The variant's mapping issues real index lookups, so its DHT
          // traffic is billed; its services_mapped and mapping error are not,
          // so those keep describing the base circuits.
          placement::MappingReport variant_report;
          Status pst = PlaceAndMap(&variant, sbon, *placer_, config_.mapping,
                                   &variant_report);
          if (!pst.ok()) return pst;
          report.dht_cost += variant_report.dht_cost;
          best.placements_evaluated += 1;
          auto vcost = EstimateCost(variant, *sbon, config_.lambda);
          if (!vcost.ok()) return vcost.status();
          if (*vcost < pass_best_cost) {
            std::swap(pass_best, variant);
            pass_best_cost = *vcost;
            pass_best_extra_reused = 1;
            improved = true;
          }
        }
      }
      if (!improved) break;
      std::swap(current, pass_best);
      current_cost = pass_best_cost;
      current_reused += pass_best_extra_reused;
    }

    if (!have_best || current_cost < best.estimated_cost) {
      best.circuit = std::move(current);
      best.estimated_cost = current_cost;
      best.services_reused = current_reused;
      have_best = true;
    }
    best.mapping.dht_cost += report.dht_cost;
    best.mapping.services_mapped += report.services_mapped;
    best.mapping.total_mapping_error += report.total_mapping_error;
    best.mapping.load_overrides += report.load_overrides;
  }
  if (!have_best) return Status::Internal("no candidate circuit produced");
  best.plans_considered = plans->size();
  return best;
}

}  // namespace sbon::core
