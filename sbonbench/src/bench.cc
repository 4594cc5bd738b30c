// sbonbench: the SBON engine benchmark.
//
//   sbonbench --workload serve|maintain|decentralized --seed N --seconds S
//             --trace 0|1 [--trace-out PATH]
//
// Drives the public API of the library (engine, core, query, placement,
// dht, overlay, msg) from one thread and prints, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the untraced run's calls (serve: all of them; the loops:
// up to their checkpoint) are replayed on a fresh set-up with spans,
// allocation counts and read-only shadow calls, and the metrics are the
// per-layer ones. A human-readable report goes to standard error.
// The exit code is nonzero when a correctness check fails.
//
// README.md in this directory explains why each workload exists.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "alloc_count.h"
#include "common/kernel_stats.h"
#include "common/rng.h"
#include "engine/registry.h"
#include "engine/stream_engine.h"
#include "net/churn.h"
#include "net/generators.h"
#include "placement/mapping.h"
#include "query/enumerate.h"
#include "query/workload.h"
#include "stats.h"
#include "trace.h"

namespace sbonbench {
namespace {

using sbon::NodeId;
using sbon::Status;
using sbon::StatusCode;
using sbon::engine::QueryHandle;
using sbon::engine::StreamEngine;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const char* what, const Status& st) {
  std::fprintf(stderr, "fatal: %s: %s\n", what, st.ToString().c_str());
  std::exit(2);
}

// ---------------------------------------------------------------------------
// Workload configuration. Each workload runs on a fixed deployment drawn
// from its own constant seed: the overlay topology, the engine's own
// randomness (Vivaldi start, load model, latency jitter), the stream
// catalog and (maintain, decentralized) the standing queries. --seed draws
// everything that happens on it: serve's arrival schedule and queries,
// churn, and the message bus's peer sampling and faults. Fixing the
// deployment keeps seed-to-seed spread down: stream rates are heavy-tailed,
// so a seeded catalog moved network usage by 2x, and a seeded engine by 10%.

enum class Kind { kServe, kMaintain, kDecentralized };

struct Config {
  Kind kind = Kind::kServe;
  const char* name = "";
  size_t nodes = 256;
  uint64_t deployment_seed = 0;
  double jitter_sigma = 0.0;
  std::string optimizer = "integrated";
  sbon::query::WorkloadParams workload;
  sbon::engine::EpochOptions epoch;

  // serve: open-loop schedule (wall-clock seconds).
  double rate_per_s = 0.0;
  double mean_lifetime_s = 0.0;
  double epoch_period_s = 0.0;
  double warmup_s = 0.0;  ///< schedule run back to back during set-up
  size_t usage_every_epochs = 10;

  // maintain / decentralized: closed loop of maintenance iterations.
  size_t standing_queries = 0;
  double crash_rate = 0.0;
  size_t warmup_iterations = 0;
  /// Iterations every run completes; the fingerprint and network usage are
  /// taken over this prefix so they repeat exactly whatever the run length.
  size_t checkpoint_iterations = 0;
  size_t usage_every_iterations = 8;
  size_t drain_epochs = 0;  ///< churn-free epochs before the final checks
};

Config ServeConfig() {
  Config c;
  c.kind = Kind::kServe;
  c.name = "serve";
  c.nodes = 256;
  c.deployment_seed = 1001;
  c.optimizer = "multi-query";
  // perf_workload's shareable mix: popular streams, one selectivity, no
  // filters or aggregates, so reuse has something to find.
  c.workload.num_streams = 16;
  c.workload.min_streams_per_query = 2;
  c.workload.max_streams_per_query = 4;
  c.workload.join_sel_log10_min = -3.0;
  c.workload.join_sel_log10_max = -3.0;
  c.workload.filter_prob = 0.0;
  c.workload.aggregate_prob = 0.0;
  c.epoch.dt = 0.25;
  c.epoch.tick_network = false;  // static latencies
  c.epoch.vivaldi_samples = 1;
  c.epoch.refresh_index = true;
  c.epoch.refresh_epsilon = 0.05;
  c.epoch.threads = 1;
  // About half of the single-thread capacity measured on a shared 4-vCPU
  // box (capacity_qps 1,700-2,500).
  c.rate_per_s = 1000.0;
  c.mean_lifetime_s = 0.5;
  c.epoch_period_s = 0.008;
  c.warmup_s = 2.0;
  return c;
}

Config LoopConfig(Kind kind) {
  Config c;
  c.kind = kind;
  c.workload.num_streams = 48;
  c.jitter_sigma = 0.1;
  c.epoch.dt = 1.0;
  c.epoch.tick_network = true;
  c.epoch.vivaldi_samples = 1;
  c.epoch.refresh_index = true;
  c.epoch.refresh_epsilon = 1.0;
  c.epoch.threads = 1;
  if (kind == Kind::kMaintain) {
    c.name = "maintain";
    c.nodes = 512;
    c.deployment_seed = 1002;
    c.standing_queries = 64;
    c.crash_rate = 0.5;
    c.warmup_iterations = 32;
    c.checkpoint_iterations = 512;
  } else {
    c.name = "decentralized";
    c.nodes = 256;
    c.deployment_seed = 1003;
    c.standing_queries = 16;
    c.crash_rate = 0.25;
    c.warmup_iterations = 32;
    c.checkpoint_iterations = 1024;
    c.drain_epochs = 12;
    c.epoch.exec_mode = sbon::engine::ExecMode::kMessage;
    sbon::msg::RuntimeParams& mp = c.epoch.msg;
    for (sbon::msg::FaultRates& r : mp.bus.faults.protocol) {
      r.loss = 0.10;
      r.duplicate = 0.05;
    }
    mp.reliability.enabled = true;
    mp.reliability.retry_after_epochs = 1;
    mp.reliability.max_backoff_epochs = 2;
    mp.reliability.max_retries = 3;
    mp.detector.enabled = true;
  }
  return c;
}

/// Transit-stub topology of roughly `target_nodes` (< 10k) nodes, scaled
/// the way the repository's figure harnesses scale it.
sbon::net::Topology MakeTopology(size_t target_nodes, uint64_t seed) {
  sbon::net::TransitStubParams p;
  p.transit_domains = target_nodes >= 400 ? 4 : 2;
  p.transit_nodes_per_domain = target_nodes >= 200 ? 4 : 2;
  const size_t transit = p.transit_domains * p.transit_nodes_per_domain;
  p.stub_domains_per_transit_node = 3;
  p.nodes_per_stub_domain = std::max<size_t>(
      2, (target_nodes - transit) / (transit * p.stub_domains_per_transit_node));
  sbon::Rng rng(seed);
  auto topo = sbon::net::GenerateTransitStub(p, &rng);
  if (!topo.ok()) Die("topology generation", topo.status());
  return std::move(topo.value());
}

// ---------------------------------------------------------------------------
// State fingerprint: FNV-1a over coordinates, scalar penalties, service
// count and network usage (perf_workload's StateFingerprint), plus the
// message-mode traffic counters when the msg runtime exists.

uint64_t Fingerprint(const StreamEngine& eng) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  const sbon::overlay::Sbon& sbon = eng.sbon();
  const auto& space = sbon.cost_space();
  for (NodeId n = 0; n < space.NumNodes(); ++n) {
    const sbon::Vec v = space.VectorCoord(n);
    for (size_t d = 0; d < v.dims(); ++d) mix(v[d]);
    mix(space.ScalarPenalty(n));
  }
  mix(static_cast<double>(sbon.NumServices()));
  mix(sbon.TotalNetworkUsage());
  if (eng.msg_runtime() != nullptr) {
    const auto snap = eng.Snapshot();
    const sbon::msg::TrafficSummary& t = *snap.decentralized;
    for (size_t v : {t.msgs_sent, t.msgs_delivered, t.msgs_dropped_fault,
                     t.msgs_duplicated, t.bytes_total, t.retries,
                     t.suspicions, t.crash_confirmations}) {
      mix(static_cast<double>(v));
    }
  }
  return h;
}

/// Every installed circuit is hosted on live nodes and has a finite cost.
/// Returns an empty string when that holds, else the first violation.
std::string CheckCircuits(const StreamEngine& eng) {
  const sbon::overlay::Sbon& sbon = eng.sbon();
  for (const auto& [id, circuit] : sbon.circuits()) {
    for (const auto& v : circuit.vertices()) {
      if (v.host == sbon::kInvalidNode || !sbon.IsAlive(v.host)) {
        return "circuit " + std::to_string(id) + " has a vertex on dead or no host";
      }
    }
    auto cost = sbon.CircuitCostOf(id);
    if (!cost.ok() || !std::isfinite(cost->network_usage)) {
      return "circuit " + std::to_string(id) + " has no finite cost";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// A pass over a workload's call sequence. Both passes time every engine
// call; the traced pass also records a span per call with the allocations
// it made, and runs the read-only shadow calls.

class Pass {
 public:
  explicit Pass(bool traced) : traced_(traced) {}

  bool traced() const { return traced_; }
  Tracer& tracer() { return tracer_; }
  double busy_ns() const { return busy_ns_; }
  /// Busy time of the engine calls other than Submit. In the traced pass
  /// the shadow calls warm Submit's caches, so only these calls compare
  /// like with like between the passes.
  double busy_ns_without_submit() const { return busy_ns_ - submit_ns_; }
  int64_t last_start() const { return last_start_; }
  int64_t last_end() const { return last_end_; }
  int32_t last_span() const { return last_span_; }

  /// An engine call: timed, counted as busy time.
  template <class F>
  auto Engine(const char* name, uint64_t id, F&& fn) {
    auto result = Timed(name, id, /*busy=*/true, fn);
    if (std::strcmp(name, "engine.submit") == 0) {
      submit_ns_ += static_cast<double>(last_end_ - last_start_);
    }
    return result;
  }
  /// A shadow call (traced pass only): timed, not busy time.
  template <class F>
  auto Shadow(const char* name, uint64_t id, F&& fn) {
    return Timed(name, id, /*busy=*/false, fn);
  }

 private:
  template <class F>
  auto Timed(const char* name, uint64_t id, bool busy, F& fn) {
    const uint64_t allocs_before = traced_ ? g_alloc_count : 0;
    const int64_t start = NowNs();
    auto result = fn();
    const int64_t end = NowNs();
    last_start_ = start;
    last_end_ = end;
    if (busy) busy_ns_ += static_cast<double>(end - start);
    if (traced_) {
      last_span_ = tracer_.Add(name, id, -1, start, end, g_alloc_count - allocs_before);
    }
    return result;
  }

  bool traced_;
  Tracer tracer_;
  double busy_ns_ = 0.0;
  double submit_ns_ = 0.0;
  int64_t last_start_ = 0;
  int64_t last_end_ = 0;
  int32_t last_span_ = -1;
};

/// Span name of an epoch stage, as recorded under engine.advance_epoch.
const char* StageSpanName(const char* stage) {
  static const std::pair<const char*, const char*> kNames[] = {
      {"jitter", "stage.jitter"},          {"load", "stage.load"},
      {"coords", "stage.coords"},          {"churn+repair", "stage.churn_repair"},
      {"refresh", "stage.refresh"},        {"msg-coords", "stage.msg-coords"},
      {"msg-refresh", "stage.msg-refresh"}, {"detect+repair", "stage.detect_repair"},
  };
  for (const auto& [from, to] : kNames) {
    if (std::strcmp(from, stage) == 0) return to;
  }
  return "stage.other";
}

// Counters the traced pass accumulates outside the span tree.
struct LayerCounters {
  size_t submits = 0;
  double plans = 0, placements = 0, reuse_candidates = 0, reuse_hits = 0;
  double map_lookups = 0, map_hops = 0, map_probes = 0, map_error = 0;
  size_t enumerations = 0;
  double enumerated_plans = 0;
  size_t overlay_samples = 0;
  double circuits = 0, broken_circuits = 0, services = 0, shared_services = 0, max_load = 0;
};

// ---------------------------------------------------------------------------
// A set-up deployment: the engine, its inputs and where the workload stands.

struct ServeEvent {
  enum Type : uint8_t { kArrive, kDepart, kEpoch };
  int64_t due_ns = 0;  ///< relative to the start of the timed window
  Type type = kArrive;
  uint32_t index = 0;  ///< query (arrive/depart) or epoch number
};

struct Deployment {
  std::unique_ptr<StreamEngine> engine;
  std::shared_ptr<const sbon::placement::VirtualPlacer> placer;
  sbon::engine::EpochOptions epoch;
  std::unique_ptr<sbon::net::ChurnModel> churn;
  std::vector<sbon::query::QuerySpec> specs;
  std::vector<QueryHandle> handles;
  // serve
  std::vector<ServeEvent> events;
  size_t first_window_event = 0;
  // maintain / decentralized
  size_t next_iteration = 0;
  // set-up bookkeeping
  size_t setup_failures = 0;
  uint64_t setup_fingerprint = 0;
};

/// What one pass over the timed window measured.
struct PassResult {
  std::vector<double> place_ms;  ///< per placement: the Submit call
  /// serve's open loop: from each arrival's due time until Submit returned.
  std::vector<double> place_from_due_ms;
  std::vector<double> epoch_ms;  ///< per maintenance iteration
  size_t placed = 0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t steps = 0;  ///< events (serve) or iterations run
  std::vector<double> usage;  ///< network usage at schedule points
  uint64_t checkpoint_fingerprint = 0;
  /// Busy time of the engine calls other than Submit up to the checkpoint
  /// (the whole window for serve): what the traced pass replays.
  double checkpoint_busy_ns = 0.0;
  uint64_t end_fingerprint = 0;
  std::string circuit_problem;
  LatenessReport lateness;  ///< serve only
  bool overrun = false;     ///< serve fell so far behind that the run stopped
  size_t repaired = 0, dropped = 0;
  // traced pass only
  LayerCounters layer;
  sbon::KernelStatsSnapshot kernels;
  sbon::overlay::IndexRefreshStats refresh;
  sbon::msg::TrafficSummary traffic_before, traffic_after;
};

/// Ok, or NotFound for a query the churn pipeline already dropped.
bool OkOrDropped(const Status& st) {
  return st.ok() || st.code() == StatusCode::kNotFound;
}

// ---------------------------------------------------------------------------
// Calls shared by all workloads.

/// Read-only calls that split a Submit into its layers: the optimizer, plan
/// enumeration, virtual placement and mapping of a copy of the winning
/// circuit, and one k-nearest read of the coordinate index.
void ShadowSubmit(Pass& pass, Deployment& d, const sbon::query::QuerySpec& spec,
                  uint64_t id, PassResult& out) {
  StreamEngine& eng = *d.engine;
  const sbon::core::OptimizerConfig config;  // the engine default
  // One untimed run first, so the timed one finds the caches as warm as the
  // Submit that follows it does.
  (void)eng.Optimize(spec);
  auto optimized = pass.Shadow("core.optimize", id, [&] { return eng.Optimize(spec); });
  auto plans = pass.Shadow("query.enumerate", id, [&] {
    return sbon::query::EnumeratePlans(spec, eng.catalog(), config.enumeration);
  });
  if (plans.ok()) {
    ++out.layer.enumerations;
    out.layer.enumerated_plans += static_cast<double>(plans->size());
  }
  if (optimized.ok()) {
    sbon::overlay::Circuit placed = optimized->circuit;
    pass.Shadow("placement.place", id, [&] {
      return d.placer->Place(&placed, eng.sbon().cost_space());
    });
    sbon::overlay::Circuit mapped = optimized->circuit;
    sbon::placement::MappingReport report;
    pass.Shadow("placement.map", id, [&] {
      return sbon::placement::MapCircuit(&mapped, eng.sbon(), config.mapping, &report);
    });
  }
  const sbon::Vec target = eng.sbon().cost_space().FullCoord(spec.consumer);
  std::vector<sbon::dht::IndexMatch> matches;
  sbon::dht::IndexQueryCost cost;
  pass.Shadow("dht.knearest", id, [&] {
    return eng.sbon().index().KNearestInto(target, config.mapping.k_candidates,
                                           config.mapping.probe_width, &cost, {},
                                           &matches);
  });
}

/// Submits `spec` (with shadow calls in the traced pass) and records the
/// optimizer's accounting of the deployment.
sbon::StatusOr<QueryHandle> Submit(Pass& pass, Deployment& d,
                                   const sbon::query::QuerySpec& spec, uint64_t id,
                                   PassResult& out) {
  if (pass.traced()) ShadowSubmit(pass, d, spec, id, out);
  auto handle = pass.Engine("engine.submit", id, [&] { return d.engine->Submit(spec); });
  ++out.attempted;
  if (!handle.ok()) {
    ++out.failed;
    return handle;
  }
  ++out.placed;
  if (pass.traced()) {
    const sbon::core::OptimizeResult* r = d.engine->ResultOf(*handle);
    LayerCounters& l = out.layer;
    ++l.submits;
    l.plans += static_cast<double>(r->plans_considered);
    l.placements += static_cast<double>(r->placements_evaluated);
    l.reuse_candidates += static_cast<double>(r->reuse_candidates_considered);
    l.reuse_hits += static_cast<double>(r->services_reused);
    l.map_lookups += static_cast<double>(r->mapping.dht_cost.lookups);
    l.map_hops += static_cast<double>(r->mapping.dht_cost.routing_hops);
    l.map_probes += static_cast<double>(r->mapping.dht_cost.ring_probes);
    l.map_error += r->mapping.MeanMappingError();
  }
  return handle;
}

Status Remove(Pass& pass, Deployment& d, QueryHandle h, uint64_t id, PassResult& out) {
  const Status st = pass.Engine("engine.remove", id, [&] { return d.engine->Remove(h); });
  ++out.attempted;
  if (!OkOrDropped(st)) ++out.failed;
  return st;
}

void AdvanceEpoch(Pass& pass, Deployment& d, uint64_t id, PassResult& out) {
  const Status st =
      pass.Engine("engine.advance_epoch", id, [&] { return d.engine->AdvanceEpoch(d.epoch); });
  ++out.attempted;
  if (!st.ok()) ++out.failed;
  if (!pass.traced()) return;
  // The stages ran back to back inside the call; lay them out in order
  // from its start as child spans.
  const int32_t parent = pass.last_span();
  const int64_t end = pass.last_end();
  int64_t cursor = pass.last_start();
  for (const sbon::engine::EpochStageTrace& stage : d.engine->last_epoch_trace()) {
    if (!stage.ran) continue;
    const int64_t stop = std::min<int64_t>(end, cursor + std::llround(stage.ns));
    pass.tracer().Add(StageSpanName(stage.name), id, parent, cursor, stop, 0);
    cursor = stop;
  }
}

/// Samples the network usage (and, traced, the overlay's size) at a
/// schedule point. The usage is what Sbon::TotalNetworkUsage sums, over the
/// circuits whose cost is finite: in message mode a circuit on a crashed host keeps
/// an infinite cost until the failure detector confirms the crash and the
/// engine repairs it, and those circuits are counted apart.
void SampleOverlay(const Pass& pass, const Deployment& d, PassResult& out) {
  const sbon::overlay::Sbon& sbon = d.engine->sbon();
  double usage = 0.0;
  size_t broken = 0;
  for (const auto& [id, circuit] : sbon.circuits()) {
    auto cost = sbon.CircuitCostOf(id);
    if (cost.ok() && std::isfinite(cost->network_usage)) {
      usage += cost->network_usage;
    } else {
      ++broken;
    }
  }
  out.usage.push_back(usage);
  if (!pass.traced()) return;
  LayerCounters& l = out.layer;
  ++l.overlay_samples;
  l.broken_circuits += static_cast<double>(broken);
  l.circuits += static_cast<double>(sbon.circuits().size());
  l.services += static_cast<double>(sbon.NumServices());
  size_t shared = 0;
  for (const auto& [id, s] : sbon.services()) shared += s.Shared() ? 1 : 0;
  l.shared_services += static_cast<double>(shared);
  l.max_load += sbon.MaxLoad();
}

sbon::msg::TrafficSummary Traffic(const StreamEngine& eng) {
  if (eng.msg_runtime() == nullptr) return {};
  return *eng.Snapshot().decentralized;
}

// ---------------------------------------------------------------------------
// serve: open-loop query service.

void BuildServeSchedule(const Config& cfg, double seconds, Deployment& d,
                        sbon::Rng* rng) {
  StreamEngine& eng = *d.engine;
  const std::vector<NodeId>& sites = eng.sbon().overlay_nodes();
  std::vector<ServeEvent>& ev = d.events;
  const auto ns = [](double s) { return static_cast<int64_t>(std::llround(s * 1e9)); };
  for (double t = -cfg.warmup_s + rng->Exponential(cfg.rate_per_s); t < seconds;
       t += rng->Exponential(cfg.rate_per_s)) {
    const uint32_t q = static_cast<uint32_t>(d.specs.size());
    d.specs.push_back(sbon::query::RandomQuery(cfg.workload, eng.catalog(), sites, rng));
    ev.push_back({ns(t), ServeEvent::kArrive, q});
    const double leave = t + rng->Exponential(1.0 / cfg.mean_lifetime_s);
    if (leave < seconds) ev.push_back({ns(leave), ServeEvent::kDepart, q});
  }
  const auto first_epoch = static_cast<int64_t>(std::ceil(-cfg.warmup_s / cfg.epoch_period_s));
  uint32_t epoch_index = 0;
  for (int64_t k = first_epoch; static_cast<double>(k) * cfg.epoch_period_s < seconds; ++k) {
    ev.push_back({ns(static_cast<double>(k) * cfg.epoch_period_s), ServeEvent::kEpoch,
                  epoch_index++});
  }
  std::stable_sort(ev.begin(), ev.end(), [](const ServeEvent& a, const ServeEvent& b) {
    return a.due_ns < b.due_ns;
  });
  d.handles.assign(d.specs.size(), QueryHandle{});
  d.first_window_event = static_cast<size_t>(
      std::find_if(ev.begin(), ev.end(), [](const ServeEvent& e) { return e.due_ns >= 0; }) -
      ev.begin());
}

/// Runs one serve event.
void RunServeEvent(const Config& cfg, Pass& pass, Deployment& d, const ServeEvent& e,
                   PassResult& out) {
  switch (e.type) {
    case ServeEvent::kArrive: {
      auto h = Submit(pass, d, d.specs[e.index], e.index, out);
      if (h.ok()) d.handles[e.index] = *h;
      break;
    }
    case ServeEvent::kDepart:
      // A query whose Submit failed has nothing to remove.
      if (d.handles[e.index]) Remove(pass, d, d.handles[e.index], e.index, out);
      break;
    case ServeEvent::kEpoch:
      if (e.index % cfg.usage_every_epochs == 0) SampleOverlay(pass, d, out);
      AdvanceEpoch(pass, d, e.index, out);
      out.epoch_ms.push_back(static_cast<double>(pass.last_end() - pass.last_start()) * 1e-6);
      break;
  }
}

void SetUpServe(const Config& cfg, uint64_t seed, double seconds, Deployment& d) {
  sbon::Rng deployment(cfg.deployment_seed + 1);
  d.engine->SetCatalog(sbon::query::RandomCatalog(
      cfg.workload, d.engine->sbon().overlay_nodes(), &deployment));
  sbon::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 11);
  BuildServeSchedule(cfg, seconds, d, &rng);
  // Warm-up: the schedule before the window, back to back, until the
  // running population reaches its steady state.
  Pass warm(/*traced=*/false);
  PassResult ignored;
  for (size_t i = 0; i < d.first_window_event; ++i) {
    RunServeEvent(cfg, warm, d, d.events[i], ignored);
  }
  d.setup_failures = ignored.failed;
}

/// Spins until `due`. Sleeping instead lets the virtual CPU go idle, and on
/// a shared 4-vCPU box the calls right after each wake-up then stall:
/// serve's placement p99 read 8.8-13.9 ms with a sleep-then-spin wait and
/// 2.1-2.6 ms spinning, in alternating runs on the same machine.
void WaitUntil(int64_t due_ns) {
  while (NowNs() < due_ns) {
  }
}

void RunServeWindow(const Config& cfg, Pass& pass, Deployment& d, bool open_loop,
                    PassResult& out) {
  // Lateness beyond this means the engine cannot keep up at all; the run
  // stops instead of running for minutes and is reported as incorrect.
  constexpr int64_t kMaxLateNs = 30'000'000'000;
  const int64_t origin = NowNs();
  std::vector<int64_t> due, started;
  const size_t n = d.events.size() - d.first_window_event;
  due.reserve(n);
  started.reserve(n);
  for (size_t i = d.first_window_event; i < d.events.size(); ++i) {
    const ServeEvent& e = d.events[i];
    const int64_t due_at = origin + e.due_ns;
    if (open_loop) WaitUntil(due_at);
    const int64_t start = NowNs();
    RunServeEvent(cfg, pass, d, e, out);
    if (e.type == ServeEvent::kArrive) {
      out.place_ms.push_back(static_cast<double>(pass.last_end() - pass.last_start()) * 1e-6);
      out.place_from_due_ms.push_back(static_cast<double>(pass.last_end() - due_at) * 1e-6);
    }
    due.push_back(due_at);
    started.push_back(start);
    ++out.steps;
    if (open_loop && start - due_at > kMaxLateNs) {
      out.overrun = true;
      break;
    }
  }
  if (open_loop) out.lateness = Lateness(due, started, /*tolerance_ms=*/5.0);
}

// ---------------------------------------------------------------------------
// maintain / decentralized: closed-loop maintenance iterations.

void SetUpLoop(const Config& cfg, uint64_t seed, Deployment& d) {
  StreamEngine& eng = *d.engine;
  sbon::Rng deployment(cfg.deployment_seed + 1);
  if (cfg.epoch.exec_mode == sbon::engine::ExecMode::kMessage) {
    // The first message-mode epoch creates the msg runtime, so every
    // placement below is billed as control traffic.
    const Status st = eng.AdvanceEpoch(d.epoch);
    if (!st.ok()) Die("first message-mode epoch", st);
  }
  const std::vector<NodeId>& sites = eng.sbon().overlay_nodes();
  eng.SetCatalog(sbon::query::RandomCatalog(cfg.workload, sites, &deployment));
  std::set<NodeId> endpoints;
  for (sbon::StreamId s = 0; s < eng.catalog().NumStreams(); ++s) {
    endpoints.insert(eng.catalog().stream(s).producer);
  }
  for (size_t q = 0; q < cfg.standing_queries; ++q) {
    d.specs.push_back(
        sbon::query::RandomQuery(cfg.workload, eng.catalog(), sites, &deployment));
    endpoints.insert(d.specs.back().consumer);
    auto h = eng.Submit(d.specs.back());
    if (!h.ok()) ++d.setup_failures;
    d.handles.push_back(h.ok() ? *h : QueryHandle{});
  }
  // Churn crashes only nodes that pin no stream or consumer, so every
  // crash exercises the handle-stable repair of the services it hosted and
  // no query loses an endpoint it cannot be repaired without.
  std::vector<NodeId> eligible;
  for (NodeId n : sites) {
    if (endpoints.count(n) == 0) eligible.push_back(n);
  }
  sbon::net::ChurnModel::Params cp;
  cp.crash_rate = cfg.crash_rate;
  cp.mean_downtime_epochs = 4.0;
  cp.seed = seed * 9176 + 1;
  d.churn = std::make_unique<sbon::net::ChurnModel>(std::move(eligible), cp);
  d.epoch.churn = d.churn.get();
}

/// One maintenance iteration: an epoch, one local re-optimization, and one
/// Remove + Submit replacement, rotating through the standing queries.
void RunIteration(Pass& pass, Deployment& d, PassResult& out) {
  const size_t it = d.next_iteration++;
  const size_t n = d.handles.size();
  AdvanceEpoch(pass, d, it, out);
  const sbon::engine::ReoptPolicy local;
  auto reopt = pass.Engine("engine.reoptimize", it,
                           [&] { return d.engine->Reoptimize(d.handles[it % n], local); });
  ++out.attempted;
  if (!OkOrDropped(reopt.status())) ++out.failed;
  const size_t victim = (it * 7 + 3) % n;
  Remove(pass, d, d.handles[victim], it, out);
  auto h = Submit(pass, d, d.specs[victim], it, out);
  out.place_ms.push_back(static_cast<double>(pass.last_end() - pass.last_start()) * 1e-6);
  d.handles[victim] = h.ok() ? *h : QueryHandle{};
}

void RunLoopWindow(const Config& cfg, Pass& pass, Deployment& d, double seconds,
                   size_t fixed_steps, PassResult& out) {
  const int64_t stop_at = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (size_t i = 0;; ++i) {
    const bool more = fixed_steps > 0 ? i < fixed_steps
                                      : (i < cfg.checkpoint_iterations || NowNs() < stop_at);
    if (!more) break;
    if (i < cfg.checkpoint_iterations && i % cfg.usage_every_iterations == 0) {
      SampleOverlay(pass, d, out);
    }
    const int64_t start = NowNs();
    RunIteration(pass, d, out);
    out.epoch_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
    ++out.steps;
    if (out.steps == cfg.checkpoint_iterations) {
      out.checkpoint_fingerprint = Fingerprint(*d.engine);
      out.checkpoint_busy_ns = pass.busy_ns_without_submit();
    }
  }
}

// ---------------------------------------------------------------------------
// Set-up and the timed window, shared by all workloads.

Deployment SetUp(const Config& cfg, uint64_t seed, double seconds) {
  Deployment d;
  sbon::engine::EngineOptions opts;
  opts.topology = MakeTopology(cfg.nodes, cfg.deployment_seed);
  opts.sbon.seed = cfg.deployment_seed + 2;
  opts.sbon.latency_jitter_sigma = cfg.jitter_sigma;
  opts.optimizer = cfg.optimizer;
  opts.placer = "relaxation";
  opts.refresh_index_on_install = false;
  auto eng = StreamEngine::Create(std::move(opts));
  if (!eng.ok()) Die("engine creation", eng.status());
  d.engine = std::move(eng.value());
  auto placer = sbon::engine::PlacerRegistry::Global().Create("relaxation");
  if (!placer.ok()) Die("placer", placer.status());
  d.placer = *placer;
  d.epoch = cfg.epoch;
  d.epoch.msg.bus.seed = seed * 7919 + 3;
  d.epoch.msg.bus.faults.seed = seed * 104729 + 5;
  if (cfg.kind == Kind::kServe) {
    SetUpServe(cfg, seed, seconds, d);
  } else {
    SetUpLoop(cfg, seed, d);
    Pass warm(/*traced=*/false);
    PassResult ignored;
    for (size_t i = 0; i < cfg.warmup_iterations; ++i) RunIteration(warm, d, ignored);
    d.setup_failures += ignored.failed;
  }
  d.setup_fingerprint = Fingerprint(*d.engine);
  return d;
}

/// Runs the timed window. `fixed_steps` > 0 runs exactly that many loop
/// iterations instead of running for `seconds`; serve's schedule fixes its
/// own length.
PassResult RunWindow(const Config& cfg, Pass& pass, Deployment& d, double seconds,
                     size_t fixed_steps) {
  PassResult out;
  StreamEngine& eng = *d.engine;
  const sbon::engine::RepairStats repair_before = eng.repair_stats();
  const sbon::overlay::IndexRefreshStats refresh_before = eng.sbon().index_refresh_stats();
  const sbon::KernelStatsSnapshot kernels_before = sbon::KernelStats::Instance().Snapshot();
  if (pass.traced()) out.traffic_before = Traffic(eng);
  if (cfg.kind == Kind::kServe) {
    // The traced pass replays the schedule back to back: only the call
    // sequence has to match, and the shadow calls would otherwise push it
    // past the schedule.
    RunServeWindow(cfg, pass, d, /*open_loop=*/!pass.traced(), out);
    out.checkpoint_fingerprint = Fingerprint(eng);
    out.checkpoint_busy_ns = pass.busy_ns_without_submit();
  } else {
    RunLoopWindow(cfg, pass, d, seconds, fixed_steps, out);
  }
  const sbon::engine::RepairStats& repair_after = eng.repair_stats();
  out.repaired = repair_after.queries_repaired - repair_before.queries_repaired;
  out.dropped = repair_after.queries_dropped - repair_before.queries_dropped;
  if (pass.traced()) {
    out.kernels = sbon::KernelStats::Instance().Snapshot().Since(kernels_before);
    const auto& r = eng.sbon().index_refresh_stats();
    out.refresh.refreshes = r.refreshes - refresh_before.refreshes;
    out.refresh.republished = r.republished - refresh_before.republished;
    out.refresh.skipped = r.skipped - refresh_before.skipped;
    out.refresh.quiet_refreshes = r.quiet_refreshes - refresh_before.quiet_refreshes;
    out.traffic_after = Traffic(eng);
  }
  // Churn-free drain: lets the failure detector confirm pending crashes
  // and repair their circuits before the circuit check.
  if (cfg.drain_epochs > 0) {
    sbon::engine::EpochOptions drain = d.epoch;
    drain.churn = nullptr;
    for (size_t i = 0; i < cfg.drain_epochs; ++i) {
      const Status st = eng.AdvanceEpoch(drain);
      if (!st.ok()) out.circuit_problem = "drain epoch failed: " + st.ToString();
    }
  }
  if (out.circuit_problem.empty()) out.circuit_problem = CheckCircuits(eng);
  out.end_fingerprint = Fingerprint(eng);
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void ReportPercentiles(const char* what, const LatencySummary& s) {
  std::fprintf(stderr,
               "  %-6s slices=%zu of n>=%zu  p50=%.4f ms (rank %zu, %zu beyond)  "
               "p90=%.4f ms (rank %zu, %zu beyond)  max=%.4f ms\n",
               what, s.slices, s.p90.count, s.p50.value, s.p50.rank, s.p50.beyond,
               s.p90.value, s.p90.rank, s.p90.beyond, s.max);
  if (s.p90.beyond < 10) {
    std::fprintf(stderr, "  warning: fewer than 10 %s samples lie beyond p90; run longer\n",
                 what);
  }
}

std::vector<Metric> EndToEndMetrics(const PassResult& r, double setup_s,
                                    const LatencySummary& place,
                                    const LatencySummary& epoch, double busy_ns) {
  return {
      {"setup_s", setup_s, "s"},
      {"place_p50_ms", place.p50.value, "ms"},
      {"place_p90_ms", place.p90.value, "ms"},
      {"epoch_p50_ms", epoch.p50.value, "ms"},
      {"epoch_p90_ms", epoch.p90.value, "ms"},
      {"capacity_qps", Ratio(static_cast<double>(r.placed), busy_ns * 1e-9), "1/s"},
      {"network_usage", Mean(r.usage) * 1e-3, "KB.ms/s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayerMetrics(const Config& cfg, const PassResult& untraced,
                                    double untraced_busy_ns, const PassResult& t,
                                    const Tracer& tracer, double traced_busy_ns) {
  std::map<std::string, SpanTotals> spans = tracer.Aggregate();
  auto mean_ns = [&](const char* n) { return spans[n].MeanNs(); };
  std::vector<Metric> m;
  auto add = [&](std::string name, double v, const char* unit) {
    m.push_back({std::move(name), v, unit});
  };
  const double attempted = static_cast<double>(t.attempted);
  // engine
  add("engine.submit.ns", mean_ns("engine.submit"), "ns");
  add("engine.submit.allocs", spans["engine.submit"].MeanAllocs(), "count");
  add("engine.remove.ns", mean_ns("engine.remove"), "ns");
  add("engine.reoptimize.ns", mean_ns("engine.reoptimize"), "ns");
  add("engine.advance_epoch.ns", mean_ns("engine.advance_epoch"), "ns");
  add("engine.advance_epoch.self_ns", spans["engine.advance_epoch"].MeanSelfNs(), "ns");
  add("engine.advance_epoch.allocs", spans["engine.advance_epoch"].MeanAllocs(), "count");
  add("engine.repair.repaired", static_cast<double>(t.repaired), "count");
  add("engine.repair.dropped", static_cast<double>(t.dropped), "count");
  add("engine.fail_frac", Ratio(static_cast<double>(t.failed + t.dropped), attempted), "ratio");
  // epoch stages, per epoch
  const double epochs = static_cast<double>(spans["engine.advance_epoch"].count);
  for (const char* s : {"stage.jitter", "stage.load", "stage.coords", "stage.churn_repair",
                        "stage.refresh", "stage.msg-coords", "stage.msg-refresh",
                        "stage.detect_repair"}) {
    add(std::string(s) + ".ns", Ratio(spans[s].ns, epochs), "ns");
  }
  add("stage.jitter_refresh.epoch_share",
      Ratio(spans["stage.jitter"].ns + spans["stage.refresh"].ns,
            spans["engine.advance_epoch"].ns),
      "ratio");
  // core
  const double submits = static_cast<double>(t.layer.submits);
  add("core.optimize.ns", mean_ns("core.optimize"), "ns");
  add("core.optimize.submit_share",
      Ratio(spans["core.optimize"].ns, spans["engine.submit"].ns), "ratio");
  add("core.plans", Ratio(t.layer.plans, submits), "count");
  add("core.placements_evaluated", Ratio(t.layer.placements, submits), "count");
  add("core.reuse.candidates", Ratio(t.layer.reuse_candidates, submits), "count");
  add("core.reuse.hits", Ratio(t.layer.reuse_hits, submits), "count");
  add("core.reuse.hit_ratio", Ratio(t.layer.reuse_hits, t.layer.reuse_candidates), "ratio");
  // query
  add("query.enumerate.ns", mean_ns("query.enumerate"), "ns");
  add("query.enumerate.plans",
      Ratio(t.layer.enumerated_plans, static_cast<double>(t.layer.enumerations)), "count");
  // placement
  add("placement.place.ns", mean_ns("placement.place"), "ns");
  add("placement.map.ns", mean_ns("placement.map"), "ns");
  add("placement.map.lookups", Ratio(t.layer.map_lookups, submits), "count");
  add("placement.map.hops", Ratio(t.layer.map_hops, submits), "count");
  add("placement.map.probes", Ratio(t.layer.map_probes, submits), "count");
  add("placement.map.error", Ratio(t.layer.map_error, submits), "cost");
  // dht
  add("dht.knearest.ns", mean_ns("dht.knearest"), "ns");
  add("dht.refresh.republished", static_cast<double>(t.refresh.republished), "count");
  add("dht.refresh.skipped", static_cast<double>(t.refresh.skipped), "count");
  add("dht.refresh.quiet", static_cast<double>(t.refresh.quiet_refreshes), "count");
  add("dht.refresh.skip_ratio",
      Ratio(static_cast<double>(t.refresh.skipped),
            static_cast<double>(t.refresh.skipped + t.refresh.republished)),
      "ratio");
  // coords / common kernels, over the window
  for (size_t k = 0; k < sbon::kNumKernels; ++k) {
    const std::string base =
        std::string("kernel.") + sbon::KernelName(static_cast<sbon::Kernel>(k));
    const sbon::KernelCounters& c = t.kernels.kernel[k];
    add(base + ".calls", static_cast<double>(c.calls), "count");
    add(base + ".ops", static_cast<double>(c.ops), "count");
    add(base + ".ns", static_cast<double>(c.ns), "ns");
    add(base + ".allocs", static_cast<double>(c.allocs), "count");
  }
  // overlay, mean over the schedule points
  const double samples = static_cast<double>(t.layer.overlay_samples);
  add("overlay.circuits", Ratio(t.layer.circuits, samples), "count");
  add("overlay.broken_circuits", Ratio(t.layer.broken_circuits, samples), "count");
  add("overlay.services", Ratio(t.layer.services, samples), "count");
  add("overlay.shared_services", Ratio(t.layer.shared_services, samples), "count");
  add("overlay.max_load", Ratio(t.layer.max_load, samples), "load");
  // msg, over the window
  const sbon::msg::TrafficSummary& a = t.traffic_after;
  const sbon::msg::TrafficSummary& b = t.traffic_before;
  auto d = [](size_t x, size_t y) { return static_cast<double>(x - y); };
  add("msg.sent", d(a.msgs_sent, b.msgs_sent), "count");
  add("msg.delivered", d(a.msgs_delivered, b.msgs_delivered), "count");
  add("msg.dropped_fault", d(a.msgs_dropped_fault, b.msgs_dropped_fault), "count");
  add("msg.duplicated", d(a.msgs_duplicated, b.msgs_duplicated), "count");
  add("msg.retries", d(a.retries, b.retries), "count");
  add("msg.retry_bytes", d(a.retry_bytes, b.retry_bytes), "B");
  add("msg.dup_suppressed", d(a.dup_suppressed, b.dup_suppressed), "count");
  add("msg.retry_exhausted", d(a.retry_exhausted, b.retry_exhausted), "count");
  add("msg.suspicions", d(a.suspicions, b.suspicions), "count");
  add("msg.false_suspicions", d(a.false_suspicions, b.false_suspicions), "count");
  static const char* kProtocol[] = {"vivaldi", "ring", "placement"};
  for (size_t p = 0; p < sbon::msg::kNumProtocols; ++p) {
    add(std::string("msg.bytes.") + kProtocol[p], d(a.protocol_bytes[p], b.protocol_bytes[p]),
        "B");
  }
  const double delivered = d(a.msgs_delivered, b.msgs_delivered);
  add("msg.delivery_ratio",
      Ratio(delivered, delivered + d(a.msgs_dropped_fault, b.msgs_dropped_fault)), "ratio");
  const double nodes = static_cast<double>(cfg.nodes);
  add("msg.ctrl_bytes_per_node_epoch",
      Ratio(d(a.bytes_total, b.bytes_total), nodes * d(a.epochs, b.epochs)), "B");
  // serve's generator (from the untraced, open-loop pass)
  const LatencySummary late = Summarize(untraced.lateness.late_ms);
  add("gen.late_ms.p50", late.p50.value, "ms");
  add("gen.late_ms.max", late.max, "ms");
  const LatencySummary from_due = Summarize(untraced.place_from_due_ms);
  add("gen.place_from_due_ms.p50", from_due.p50.value, "ms");
  add("gen.place_from_due_ms.p90", from_due.p90.value, "ms");
  // tracing overhead on the engine calls both passes make, Submit aside
  add("trace.overhead_ms", (traced_busy_ns - untraced_busy_ns) * 1e-6, "ms");
  add("trace.overhead_frac", Ratio(traced_busy_ns - untraced_busy_ns, untraced_busy_ns),
      "ratio");
  return m;
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      std::exit(2);
    }
  }
  if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    std::fprintf(stderr, "bad --seconds or --trace\n");
    std::exit(2);
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Config cfg;
  if (args.workload == "serve") {
    cfg = ServeConfig();
  } else if (args.workload == "maintain") {
    cfg = LoopConfig(Kind::kMaintain);
  } else if (args.workload == "decentralized") {
    cfg = LoopConfig(Kind::kDecentralized);
  } else {
    std::fprintf(stderr, "unknown workload '%s' (serve|maintain|decentralized)\n",
                 args.workload.c_str());
    return 2;
  }
  sbon::KernelStats::Instance().set_alloc_counter(&g_alloc_count);

  std::vector<std::string> problems;
  auto check = [&problems](bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  };

  // Set-up, several times from scratch: the median is setup_s, and every
  // set-up must reach the same state.
  constexpr size_t kSetups = 5;
  const size_t setups = args.trace == 1 ? 1 : kSetups;
  std::vector<double> setup_s;
  std::vector<uint64_t> setup_fps;
  Deployment d;
  for (size_t i = 0; i < setups; ++i) {
    d = Deployment();
    const int64_t start = NowNs();
    d = SetUp(cfg, args.seed, args.seconds);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    setup_fps.push_back(d.setup_fingerprint);
    check(d.setup_failures == 0, "operations failed during set-up");
  }
  for (uint64_t fp : setup_fps) check(fp == setup_fps.front(), "set-ups reached different states");

  Pass timed(/*traced=*/false);
  const PassResult r = RunWindow(cfg, timed, d, args.seconds, /*fixed_steps=*/0);
  const LatencySummary place = Summarize(r.place_ms);
  const LatencySummary epoch = Summarize(r.epoch_ms);

  std::fprintf(stderr, "workload=%s seed=%llu seconds=%g trace=%d\n", cfg.name,
               static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::fprintf(stderr, "  setup_s runs:");
  for (double s : setup_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\n  steps=%zu attempted=%zu failed=%zu placed=%zu repaired=%zu dropped=%zu\n",
               r.steps, r.attempted, r.failed, r.placed, r.repaired, r.dropped);
  ReportPercentiles("place", place);
  ReportPercentiles("epoch", epoch);
  std::fprintf(stderr,
               "  fingerprint setup=%016llx checkpoint=%016llx end=%016llx\n"
               "  network_usage samples=%zu mean=%.17g\n",
               static_cast<unsigned long long>(d.setup_fingerprint),
               static_cast<unsigned long long>(r.checkpoint_fingerprint),
               static_cast<unsigned long long>(r.end_fingerprint), r.usage.size(),
               Mean(r.usage));
  check(place.Monotone() && epoch.Monotone(), "percentiles are not monotone");
  check(!r.place_ms.empty() && !r.epoch_ms.empty(), "no samples");
  check(r.circuit_problem.empty(), r.circuit_problem);
  check(r.failed == 0, "engine calls failed in the timed window");
  if (cfg.kind == Kind::kServe) {
    std::fprintf(stderr, "  lateness median first half=%.4f ms second half=%.4f ms\n",
                 r.lateness.first_half_median_ms, r.lateness.second_half_median_ms);
    check(!r.overrun && !r.lateness.backlog_grew,
          "open-loop backlog grew: the engine cannot sustain the arrival rate");
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = EndToEndMetrics(r, Median(setup_s), place, epoch, timed.busy_ns());
  } else {
    const double untraced_busy = r.checkpoint_busy_ns;
    const uint64_t setup_fp = d.setup_fingerprint;
    d = Deployment();
    Deployment traced_d = SetUp(cfg, args.seed, args.seconds);
    check(traced_d.setup_fingerprint == setup_fp, "traced set-up reached a different state");
    Pass traced(/*traced=*/true);
    // The traced pass replays the untraced pass's calls up to its
    // checkpoint, so its counts repeat exactly for a seed whatever the
    // untraced run's length.
    const PassResult t =
        RunWindow(cfg, traced, traced_d, args.seconds, cfg.checkpoint_iterations);
    std::fprintf(stderr, "  traced fingerprint checkpoint=%016llx end=%016llx spans=%zu\n",
                 static_cast<unsigned long long>(t.checkpoint_fingerprint),
                 static_cast<unsigned long long>(t.end_fingerprint),
                 traced.tracer().spans().size());
    check(t.checkpoint_fingerprint == r.checkpoint_fingerprint &&
              (cfg.kind != Kind::kServe ||
               (t.end_fingerprint == r.end_fingerprint && t.steps == r.steps)),
          "traced run diverged from the timed run");
    check(t.circuit_problem.empty(), t.circuit_problem);
    metrics = PerLayerMetrics(cfg, r, untraced_busy, t, traced.tracer(),
                              traced.busy_ns_without_submit());
    if (!args.trace_out.empty() && !traced.tracer().WriteJsonLines(args.trace_out)) {
      check(false, "cannot write " + args.trace_out);
    }
  }
  for (const Metric& m : metrics) {
    std::fprintf(stderr, "  %-40s %.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const std::string& p : problems) std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  const bool correct = problems.empty();
  PrintResult(correct, r.attempted, r.failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace sbonbench

int main(int argc, char** argv) { return sbonbench::Main(argc, argv); }
