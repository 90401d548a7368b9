#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "moe/transformer.h"
#include "util/status.h"

namespace flexmoe {

ExpertShape ShapeFromModel(const ModelConfig& model) {
  ExpertShape shape;
  shape.fwdbwd_flops_per_token = model.expert_fwdbwd_flops_per_token();
  shape.token_bytes = model.token_bytes();
  shape.grad_bytes = model.expert_grad_bytes();
  shape.state_bytes = model.expert_state_bytes();
  shape.fwd_fraction = model.expert_fwd_flops_per_token() /
                       model.expert_fwdbwd_flops_per_token();
  return shape;
}

CostModel::CostModel(const HardwareProfile* profile, const ExpertShape& shape)
    : profile_(profile), shape_(shape) {
  FLEXMOE_CHECK(profile != nullptr);
  FLEXMOE_CHECK(shape.fwdbwd_flops_per_token > 0);
  FLEXMOE_CHECK(shape.token_bytes > 0);
}

double CostModel::CombineGpuSeconds(double compute, double a2a, double sync,
                                    int chunks) const {
  // a2a is Eq. 8's 4 crossings (fwd dispatch+combine, bwd dispatch+
  // combine); one crossing is a2a/4. Both MoE legs pipeline
  // (PipelineOptions): d = m = one crossing and per leg
  // leg(c_K) = max(d + (c_K+m)/K, c_K + m/K, m), evaluated at the forward
  // and backward compute shares. At K = 1 a leg is its compute plus two
  // crossings, so the sum is compute + a2a up to rounding. Sync stays
  // serial: the executor posts a layer's syncs after its last grad
  // combine. Each leg splits every expert kernel into K launches, so the
  // GPU's compute stream pays (K-1) extra kernel_overhead_sec per leg —
  // charged INSIDE the leg's compute share (c_K = c + (K-1)*ovh), where
  // it rides the same overlap the real launches do: a compute-bound leg
  // degenerates to c + (K-1)*ovh + m/K (the full 2(K-1)*ovh per-layer
  // penalty across both legs, making the estimate non-monotone in K
  // exactly like the measured wall law), while a wire-bound leg hides
  // launches behind the crossings just as the executor's streams hide
  // them. Charging the overhead serially outside the max over-penalizes
  // deep K on dispatch-heavy layers and mis-ranks the candidates (the
  // auto-K differential of bench_paper's workload-suite).
  const double K = static_cast<double>(std::max(chunks, 1));
  const double crossing = 0.25 * a2a;
  const double launches = (K - 1.0) * profile_->kernel_overhead_sec();
  const double fwd_compute = compute * shape_.fwd_fraction + launches;
  const double bwd_compute = compute - compute * shape_.fwd_fraction +
                             launches;
  const double fwd = std::max(
      {crossing + (fwd_compute + crossing) / K, fwd_compute + crossing / K,
       crossing});
  const double bwd = std::max(
      {crossing + (bwd_compute + crossing) / K, bwd_compute + crossing / K,
       crossing});
  return fwd + bwd + sync;
}

int CostModel::BestChunkDepth(const std::vector<double>& per_gpu_compute,
                              const std::vector<double>& per_gpu_a2a,
                              const std::vector<double>& per_gpu_sync,
                              int incumbent) const {
  const size_t num_gpus = per_gpu_compute.size();
  FLEXMOE_CHECK(per_gpu_a2a.size() == num_gpus);
  FLEXMOE_CHECK(per_gpu_sync.size() == num_gpus);
  constexpr size_t kNumCandidates =
      sizeof(kChunkDepthCandidates) / sizeof(kChunkDepthCandidates[0]);
  double seconds[kNumCandidates];
  double best_seconds = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < kNumCandidates; ++i) {
    double worst = 0.0;
    for (size_t g = 0; g < num_gpus; ++g) {
      worst = std::max(
          worst, CombineGpuSeconds(per_gpu_compute[g], per_gpu_a2a[g],
                                   per_gpu_sync[g], kChunkDepthCandidates[i]));
    }
    seconds[i] = worst;
    best_seconds = std::min(best_seconds, worst);
  }
  // Retention hysteresis (DESIGN.md §12.2): the incumbent depth survives
  // until some candidate beats it by more than the switch margin —
  // neighboring-depth estimates cross each other by fractions of a
  // percent with per-step routing noise, and switching inside that noise
  // trades real (if small) plan-timing perturbation for no modeled gain.
  for (size_t i = 0; i < kNumCandidates; ++i) {
    if (kChunkDepthCandidates[i] == incumbent &&
        seconds[i] <= best_seconds * (1.0 + kChunkDepthSwitchMargin)) {
      return incumbent;
    }
  }
  // Fresh pick (incumbent == 0, or a beaten incumbent): walk the
  // candidate ladder shallow-to-deep and adopt a deeper depth only when
  // it beats the current pick by more than the deepening margin. Depth
  // must earn its keep: each extra chunk buys real launch overhead and
  // per-message latency, some of which sits below the model's fidelity,
  // so a modeled gain inside the margin is not evidence the deeper depth
  // actually wins (DESIGN.md §12.2).
  size_t pick = 0;
  for (size_t i = 1; i < kNumCandidates; ++i) {
    if (seconds[i] < seconds[pick] * (1.0 - kChunkDepthDeepeningMargin)) {
      pick = i;
    }
  }
  return kChunkDepthCandidates[pick];
}

double CostModel::ComputeSeconds(int64_t tokens) const {
  if (tokens <= 0) return 0.0;
  return profile_->ComputeSeconds(static_cast<double>(tokens),
                                  shape_.fwdbwd_flops_per_token);
}

double CostModel::A2ASeconds(const RoutedAssignment& routed, GpuId dst) const {
  if (profile_->hierarchical_a2a()) return A2ASecondsHierarchical(routed, dst);
  // Eq. 8: pure bandwidth serialization at the receiving port; chunked
  // flows overlap per-message latencies, so latency enters once per phase.
  double seconds = 0.0;
  double max_lat = 0.0;
  for (GpuId src = 0; src < routed.num_gpus; ++src) {
    const int64_t tokens = routed.dispatch(src, dst);
    if (tokens <= 0) continue;
    const double bytes = static_cast<double>(tokens) * shape_.token_bytes;
    seconds += bytes / profile_->BandwidthBytesPerSec(src, dst);
    max_lat = std::max(max_lat, profile_->LatencySeconds(src, dst));
  }
  // Dispatch + combine, forward + backward: 4 crossings per step (Eq. 8).
  return 4.0 * (seconds + 2.0 * max_lat);
}

double CostModel::A2ASecondsHierarchical(const RoutedAssignment& routed,
                                         GpuId dst) const {
  // Per-node aggregated Eq. 8 (DESIGN.md Section 10): token counts fold
  // per source node in integer arithmetic, then one bandwidth term per
  // remote node (ascending), one intra-node term, and the loopback term —
  // a fixed canonical order, so incremental maintenance reproduces this
  // from-scratch evaluation bitwise.
  const Topology& topo = profile_->topology();
  const int num_nodes = topo.num_nodes();
  const int gpus_per_node = topo.gpus_per_node();
  const NodeId dst_node = topo.NodeOf(dst);
  const int64_t local = routed.dispatch(dst, dst);
  const bool aggregated = !routed.node_of.empty();

  double seconds = 0.0;
  double max_lat = 0.0;
  int64_t intra = 0;
  for (NodeId n = 0; n < num_nodes; ++n) {
    int64_t node_tokens;
    if (aggregated) {
      node_tokens = routed.node_dispatch(n, dst);
    } else {
      node_tokens = 0;
      const GpuId first = n * gpus_per_node;
      for (GpuId src = first; src < first + gpus_per_node; ++src) {
        node_tokens += routed.dispatch(src, dst);
      }
    }
    if (n == dst_node) {
      intra = node_tokens - local;
      continue;
    }
    if (node_tokens <= 0) continue;
    const double bytes =
        static_cast<double>(node_tokens) * shape_.token_bytes;
    seconds += bytes / profile_->NodeBandwidthBytesPerSec(n, dst);
    max_lat = std::max(max_lat, profile_->NodeLatencySeconds(n, dst));
  }
  if (intra > 0) {
    const double bytes = static_cast<double>(intra) * shape_.token_bytes;
    seconds += bytes / profile_->NodeBandwidthBytesPerSec(dst_node, dst);
    max_lat = std::max(max_lat, profile_->NodeLatencySeconds(dst_node, dst));
  }
  if (local > 0) {
    const double bytes = static_cast<double>(local) * shape_.token_bytes;
    seconds += bytes / profile_->BandwidthBytesPerSec(dst, dst);
    max_lat = std::max(max_lat, profile_->LatencySeconds(dst, dst));
  }
  return 4.0 * (seconds + 2.0 * max_lat);
}

double CostModel::SyncSeconds(const Placement& placement, int expert) const {
  return GroupSyncSeconds(placement.HostGpus(expert));
}

double CostModel::GroupSyncSeconds(const std::vector<GpuId>& hosts) const {
  if (hosts.size() < 2) return 0.0;
  return profile_->AllReduceSeconds(shape_.grad_bytes, hosts);
}

LayerCostEstimate CostModel::EstimateLayer(const RoutedAssignment& routed,
                                           const Placement& placement,
                                           bool include_sync) const {
  LayerCostEstimate est;
  EstimateLayerInto(routed, placement, include_sync, &est);
  return est;
}

void CostModel::EstimateLayerInto(const RoutedAssignment& routed,
                                  const Placement& placement,
                                  bool include_sync,
                                  LayerCostEstimate* out) const {
  FLEXMOE_CHECK(out != nullptr);
  const int num_gpus = routed.num_gpus;
  LayerCostEstimate& est = *out;
  est.per_gpu_seconds.assign(static_cast<size_t>(num_gpus), 0.0);
  est.per_gpu_compute.assign(static_cast<size_t>(num_gpus), 0.0);
  est.per_gpu_a2a.assign(static_cast<size_t>(num_gpus), 0.0);
  est.per_gpu_sync.assign(static_cast<size_t>(num_gpus), 0.0);

  // Per-expert sync costs are shared by all hosts of the expert.
  // thread_local scratch: this sits in the planner/metric hot loops
  // (scratch-ownership rules, DESIGN.md "Performance architecture").
  static thread_local std::vector<double> sync_of_expert;
  sync_of_expert.assign(static_cast<size_t>(routed.num_experts), 0.0);
  if (include_sync) {
    for (int e = 0; e < routed.num_experts; ++e) {
      sync_of_expert[static_cast<size_t>(e)] = SyncSeconds(placement, e);
    }
  }

  for (GpuId g = 0; g < num_gpus; ++g) {
    double compute = 0.0;
    double sync = 0.0;
    for (int e = 0; e < routed.num_experts; ++e) {
      const int64_t tokens = routed.expert_gpu_tokens(e, g);
      if (tokens > 0) compute += ComputeSeconds(tokens);
      if (placement.VExpertsOn(e, g) > 0) {
        sync += sync_of_expert[static_cast<size_t>(e)];
      }
    }
    const double a2a = A2ASeconds(routed, g);
    est.per_gpu_compute[static_cast<size_t>(g)] = compute;
    est.per_gpu_a2a[static_cast<size_t>(g)] = a2a;
    est.per_gpu_sync[static_cast<size_t>(g)] = sync;
    est.per_gpu_seconds[static_cast<size_t>(g)] =
        CombineGpuSeconds(compute, a2a, sync, /*chunks=*/1);
  }
  est.total_seconds = *std::max_element(est.per_gpu_seconds.begin(),
                                        est.per_gpu_seconds.end());
}

LayerCostEstimate CostModel::EstimateLayer(const Assignment& assignment,
                                           const Placement& placement) const {
  return EstimateLayer(FlexibleRouter::Route(assignment, placement),
                       placement);
}

double CostModel::EstimateLayerSeconds(const Assignment& assignment,
                                       const Placement& placement) const {
  return EstimateLayer(assignment, placement).total_seconds;
}

double EstimateForwardMicrobatchSeconds(const HardwareProfile& profile,
                                        const ModelConfig& model,
                                        int num_gpus, int64_t tokens,
                                        int chunks) {
  FLEXMOE_CHECK(num_gpus > 0);
  FLEXMOE_CHECK(chunks >= 0);
  if (tokens <= 0) return 0.0;
  if (chunks == 0) {
    // Auto-K: the executor picks a per-layer depth from the same
    // candidate set, so the min of the per-depth floors is a valid floor
    // for whatever it chose (each floor(K) bounds the measured forward at
    // depth K from below).
    double floor = std::numeric_limits<double>::infinity();
    for (const int k : CostModel::kChunkDepthCandidates) {
      floor = std::min(floor, EstimateForwardMicrobatchSeconds(
                                  profile, model, num_gpus, tokens, k));
    }
    return floor;
  }
  const double assignments =
      static_cast<double>(tokens) * static_cast<double>(model.top_k);
  const double per_gpu = assignments / static_cast<double>(num_gpus);
  const double fwd_flops = model.expert_fwd_flops_per_token();

  // Expert compute: a balanced layout puts per_gpu assignments on every
  // device, so the Eq. 5 outer max degenerates to any one GPU's share.
  const double compute_per_layer = profile.ComputeSeconds(per_gpu, fwd_flops);

  // All-to-All: under the uniform pattern each destination receives
  // per_gpu tokens spread evenly over the sources. Two crossings per layer
  // (dispatch + combine) — the forward half of Eq. 8's 4x — and the
  // bottleneck destination sets the phase time. Each crossing charges one
  // wire latency (DESIGN.md Section 11.3): on the balanced route this
  // floor models, the engine's self-pair message (loopback latency) opens
  // the bottleneck ingress port at phase start, so the measured phase pays
  // total serialization plus a single remote latency.
  const double per_pair_bytes =
      per_gpu / static_cast<double>(num_gpus) * model.token_bytes();
  double worst_a2a = 0.0;
  for (GpuId dst = 0; dst < num_gpus; ++dst) {
    double seconds = 0.0;
    double max_lat = 0.0;
    for (GpuId src = 0; src < num_gpus; ++src) {
      seconds += per_pair_bytes / profile.BandwidthBytesPerSec(src, dst);
      max_lat = std::max(max_lat, profile.LatencySeconds(src, dst));
    }
    worst_a2a = std::max(worst_a2a, 2.0 * (seconds + max_lat));
  }

  // Non-MoE forward share: the same fwd/fwdbwd scaling the forward
  // executor applies (StepExecutor::ExecuteForward).
  const double fwd_fraction =
      fwd_flops / model.expert_fwdbwd_flops_per_token();
  const double non_moe = NonMoEComputeSeconds(model, profile) * fwd_fraction;

  // Pipelined floor (DESIGN.md Sections 11 and 12), one rule at every
  // depth: d = m = one crossing (half of worst_a2a).
  const double d = worst_a2a / 2.0;
  const double m = worst_a2a / 2.0;
  // Chunked compute provably pays extra kernel launches: the per-GPU
  // compute stream runs min(K, per_gpu) non-empty chunk kernels per layer
  // (the per-cell split zeroes chunks beyond the cell's token count), and
  // the bottleneck GPU hosts at least the balanced share. One launch is
  // already inside compute_per_layer, so (eff - 1) more. Per-leg — the
  // forward-only path has one compute stream — unlike CombineGpuSeconds'
  // full-step 2*(K-1) term.
  const double K = static_cast<double>(chunks);
  const double eff = std::min(K, std::max(1.0, per_gpu));
  const double c =
      compute_per_layer + (eff - 1.0) * profile.kernel_overhead_sec();
  // F is a floor on the executor because the last chunk carries at least
  // 1/K of every cell (the per-cell split makes it the ceil): the combine
  // port cannot start its last chunk before the dispatch port drained
  // (d + tail compute + tail combine), nor before compute drained
  // (c + tail combine), nor finish before its own serialization (m). At
  // K = 1 that is d + c + m.
  const double per_layer = std::max({d + (c + m) / K, c + m / K, m});
  return static_cast<double>(model.num_moe_layers) * per_layer + non_moe;
}

ForwardFloorEstimator::ForwardFloorEstimator(const HardwareProfile* profile,
                                             const ModelConfig& model,
                                             int num_gpus, int chunks)
    : profile_(profile), model_(model), num_gpus_(num_gpus), chunks_(chunks) {
  FLEXMOE_CHECK(profile != nullptr);
  FLEXMOE_CHECK(num_gpus > 0);
  FLEXMOE_CHECK(chunks >= 0);
}

void ForwardFloorEstimator::set_num_gpus(int num_gpus) {
  FLEXMOE_CHECK(num_gpus > 0);
  if (num_gpus == num_gpus_) return;
  num_gpus_ = num_gpus;
  Clear();
}

void ForwardFloorEstimator::Clear() {
  std::fill(slots_.begin(), slots_.end(), Slot{});
  entries_ = 0;
}

double ForwardFloorEstimator::Seconds(int64_t tokens) const {
  if (tokens <= 0) {
    return EstimateForwardMicrobatchSeconds(*profile_, model_, num_gpus_,
                                            tokens, chunks_);
  }
  if (slots_.empty()) slots_.resize(kSlots);
  // Fibonacci hash: the top kSlotBits bits of the product.
  const size_t home = static_cast<size_t>(
      (static_cast<uint64_t>(tokens) * 0x9e3779b97f4a7c15ULL) >>
      (64 - kSlotBits));
  size_t idx = home;
  while (slots_[idx].tokens != 0) {
    if (slots_[idx].tokens == tokens) return slots_[idx].seconds;
    idx = (idx + 1) & (kSlots - 1);
  }
  // Miss. Below the fill bound the count takes the empty slot that ended
  // the probe. At the bound it replaces the occupant of its home slot,
  // which leaves the set of occupied slots — and so every other count's
  // probe chain — unchanged; when its home slot is empty it is not stored.
  const double seconds = EstimateForwardMicrobatchSeconds(
      *profile_, model_, num_gpus_, tokens, chunks_);
  ++computes_;
  if (entries_ < kMaxEntries) {
    ++entries_;
  } else if (idx == home) {
    return seconds;
  } else {
    idx = home;
  }
  slots_[idx] = Slot{tokens, seconds};
  return seconds;
}

}  // namespace flexmoe
