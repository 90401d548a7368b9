#include "baselines/static_layout.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "core/balance.h"
#include "gate/capacity.h"
#include "util/string_util.h"

namespace flexmoe {

namespace {

/// Bound on shadowed experts per layer per step (the original FasterMoE
/// limits shadows by available memory).
constexpr int kMaxShadowsPerLayer = 8;

/// What one step's admissions set aside.
struct StepAdmissions {
  int64_t dropped = 0;       ///< capacity overflow skipped (training)
  int64_t reassigned = 0;    ///< re-routed to experts the gate did not pick
  int64_t recirculated = 0;  ///< capacity overflow re-executed (serving)
  /// Serving: per-layer capacity overflow for the second forward pass.
  std::vector<Assignment> overflow;
};

/// kCapacity: keep each expert's tokens up to the capacity; drop the
/// overflow, or in serving queue it for a second forward pass.
RoutedAssignment AdmitCapacity(const Assignment& assignment,
                               double capacity_factor, bool serving,
                               const Placement& placement,
                               StepAdmissions* admitted) {
  if (capacity_factor <= 0.0) {
    return FlexibleRouter::Route(assignment, placement);
  }
  const CapacityResult capped = ApplyCapacity(assignment, capacity_factor);
  if (serving && capped.dropped > 0) {
    admitted->recirculated += capped.dropped;
    admitted->overflow.push_back(CapacityOverflow(assignment, capped.kept));
  } else {
    admitted->dropped += capped.dropped;
  }
  return FlexibleRouter::Route(capped.kept, placement);
}

/// kStrictRebalance in training: every expert gets (almost) exactly the
/// average load, the re-assigned tokens at experts the gate did not pick.
RoutedAssignment AdmitStrictRebalance(const Assignment& assignment,
                                      const Placement& placement,
                                      StepAdmissions* admitted) {
  const SwipeRebalance rb = RebalanceStrict(assignment);
  admitted->reassigned += rb.reassigned;
  return FlexibleRouter::Route(rb.balanced, placement);
}

/// FasterMoE's shadowing decision: replicate expert e iff the compute time
/// saved by processing it locally exceeds the broadcast + AllReduce
/// overhead (FasterMoE's performance-model policy). Serving drops the
/// AllReduce term and prices savings at forward FLOPs.
std::vector<int> SelectShadows(const Assignment& assignment,
                               const ModelConfig& model,
                               const HardwareProfile& profile,
                               const std::vector<GpuId>& all_gpus,
                               bool serving) {
  const int num_experts = assignment.num_experts();
  const int num_gpus = assignment.num_gpus();
  const double flops = serving ? model.expert_fwd_flops_per_token()
                               : model.expert_fwdbwd_flops_per_token();

  // Broadcast of fp16 parameters + global AllReduce of gradients: the fixed
  // price of shadowing one expert for one step.
  const double param_bytes =
      static_cast<double>(model.expert_params()) * model.param_bytes;
  const double bcast_sec =
      param_bytes / profile.BandwidthBytesPerSec(0, num_gpus > 8 ? 8 : 1) +
      profile.LatencySeconds(0, num_gpus > 8 ? 8 : 1) *
          static_cast<double>(num_gpus);
  // No backward pass in serving means no shadow-gradient AllReduce to pay.
  const double sync_sec =
      serving ? 0.0
              : profile.AllReduceSeconds(model.expert_grad_bytes(), all_gpus);
  const double shadow_cost = bcast_sec + sync_sec;

  // Shadowing relieves the bottleneck only down to the mean per-GPU load
  // (below that, other experts keep the GPUs busy anyway) — this is the
  // essence of FasterMoE's performance-model-driven policy.
  const double mean_gpu_load =
      static_cast<double>(assignment.Total()) / num_gpus;
  std::vector<std::pair<double, int>> gains;
  for (int e = 0; e < num_experts; ++e) {
    const int64_t load = assignment.ExpertTotal(e);
    if (load <= 0 || static_cast<double>(load) <= mean_gpu_load) continue;
    const double saved =
        profile.ComputeSeconds(static_cast<double>(load), flops) -
        profile.ComputeSeconds(mean_gpu_load, flops);
    const double gain = saved - shadow_cost;
    if (gain > 0.0) gains.push_back({gain, e});
  }
  // The kMaxShadowsPerLayer largest gains (ties to the lower expert id).
  const size_t keep = std::min(gains.size(), size_t{kMaxShadowsPerLayer});
  std::partial_sort(gains.begin(), gains.begin() + keep, gains.end(),
                    [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  std::vector<int> shadows;
  for (size_t i = 0; i < keep; ++i) shadows.push_back(gains[i].second);
  std::sort(shadows.begin(), shadows.end());
  return shadows;
}

/// kShadow: shadowed experts process every token at its source GPU (no
/// All-to-All); the rest route to their single home vExpert.
RoutedAssignment AdmitShadow(const Assignment& assignment,
                             const std::vector<int>& shadows,
                             const Placement& placement) {
  const int num_gpus = assignment.num_gpus();
  Assignment homed = assignment;
  for (int e : shadows) std::fill_n(homed.mutable_row(e), num_gpus, 0);
  RoutedAssignment r = FlexibleRouter::Route(homed, placement);
  for (int e : shadows) {
    const int64_t* counts = assignment.row(e);
    int64_t* expert_row = r.expert_gpu_tokens.row(e);
    for (int g = 0; g < num_gpus; ++g) {
      expert_row[g] += counts[g];
      r.dispatch(g, g) += counts[g];
    }
  }
  return r;
}

}  // namespace

std::optional<StaticAdmission> StaticAdmissionFor(const std::string& key) {
  const std::string k = ToLower(key);
  if (k == "deepspeed") return StaticAdmission::kCapacity;
  if (k == "swipe") return StaticAdmission::kStrictRebalance;
  if (k == "fastermoe") return StaticAdmission::kShadow;
  return std::nullopt;
}

Status StaticLayoutOptions::Validate() const {
  FLEXMOE_RETURN_IF_ERROR(model.Validate());
  if (num_gpus <= 0) return Status::InvalidArgument("num_gpus <= 0");
  if (!std::isfinite(capacity_factor)) {
    return Status::InvalidArgument("capacity_factor must be finite");
  }
  FLEXMOE_RETURN_IF_ERROR(pipeline.Validate());
  return Status::OK();
}

SwipeRebalance RebalanceStrict(const Assignment& assignment) {
  const int num_experts = assignment.num_experts();
  const int num_gpus = assignment.num_gpus();
  const int64_t total = assignment.Total();
  const int64_t cap = (total + num_experts - 1) / num_experts;

  SwipeRebalance result;
  result.balanced = Assignment(num_experts, num_gpus);

  // Keep up to cap per expert (proportionally by source GPU), collect the
  // per-GPU overflow to redistribute, and note each expert's room below
  // the uniform cap.
  std::vector<int64_t> room(static_cast<size_t>(num_experts), 0);
  std::vector<int64_t> overflow_per_gpu(static_cast<size_t>(num_gpus), 0);
  for (int e = 0; e < num_experts; ++e) {
    const int64_t load = assignment.ExpertTotal(e);
    room[static_cast<size_t>(e)] = std::max<int64_t>(0, cap - load);
    if (load <= cap) {
      std::copy_n(assignment.row(e), num_gpus, result.balanced.mutable_row(e));
      continue;
    }
    int64_t to_keep = cap;
    for (int g = 0; g < num_gpus; ++g) {
      const int64_t here = assignment.at(e, g);
      const int64_t keep = std::min(
          here, static_cast<int64_t>(static_cast<double>(here) *
                                     static_cast<double>(cap) /
                                     static_cast<double>(load)));
      result.balanced.add(e, g, keep);
      to_keep -= keep;
      overflow_per_gpu[static_cast<size_t>(g)] += here - keep;
    }
    // Rounding slack: keep a few more tokens (they are not re-assigned).
    for (int g = 0; g < num_gpus && to_keep > 0; ++g) {
      const int64_t extra =
          std::min(to_keep, overflow_per_gpu[static_cast<size_t>(g)]);
      if (extra > 0) {
        result.balanced.add(e, g, extra);
        overflow_per_gpu[static_cast<size_t>(g)] -= extra;
        to_keep -= extra;
      }
    }
  }

  // Re-assign each GPU's overflow to experts with room (round-robin over
  // experts, deterministic).
  int e_cursor = 0;
  for (int g = 0; g < num_gpus; ++g) {
    int64_t pending = overflow_per_gpu[static_cast<size_t>(g)];
    result.reassigned += pending;
    int scanned = 0;
    while (pending > 0 && scanned <= num_experts) {
      const int e = e_cursor;
      e_cursor = (e_cursor + 1) % num_experts;
      ++scanned;
      int64_t& r = room[static_cast<size_t>(e)];
      if (r <= 0) continue;
      const int64_t take = std::min(pending, r);
      result.balanced.add(e, g, take);
      r -= take;
      pending -= take;
      scanned = 0;
    }
    // Anything truly unplaceable (cap rounding) returns to its own expert:
    // arbitrarily give it to expert 0 on this GPU; negligible counts.
    if (pending > 0) result.balanced.add(0, g, pending);
  }
  return result;
}

Result<Placement> FixedExpertParallelPlacement(int num_experts,
                                               int num_gpus) {
  PlacementOptions popt;
  popt.num_experts = num_experts;
  popt.num_gpus = num_gpus;
  popt.slots_per_gpu = std::max(1, (num_experts + num_gpus - 1) / num_gpus);
  FLEXMOE_RETURN_IF_ERROR(popt.Validate());
  // Build directly instead of Placement::ExpertParallel: baselines hold
  // exactly ONE vExpert per expert (no packing, no replicas).
  Placement p = *Placement::ExpertParallel(popt);
  for (int e = 0; e < num_experts; ++e) {
    const std::vector<GpuId> hosts = p.HostGpus(e);
    FLEXMOE_CHECK(hosts.size() == 1);
    while (p.VExpertsOn(e, hosts[0]) > 1) {
      FLEXMOE_RETURN_IF_ERROR(p.RemoveVExpert(e, hosts[0]));
    }
  }
  FLEXMOE_RETURN_IF_ERROR(p.Validate());
  return p;
}

Result<std::unique_ptr<StaticLayoutSystem>> StaticLayoutSystem::Create(
    const StaticLayoutOptions& options, const Topology* topo,
    const HardwareProfile* profile) {
  FLEXMOE_RETURN_IF_ERROR(CheckCreate(options, topo, profile));
  FLEXMOE_ASSIGN_OR_RETURN(
      Placement placement,
      FixedExpertParallelPlacement(options.model.num_experts,
                                   options.num_gpus));
  return std::unique_ptr<StaticLayoutSystem>(
      new StaticLayoutSystem(options, topo, profile, std::move(placement)));
}

StaticLayoutSystem::StaticLayoutSystem(const StaticLayoutOptions& options,
                                       const Topology* topo,
                                       const HardwareProfile* profile,
                                       Placement placement)
    : SystemFrame(topo, profile, options.model, RepairMode::kRestart,
                  options.pipeline),
      options_(options),
      placement_(std::move(placement)) {}

std::string StaticLayoutSystem::name() const {
  // Indexed by StaticAdmission.
  static const char* const kNames[] = {"DeepSpeed", "SWIPE", "FasterMoE"};
  return kNames[static_cast<int>(options_.admission)];
}

StepMetrics StaticLayoutSystem::Step(
    const std::vector<Assignment>& layer_assignments, bool serving) {
  const int num_layers = static_cast<int>(layer_assignments.size());
  StepMetrics metrics;
  const Boundary boundary = OpenStep(&placement_, 1, nullptr, &metrics);
  ChargeBoundary(boundary);
  std::vector<Assignment> resharded;
  const std::vector<Assignment>& assignments =
      Reshard(layer_assignments, &resharded, &metrics);

  // A served response cannot use a wrong expert's output: SWIPE serves by
  // capping every expert at the uniform average (RebalanceStrict's cap)
  // and recirculating the overflow, i.e. as DeepSpeed at factor 1.0.
  const bool swipe_serving =
      serving && options_.admission == StaticAdmission::kStrictRebalance;
  const StaticAdmission admission =
      swipe_serving ? StaticAdmission::kCapacity : options_.admission;
  const double capacity_factor =
      swipe_serving ? 1.0 : options_.capacity_factor;
  std::vector<GpuId> all_gpus(static_cast<size_t>(options_.num_gpus));
  std::iota(all_gpus.begin(), all_gpus.end(), 0);

  StepAdmissions admitted;
  double balance_sum = 0.0;
  last_shadows_.assign(static_cast<size_t>(num_layers), {});
  std::vector<RoutedAssignment> routed;
  routed.reserve(static_cast<size_t>(serving ? 2 * num_layers : num_layers));
  for (int l = 0; l < num_layers; ++l) {
    metrics.tokens_total += layer_assignments[static_cast<size_t>(l)].Total();
    const Assignment& assignment = assignments[static_cast<size_t>(l)];
    std::vector<int>& shadows = last_shadows_[static_cast<size_t>(l)];
    switch (admission) {
      case StaticAdmission::kCapacity:
        routed.push_back(AdmitCapacity(assignment, capacity_factor, serving,
                                       placement_, &admitted));
        break;
      case StaticAdmission::kStrictRebalance:
        routed.push_back(
            AdmitStrictRebalance(assignment, placement_, &admitted));
        break;
      case StaticAdmission::kShadow:
        shadows = SelectShadows(assignment, options_.model, *profile_,
                                all_gpus, serving);
        routed.push_back(AdmitShadow(assignment, shadows, placement_));
        break;
    }
    balance_sum += BalanceRatio(routed.back().PerGpuComputeLoads());
  }
  for (const Assignment& extra : admitted.overflow) {
    if (extra.Total() > 0) {
      routed.push_back(FlexibleRouter::Route(extra, placement_));
    }
  }

  // Each shadow costs a parameter broadcast from its home GPU and, in
  // training, a global shadow-gradient AllReduce.
  const double param_bytes = static_cast<double>(
      options_.model.expert_params()) * options_.model.param_bytes;
  std::vector<LayerWork> work(routed.size());
  for (size_t l = 0; l < routed.size(); ++l) {
    work[l].routed = &routed[l];
    work[l].placement = &placement_;  // no replicas, so no replica sync
    if (l >= last_shadows_.size()) continue;  // recirculation pass
    for (int e : last_shadows_[l]) {
      work[l].broadcasts.push_back(
          {placement_.HostGpus(e).front(), param_bytes});
      if (!serving) work[l].extra_sync_groups.push_back(all_gpus);
    }
  }
  const StepTiming timing = serving ? step_executor_.ExecuteForward(work)
                                    : step_executor_.ExecuteStep(work, nullptr);

  metrics.balance_ratio = balance_sum / num_layers;
  metrics.tokens_dropped += admitted.dropped;
  metrics.tokens_recirculated = admitted.recirculated;
  // Re-assigned tokens ARE processed (expert efficiency is high) but by the
  // wrong experts, so they count against token efficiency like drops do —
  // Figure 7(a)'s trade-off.
  return CloseStep(timing, boundary.blocking, admitted.reassigned, serving,
                   &metrics);
}

}  // namespace flexmoe
