#include "core/policy_maker.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <set>

#include "core/balance.h"

namespace flexmoe {

namespace {

/// Relative margin of the pruning test: 8 ulps. pow is accurate to well
/// under 2 ulps, so with pow's error on both the bound and the candidate's
/// score, plus the rounding of best_score * (1 + margin), a bound above the
/// threshold still proves score > best_score.
constexpr double kPruneMargin = 8 * std::numeric_limits<double>::epsilon();

}  // namespace

Status PolicyMakerOptions::Validate() const {
  if (!std::isfinite(min_improvement_frac) || min_improvement_frac < 0.0 ||
      min_improvement_frac >= 1.0) {
    return Status::InvalidArgument("min_improvement_frac out of range");
  }
  return Status::OK();
}

PolicyMaker::PolicyMaker(const CostModel* cost_model,
                         const PolicyMakerOptions& options)
    : cost_model_(cost_model), options_(options) {
  FLEXMOE_CHECK(cost_model != nullptr);
  FLEXMOE_CHECK_OK(options.Validate());
}

bool PolicyMaker::Expandable(GpuId g) const {
  return health_ == nullptr ||
         health_->state(g) == DeviceState::kHealthy;
}

std::vector<ModOp> PolicyMaker::MakeSchedulingPlan(
    const Assignment& assignment, const Placement& placement,
    PlanSearchStats* stats) const {
  LayerCostState state(cost_model_,
                       /*include_sync=*/!options_.serve_objective);
  state.Reset(assignment, placement);
  return PlanOnState(&state, stats);
}

std::vector<ModOp> PolicyMaker::PlanOnState(LayerCostState* state,
                                            PlanSearchStats* stats) const {
  PlanSearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = PlanSearchStats();
  FLEXMOE_CHECK(state != nullptr && state->initialized());
  FLEXMOE_CHECK(state->include_sync() == !options_.serve_objective);
  const Assignment& assignment = state->assignment();
  // Mutated (and restored) by every Apply/Undo below — reads that must
  // see the incumbent placement happen only at entry depth.
  const Placement& placement = state->placement();
  const double score0 = state->Score();
  stats->score_before = score0;
  stats->best_score = score0;
  // Snapshots: Apply rewrites the state's caches in place, while the
  // candidate orderings below are defined against the incumbent.
  const std::vector<double> caps = state->vexpert_capacities();
  const std::vector<int64_t> gpu_loads = state->per_gpu_compute_tokens();

  // Hot candidates: the top-k experts by per-vExpert capacity (Alg. 2
  // line 6 takes only the argmax; evaluating a few near-ties avoids
  // stalls when two hot experts bottleneck different GPUs).
  std::vector<int> order(static_cast<size_t>(assignment.num_experts()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return caps[static_cast<size_t>(a)] > caps[static_cast<size_t>(b)];
  });
  const int hot_count =
      std::min(kMaxHotCandidates, static_cast<int>(order.size()));

  double best_score = std::numeric_limits<double>::infinity();
  int best_hot = -1, best_cold = -1;
  GpuId best_shrink = -1, best_dst = -1;

  // Cold candidates: the coldest shrinkable experts (bottom-k by capacity).
  // The paper takes only the argmin; a few candidates diversify the freed
  // slots across GPUs, which matters once all slots are occupied.
  std::vector<int> cold_candidates;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (placement.VExperts(*it) >= 2) cold_candidates.push_back(*it);
    if (static_cast<int>(cold_candidates.size()) >= kMaxHotCandidates) {
      break;
    }
  }
  if (cold_candidates.empty()) return {};

  // Hot experts with tokens, hottest first (the first token-less expert
  // ends the list: nothing colder can be worth expanding).
  std::vector<int> hots;
  for (int hi = 0; hi < hot_count; ++hi) {
    const int hot = order[static_cast<size_t>(hi)];
    if (assignment.ExpertTotal(hot) == 0) break;
    hots.push_back(hot);
  }

  // Nodes already hosting each hot expert: expanding there keeps the
  // replica group node-local, whose AllReduce is an order of magnitude
  // cheaper than a cross-node group (NVLink vs IB ring bottleneck). Read
  // at entry depth; the shrinks below touch only cold experts, and cold
  // != hot for every candidate, so the hot experts' hosts never change.
  const Topology& topo = cost_model_->profile().topology();
  std::vector<std::set<NodeId>> hot_nodes(hots.size());
  for (size_t hi = 0; hi < hots.size(); ++hi) {
    for (GpuId h : placement.HostGpus(hots[hi])) {
      hot_nodes[hi].insert(topo.NodeOf(h));
    }
  }

  // The search visits (cold, shrink) pairs in the outer loops so each
  // shrink is applied once and shared by every hot expert's expands. The
  // result is defined by the (hot, cold, shrink, dst) order, though: the
  // winner is the lowest score, ties going to the candidate first in that
  // order. Comparing (score, order key) lexicographically keeps the
  // winner identical whatever the visiting order. Candidate placements
  // differ from the incumbent only in experts `hot` and `cold`, and every
  // expert routes independently (Alg. 3 state is per-expert) — so the
  // state's Apply/Undo evaluates a candidate in O(Δ) with no placement or
  // routing copies at all, integer-exact, hence bit-identical to a
  // from-scratch route + Eq. 5.
  using OrderKey = std::array<size_t, 4>;  // (hot, cold, shrink, dst)
  OrderKey best_key{};
  std::vector<GpuId> free_gpus;
  std::vector<GpuId> candidates;
  for (size_t ci = 0; ci < cold_candidates.size(); ++ci) {
    const int cold = cold_candidates[ci];
    // The shrink is worth applying only if some hot expert can use it.
    if (hots.empty() || (hots.size() == 1 && hots[0] == cold)) continue;

    // Shrink-host candidates: hosts of the cold expert, least-loaded
    // first (the freed slot usually becomes the hot expert's new home).
    std::vector<GpuId> shrink_candidates;
    for (const auto& [gpu, count] : placement.Replicas(cold)) {
      shrink_candidates.push_back(gpu);
    }
    std::sort(shrink_candidates.begin(), shrink_candidates.end(),
              [&](GpuId a, GpuId b) {
                // Replicas on degraded devices go first — shrinking them
                // is the cheap half of migrate-away.
                const bool da = !Expandable(a);
                const bool db = !Expandable(b);
                if (da != db) return da;
                return gpu_loads[static_cast<size_t>(a)] <
                       gpu_loads[static_cast<size_t>(b)];
              });
    constexpr size_t kMaxShrinkCandidates = 2;
    if (shrink_candidates.size() > kMaxShrinkCandidates) {
      shrink_candidates.resize(kMaxShrinkCandidates);
    }

    for (size_t si = 0; si < shrink_candidates.size(); ++si) {
      const GpuId shrink_gpu = shrink_candidates[si];
      if (!state->Apply(MakeShrink(cold, shrink_gpu))) continue;

      // Expand destinations: GPUs with a free slot. `placement` reflects
      // the shrink here — exactly the after_shrink view.
      free_gpus.clear();
      for (GpuId g = 0; g < placement.num_gpus(); ++g) {
        if (placement.FreeSlots(g) > 0 && Expandable(g)) {
          free_gpus.push_back(g);
        }
      }
      for (size_t hi = 0; hi < hots.size(); ++hi) {
        const int hot = hots[hi];
        if (hot == cold) continue;
        const std::set<NodeId>& local_nodes = hot_nodes[hi];

        // Node-local to the hot expert's replicas first, then cheapest
        // loads.
        candidates = free_gpus;
        std::sort(candidates.begin(), candidates.end(),
                  [&](GpuId a, GpuId b) {
                    const bool la = local_nodes.count(topo.NodeOf(a)) > 0;
                    const bool lb = local_nodes.count(topo.NodeOf(b)) > 0;
                    if (la != lb) return la;
                    return gpu_loads[static_cast<size_t>(a)] <
                           gpu_loads[static_cast<size_t>(b)];
                  });
        if (options_.max_expand_candidates > 0 &&
            static_cast<int>(candidates.size()) >
                options_.max_expand_candidates) {
          candidates.resize(
              static_cast<size_t>(options_.max_expand_candidates));
        }
        for (size_t di = 0; di < candidates.size(); ++di) {
          const GpuId dst = candidates[di];
          const ModOp expand = MakeExpand(hot, /*copy_from=*/-1, dst);
          if (!state->CanApply(expand)) continue;
          ++stats->candidates_evaluated;
          // Exact pruning: the GPUs the expand cannot touch keep their
          // totals bitwise, so their 8-norm is a lower bound on the
          // candidate's score. Beyond the incumbent by more than pow's
          // error, the candidate can never be adopted (only a score at or
          // below the incumbent's is), and skipping it changes nothing.
          if (state->ExpandScoreLowerBound(hot, dst) >
              best_score * (1.0 + kPruneMargin)) {
            ++stats->candidates_pruned;
            continue;
          }
          // Mutate-undo on the incremental state: O(Δ) per candidate.
          FLEXMOE_CHECK(state->Apply(expand));
          const double score = state->Score();
          state->Undo();
          const OrderKey key{hi, ci, si, di};
          if (score < best_score ||
              (best_dst >= 0 && score == best_score && key < best_key)) {
            best_score = score;
            best_key = key;
            best_hot = hot;
            best_cold = cold;
            best_shrink = shrink_gpu;
            best_dst = dst;
          }
        }
      }
      state->Undo();  // the shrink — back to entry depth
    }
  }
  if (best_dst >= 0) stats->best_score = best_score;
  if (best_dst < 0) return {};
  if (best_score >= score0 * (1.0 - options_.min_improvement_frac)) return {};

  // Expand copy source: free when dst already hosts the expert; otherwise
  // the closest existing replica (same node preferred). Dead devices can
  // never be the source — their state is lost (an orphaned expert's only
  // replica on a dead device means no expand can be planned at all).
  // Queried on the incumbent placement: the winning shrink touches only
  // best_cold, and best_cold != best_hot, so best_hot's replicas are
  // identical before and after the shrink.
  GpuId copy_src = -1;
  if (placement.VExpertsOn(best_hot, best_dst) == 0) {
    std::vector<GpuId> hosts = placement.HostGpus(best_hot);
    if (health_ != nullptr) {
      hosts.erase(std::remove_if(hosts.begin(), hosts.end(),
                                 [this](GpuId h) { return !health_->alive(h); }),
                  hosts.end());
    }
    if (hosts.empty()) return {};
    copy_src = hosts.front();
    for (GpuId h : hosts) {
      if (topo.SameNode(h, best_dst)) {
        copy_src = h;
        break;
      }
    }
  }

  // Dependency order: the Shrink may free the very slot the Expand uses.
  stats->accepted = true;
  return {MakeShrink(best_cold, best_shrink),
          MakeExpand(best_hot, copy_src, best_dst)};
}

double PolicyMaker::TotalSyncSeconds(const Placement& placement) const {
  double total = 0.0;
  for (int e = 0; e < placement.num_experts(); ++e) {
    total += cost_model_->SyncSeconds(placement, e);
  }
  return total;
}

std::vector<ModOp> PolicyMaker::PlanEvacuation(const Placement& placement,
                                               int max_moves) const {
  std::vector<ModOp> plan;
  if (health_ == nullptr || max_moves <= 0) return plan;
  Placement current = placement;
  const Topology& topo = cost_model_->profile().topology();

  for (GpuId g = 0; g < current.num_gpus(); ++g) {
    if (health_->state(g) != DeviceState::kDegraded) continue;
    for (const int e : current.ExpertsOn(g)) {
      if (static_cast<int>(plan.size()) >= max_moves) return plan;
      const int here = current.VExpertsOn(e, g);
      if (current.VExperts(e) > here) {
        // Capacity exists elsewhere: release the straggler's replicas.
        for (int i = 0; i < here && current.VExperts(e) > 1; ++i) {
          const ModOp op = MakeShrink(e, g);
          if (!ApplyOp(op, &current).ok()) break;
          plan.push_back(op);
          if (static_cast<int>(plan.size()) >= max_moves) return plan;
        }
      } else {
        // Sole host is the straggler: copy the expert to a healthy device
        // (same node preferred); the straggler-side shrink follows on a
        // later trigger, once the copy is live.
        GpuId dst = -1;
        auto usable = [&](GpuId cand) {
          return cand != g && Expandable(cand) && current.FreeSlots(cand) > 0;
        };
        for (GpuId cand : topo.GpusOnNode(topo.NodeOf(g))) {
          if (usable(cand)) {
            dst = cand;
            break;
          }
        }
        for (GpuId cand = 0; dst < 0 && cand < current.num_gpus(); ++cand) {
          if (usable(cand)) dst = cand;
        }
        if (dst < 0) {
          // Fully packed cluster: free a slot by un-packing a healthy
          // device's multi-vExpert resident (weight-shared copies, so the
          // shrink costs nothing and loses no expert). The unpack only
          // makes sense together with the Expand that uses the freed slot,
          // so require room for the pair.
          if (static_cast<int>(plan.size()) + 2 > max_moves) return plan;
          for (GpuId cand = 0; dst < 0 && cand < current.num_gpus(); ++cand) {
            if (cand == g || !Expandable(cand)) continue;
            for (const int x : current.ExpertsOn(cand)) {
              if (x != e && current.VExpertsOn(x, cand) >= 2) {
                const ModOp unpack = MakeShrink(x, cand);
                if (!ApplyOp(unpack, &current).ok()) continue;
                plan.push_back(unpack);
                dst = cand;
                break;
              }
            }
          }
        }
        if (dst < 0) continue;
        const ModOp op = MakeExpand(e, g, dst);
        if (!ApplyOp(op, &current).ok()) continue;
        plan.push_back(op);
      }
    }
  }
  return plan;
}

std::vector<ModOp> PolicyMaker::PlanMigrations(const Placement& placement,
                                               int max_moves) const {
  std::vector<ModOp> plan;
  Placement current = placement;
  const Topology& topo = cost_model_->profile().topology();

  // Per-expert Eq. 9 cache: a candidate Migrate touches exactly two
  // experts, so its trial total substitutes two recomputed entries instead
  // of re-deriving all E AllReduce groups per candidate. The total is
  // always re-summed left-to-right over the full expert range, so every
  // value equals a from-scratch TotalSyncSeconds of the same placement
  // bitwise.
  std::vector<double> sync(static_cast<size_t>(current.num_experts()), 0.0);
  for (int e = 0; e < current.num_experts(); ++e) {
    sync[static_cast<size_t>(e)] = cost_model_->SyncSeconds(current, e);
  }
  const auto total_substituting = [&](int e1, double s1, int e2, double s2) {
    double total = 0.0;
    for (int e = 0; e < current.num_experts(); ++e) {
      if (e == e1) {
        total += s1;
      } else if (e == e2) {
        total += s2;
      } else {
        total += sync[static_cast<size_t>(e)];
      }
    }
    return total;
  };

  // Every candidate below is applied and reverted exactly (replica lists
  // stay gpu-ascending), so within a move `current` always equals the
  // move's starting placement. A GPU's hosted experts are therefore read
  // once per GPU on demand and kept across moves; only the two GPUs an
  // accepted swap touches are re-read.
  std::vector<std::vector<int>> experts_on(
      static_cast<size_t>(current.num_gpus()));
  std::vector<char> experts_on_valid(static_cast<size_t>(current.num_gpus()),
                                     0);
  std::vector<int> node_vexperts(static_cast<size_t>(topo.num_nodes()), 0);
  std::vector<GpuId> hosts;

  for (int move = 0; move < max_moves; ++move) {
    const double base = total_substituting(-1, 0.0, -1, 0.0);
    double best_gain = kMinMigrationGainSec;
    ModOp best_op;
    bool found = false;

    for (int e = 0; e < current.num_experts(); ++e) {
      const ReplicaList& replicas = current.Replicas(e);
      if (replicas.size() < 2) continue;
      // `hosts` is a copy: the candidates below rewrite e's replica list.
      hosts.clear();
      int spanned = 0;
      for (const auto& [gpu, count] : replicas) {
        hosts.push_back(gpu);
        int& on_node = node_vexperts[static_cast<size_t>(topo.NodeOf(gpu))];
        if (on_node == 0) ++spanned;
        on_node += count;
      }
      // Majority node: the node carrying most of e's vExperts, the lowest
      // id among ties.
      NodeId major = -1;
      int major_count = 0;
      for (const GpuId gpu : hosts) {
        const NodeId node = topo.NodeOf(gpu);
        const int count = node_vexperts[static_cast<size_t>(node)];
        if (count > major_count || (count == major_count && node < major)) {
          major = node;
          major_count = count;
        }
      }
      for (const GpuId gpu : hosts) {
        node_vexperts[static_cast<size_t>(topo.NodeOf(gpu))] = 0;
      }
      if (spanned < 2) continue;

      const std::vector<GpuId> major_gpus = topo.GpusOnNode(major);
      for (GpuId lonely : hosts) {
        if (topo.NodeOf(lonely) == major) continue;
        // Try to pull e's off-node replica onto the majority node by
        // swapping with a vExpert already there.
        for (GpuId target : major_gpus) {
          if (!Expandable(target)) continue;
          std::vector<int>& partners =
              experts_on[static_cast<size_t>(target)];
          if (!experts_on_valid[static_cast<size_t>(target)]) {
            partners = current.ExpertsOn(target);
            experts_on_valid[static_cast<size_t>(target)] = 1;
          }
          // Swapping onto a GPU that already hosts e just packs — still
          // useful, because it dissolves `lonely` from the replica group.
          for (int partner : partners) {
            if (partner == e) continue;
            // ApplyOp's one failure on these swaps: e sits on `lonely` and
            // partner on `target`, different GPUs, and e has two hosts, so
            // the swap fails exactly when it would take partner's last
            // vExpert. Checked first, the infeasible candidate costs no
            // failed ApplyOp.
            if (current.VExperts(partner) < 2) continue;
            // Mutate-undo instead of copying the placement per candidate
            // (an O(E x G) copy at large EP): apply, score the two touched
            // experts, revert with the inverse swap.
            const ModOp op = MakeMigrate(e, lonely, partner, target);
            FLEXMOE_CHECK_OK(ApplyOp(op, &current));
            const double gain =
                base - total_substituting(
                           e, cost_model_->SyncSeconds(current, e), partner,
                           cost_model_->SyncSeconds(current, partner));
            FLEXMOE_CHECK_OK(
                ApplyOp(MakeMigrate(e, target, partner, lonely), &current));
            if (gain > best_gain) {
              best_gain = gain;
              best_op = op;
              found = true;
            }
          }
        }
      }
    }
    if (!found) break;
    FLEXMOE_CHECK_OK(ApplyOp(best_op, &current));
    experts_on_valid[static_cast<size_t>(best_op.src)] = 0;
    experts_on_valid[static_cast<size_t>(best_op.dst)] = 0;
    sync[static_cast<size_t>(best_op.expert)] =
        cost_model_->SyncSeconds(current, best_op.expert);
    sync[static_cast<size_t>(best_op.partner_expert)] =
        cost_model_->SyncSeconds(current, best_op.partner_expert);
    plan.push_back(best_op);
  }
  return plan;
}

}  // namespace flexmoe
