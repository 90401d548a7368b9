// Differential pin for the incremental planner core (DESIGN.md Section 10):
// the pre-incremental Policy Maker — reproduced below verbatim as a
// reference implementation, full re-route + from-scratch Eq. 5 evaluation
// per candidate — must emit byte-identical op sequences and search stats to
// PolicyMaker::MakeSchedulingPlan / PlanOnState / PlanMigrations at small G,
// across the workload scenario catalog, both objectives, and degraded /
// dead-device health masks. Any FP- or ordering-level divergence in the
// LayerCostState rewrite shows up here as a mismatched plan. A second
// reference, the mutate-undo ApplyOp loop PlanMigrations ran before its
// feasibility check, pins PlanMigrations on random placements.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "core/balance.h"
#include "core/policy_maker.h"
#include "core/scheduler.h"
#include "elastic/fault_plan.h"
#include "gate/trace_generator.h"
#include "test_env.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

// --------------------------------------------------------------------------
// Reference implementation: the planner as it stood before the incremental
// rewrite (one full route + estimate per candidate, placement copies).
// Deliberately NOT shared with production code — the duplication is the
// point of a differential test.
// --------------------------------------------------------------------------

class ReferencePlanner {
 public:
  ReferencePlanner(const CostModel* cost_model,
                   const PolicyMakerOptions& options)
      : cost_model_(cost_model), options_(options) {}

  void SetClusterHealth(const ClusterHealth* health) { health_ = health; }

  std::vector<ModOp> MakeSchedulingPlan(const Assignment& assignment,
                                        const Placement& placement,
                                        PlanSearchStats* stats) const {
    *stats = PlanSearchStats();
    const RoutedAssignment routed =
        FlexibleRouter::Route(assignment, placement);
    const bool include_sync = !options_.serve_objective;
    const LayerCostEstimate est0 =
        cost_model_->EstimateLayer(routed, placement, include_sync);
    const double score0 = PlanScore(est0);
    stats->score_before = score0;
    stats->best_score = score0;
    std::vector<double> caps(static_cast<size_t>(assignment.num_experts()));
    for (int e = 0; e < assignment.num_experts(); ++e) {
      caps[static_cast<size_t>(e)] =
          static_cast<double>(assignment.ExpertTotal(e)) /
          static_cast<double>(placement.VExperts(e));
    }
    const std::vector<int64_t> gpu_loads = routed.PerGpuComputeTokens();

    std::vector<int> order(static_cast<size_t>(assignment.num_experts()));
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return caps[static_cast<size_t>(a)] > caps[static_cast<size_t>(b)];
    });
    const int hot_count = std::min(PolicyMaker::kMaxHotCandidates,
                                   static_cast<int>(order.size()));

    double best_score = std::numeric_limits<double>::infinity();
    int best_hot = -1, best_cold = -1;
    GpuId best_shrink = -1, best_dst = -1;

    std::vector<int> cold_candidates;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      if (placement.VExperts(*it) >= 2) cold_candidates.push_back(*it);
      if (static_cast<int>(cold_candidates.size()) >=
          PolicyMaker::kMaxHotCandidates) {
        break;
      }
    }
    if (cold_candidates.empty()) return {};

    for (int hi = 0; hi < hot_count; ++hi) {
      const int hot = order[static_cast<size_t>(hi)];
      if (assignment.ExpertTotal(hot) == 0) break;

      for (int cold : cold_candidates) {
        if (cold == hot) continue;

        std::vector<GpuId> shrink_candidates;
        for (const auto& [gpu, count] : placement.Replicas(cold)) {
          shrink_candidates.push_back(gpu);
        }
        std::sort(shrink_candidates.begin(), shrink_candidates.end(),
                  [&](GpuId a, GpuId b) {
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

        const Topology& topo = cost_model_->profile().topology();
        std::set<NodeId> hot_nodes;
        for (GpuId h : placement.HostGpus(hot)) {
          hot_nodes.insert(topo.NodeOf(h));
        }

        for (GpuId shrink_gpu : shrink_candidates) {
          Placement after_shrink = placement;
          if (!after_shrink.RemoveVExpert(cold, shrink_gpu).ok()) continue;

          std::vector<GpuId> candidates;
          for (GpuId g = 0; g < placement.num_gpus(); ++g) {
            if (after_shrink.FreeSlots(g) > 0 && Expandable(g)) {
              candidates.push_back(g);
            }
          }
          std::sort(candidates.begin(), candidates.end(),
                    [&](GpuId a, GpuId b) {
                      const bool la = hot_nodes.count(topo.NodeOf(a)) > 0;
                      const bool lb = hot_nodes.count(topo.NodeOf(b)) > 0;
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
          for (GpuId dst : candidates) {
            if (!after_shrink.AddVExpert(hot, dst).ok()) continue;
            const double score = PlanScore(cost_model_->EstimateLayer(
                FlexibleRouter::Route(assignment, after_shrink), after_shrink,
                include_sync));
            ++stats->candidates_evaluated;
            EXPECT_TRUE(after_shrink.RemoveVExpert(hot, dst).ok());
            if (score < best_score) {
              best_score = score;
              best_hot = hot;
              best_cold = cold;
              best_shrink = shrink_gpu;
              best_dst = dst;
            }
          }
        }
      }
    }
    if (best_dst >= 0) stats->best_score = best_score;
    if (best_dst < 0) return {};
    if (best_score >= score0 * (1.0 - options_.min_improvement_frac)) {
      return {};
    }

    Placement after_shrink = placement;
    EXPECT_TRUE(after_shrink.RemoveVExpert(best_cold, best_shrink).ok());
    GpuId copy_src = -1;
    if (after_shrink.VExpertsOn(best_hot, best_dst) == 0) {
      std::vector<GpuId> hosts = after_shrink.HostGpus(best_hot);
      if (health_ != nullptr) {
        hosts.erase(
            std::remove_if(hosts.begin(), hosts.end(),
                           [this](GpuId h) { return !health_->alive(h); }),
            hosts.end());
      }
      if (hosts.empty()) return {};
      copy_src = hosts.front();
      const Topology& topo = cost_model_->profile().topology();
      for (GpuId h : hosts) {
        if (topo.SameNode(h, best_dst)) {
          copy_src = h;
          break;
        }
      }
    }

    stats->accepted = true;
    return {MakeShrink(best_cold, best_shrink),
            MakeExpand(best_hot, copy_src, best_dst)};
  }

  std::vector<ModOp> PlanMigrations(const Placement& placement,
                                    int max_moves) const {
    std::vector<ModOp> plan;
    Placement current = placement;
    const Topology& topo = cost_model_->profile().topology();

    for (int move = 0; move < max_moves; ++move) {
      const double base = TotalSyncSeconds(current);
      double best_gain = PolicyMaker::kMinMigrationGainSec;
      ModOp best_op;
      bool found = false;

      for (int e = 0; e < current.num_experts(); ++e) {
        const std::vector<GpuId> hosts = current.HostGpus(e);
        if (hosts.size() < 2 || topo.NodesSpanned(hosts) < 2) continue;

        std::map<NodeId, int> per_node;
        for (const auto& [gpu, count] : current.Replicas(e)) {
          per_node[topo.NodeOf(gpu)] += count;
        }
        NodeId major = per_node.begin()->first;
        for (const auto& [node, count] : per_node) {
          if (count > per_node[major]) major = node;
        }

        for (GpuId lonely : hosts) {
          if (topo.NodeOf(lonely) == major) continue;
          for (GpuId target : topo.GpusOnNode(major)) {
            if (!Expandable(target)) continue;
            for (int partner : current.ExpertsOn(target)) {
              if (partner == e) continue;
              Placement trial = current;
              const ModOp op = MakeMigrate(e, lonely, partner, target);
              if (!ApplyOp(op, &trial).ok()) continue;
              const double gain = base - TotalSyncSeconds(trial);
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
      EXPECT_TRUE(ApplyOp(best_op, &current).ok());
      plan.push_back(best_op);
    }
    return plan;
  }

 private:
  static double PlanScore(const LayerCostEstimate& est) {
    double acc = 0.0;
    for (double v : est.per_gpu_seconds) {
      const double v2 = v * v;
      const double v4 = v2 * v2;
      acc += v4 * v4;
    }
    return std::pow(acc, 1.0 / 8.0);
  }

  double TotalSyncSeconds(const Placement& placement) const {
    double total = 0.0;
    for (int e = 0; e < placement.num_experts(); ++e) {
      total += cost_model_->SyncSeconds(placement, e);
    }
    return total;
  }

  bool Expandable(GpuId g) const {
    return health_ == nullptr || health_->state(g) == DeviceState::kHealthy;
  }

  const CostModel* cost_model_;
  PolicyMakerOptions options_;
  const ClusterHealth* health_ = nullptr;
};

// --------------------------------------------------------------------------
// Harness
// --------------------------------------------------------------------------

void ExpectSameOps(const std::vector<ModOp>& got,
                   const std::vector<ModOp>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].type, want[i].type) << got[i].ToString();
    EXPECT_EQ(got[i].expert, want[i].expert) << got[i].ToString();
    EXPECT_EQ(got[i].src, want[i].src) << got[i].ToString();
    EXPECT_EQ(got[i].dst, want[i].dst) << got[i].ToString();
    EXPECT_EQ(got[i].partner_expert, want[i].partner_expert)
        << got[i].ToString();
  }
}

Placement StartPlacement(int experts, int gpus, int slots) {
  PlacementOptions o;
  o.num_experts = experts;
  o.num_gpus = gpus;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

TraceGeneratorOptions WorkloadOptions(const std::string& scenario,
                                      int experts, int gpus) {
  TraceGeneratorOptions o;
  o.num_experts = experts;
  o.num_moe_layers = 1;
  o.num_gpus = gpus;
  o.tokens_per_gpu = 2048;
  o.seed = 17;
  o.scenario.name = scenario;
  return o;
}

/// Walks `steps` workload steps: at each, both planners plan against the
/// SAME placement; plans (ops + search stats) must match exactly; the
/// accepted ops advance the shared placement so the walk visits the
/// placements the production planner would actually reach.
void RunPlanDifferential(const std::string& scenario, int experts, int gpus,
                         const PolicyMakerOptions& opts, int steps,
                         const ClusterHealth* health = nullptr) {
  SCOPED_TRACE(testing::Message() << "scenario=" << scenario << " G=" << gpus
                                  << " serve=" << opts.serve_objective);
  TestEnv env = TestEnv::Make(gpus);
  ModelConfig model = GptMoES();
  model.num_experts = experts;
  const CostModel cost(&env.profile, ShapeFromModel(model));
  PolicyMaker pm(&cost, opts);
  ReferencePlanner ref(&cost, opts);
  if (health != nullptr) {
    pm.SetClusterHealth(health);
    ref.SetClusterHealth(health);
  }

  auto gen = *TraceGenerator::Create(WorkloadOptions(scenario, experts, gpus));
  Placement p = StartPlacement(experts, gpus, /*slots=*/3);
  int accepted_steps = 0;
  int64_t pruned = 0;
  for (int s = 0; s < steps; ++s) {
    const Assignment a = gen.Step()[0];
    PlanSearchStats want_stats;
    const std::vector<ModOp> want = ref.MakeSchedulingPlan(a, p, &want_stats);
    PlanSearchStats got_stats;
    const std::vector<ModOp> got = pm.MakeSchedulingPlan(a, p, &got_stats);
    ExpectSameOps(got, want);
    EXPECT_EQ(got_stats.candidates_evaluated, want_stats.candidates_evaluated);
    EXPECT_EQ(got_stats.score_before, want_stats.score_before);
    EXPECT_EQ(got_stats.best_score, want_stats.best_score);
    EXPECT_EQ(got_stats.accepted, want_stats.accepted);
    EXPECT_LE(got_stats.candidates_pruned, got_stats.candidates_evaluated);
    pruned += got_stats.candidates_pruned;
    for (const ModOp& op : want) {
      ASSERT_TRUE(ApplyOp(op, &p).ok()) << op.ToString();
    }
    if (!want.empty()) ++accepted_steps;

    ExpectSameOps(pm.PlanMigrations(p, 4), ref.PlanMigrations(p, 4));
  }
  // The differential is vacuous if nothing ever got planned — or, for the
  // exact pruning bound, if it never settled a candidate.
  EXPECT_GT(accepted_steps, 0) << "walk never accepted a plan";
  EXPECT_GT(pruned, 0) << "walk never pruned a candidate";
}

TEST(PlannerDifferentialTest, CatalogScenariosTrainingObjective) {
  for (const std::string& scenario : ScenarioCatalog()) {
    RunPlanDifferential(scenario, /*experts=*/32, /*gpus=*/16,
                        PolicyMakerOptions{}, /*steps=*/24);
  }
}

TEST(PlannerDifferentialTest, ServeObjective) {
  PolicyMakerOptions opts;
  opts.serve_objective = true;
  RunPlanDifferential("diurnal", /*experts=*/32, /*gpus=*/16, opts,
                      /*steps=*/24);
}

TEST(PlannerDifferentialTest, LargerClusterUnboundedExpand) {
  // G = 64, unbounded expand candidates: every free GPU is scored, so the
  // tournament and the affected-set bookkeeping see long candidate lists.
  PolicyMakerOptions opts;
  opts.max_expand_candidates = 0;
  RunPlanDifferential("pretrain-steady", /*experts=*/64, /*gpus=*/64, opts,
                      /*steps=*/10);
}

TEST(PlannerDifferentialTest, DegradedAndDeadDevices) {
  ClusterHealth health(16);
  FaultEvent slow;
  slow.type = FaultType::kSlowdown;
  slow.gpu = 3;
  slow.compute_multiplier = 2.0;
  slow.bandwidth_multiplier = 1.5;
  ASSERT_TRUE(health.Apply(slow).ok());
  FaultEvent dead;
  dead.type = FaultType::kFailStop;
  dead.gpu = 9;
  ASSERT_TRUE(health.Apply(dead).ok());

  RunPlanDifferential("finetune-shift", /*experts=*/32, /*gpus=*/16,
                      PolicyMakerOptions{}, /*steps=*/24, &health);
}

// The scheduler's incremental plan loop (lazy Reset + Apply per accepted
// op) must reproduce the reference loop: re-plan from scratch each round,
// re-route to recompute the balance metric.
TEST(PlannerDifferentialTest, SchedulerPlanLoopMatchesReference) {
  const int gpus = 16;
  const int experts = 32;
  TestEnv env = TestEnv::Make(gpus);
  ModelConfig model = GptMoES();
  model.num_experts = experts;
  const CostModel cost(&env.profile, ShapeFromModel(model));
  const PolicyMakerOptions popts;
  PolicyMaker pm(&cost, popts);
  ReferencePlanner ref(&cost, popts);
  SchedulerOptions sopts;
  sopts.max_migrations = 4;
  Scheduler sched(&pm, sopts);

  auto gen =
      *TraceGenerator::Create(WorkloadOptions("bursty", experts, gpus));
  Placement p = StartPlacement(experts, gpus, /*slots=*/3);
  int triggered = 0;
  int64_t pruned = 0;
  for (int s = 0; s < 40; ++s) {
    const Assignment a = gen.Step()[0];

    // Reference Algorithm 1 body against a copy of the placement.
    Placement want_p = p;
    std::vector<ModOp> want_ops;
    const RoutedAssignment routed0 = FlexibleRouter::Route(a, want_p);
    std::vector<double> loads;
    {
      const std::vector<int64_t> tokens = routed0.PerGpuComputeTokens();
      loads.assign(tokens.begin(), tokens.end());
    }
    double metric = BalanceRatio(loads);
    const bool want_triggered = metric > sopts.threshold;
    if (want_triggered) {
      for (int round = 0; round < sopts.max_plan_iterations; ++round) {
        if (metric <= sopts.threshold) break;
        PlanSearchStats stats;
        const std::vector<ModOp> plan =
            ref.MakeSchedulingPlan(a, want_p, &stats);
        if (plan.empty()) break;
        for (const ModOp& op : plan) {
          ASSERT_TRUE(ApplyOp(op, &want_p).ok());
          want_ops.push_back(op);
        }
        const std::vector<int64_t> tokens =
            FlexibleRouter::Route(a, want_p).PerGpuComputeTokens();
        loads.assign(tokens.begin(), tokens.end());
        metric = BalanceRatio(loads);
      }
      for (const ModOp& op : ref.PlanMigrations(want_p, sopts.max_migrations)) {
        ASSERT_TRUE(ApplyOp(op, &want_p).ok());
        want_ops.push_back(op);
      }
    }

    const SchedulerDecision got = sched.OnStep(s, a, &p);
    pruned += got.candidates_pruned;
    EXPECT_EQ(got.triggered, want_triggered);
    ExpectSameOps(got.ops, want_ops);
    if (got.triggered) {
      ++triggered;
      EXPECT_EQ(got.metric_after, metric);
    }
  }
  EXPECT_GT(triggered, 0) << "walk never triggered the scheduler";
  EXPECT_GT(pruned, 0) << "walk never pruned a candidate";
}

// --------------------------------------------------------------------------
// PlanMigrations: the candidate loop as it stood before the feasibility
// check and the hoisted views — every candidate a mutate-undo through
// ApplyOp, an infeasible one rejected by ApplyOp's Status — verbatim.
// --------------------------------------------------------------------------

std::vector<ModOp> ApplyOpLoopMigrations(const CostModel& cost,
                                         const ClusterHealth* health,
                                         const Placement& placement,
                                         int max_moves) {
  const auto expandable = [health](GpuId g) {
    return health == nullptr || health->state(g) == DeviceState::kHealthy;
  };
  std::vector<ModOp> plan;
  Placement current = placement;
  const Topology& topo = cost.profile().topology();

  std::vector<double> sync(static_cast<size_t>(current.num_experts()), 0.0);
  for (int e = 0; e < current.num_experts(); ++e) {
    sync[static_cast<size_t>(e)] = cost.SyncSeconds(current, e);
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

  for (int move = 0; move < max_moves; ++move) {
    const double base = total_substituting(-1, 0.0, -1, 0.0);
    double best_gain = PolicyMaker::kMinMigrationGainSec;
    ModOp best_op;
    bool found = false;

    for (int e = 0; e < current.num_experts(); ++e) {
      const std::vector<GpuId> hosts = current.HostGpus(e);
      if (hosts.size() < 2 || topo.NodesSpanned(hosts) < 2) continue;

      std::map<NodeId, int> per_node;
      for (const auto& [gpu, count] : current.Replicas(e)) {
        per_node[topo.NodeOf(gpu)] += count;
      }
      NodeId major = per_node.begin()->first;
      for (const auto& [node, count] : per_node) {
        if (count > per_node[major]) major = node;
      }

      for (GpuId lonely : hosts) {
        if (topo.NodeOf(lonely) == major) continue;
        for (GpuId target : topo.GpusOnNode(major)) {
          if (!expandable(target)) continue;
          for (int partner : current.ExpertsOn(target)) {
            if (partner == e) continue;
            const ModOp op = MakeMigrate(e, lonely, partner, target);
            if (!ApplyOp(op, &current).ok()) continue;
            const double gain =
                base - total_substituting(
                           e, cost.SyncSeconds(current, e), partner,
                           cost.SyncSeconds(current, partner));
            EXPECT_TRUE(
                ApplyOp(MakeMigrate(e, target, partner, lonely), &current)
                    .ok());
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
    EXPECT_TRUE(ApplyOp(best_op, &current).ok());
    sync[static_cast<size_t>(best_op.expert)] =
        cost.SyncSeconds(current, best_op.expert);
    sync[static_cast<size_t>(best_op.partner_expert)] =
        cost.SyncSeconds(current, best_op.partner_expert);
    plan.push_back(best_op);
  }
  return plan;
}

/// A random walk of Expand/Shrink/Migrate ops from expert parallelism:
/// replica groups spread over nodes, and some experts keep a single
/// vExpert, so many candidate swaps are infeasible.
Placement RandomPlacement(int experts, int gpus, int slots, Rng* rng) {
  Placement p = StartPlacement(experts, gpus, slots);
  const auto pick = [rng](int n) {
    return static_cast<int>(rng->UniformInt(static_cast<uint64_t>(n)));
  };
  for (int i = 0; i < 60; ++i) {
    const int e = pick(experts);
    const std::vector<GpuId> hosts = p.HostGpus(e);
    const GpuId host = hosts[static_cast<size_t>(pick(
        static_cast<int>(hosts.size())))];
    const GpuId g = pick(gpus);
    ModOp op;
    switch (pick(3)) {
      case 0:
        op = MakeShrink(e, host);
        break;
      case 1:
        op = MakeExpand(e, host, g);
        break;
      default: {
        const std::vector<int> there = p.ExpertsOn(g);
        if (there.empty()) continue;
        op = MakeMigrate(e, host, there[static_cast<size_t>(pick(
                                      static_cast<int>(there.size())))],
                         g);
        break;
      }
    }
    (void)ApplyOp(op, &p);  // infeasible ops leave the placement as is
  }
  EXPECT_TRUE(p.Validate().ok());
  return p;
}

TEST(PlannerDifferentialTest, MigrationsMatchApplyOpLoopOnRandomPlacements) {
  const int experts = 32;
  ClusterHealth degraded(32);
  FaultEvent slow;
  slow.type = FaultType::kSlowdown;
  slow.gpu = 9;
  slow.compute_multiplier = 2.0;
  ASSERT_TRUE(degraded.Apply(slow).ok());
  FaultEvent dead;
  dead.type = FaultType::kFailStop;
  dead.gpu = 20;
  ASSERT_TRUE(degraded.Apply(dead).ok());

  int plans = 0;
  int single_vexpert_placements = 0;
  for (const int gpus : {16, 32}) {
    TestEnv env = TestEnv::Make(gpus);
    ModelConfig model = GptMoES();
    model.num_experts = experts;
    const CostModel cost(&env.profile, ShapeFromModel(model));
    for (const bool with_health : {false, true}) {
      if (with_health && gpus != 32) continue;
      const ClusterHealth* health = with_health ? &degraded : nullptr;
      PolicyMaker pm(&cost, PolicyMakerOptions{});
      pm.SetClusterHealth(health);
      Rng rng(static_cast<uint64_t>(gpus) * 31 + (with_health ? 1 : 0));
      for (int trial = 0; trial < 40; ++trial) {
        const int slots = 3 + trial % 3;
        const Placement p = RandomPlacement(experts, gpus, slots, &rng);
        for (int e = 0; e < experts; ++e) {
          if (p.VExperts(e) == 1) {
            ++single_vexpert_placements;
            break;
          }
        }
        for (const int moves : {1, 4, 8}) {
          SCOPED_TRACE(testing::Message() << "G=" << gpus << " health="
                                          << with_health << " trial=" << trial
                                          << " moves=" << moves);
          const std::vector<ModOp> want =
              ApplyOpLoopMigrations(cost, health, p, moves);
          ExpectSameOps(pm.PlanMigrations(p, moves), want);
          if (!want.empty()) ++plans;
        }
      }
    }
  }
  EXPECT_GT(plans, 0) << "no random placement had a migration to plan";
  EXPECT_GT(single_vexpert_placements, 0);
}

}  // namespace
}  // namespace flexmoe
