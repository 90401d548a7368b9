// Microbenchmarks for the scheduling-critical paths: these run on every
// training step (gate, trace generation, router, balance metric) or on
// every trigger (cost model, policy maker), so their throughput bounds how
// often FlexMoE can afford to re-plan — and bounds the wall-clock of every
// figure bench.
//
// Unlike the figure benches this binary is self-timed (std::chrono) and
// emits a machine-readable BENCH_micro.json so the perf trajectory is
// tracked from PR to PR:
//
//   bench_micro_core [--quick] [--threads N] [--out PATH] [--large-ep]
//                    [--extra name=value]...
//
// --extra records externally measured numbers (e.g. the figure benches'
// wall-clock vs the previous PR's binary) into the same JSON.
//
// Headline metrics: gate tokens/sec (exact + multinomial), trace
// steps/sec, and end-to-end experiment cells/sec through
// RunExperimentGrid.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/balance.h"
#include "core/cost_model.h"
#include "core/flexmoe.h"
#include "core/policy_maker.h"
#include "core/router.h"
#include "core/step_executor.h"
#include "gate/trace_generator.h"
#include "harness/experiment.h"
#include "harness/grid_runner.h"
#include "obs/observability.h"
#include "placement/op_queue.h"
#include "util/string_util.h"

namespace flexmoe {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct MetricRow {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Runs `body` (one "iteration" processes `units_per_iter` work units)
/// until `min_seconds` elapsed, returns units/sec.
template <typename Fn>
double Throughput(double min_seconds, double units_per_iter, Fn&& body) {
  // One warmup iteration, then timed iterations until the budget is spent.
  body();
  int iters = 0;
  const double t0 = NowSeconds();
  double elapsed = 0.0;
  do {
    body();
    ++iters;
    elapsed = NowSeconds() - t0;
  } while (elapsed < min_seconds);
  return units_per_iter * static_cast<double>(iters) / elapsed;
}

TraceGeneratorOptions GateTraceOptions(bool exact, int64_t tokens_per_gpu) {
  TraceGeneratorOptions t;
  t.num_experts = 64;
  t.num_moe_layers = 1;
  t.num_gpus = 8;
  t.tokens_per_gpu = tokens_per_gpu;
  t.exact_sampling = exact;
  t.seed = 7;
  return t;
}

/// Tokens/sec of the gate sampler (trace generator with one layer; the
/// gate dominates its cost at these sizes).
double GateTokensPerSec(bool exact, bool quick) {
  const int64_t tokens_per_gpu = exact ? (quick ? 1024 : 4096) : 8192;
  TraceGenerator gen =
      *TraceGenerator::Create(GateTraceOptions(exact, tokens_per_gpu));
  const double tokens_per_step =
      static_cast<double>(tokens_per_gpu) * gen.options().num_gpus;
  const double budget = quick ? 0.3 : 1.0;
  return Throughput(budget, tokens_per_step, [&] { gen.Step(); });
}

double TraceStepsPerSec(bool quick) {
  TraceGeneratorOptions t;
  t.num_experts = 64;
  t.num_moe_layers = 12;
  t.num_gpus = 64;
  t.tokens_per_gpu = 8192;
  t.seed = 7;
  TraceGenerator gen = *TraceGenerator::Create(t);
  return Throughput(quick ? 0.3 : 1.0, 1.0, [&] { gen.Step(); });
}

struct Env {
  std::unique_ptr<Topology> topo;
  HardwareProfile profile;
  ModelConfig model;
  CostModel cost;
  Placement placement;
  Assignment assignment;

  Env(int num_gpus, int num_experts, int64_t tokens_per_gpu = 8192,
      int slots_per_gpu = 0)
      : topo(std::make_unique<Topology>(
            *Topology::Create(AzureA100Options(num_gpus)))),
        profile(topo.get(), GpuSpec{}),
        model(GptMoES()),
        cost(&profile,
             [&] {
               model.num_experts = num_experts;
               return ShapeFromModel(model);
             }()),
        placement(*Placement::ExpertParallel(
            {num_experts, num_gpus, slots_per_gpu})),
        assignment(num_experts, num_gpus) {
    TraceGeneratorOptions t;
    t.num_experts = num_experts;
    t.num_moe_layers = 1;
    t.num_gpus = num_gpus;
    t.tokens_per_gpu = tokens_per_gpu;
    t.seed = 7;
    TraceGenerator gen = *TraceGenerator::Create(t);
    assignment = gen.Step()[0];
  }
};

double GridCellsPerSec(bool quick, int threads) {
  // A miniature fig5-style grid: small models, every cell independent.
  std::vector<GridCell> cells;
  const char* systems[] = {"deepspeed", "fastermoe", "flexmoe"};
  const int repeats = quick ? 1 : 2;
  for (int rep = 0; rep < repeats; ++rep) {
    for (const char* system : systems) {
      GridCell cell;
      cell.label = StrFormat("%s/rep%d", system, rep);
      ExperimentOptions& o = cell.options;
      o.system = system;
      o.model = GptMoES();
      o.model.num_experts = 16;
      o.model.num_moe_layers = 2;
      o.model.tokens_per_gpu = 2048;
      o.num_gpus = 8;
      o.measure_steps = 20;
      o.warmup_steps = 5;
      o.seed = 71 + static_cast<uint64_t>(rep);
      cells.push_back(std::move(cell));
    }
  }
  const double t0 = NowSeconds();
  const std::vector<GridCellResult> results =
      RunExperimentGrid(cells, threads);
  const double elapsed = NowSeconds() - t0;
  for (const GridCellResult& r : results) {
    FLEXMOE_CHECK_MSG(r.status.ok(), r.status.ToString());
  }
  return static_cast<double>(cells.size()) / elapsed;
}

/// Full FlexMoE RunStep throughput over a pre-generated assignment stream
/// (gate cost excluded), optionally with a DISABLED observability handle
/// installed — the configuration every instrumented hot-path branch sees
/// in a normal, untraced run.
double FlexRunStepsPerSec(bool quick, bool install_disabled_obs) {
  Topology topo = *Topology::Create(AzureA100Options(8));
  HardwareProfile profile(&topo, GpuSpec{});
  FlexMoEOptions o;
  o.model = GptMoES();
  o.model.num_experts = 16;
  o.model.num_moe_layers = 2;
  o.model.tokens_per_gpu = 2048;
  o.num_gpus = 8;
  auto sys = *FlexMoESystem::Create(o, &topo, &profile);
  obs::Observability obs(obs::ObservabilityOptions{});  // enabled = false
  if (install_disabled_obs) sys->SetObservability(&obs);

  TraceGeneratorOptions t;
  t.num_experts = o.model.num_experts;
  t.num_moe_layers = o.model.num_moe_layers;
  t.num_gpus = o.num_gpus;
  t.tokens_per_gpu = o.model.tokens_per_gpu;
  t.seed = 7;
  TraceGenerator gen = *TraceGenerator::Create(t);
  std::vector<std::vector<Assignment>> steps;
  for (int i = 0; i < 8; ++i) steps.push_back(gen.Step());

  size_t i = 0;
  return Throughput(quick ? 0.2 : 0.5, 1.0, [&] {
    sys->RunStep(steps[i % steps.size()]);
    ++i;
  });
}

bool WriteJson(const std::string& path, const std::vector<MetricRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_micro_core\",\n  \"metrics\": {\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    \"%s\": {\"value\": %.6g, \"unit\": \"%s\"}%s\n",
                 rows[i].name.c_str(), rows[i].value, rows[i].unit.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Run(const bench::CommonFlags& flags) {
  const bool quick = flags.quick;
  const int threads = flags.threads;
  bench::PrintHeader("Microbenchmarks — scheduling-critical paths",
                     "gate / trace / router / cost model / policy maker");
  std::vector<MetricRow> rows;
  auto add = [&rows](const std::string& name, double value,
                     const std::string& unit) {
    rows.push_back({name, value, unit});
    std::printf("%-40s %14.4g %s\n", name.c_str(), value, unit.c_str());
  };

  // --- Gate sampling -----------------------------------------------------
  add("gate_exact_tokens_per_sec", GateTokensPerSec(true, quick), "tokens/s");
  add("gate_multinomial_tokens_per_sec", GateTokensPerSec(false, quick),
      "tokens/s");

  // --- Trace generation --------------------------------------------------
  add("trace_steps_per_sec", TraceStepsPerSec(quick), "steps/s");

  // --- Router / balance / cost model / policy maker ----------------------
  {
    Env env(64, 64);
    const double budget = quick ? 0.2 : 0.5;
    add("router_routes_per_sec",
        Throughput(budget, 1.0,
                   [&] {
                     FlexibleRouter::Route(env.assignment, env.placement);
                   }),
        "routes/s");
    const RoutedAssignment routed =
        FlexibleRouter::Route(env.assignment, env.placement);
    const std::vector<double> loads = routed.PerGpuComputeLoads();
    add("balance_ratio_evals_per_sec",
        Throughput(budget, 1.0, [&] { BalanceRatio(loads); }), "evals/s");
    // Caller-owned routing scratch: the timer measures route + estimate,
    // not the per-call matrix allocations the convenience overload paid.
    RoutedAssignment cost_scratch;
    add("cost_model_estimates_per_sec",
        Throughput(budget, 1.0,
                   [&] {
                     env.cost.EstimateLayerSeconds(env.assignment,
                                                   env.placement,
                                                   &cost_scratch);
                   }),
        "estimates/s");
    PolicyMaker pm(&env.cost, PolicyMakerOptions{});
    add("policy_maker_plans_per_sec",
        Throughput(budget, 1.0,
                   [&] {
                     pm.MakeSchedulingPlan(env.assignment, env.placement);
                   }),
        "plans/s");
    // Candidate throughput: the same deterministic plan scores the same
    // candidate set every call, so one probe gives the per-plan Eq. 5
    // evaluation count and the loop measures evaluations/sec.
    PlanSearchStats stats;
    pm.MakeSchedulingPlan(env.assignment, env.placement, &stats);
    add("policy_candidate_evals_per_plan",
        static_cast<double>(stats.candidates_evaluated), "evals");
    add("policy_candidate_evals_per_sec",
        Throughput(budget, static_cast<double>(stats.candidates_evaluated),
                   [&] {
                     pm.MakeSchedulingPlan(env.assignment, env.placement);
                   }),
        "evals/s");
  }

  // --- Policy maker at large G (the roadmap's large-EP regime) -----------
  {
    Env env(128, 128);
    PolicyMaker pm(&env.cost, PolicyMakerOptions{});
    add("policy_maker_plans_per_sec_g128",
        Throughput(quick ? 0.2 : 0.5, 1.0,
                   [&] {
                     pm.MakeSchedulingPlan(env.assignment, env.placement);
                   }),
        "plans/s");
  }

  // --- Large-EP planning (DESIGN.md Section 10) --------------------------
  // One expert per GPU (slots = 2: the resident expert packed twice, so
  // shrink frees a replication slot) at G = E = 512 / 1024, hierarchical
  // per-node Eq. 8 plus the topology-aware expand tie-break — the
  // configuration the large-EP preset ships. Timed the way the Scheduler
  // actually plans: the LayerCostState is maintained across rounds (one
  // Reset per trigger, many PlanOnState rounds on it), so the plan metric
  // times PlanOnState on a live state and the per-trigger rebuild is
  // reported separately as the reset metric.
  double plans_per_sec_g512 = 0.0;
  for (const int g : {512, 1024}) {
    Env env(g, g, /*tokens_per_gpu=*/1024, /*slots_per_gpu=*/2);
    env.profile.set_hierarchical_a2a(true);
    PolicyMakerOptions popts;
    popts.topology_aware_expansion = true;
    PolicyMaker pm(&env.cost, popts);
    LayerCostState state(&env.cost, /*include_sync=*/true);
    state.Reset(env.assignment, env.placement);
    const double rate =
        Throughput(quick ? 0.2 : 0.5, 1.0,
                   [&] { pm.PlanOnState(&state); });
    add(StrFormat("policy_maker_plans_per_sec_g%d", g), rate, "plans/s");
    add(StrFormat("layer_cost_resets_per_sec_g%d", g),
        Throughput(quick ? 0.1 : 0.25, 1.0,
                   [&] { state.Reset(env.assignment, env.placement); }),
        "resets/s");
    if (g == 512) plans_per_sec_g512 = rate;
  }
#ifdef NDEBUG
  // Perf-smoke floor (CI runs this binary Release --quick): a plan at
  // G = 512 must stay under 1 ms — the sub-millisecond re-planning the
  // large-EP regime needs to keep triggers off the step critical path.
  FLEXMOE_CHECK_MSG(
      plans_per_sec_g512 > 1000.0,
      StrFormat("G=512 planning %.0f plans/s is slower than 1 ms/plan",
                plans_per_sec_g512));
#else
  (void)plans_per_sec_g512;
#endif

  // Steady-state candidate evaluation: Apply / Score / Undo cycles on a
  // live LayerCostState at G = E = 512 — the inner loop the planner runs
  // per expand destination, measured without the per-trigger Reset.
  {
    Env env(512, 512, /*tokens_per_gpu=*/1024);
    env.profile.set_hierarchical_a2a(true);
    LayerCostState state(&env.cost, /*include_sync=*/true);
    state.Reset(env.assignment, env.placement);
    // Any feasible op works; at one-expert-per-GPU every expert has spare
    // replicas or free slots somewhere. Probe for one up front.
    ModOp cycle_op;
    bool found = false;
    for (int e = 0; e < env.placement.num_experts() && !found; ++e) {
      if (env.placement.VExperts(e) >= 2) {
        cycle_op = MakeShrink(e, env.placement.HostGpus(e).front());
        found = true;
      }
    }
    for (GpuId g = 0; g < env.placement.num_gpus() && !found; ++g) {
      if (env.placement.FreeSlots(g) > 0) {
        cycle_op = MakeExpand(0, -1, g);
        found = true;
      }
    }
    FLEXMOE_CHECK_MSG(found, "no feasible op for the incremental cycle");
    double sink = 0.0;
    add("cost_model_incremental_evals_per_sec",
        Throughput(quick ? 0.2 : 0.5, 1.0,
                   [&] {
                     FLEXMOE_CHECK(state.Apply(cycle_op));
                     sink += state.Score();
                     state.Undo();
                   }),
        "evals/s");
    FLEXMOE_CHECK(sink > 0.0);
  }

  // --- Chunked A2A/compute overlap at G = 512 (DESIGN.md Section 11) -----
  // Dispatch-heavy forward: every GPU routes its whole batch to a remote
  // expert, so the serial executor pays dispatch + compute + combine end
  // to end while the chunked one hides most of the wire time behind
  // compute. The floor gap runs the balanced case instead, because the
  // analytic floor's balanced-routing assumption then matches the
  // measured routing — the same invariant the serving shedding relies on.
  {
    const int g = 512;
    auto topo = std::make_unique<Topology>(
        *Topology::Create(AzureA100Options(g)));
    HardwareProfile profile(topo.get(), GpuSpec{});
    ModelConfig model = GptMoES();
    model.num_experts = g;
    model.num_moe_layers = 2;
    const Placement placement =
        *Placement::ExpertParallel({g, g, /*slots_per_gpu=*/1});

    const auto forward_seconds = [&](const Assignment& a, int chunks) {
      ClusterState cluster(topo.get());
      StepExecutor exec(&cluster, &profile, model);
      PipelineOptions pipeline;
      pipeline.chunks = chunks;
      exec.set_pipeline(pipeline);
      const RoutedAssignment routed = FlexibleRouter::Route(a, placement);
      LayerWork work;
      work.routed = &routed;
      work.placement = &placement;
      return exec.ExecuteForward({work, work}).StepSeconds();
    };

    Assignment skewed(g, g);
    for (int src = 0; src < g; ++src) skewed.set((src + 1) % g, src, 4096);
    const double serial = forward_seconds(skewed, 1);
    const double pipelined = forward_seconds(skewed, 4);
    add("forward_overlap_speedup_g512", serial / pipelined, "x");
    FLEXMOE_CHECK_MSG(
        pipelined < serial,
        StrFormat("chunked forward %.6fs is not faster than serial %.6fs",
                  pipelined, serial));

    Assignment balanced(g, g);
    for (int e = 0; e < g; ++e) {
      for (GpuId dst = 0; dst < g; ++dst) balanced.set(e, dst, 8);
    }
    const double measured = forward_seconds(balanced, 4);
    const int64_t tokens =
        static_cast<int64_t>(g) * g * 8 / model.top_k;
    const double floor =
        EstimateForwardMicrobatchSeconds(profile, model, g, tokens,
                                         /*chunks=*/4);
    add("overlap_floor_gap", measured / floor, "x");
    FLEXMOE_CHECK_MSG(
        floor <= measured,
        StrFormat("pipelined floor %.6fs exceeds measured forward %.6fs",
                  floor, measured));
  }

  // --- Auto-K vs best static chunk depth (DESIGN.md §12) -----------------
  // One FlexMoE cell per static depth plus the auto-K cell (pipeline
  // chunks = 0), all on the same trace seed: the headline is the planned
  // depth's speedup over the best static pin. >= 1.0 means the planner
  // matched or beat every static K from the cost model alone; the guard
  // leaves 2% for timer noise but trips if planning picks a genuinely
  // wrong depth.
  {
    const auto mean_step = [&](int chunks) {
      ExperimentOptions o;
      o.num_gpus = 16;
      o.measure_steps = quick ? 40 : 120;
      o.warmup_steps = 10;
      o.pipeline_chunks = chunks;
      const Result<ExperimentReport> r = RunExperiment(o);
      FLEXMOE_CHECK_MSG(r.ok(), r.status().ToString());
      return r->mean_step_seconds;
    };
    double best_static = std::numeric_limits<double>::infinity();
    for (const int k : CostModel::kChunkDepthCandidates) {
      best_static = std::min(best_static, mean_step(k));
    }
    const double auto_k = mean_step(0);
    add("auto_k_vs_best_static_speedup", best_static / auto_k, "x");
    FLEXMOE_CHECK_MSG(
        auto_k <= best_static * 1.02,
        StrFormat("auto-K mean step %.6fs loses to best static %.6fs",
                  auto_k, best_static));
  }

  // --- Placement op queue ------------------------------------------------
  add("op_queue_merge_passes_per_sec",
      Throughput(quick ? 0.2 : 0.5, 1.0,
                 [] {
                   ModificationQueue q(64e6);
                   for (int i = 0; i < 32; ++i) {
                     q.Enqueue(MakeShrink(i, i % 8));
                     q.Enqueue(MakeExpand(i, i % 8, (i + 1) % 8));
                   }
                   while (!q.empty()) q.PopBatch();
                 }),
      "passes/s");

  // --- Observability overhead guard --------------------------------------
  // A disabled handle costs one predictable null-check branch per
  // instrumentation site; the instrumented RunStep must stay within
  // measurement noise of running with no handle at all. 0.7x is far below
  // any plausible jitter on this sub-millisecond step, so tripping it
  // means the disabled path grew real work.
  {
    const double base = FlexRunStepsPerSec(quick, /*install_disabled_obs=*/false);
    const double disabled = FlexRunStepsPerSec(quick, /*install_disabled_obs=*/true);
    const double ratio = disabled / base;
    add("flexmoe_run_steps_per_sec", base, "steps/s");
    add("flexmoe_run_steps_per_sec_obs_disabled", disabled, "steps/s");
    add("obs_disabled_overhead_ratio", ratio, "x");
    FLEXMOE_CHECK_MSG(
        ratio >= 0.7,
        StrFormat("disabled-observability RunStep ratio %.2fx < 0.70x", ratio));
  }

  // --- End-to-end grid ---------------------------------------------------
  add("end_to_end_cells_per_sec", GridCellsPerSec(quick, threads), "cells/s");
  add("grid_threads", static_cast<double>(ResolveGridThreads(threads)), "");

  // --- Large-EP preset end-to-end (--large-ep; the nightly runs it) ------
  // RunExperiment(LargeEPOptions(512)): one expert per GPU on 512 GPUs
  // through the full discrete-event engine — too heavy for the push CI
  // but exactly what the nightly's 2-hour budget is for.
  if (flags.large_ep) {
    const Result<ExperimentReport> report = RunExperiment(LargeEPOptions(512));
    FLEXMOE_CHECK_MSG(report.ok(), report.status().ToString());
    add("large_ep_g512_mean_step_seconds", report->mean_step_seconds, "s");
    add("large_ep_g512_throughput_tokens_per_sec",
        report->throughput_tokens_per_sec, "tokens/s");
    add("large_ep_g512_mean_balance_ratio", report->mean_balance_ratio, "x");

    // The same preset with K = 4 chunked forward overlap — the nightly
    // tracks how much of the step the pipelining buys back end to end.
    ExperimentOptions pipelined = LargeEPOptions(512);
    pipelined.pipeline_chunks = 4;
    const Result<ExperimentReport> piped = RunExperiment(pipelined);
    FLEXMOE_CHECK_MSG(piped.ok(), piped.status().ToString());
    add("large_ep_g512_pipelined_mean_step_seconds",
        piped->mean_step_seconds, "s");
    add("large_ep_g512_pipelined_throughput_tokens_per_sec",
        piped->throughput_tokens_per_sec, "tokens/s");

    // And the auto-K cell (pipeline_chunks = 0): the planner must match
    // or beat both static pins the nightly tracks at this scale.
    ExperimentOptions auto_k = LargeEPOptions(512);
    auto_k.pipeline_chunks = 0;
    const Result<ExperimentReport> autoed = RunExperiment(auto_k);
    FLEXMOE_CHECK_MSG(autoed.ok(), autoed.status().ToString());
    add("large_ep_g512_auto_k_mean_step_seconds",
        autoed->mean_step_seconds, "s");
    add("large_ep_g512_auto_k_throughput_tokens_per_sec",
        autoed->throughput_tokens_per_sec, "tokens/s");
    const double best_static =
        std::min(report->mean_step_seconds, piped->mean_step_seconds);
    FLEXMOE_CHECK_MSG(
        autoed->mean_step_seconds <= best_static * 1.02,
        StrFormat("G=512 auto-K mean step %.6fs loses to best static %.6fs",
                  autoed->mean_step_seconds, best_static));
  }

  for (const auto& [name, value] : flags.extras) {
    add(name, value, "recorded");
  }

  return WriteJson(flags.out, rows) ? 0 : 1;
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) {
  return flexmoe::Run(flexmoe::bench::ParseCommonFlags(argc, argv));
}
