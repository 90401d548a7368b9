// bench_paper: every figure and table of the FlexMoE paper that this
// repository reproduces, three ablations beyond it, and three differential
// sections: the workload-scenario suite, the serving-SLO suite and elastic
// recovery. `--figure NAME` runs one entry of the registry (default: all).
// An entry is its grid cells plus a printer that turns their reports into
// its table and claim rows (bench_common.h, `Claim`); the cells of every
// selected entry share one grid, and results depend only on each cell's
// options. An entry declares the flags it reads, and a flag no selected
// entry reads is a usage error. A failed check exits 1; `--claims-out
// PATH` writes every row as JSON.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "baselines/static_layout.h"
#include "bench/bench_common.h"
#include "collective/profiler.h"
#include "core/flexmoe.h"
#include "gate/routing_trace.h"
#include "gate/trace_generator.h"
#include "harness/golden.h"
#include "harness/grid_runner.h"
#include "harness/reporters.h"
#include "obs/decision_log.h"
#include "quality/targets.h"
#include "util/file_io.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/table.h"

namespace flexmoe {
namespace {

using bench::BandClaim;
using bench::Claim;
using bench::CommonFlags;
using Cells = std::vector<GridCell>;
using Reports = std::vector<ExperimentReport>;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A training cell of `system` on `model` at the paper's defaults
/// (balance coefficient 0.001, capacity factor 1.0).
GridCell Cell(const char* system, const ModelConfig& model, int num_gpus,
              int warmup_steps, int measure_steps, uint64_t seed) {
  GridCell cell;
  cell.options.system = system;
  cell.options.model = model;
  cell.options.num_gpus = num_gpus;
  cell.options.warmup_steps = warmup_steps;
  cell.options.measure_steps = measure_steps;
  cell.options.seed = seed;
  return cell;
}

/// The values printed with `fmt`, joined by '/'.
std::string Series(const std::vector<double>& values, const char* fmt) {
  std::vector<std::string> parts;
  for (double v : values) parts.push_back(StrFormat(fmt, v));
  return Join(parts, "/");
}

/// Whether `v` rises at every step.
bool Rises(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
         v.end();
}

// Figure 2: the balance-loss dilemma. Sweeping the balance-loss coefficient
// on Swin-MoE (no expert capacity, classic expert parallelism) trades GPU
// utilization against top-5 accuracy. {coef, GPU util %, acc@5} read off
// the paper's Figure 2:
constexpr double kFig2Paper[5][3] = {
    {0.0, 18.77, 94.588},  {0.001, 26.28, 94.474}, {0.005, 35.93, 94.386},
    {0.01, 48.27, 94.190}, {0.05, 63.30, 93.981}};

Cells Fig2Cells(const CommonFlags& flags) {
  Cells cells;
  for (const auto& paper : kFig2Paper) {
    // Utilization is read out after the balance-loss dynamics reach their
    // equilibrium (the generator's ramp has tau = 400 steps); the paper
    // averages over a full training run, far past that point.
    cells.push_back(Cell("deepspeed", SwinMoES(), 32, flags.quick ? 40 : 500,
                         flags.quick ? 80 : 900, 17));
    cells.back().options.capacity_factor = 0.0;  // no capacity limit
    cells.back().options.balance_coef = paper[0];
  }
  return cells;
}

std::vector<Claim> Fig2(const CommonFlags&, const Reports& reports) {
  bench::PrintHeader(
      "Figure 2 — balance-loss coefficient vs GPU utilization & accuracy",
      "Swin-MoE, no capacity limit, expert parallelism");
  const ModelQuality quality = *QualityForModel(SwinMoES());
  const ConvergenceModel acc5 =
      *ConvergenceModel::Create(quality.metrics.back());
  Table table({"coef", "GPU util (ours)", "GPU util (paper)",
               "acc@5 (ours)", "acc@5 (paper)"});
  std::vector<double> util, acc, paper_util, paper_acc;
  for (size_t i = 0; i < reports.size(); ++i) {
    const double* paper = kFig2Paper[i];
    util.push_back(reports[i].mean_gpu_utilization * 100.0);
    // Quality at the full training budget under this coefficient; all
    // tokens processed (no capacity), so the effective-token rate is 1.
    acc.push_back(acc5.MetricAt(acc5.calibration().u_total_tokens, paper[0]));
    paper_util.push_back(paper[1]);
    paper_acc.push_back(paper[2]);
    table.AddRow({StrFormat("%.3f", paper[0]), StrFormat("%.2f%%", util[i]),
                  StrFormat("%.2f%%", paper[1]), StrFormat("%.3f", acc[i]),
                  StrFormat("%.3f", paper[2])});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  // The paper's utilization rises at every step of the sweep. Ours rises
  // to coef 0.010; whether it keeps rising to 0.050 is recorded.
  return {{"fig2.util-rises", Series(paper_util, "%.1f") + "%",
           Series(util, "%.1f") + "%", "measured", "coef 0.010 above coef 0",
           util[3] > util[0], Rises(util)},
          {"fig2.acc5-falls", Series(paper_acc, "%.2f"), Series(acc, "%.2f"),
           "anchored", "falls at every coef step",
           Rises({acc.rbegin(), acc.rend()}),
           Rises({paper_acc.rbegin(), paper_acc.rend()})}};
}

// Figure 3: expert-load skewness and fluctuation on a GPT-MoE trace with
// 64 experts per MoE layer: (a) the top-10 experts receive ~75% of a
// step's tokens; (b) per-expert shares drift smoothly, experts swapping
// ranks over hundreds of steps.
std::vector<Claim> Fig3(const CommonFlags& flags, const Reports&) {
  bench::PrintHeader("Figure 3 — expert-load skewness and fluctuation",
                     "GPT-MoE trace, 64 experts per MoE layer");
  TraceGeneratorOptions opts;
  opts.num_experts = 64;
  opts.num_moe_layers = 4;
  opts.num_gpus = 8;
  opts.tokens_per_gpu = 8192;
  opts.balance_coef = 0.001;  // the paper's training configuration
  opts.seed = 23;
  TraceGenerator gen = *TraceGenerator::Create(opts);
  RoutingTrace trace;
  for (int s = 0; s < (flags.quick ? 300 : 2000); ++s) {
    FLEXMOE_CHECK_OK(trace.Append(gen.Step()));
  }

  std::printf("(a) expert-load CDF at step 10 (layer 0):\n");
  const auto cdf = trace.ExpertLoadCdf(10, 0);
  std::printf("%s\n", AsciiCdf(cdf, 50).c_str());
  RunningStat top10;
  for (int s = 0; s < trace.num_steps(); ++s) {
    top10.Add(trace.ExpertLoadCdf(s, 0)[9]);
  }
  Table shares({"k (heaviest experts)", "share (ours)", "share (paper)"});
  shares.AddRow({"10 of 64 (mean over steps)",
                 StrFormat("%.1f%%", top10.mean() * 100.0), "~75%"});
  shares.AddRow({"10 of 64 (step 10)",
                 StrFormat("%.1f%%", cdf[9] * 100.0), "~75%"});
  std::printf("%s\n", shares.ToAscii().c_str());

  std::printf("(b) per-expert load share over training (layer 0):\n");
  const auto series = trace.ExpertShareSeries(0);
  // Plot the three experts with the largest swing.
  std::vector<std::pair<double, size_t>> swings;
  for (size_t e = 0; e < series[0].size(); ++e) {
    double lo = 1.0, hi = 0.0;
    for (const auto& step : series) {
      lo = std::min(lo, step[e]);
      hi = std::max(hi, step[e]);
    }
    swings.push_back({hi - lo, e});
  }
  std::sort(swings.begin(), swings.end(), std::greater<>());
  for (int i = 0; i < 3; ++i) {
    const size_t e = swings[static_cast<size_t>(i)].second;
    std::vector<double> line;
    for (const auto& step : series) line.push_back(step[e]);
    std::printf("expert %zu share:\n%s\n", e, AsciiSeries(line, 64, 8).c_str());
  }

  // Smoothness: adjacent-step vs 300-step L1 distance between share
  // distributions (Observation 2: "smooth and continuous change").
  auto l1 = [&](size_t i, size_t j) {
    double d = 0.0;
    for (size_t e = 0; e < series[i].size(); ++e) {
      d += std::abs(series[i][e] - series[j][e]);
    }
    return d;
  };
  RunningStat adjacent, distant;
  const size_t horizon = std::min<size_t>(300, series.size() - 1);
  for (size_t s = 0; s + 1 < series.size(); ++s) adjacent.Add(l1(s, s + 1));
  for (size_t s = 0; s + horizon < series.size(); ++s) {
    distant.Add(l1(s, s + horizon));
  }
  Table smooth({"distance", "mean L1 between share vectors"});
  smooth.AddRow({"adjacent steps", StrFormat("%.4f", adjacent.mean())});
  smooth.AddRow({StrFormat("%zu steps apart", horizon),
                 StrFormat("%.4f", distant.mean())});
  std::printf("%s\n", smooth.ToAscii().c_str());

  // The top 10 of 64 experts taking most tokens is the paper's skew.
  auto skew = [](const char* id, double share) {
    return Claim{id, "~75%", StrFormat("%.1f%%", share * 100.0), "measured",
                 "> 50% (uniform: 15.6%)", share > 0.5, true};
  };
  const double drift = distant.mean() / adjacent.mean();
  return {skew("fig3.top10-share-mean", top10.mean()),
          skew("fig3.top10-share-step10", cdf[9]),
          {"fig3.drift-over-jitter", "drift >> jitter",
           StrFormat("%.1fx", drift), "measured",
           "> 3.0x (smooth steps, drifting run)", drift > 3.0, true}};
}

// Figure 5: end-to-end system efficiency — wall-clock time to reach the
// common quality target (DeepSpeed's Table 2 value) for DeepSpeed,
// FasterMoE, and FlexMoE: (a) X-MoE-S models on 32 GPUs, (b) X-MoE-L
// models on 64 GPUs, with the paper's speedups of FlexMoE over the other
// two: {model, vs DeepSpeed, vs FasterMoE}, three rows per panel.
constexpr struct {
  const char* model;
  double vs_deepspeed, vs_fastermoe;
} kFig5Paper[6] = {{"BERT-MoE-S", 1.80, 1.35}, {"GPT-MoE-S", 1.57, 1.28},
                   {"Swin-MoE-S", 1.36, 1.15}, {"BERT-MoE-L", 2.10, 1.45},
                   {"GPT-MoE-L", 1.72, 1.36},  {"Swin-MoE-L", 1.64, 1.24}};

Cells Fig5Cells(const CommonFlags& flags) {
  Cells cells;
  for (size_t i = 0; i < 6; ++i) {
    for (const char* system : {"deepspeed", "fastermoe", "flexmoe"}) {
      cells.push_back(Cell(system, *ModelByName(kFig5Paper[i].model),
                           i < 3 ? 32 : 64, flags.quick ? 5 : 25,
                           flags.quick ? 40 : 100, 31));
      cells.back().options.workload.scenario.name = flags.workload;
    }
  }
  return cells;
}

std::vector<Claim> Fig5(const CommonFlags&, const Reports& reports) {
  bench::PrintHeader("Figure 5 — time to target quality",
                     "DeepSpeed / FasterMoE / FlexMoE on six models");
  std::vector<Claim> claims;
  double mean_vs_fm[2][2] = {};  // [panel][paper, ours]
  for (size_t p = 0; p < 2; ++p) {
    std::printf("--- Figure 5(%s (%d GPUs) ---\n",
                p == 0 ? "a): X-MoE-S" : "b): X-MoE-L", p == 0 ? 32 : 64);
    Table table({"model", "DeepSpeed (h)", "FasterMoE (h)", "FlexMoE (h)",
                 "vs DS ours", "vs DS paper", "vs FasterMoE ours",
                 "vs FasterMoE paper"});
    for (size_t i = 3 * p; i < 3 * p + 3; ++i) {
      const auto& row = kFig5Paper[i];
      const ExperimentReport* r = &reports[3 * i];
      const double ds = r[0].hours_to_target;
      const double fm = r[1].hours_to_target;
      const double flex = r[2].hours_to_target;
      table.AddRow({row.model, StrFormat("%.1f", ds), StrFormat("%.1f", fm),
                    StrFormat("%.1f", flex), FormatSpeedup(ds / flex),
                    FormatSpeedup(row.vs_deepspeed), FormatSpeedup(fm / flex),
                    FormatSpeedup(row.vs_fastermoe)});
      mean_vs_fm[p][0] += row.vs_fastermoe / 3.0;
      mean_vs_fm[p][1] += fm / flex / 3.0;
      claims.push_back(
          {StrFormat("fig5.%s", row.model),
           StrFormat("%.2fx / %.2fx", row.vs_deepspeed, row.vs_fastermoe),
           StrFormat("%.2fx / %.2fx", ds / flex, fm / flex), "measured",
           "FlexMoE fastest: > 1.00x vs DS / FasterMoE",
           ds / flex > 1.0 && fm / flex > 1.0,
           row.vs_deepspeed > 1.0 && row.vs_fastermoe > 1.0});
    }
    std::printf("%s\n", table.ToAscii().c_str());
  }
  // FasterMoE's global shadow synchronization hurts more on 64 GPUs.
  claims.push_back(
      {"fig5.fastermoe-gap-widens",
       StrFormat("%.2fx -> %.2fx", mean_vs_fm[0][0], mean_vs_fm[1][0]),
       StrFormat("%.2fx -> %.2fx", mean_vs_fm[0][1], mean_vs_fm[1][1]),
       "measured", "mean vs FasterMoE higher on 64 GPUs than on 32",
       mean_vs_fm[1][1] > mean_vs_fm[0][1],
       mean_vs_fm[1][0] > mean_vs_fm[0][0]});
  return claims;
}

// Figure 6(a): trigger metric — the paper's Max balance ratio (Eq. 6)
// against Variance. The layer finishes with its slowest GPU, so the max
// predicts step time; the paper's Variance/Max time-to-target ratios:
constexpr struct {
  const char* model;
  double max_over_variance;
} kFig6aPaper[] = {
    {"BERT-MoE-S", 0.95}, {"BERT-MoE-L", 1.08}, {"GPT-MoE-S", 0.99},
    {"GPT-MoE-L", 1.00},  {"Swin-MoE-S", 1.02}, {"Swin-MoE-L", 1.13},
};

Cells Fig6aCells(const CommonFlags& flags) {
  Cells cells;
  for (const auto& row : kFig6aPaper) {
    const ModelConfig model = *ModelByName(row.model);
    // Variance (CV) of per-GPU loads, the paper's alternative (and the only
    // reader of variance_threshold), cannot be aligned with step time the
    // way the max can: one straggler (bad) or mild spread (harmless) give
    // the same CV, so it both over- and under-triggers.
    for (TriggerMetric metric :
         {TriggerMetric::kVariance, TriggerMetric::kMaxRatio}) {
      cells.push_back(Cell("flexmoe", model,
                           model.num_experts == 32 ? 32 : 64,
                           flags.quick ? 5 : 20, flags.quick ? 40 : 60, 37));
      cells.back().options.scheduler.metric = metric;
      cells.back().options.scheduler.variance_threshold = 0.22;
    }
  }
  return cells;
}

std::vector<Claim> Fig6a(const CommonFlags&, const Reports& reports) {
  bench::PrintHeader("Figure 6(a) — trigger metric: Max (ours) vs Variance",
                     "FlexMoE with Eq. 6 vs coefficient-of-variation trigger");
  Table table({"model", "Variance (h)", "Max/ours (h)", "Variance/Max ours",
               "paper"});
  std::vector<Claim> claims;
  std::vector<std::string> flips;
  double geo = 1.0;
  int max_wins = 0, paper_max_wins = 0;
  for (size_t i = 0; i < std::size(kFig6aPaper); ++i) {
    const char* model = kFig6aPaper[i].model;
    const double variance = reports[2 * i].hours_to_target;
    const double max = reports[2 * i + 1].hours_to_target;
    const double ratio = variance / max;
    const double paper = kFig6aPaper[i].max_over_variance;
    geo *= ratio;
    max_wins += ratio > 1.0;
    paper_max_wins += paper > 1.0;
    if ((ratio > 1.0) != (paper > 1.0)) flips.push_back(model);
    table.AddRow({model, StrFormat("%.1f", variance), StrFormat("%.1f", max),
                  FormatSpeedup(ratio), FormatSpeedup(paper)});
    // Either metric moves time-to-target by at most 10% on any model.
    claims.push_back(BandClaim(StrFormat("fig6a.%s", model), "measured",
                               "%.2fx", paper, ratio, 0.90, 1.10));
  }
  std::printf("%s\n", table.ToAscii().c_str());
  geo = std::pow(geo, 1.0 / static_cast<double>(std::size(kFig6aPaper)));
  std::printf("geometric-mean advantage of Max: %.3fx (paper: 1.03x avg)\n",
              geo);
  claims.push_back(
      {"fig6a.max-wins", StrFormat("%d of 6 models", paper_max_wins),
       StrFormat("%d of 6; flips: %s", max_wins,
                 flips.empty() ? "none" : Join(flips, ", ").c_str()),
       "measured", "Max wins on >= 4 of 6 models", max_wins >= 4,
       flips.empty()});
  claims.push_back(
      BandClaim("fig6a.geomean", "measured", "%.3fx", 1.03, geo, 1.0, kInf));
  return claims;
}

// Figure 6(b): scheduling policy — dynamic threshold-triggered adjustment
// (FlexMoE) vs re-planning every {10, 50, 100} steps with modifications
// executed before training continues. The paper's interval/dynamic ratios:
constexpr struct {
  const char* model;
  double interval_over_dynamic[3];  // at intervals 10, 50, 100
} kFig6bPaper[] = {
    {"BERT-MoE-L", {1.09, 0.98, 1.15}},
    {"GPT-MoE-L", {1.05, 1.03, 1.08}},
    {"Swin-MoE-L", {1.11, 1.03, 1.20}},
};

Cells Fig6bCells(const CommonFlags& flags) {
  Cells cells;
  for (const auto& row : kFig6bPaper) {
    for (int interval : {0, 10, 50, 100}) {  // 0 = dynamic
      cells.push_back(Cell("flexmoe", *ModelByName(row.model), 64,
                           flags.quick ? 5 : 15, flags.quick ? 40 : 50, 41));
      ExperimentOptions& o = cells.back().options;
      if (interval > 0) {
        o.scheduler.policy = TriggerPolicy::kStaticInterval;
        o.scheduler.static_interval_steps = interval;
        o.executor.blocking = true;  // modifications finish first
      }
    }
  }
  return cells;
}

std::vector<Claim> Fig6b(const CommonFlags&, const Reports& reports) {
  bench::PrintHeader(
      "Figure 6(b) — scheduling policy: dynamic vs static intervals",
      "X-MoE-L models on 64 GPUs, intervals {10, 50, 100}");
  Table table({"model", "dynamic (h)", "i=10 (h)", "i=50 (h)", "i=100 (h)",
               "i10/dyn ours(paper)", "i50/dyn ours(paper)",
               "i100/dyn ours(paper)"});
  std::vector<Claim> claims;
  int ours_i10_best = 0, paper_i10_best = 0, i50_is_i100 = 0;
  for (size_t m = 0; m < std::size(kFig6bPaper); ++m) {
    const ExperimentReport* r = &reports[4 * m];
    std::vector<std::string> cols = {kFig6bPaper[m].model};
    for (int k = 0; k < 4; ++k) {
      cols.push_back(StrFormat("%.1f", r[k].hours_to_target));
    }
    std::vector<double> ours, paper;
    for (int k = 0; k < 3; ++k) {
      ours.push_back(r[k + 1].hours_to_target / r[0].hours_to_target);
      paper.push_back(kFig6bPaper[m].interval_over_dynamic[k]);
      cols.push_back(StrFormat("%.2fx(%.2fx)", ours[k], paper[k]));
    }
    table.AddRow(cols);
    // Blocking re-plans and stale placements cost far more here than in
    // the paper.
    auto wins_big = [](const std::vector<double>& v) {
      return *std::min_element(v.begin(), v.end()) > 1.5;
    };
    claims.push_back({StrFormat("fig6b.%s", kFig6bPaper[m].model),
                      Series(paper, "%.2f") + "x", Series(ours, "%.2f") + "x",
                      "measured", "dynamic wins by > 1.50x at every interval",
                      wins_big(ours), wins_big(paper)});
    ours_i10_best += ours[0] < std::min(ours[1], ours[2]);
    paper_i10_best += paper[0] < std::min(paper[1], paper[2]);
    i50_is_i100 += r[2].hours_to_target == r[3].hours_to_target;
  }
  std::printf("%s\n", table.ToAscii().c_str());
  // So the shortest interval is our best static choice. A run of at most
  // 50 steps (40 at --quick, 50 at full scale) re-plans only at step 0 at
  // both i=50 and i=100: those two columns are one run printed twice.
  claims.push_back(
      {"fig6b.i10-best-static", StrFormat("%d of 3 models", paper_i10_best),
       StrFormat("%d of 3 (i50 = i100 on %d)", ours_i10_best, i50_is_i100),
       "measured", "i=10 the best interval on every model",
       ours_i10_best == 3, paper_i10_best == 3});
  return claims;
}

// Figure 6(c): cost-model validation — estimated vs real execution cost
// for computation, All-to-All, and AllReduce across input sizes. The paper
// reports an average prediction error below 3%. "Real" is the
// discrete-event engine; "estimated" is the profiled analytic model the
// Policy Maker uses, calibrated from that same engine.
std::vector<Claim> Fig6c(const CommonFlags&, const Reports&) {
  bench::PrintHeader("Figure 6(c) — cost model estimation accuracy",
                     "estimated/real ratio across input sizes, 3 primitives");
  const Topology topo = *Topology::Create(AzureA100Options(64));
  Profiler profiler(&topo, GpuSpec{}, ProfilerOptions{});
  const double flops_per_token = GptMoES().expert_fwdbwd_flops_per_token();
  const HardwareProfile profile = *profiler.Calibrate(flops_per_token);

  Table table({"primitive", "input size", "real cost (ms)",
               "estimated (ms)", "est/real"});
  RunningStat err;
  auto add = [&](const char* primitive, const std::string& size, double real,
                 double est) {
    err.Add(std::abs(est / real - 1.0));
    table.AddRow({primitive, size, StrFormat("%.3f", real * 1e3),
                  StrFormat("%.3f", est * 1e3),
                  StrFormat("%.3f", est / real)});
  };
  // Computation (Eq. 7) across token counts.
  for (double tokens : {512.0, 2048.0, 8192.0, 32768.0, 131072.0}) {
    ClusterState cluster(&topo);
    add("Computation", StrFormat("%.0f tokens", tokens),
        ExecCompute(&cluster, profile, 0, tokens, flops_per_token, 0.0),
        profile.ComputeSeconds(tokens, flops_per_token));
  }
  // All-to-All across per-pair payload sizes (uniform exchange).
  for (double mb : {0.25, 1.0, 4.0, 16.0}) {
    ByteMatrix m = MakeByteMatrix(topo.num_gpus());
    for (int s = 0; s < topo.num_gpus(); ++s) {
      for (int d = 0; d < topo.num_gpus(); ++d) {
        if (s != d) m[s][d] = mb * 1e6;
      }
    }
    ClusterState cluster(&topo);
    add("AllToAll", StrFormat("%.2f MB/pair", mb),
        ExecAllToAll(&cluster, profile, m, 0.0).finish,
        A2ASecondsAnalytic(m, profile));
  }
  // AllReduce across message sizes and group shapes.
  const std::vector<std::vector<GpuId>> groups = {
      {0, 1, 2, 3}, {0, 1, 8, 9}, {0, 8, 16, 24, 32, 40, 48, 56}};
  for (const auto& group : groups) {
    for (double mb : {1.0, 16.0, 64.0}) {
      ClusterState cluster(&topo);
      add("AllReduce",
          StrFormat("%.0f MB, %zu GPUs/%d nodes", mb, group.size(),
                    topo.NodesSpanned(group)),
          ExecRingAllReduce(&cluster, profile, mb * 1e6, group, 0.0).finish,
          profile.AllReduceSeconds(mb * 1e6, group));
    }
  }
  std::printf("%s\n", table.ToAscii().c_str());
  std::printf("mean |est/real - 1| = %.2f%%   (paper: < 3%%)\n",
              err.mean() * 100.0);
  return {{"fig6c.mean-error", "< 3%", StrFormat("%.2f%%", err.mean() * 100.0),
           "self-consistent", "< 3%", err.mean() < 0.03, true}};
}

// Figure 7(a): token efficiency x expert efficiency during training for
// four methods. The paper's quadrants: DeepSpeed drops tokens and stays
// imbalanced (low/low); SWIPE re-assigns for strict balance (low token,
// high expert); FasterMoE drops nothing but shadows coarsely (100% token,
// middling expert); FlexMoE sits closest to the (100%, 100%) ideal; all
// four drift toward it as the balance loss tames the skew.
Cells Fig7aCells(const CommonFlags& flags) {
  Cells cells;
  for (const char* system : {"deepspeed", "swipe", "fastermoe", "flexmoe"}) {
    cells.push_back(Cell(system, GptMoEL(), 64, flags.quick ? 5 : 20,
                         flags.quick ? 60 : 150, 43));
  }
  return cells;
}

std::vector<Claim> Fig7a(const CommonFlags&, const Reports& reports) {
  bench::PrintHeader(
      "Figure 7(a) — token efficiency vs expert efficiency trajectories",
      "DeepSpeed / SWIPE / FasterMoE / FlexMoE on a GPT-MoE trace");
  Table table({"system", "phase", "token efficiency", "expert efficiency"});
  // Per system, the early (first quarter) and late (last quarter) means
  // and their distance to the (1, 1) ideal.
  struct Phase {
    double token = 0.0, expert = 0.0, distance = 0.0;
  } phases[4][2];
  std::vector<std::string> not_improving;
  for (size_t i = 0; i < 4; ++i) {
    const auto& steps = reports[i].stats.steps();
    const size_t n = steps.size();
    const size_t bounds[2][2] = {{0, n / 4}, {3 * n / 4, n}};
    for (int p = 0; p < 2; ++p) {
      Phase& phase = phases[i][p];
      const double len = static_cast<double>(bounds[p][1] - bounds[p][0]);
      for (size_t s = bounds[p][0]; s < bounds[p][1]; ++s) {
        phase.token += steps[s].token_efficiency;
        phase.expert += steps[s].expert_efficiency;
      }
      phase.token /= len;
      phase.expert /= len;
      phase.distance = std::hypot(1.0 - phase.token, 1.0 - phase.expert);
      table.AddRow({reports[i].system, p == 0 ? "early" : "late",
                    StrFormat("%.1f%%", 100.0 * phase.token),
                    StrFormat("%.1f%%", 100.0 * phase.expert)});
    }
    // Improving means moving at least one point nearer the ideal.
    if (phases[i][1].distance > phases[i][0].distance - 0.01) {
      not_improving.push_back(reports[i].system);
    }
  }
  std::printf("%s\n", table.ToAscii().c_str());

  // The paper's quadrants, held in both phases: DeepSpeed and SWIPE drop
  // tokens, DeepSpeed's experts run below FlexMoE's, SWIPE's are balanced,
  // and FasterMoE keeps every token with middling experts.
  bool quadrants = true;
  for (int p = 0; p < 2; ++p) {
    const Phase &ds = phases[0][p], &swipe = phases[1][p], &fm = phases[2][p];
    quadrants = quadrants && ds.token < 0.5 &&
                ds.expert < phases[3][p].expert && swipe.token < 0.5 &&
                swipe.expert > 0.95 && fm.token > 0.999 && fm.expert >= 0.5 &&
                fm.expert <= 0.95;
  }
  auto late = [&](size_t i) {
    return StrFormat("%.0f/%.0f%%", 100.0 * phases[i][1].token,
                     100.0 * phases[i][1].expert);
  };
  const Phase* flex = phases[3];
  int nearer_than_flexmoe = 0;
  for (size_t i = 0; i < 3; ++i) {
    nearer_than_flexmoe += phases[i][1].distance < flex[1].distance;
  }
  return {
      {"fig7a.quadrants", "DS low/low, SWIPE low/high, FasterMoE 100%/mid",
       "DS " + late(0) + ", SWIPE " + late(1) + ", FasterMoE " + late(2),
       "measured",
       "token: DS, SWIPE < 50%, FasterMoE > 99.9%; expert: DS < FlexMoE, "
       "SWIPE > 95%, FasterMoE 50-95%",
       quadrants, true},
      {"fig7a.flexmoe-nearest-ideal", "nearest of 4",
       StrFormat("%d nearer (distance %.3f)", nearer_than_flexmoe,
                 flex[1].distance),
       "measured", "nearer than DeepSpeed and SWIPE",
       flex[1].distance <
           std::min(phases[0][1].distance, phases[1][1].distance),
       nearer_than_flexmoe == 0},
      {"fig7a.improve-late", "all 4 improve",
       StrFormat("%zu of 4; not: %s", 4 - not_improving.size(),
                 not_improving.empty() ? "none"
                                       : Join(not_improving, ", ").c_str()),
       "measured", "FlexMoE improves late",
       std::count(not_improving.begin(), not_improving.end(), "FlexMoE") == 0,
       not_improving.empty()}};
}

// Figure 7(b): scalability — throughput of a single 64-expert MoE layer on
// 8/16/32/64 GPUs, normalized to DeepSpeed on 8 GPUs. The paper reports
// FlexMoE reaching 6.7/10.7/19.8/35.6x while DeepSpeed and FasterMoE trail.
// Throughput counts EFFECTIVE tokens (processed by their gate-chosen
// experts): DeepSpeed runs at its training configuration (capacity 1.0),
// so its dropped tokens do not count — the same normalization that makes
// the paper's FlexMoE-vs-DeepSpeed-8 ratios exceed the GPU ratio.
constexpr int kFig7bGpus[4] = {8, 16, 32, 64};

Cells Fig7bCells(const CommonFlags& flags) {
  // One 64-expert MoE layer with GPT-MoE-L expert dimensions, inside one
  // attention block.
  ModelConfig layer = GptMoEL();
  layer.name = "MoE-layer-64e";
  layer.num_layers = 2;
  layer.num_moe_layers = 1;
  Cells cells;
  for (int gpus : kFig7bGpus) {
    for (const char* system : {"deepspeed", "fastermoe", "flexmoe"}) {
      cells.push_back(Cell(system, layer, gpus, flags.quick ? 5 : 25,
                           flags.quick ? 40 : 100, 47));
      cells.back().options.workload.scenario.name = flags.workload;
    }
  }
  return cells;
}

std::vector<Claim> Fig7b(const CommonFlags&, const Reports& reports) {
  bench::PrintHeader("Figure 7(b) — scalability on 8/16/32/64 GPUs",
                     "single MoE layer, 64 experts, speedup vs DeepSpeed-8");
  const std::vector<double> paper_flex = {6.7, 10.7, 19.8, 35.6};
  double speedup[4][3];  // [gpu count][system] over DeepSpeed on 8 GPUs
  for (size_t i = 0; i < 12; ++i) {
    speedup[i / 3][i % 3] = reports[i].throughput_tokens_per_sec *
                            reports[i].mean_effective_token_rate;
  }
  const double base = speedup[0][0];
  Table table({"GPUs", "DeepSpeed", "FasterMoE", "FlexMoE",
               "FlexMoE (paper)"});
  std::vector<double> flex, lead;
  bool ordered = true;
  for (size_t g = 0; g < 4; ++g) {
    for (double& s : speedup[g]) s /= base;
    table.AddRow({StrFormat("%d", kFig7bGpus[g]),
                  StrFormat("%.1fx", speedup[g][0]),
                  StrFormat("%.1fx", speedup[g][1]),
                  StrFormat("%.1fx", speedup[g][2]),
                  StrFormat("%.1fx", paper_flex[g])});
    flex.push_back(speedup[g][2]);
    lead.push_back(speedup[g][2] / speedup[g][0]);
    ordered = ordered && speedup[g][2] >= speedup[g][1] &&
              speedup[g][1] >= speedup[g][0];
  }
  std::printf("%s\n", table.ToAscii().c_str());

  const auto [lead_lo, lead_hi] = std::minmax_element(lead.begin(), lead.end());
  const double fm_gap[2] = {speedup[0][2] / speedup[0][1],
                            speedup[3][2] / speedup[3][1]};
  return {
      {"fig7b.ordering", "FlexMoE leads", ordered ? "at 4 of 4" : "no",
       "measured", "FlexMoE >= FasterMoE >= DeepSpeed at every G", ordered,
       true},
      // 8x the GPUs: a linear scaler would gain 8x.
      {"fig7b.flexmoe-scaling", Series(paper_flex, "%.1f") + "x",
       Series(flex, "%.1f") + "x", "measured", "> 3x from 8 to 64 GPUs",
       flex[3] > 3.0 * flex[0], paper_flex[3] > 3.0 * paper_flex[0]},
      {"fig7b.lead-over-deepspeed", "6.7x at 8 GPUs",
       StrFormat("%.1f-%.1fx", *lead_lo, *lead_hi), "measured",
       "in [1.2x, 3.0x] at every G", *lead_lo >= 1.2 && *lead_hi <= 3.0,
       paper_flex[0] <= 3.0},
      {"fig7b.fastermoe-loses-ground", "FasterMoE trails more",
       StrFormat("%.2fx -> %.2fx", fm_gap[0], fm_gap[1]), "measured",
       "FlexMoE/FasterMoE higher at 64 GPUs than 8", fm_gap[1] > fm_gap[0],
       true}};
}

// Table 2: model quality after the full training budget — DeepSpeed's
// capacity-1.0 token dropping costs statistical efficiency, FlexMoE's
// lossless routing does not. The convergence model is anchored on the
// paper's Table 2 values with a NOMINAL DeepSpeed token efficiency; this
// table re-derives DeepSpeed's quality from its MEASURED token efficiency
// on the synthetic trace.
Cells Table2Cells(const CommonFlags& flags) {
  Cells cells;
  for (const ModelConfig& model : AllModelPresets()) {
    cells.push_back(Cell("deepspeed", model, model.num_experts == 32 ? 32 : 64,
                         flags.quick ? 5 : 25, flags.quick ? 40 : 120, 29));
  }
  return cells;
}

std::vector<Claim> Table2(const CommonFlags&, const Reports& reports) {
  bench::PrintHeader("Table 2 — model quality comparison",
                     "DeepSpeed vs FlexMoE on all six Table 1 models");
  Table table({"model", "metric", "DeepSpeed (paper)", "DeepSpeed (ours)",
               "FlexMoE (paper)", "FlexMoE (ours)", "measured DS tok-eff"});
  const std::vector<ModelConfig> models = AllModelPresets();
  const double coef = 0.001;  // every cell's balance coefficient
  std::vector<Claim> claims;
  bool anchored = true, deficit_tracks = true;
  for (size_t i = 0; i < models.size(); ++i) {
    const ExperimentReport& ds = reports[i];
    const ModelQuality quality = *QualityForModel(models[i]);
    for (const QualityCalibration& calib : quality.metrics) {
      const ConvergenceModel conv = *ConvergenceModel::Create(calib);
      const double u_total = calib.u_total_tokens;
      const double ours_ds =
          conv.MetricAt(u_total * ds.mean_effective_token_rate, coef);
      const double ours_flex = conv.MetricAt(u_total, coef);
      table.AddRow({models[i].name, calib.metric_name,
                    StrFormat("%.3f", calib.deepspeed_value),
                    StrFormat("%.3f", ours_ds),
                    StrFormat("%.3f", calib.flexmoe_value),
                    StrFormat("%.3f", ours_flex),
                    StrFormat("%.3f", ds.mean_token_efficiency)});
      // DeepSpeed is worse than FlexMoE: higher perplexity, lower accuracy.
      const bool ppl = calib.kind == MetricKind::kPerplexity;
      claims.push_back(BandClaim(
          StrFormat("table2.%s.%s.deepspeed", models[i].name.c_str(),
                    calib.metric_name.c_str()),
          "measured", "%.3f", calib.deepspeed_value, ours_ds,
          ppl ? ours_flex : -kInf, ppl ? kInf : ours_flex));
      anchored = anchored && std::abs(ours_flex - calib.flexmoe_value) < 1e-3;
      // Below the anchor's nominal token efficiency, ours must lose more
      // than the paper's DeepSpeed did (and less above it).
      const bool worse_than_paper = ppl ? ours_ds > calib.deepspeed_value
                                        : ours_ds < calib.deepspeed_value;
      deficit_tracks = deficit_tracks &&
                       worse_than_paper == (ds.mean_effective_token_rate <
                                            calib.nominal_ds_token_eff);
    }
  }
  std::printf("%s\n", table.ToAscii().c_str());
  claims.push_back({"table2.flexmoe-column", "8 values",
                    anchored ? "8 of 8 equal" : "moved", "anchored",
                    "within 0.001 of the paper (the fit's input)", anchored,
                    true});
  claims.push_back({"table2.deficit-tracks-tok-eff", "tok-eff 0.45 (nominal)",
                    deficit_tracks ? "tracks on 8 of 8" : "does not track",
                    "measured",
                    "DS loses more than the paper's iff tok-eff < nominal",
                    deficit_tracks, true});
  return claims;
}

// Ablations beyond the paper on GPT-MoE-S (16 experts, 2 MoE layers, 16
// GPUs): one FlexMoE cell per value of one scheduler knob, five values.
Cells KnobSweepCells(const CommonFlags& flags, uint64_t seed,
                     const std::function<void(int, ExperimentOptions*)>& set) {
  ModelConfig model = GptMoES();
  model.num_experts = 16;
  model.num_moe_layers = 2;
  Cells cells;
  for (int i = 0; i < 5; ++i) {
    cells.push_back(Cell("flexmoe", model, 16, flags.quick ? 10 : 25,
                         flags.quick ? 40 : 80, seed));
    cells.back().options.workload.scenario.name = flags.workload;
    set(i, &cells.back().options);
  }
  return cells;
}

/// The knob-sweep table: one row per knob value.
void PrintKnobSweep(const char* knob, const std::vector<std::string>& values,
                    const Reports& reports) {
  Table table({knob, "step time (ms)", "balance", "ops applied",
               "hours to target"});
  for (size_t i = 0; i < reports.size(); ++i) {
    const ExperimentReport& r = reports[i];
    table.AddRow({values[i], StrFormat("%.1f", r.mean_step_seconds * 1e3),
                  StrFormat("%.2f", r.mean_balance_ratio),
                  StrFormat("%lld",
                            static_cast<long long>(r.stats.TotalOpsApplied())),
                  StrFormat("%.2f", r.hours_to_target)});
  }
  std::printf("%s\n", table.ToAscii().c_str());
}

// vExpert granularity: the slot count per GPU sets the scheduling
// granularity (paper Section 3.2). One slot pins every slot by the >= 1
// vExpert invariant, so nothing can replicate; more slots approximate
// fractional placement at higher planning cost.
constexpr int kSlots[5] = {1, 2, 4, 8, 16};

Cells SlotsCells(const CommonFlags& flags) {
  return KnobSweepCells(flags, 53, [](int i, ExperimentOptions* o) {
    o->slots_per_gpu = kSlots[i];
  });
}

std::vector<Claim> AblationSlots(const CommonFlags&, const Reports& r) {
  bench::PrintHeader(
      "Ablation — vExpert slots per GPU (scheduling granularity)",
      "GPT-MoE-S on 16 GPUs, slots swept over {1, 2, 4, 8, 16}");
  PrintKnobSweep("slots/GPU", {"1", "2", "4", "8", "16"}, r);
  const int64_t pinned_ops = r[0].stats.TotalOpsApplied();
  return {{"ablation-slots.one-slot-pinned", "-",
           StrFormat("%lld ops", static_cast<long long>(pinned_ops)),
           "measured", "no op applied at 1 slot/GPU", pinned_ops == 0, true},
          {"ablation-slots.granularity", "-",
           StrFormat("%.2f/%.2f/%.2f", r[0].mean_balance_ratio,
                     r[1].mean_balance_ratio, r[2].mean_balance_ratio),
           "measured", "balance improves from 1 to 2 to 4 slots",
           r[2].mean_balance_ratio < r[1].mean_balance_ratio &&
               r[1].mean_balance_ratio < r[0].mean_balance_ratio,
           true}};
}

// The scheduler's balance-ratio trigger threshold: a tight threshold
// chases sampling noise (adjustment churn), a loose one sleeps through
// real imbalance.
constexpr double kThresholds[5] = {1.05, 1.15, 1.3, 1.5, 2.0};

Cells ThresholdCells(const CommonFlags& flags) {
  return KnobSweepCells(flags, 59, [](int i, ExperimentOptions* o) {
    o->scheduler.threshold = kThresholds[i];
  });
}

std::vector<Claim> AblationThreshold(const CommonFlags&, const Reports& r) {
  bench::PrintHeader(
      "Ablation — scheduler trigger threshold (balance ratio)",
      "GPT-MoE-S on 16 GPUs, threshold swept over {1.05 .. 2.0}");
  PrintKnobSweep("threshold", {"1.05", "1.15", "1.30", "1.50", "2.00"}, r);
  const int64_t ops[2] = {r[0].stats.TotalOpsApplied(),
                          r[2].stats.TotalOpsApplied()};
  return {{"ablation-threshold.churn", "-",
           StrFormat("ops %lld -> %lld, balance %.2f -> %.2f",
                     static_cast<long long>(ops[0]),
                     static_cast<long long>(ops[1]), r[0].mean_balance_ratio,
                     r[2].mean_balance_ratio),
           "measured", "1.05 vs 1.30: more ops, balance within 0.05",
           ops[0] > ops[1] &&
               std::abs(r[0].mean_balance_ratio - r[2].mean_balance_ratio) <
                   0.05,
           true},
          {"ablation-threshold.sleeps", "-",
           StrFormat("balance %.2f -> %.2f", r[2].mean_balance_ratio,
                     r[4].mean_balance_ratio),
           "measured", "2.00 vs 1.30: balance and step time rise",
           r[4].mean_balance_ratio > r[2].mean_balance_ratio &&
               r[4].mean_step_seconds > r[2].mean_step_seconds,
           true}};
}

// Interconnect sensitivity: the paper's Section 5.5 cluster is "high-speed
// interconnected". Scaling the inter-node bandwidth shows where that regime
// ends: on slow fabrics All-to-All dominates both systems.
std::vector<Claim> AblationTopology(const CommonFlags& flags, const Reports&) {
  bench::PrintHeader(
      "Ablation — inter-node bandwidth sensitivity",
      "FlexMoE vs uncapped expert parallelism on 16 GPUs (2 nodes)");
  ModelConfig model = GptMoES();
  model.num_experts = 16;
  model.num_moe_layers = 2;
  model.tokens_per_gpu = 4096;
  const int steps = flags.quick ? 40 : 80, warm = flags.quick ? 10 : 25;
  // Each bandwidth point builds its own topology, profile and systems, so
  // the sweep runs cell-per-thread like the grids.
  const std::vector<double> sweep = {25.0, 50.0, 100.0, 200.0, 400.0};
  std::vector<double> ep_ms(sweep.size()), flex_ms(sweep.size());
  ParallelFor(static_cast<int>(sweep.size()), flags.threads, [&](int i) {
    TopologyOptions topt = AzureA100Options(16);
    topt.inter_node_bytes_per_sec = sweep[static_cast<size_t>(i)] * 1e9 / 8.0;
    const Topology topo = *Topology::Create(topt);
    Profiler profiler(&topo, GpuSpec{}, ProfilerOptions{});
    const HardwareProfile profile =
        *profiler.Calibrate(model.expert_fwdbwd_flops_per_token());
    TraceGeneratorOptions t;
    t.num_experts = model.num_experts;
    t.num_moe_layers = model.num_moe_layers;
    t.num_gpus = 16;
    t.tokens_per_gpu = model.tokens_per_gpu;
    t.balance_coef = 0.001;
    t.scenario.name = flags.workload;
    t.seed = 61;
    auto run = [&](MoESystem* sys) {
      TraceGenerator gen = *TraceGenerator::Create(t);
      for (int s = 0; s < steps; ++s) sys->RunStep(gen.Step());
      return sys->stats().MeanStepSeconds(warm) * 1e3;
    };
    FlexMoEOptions flex;
    flex.model = model;
    flex.num_gpus = 16;
    auto flex_system = *FlexMoESystem::Create(flex, &topo, &profile);
    flex_ms[static_cast<size_t>(i)] = run(flex_system.get());
    StaticLayoutOptions ep;
    ep.model = model;
    ep.num_gpus = 16;
    ep.capacity_factor = 0.0;  // uncapped EP: the pure-imbalance baseline
    auto ep_system = *StaticLayoutSystem::Create(ep, &topo, &profile);
    ep_ms[static_cast<size_t>(i)] = run(ep_system.get());
  });

  Table table({"inter-node link", "EP step (ms)", "FlexMoE step (ms)",
               "FlexMoE speedup"});
  std::vector<double> speedup;
  for (size_t i = 0; i < sweep.size(); ++i) {
    speedup.push_back(ep_ms[i] / flex_ms[i]);
    table.AddRow({StrFormat("%.0f Gbps", sweep[i]),
                  StrFormat("%.1f", ep_ms[i]), StrFormat("%.1f", flex_ms[i]),
                  StrFormat("%.2fx", speedup[i])});
  }
  std::printf("%s\n", table.ToAscii().c_str());
  // Faster fabrics shrink the All-to-All floor both systems share, so the
  // balanced-compute advantage grows with bandwidth.
  return {{"ablation-topology.bandwidth", "-",
           StrFormat("%.2fx -> %.2fx", speedup.front(), speedup.back()),
           "measured", "> 1.00x everywhere; 400 Gbps above 25 Gbps",
           *std::min_element(speedup.begin(), speedup.end()) > 1.0 &&
               speedup.back() > speedup.front(),
           true}};
}

// The three differential sections below run every system of the comparison
// over a scenario set and check FlexMoE's win in each regime; their digests
// (--digests) are the nightly's golden record.
constexpr const char* kSuiteSystems[4] = {"deepspeed", "fastermoe", "swipe",
                                          "flexmoe"};

/// The scenarios of `covered` a suite runs: --workload's one, or (absent)
/// all of them.
std::vector<std::string> SuiteScenarios(
    const CommonFlags& flags, const std::vector<std::string>& covered) {
  std::vector<std::string> scenarios;
  for (const std::string& name : covered) {
    if (!flags.Given(bench::kWorkloadFlag) || name == flags.workload) {
      scenarios.push_back(name);
    }
  }
  return scenarios;
}

/// Writes --digests (when given). A failed write ends the run with exit
/// code 1: the digests are the record the run exists to leave.
void WriteDigests(const CommonFlags& flags,
                  const std::vector<MetricsDigest>& digests) {
  if (flags.digests[0] == '\0') return;
  const Status written = SaveDigests(digests, flags.digests);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    std::exit(1);
  }
  std::printf("wrote %zu digests to %s\n", digests.size(), flags.digests);
}

bool AllHold(const std::vector<Claim>& claims) {
  return std::all_of(claims.begin(), claims.end(),
                     [](const Claim& c) { return c.holds; });
}

// Workload scenario suite: every system crossed with the full scenario
// catalog (gate/logit_process.h). FlexMoE's claim is not one good workload
// — dynamic placement must beat the static layouts in EVERY regime expert
// popularity can take. One claim row per scenario holds the differential
// (time-to-quality, effective throughput, and balance against the
// imbalance-visible baselines), and one more holds auto-K to the best
// static chunk depth (DESIGN.md §12).
constexpr int kAutoKDepths[5] = {0, 1, 2, 4, 8};  // 0 = auto

ExperimentOptions SuiteCell(const std::string& scenario,
                            const std::string& system, bool quick) {
  ExperimentOptions o = WorkloadGoldenCell(scenario, system);
  if (!quick) {
    // Full scale: a longer horizon on more devices; scenario clocks grow
    // with it so each regime still expresses several times per run.
    o.num_gpus = 16;
    o.measure_steps = 120;
    o.warmup_steps = 20;
    o.workload.scenario.shift_step = 60;
    o.workload.scenario.diurnal_period = 48.0;
    o.workload.scenario.tenant_block_steps = 20;
  }
  return o;
}

/// Effective throughput: tokens/sec discounted by the fraction of tokens
/// that retain full training value (DeepSpeed drops at capacity, SWIPE
/// re-routes to wrong experts). The fair cross-system rate.
double EffectiveThroughput(const ExperimentReport& r) {
  return r.throughput_tokens_per_sec * r.mean_effective_token_rate;
}

/// Four systems per scenario at --pipeline-chunks, then FlexMoE per
/// scenario at every auto-K depth but --pipeline-chunks itself: the suite
/// row's FlexMoE cell is that run already.
Cells WorkloadSuiteCells(const CommonFlags& flags) {
  const std::vector<std::string> scenarios =
      SuiteScenarios(flags, ScenarioCatalog());
  Cells cells;
  for (const std::string& scenario : scenarios) {
    for (const char* system : kSuiteSystems) {
      cells.push_back({"", SuiteCell(scenario, system, flags.quick)});
      cells.back().options.pipeline_chunks = flags.pipeline_chunks;
    }
  }
  for (const std::string& scenario : scenarios) {
    for (const int depth : kAutoKDepths) {
      if (depth == flags.pipeline_chunks) continue;
      cells.push_back({"", SuiteCell(scenario, "flexmoe", flags.quick)});
      cells.back().options.pipeline_chunks = depth;
    }
  }
  return cells;
}

std::vector<Claim> WorkloadSuite(const CommonFlags& flags,
                                 const Reports& reports) {
  bench::PrintHeader("Workload scenario suite — all systems x catalog",
                     "dynamic placement must win in every popularity regime");
  const std::vector<std::string> scenarios =
      SuiteScenarios(flags, ScenarioCatalog());
  std::vector<MetricsDigest> digests;
  std::vector<Claim> claims;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const ExperimentReport* row = &reports[4 * i];
    for (int s = 0; s < 4; ++s) {
      digests.push_back(DigestFromReport(
          StrFormat("%s/%s", scenarios[i].c_str(), kSuiteSystems[s]), row[s]));
    }
    const ExperimentReport& flex = row[3];

    Table table({"system", "step (ms)", "balance", "eff. Mtok/s",
                 "token eff", "hours to target"});
    for (int s = 0; s < 4; ++s) {
      const ExperimentReport& r = row[s];
      table.AddRow({r.system, StrFormat("%.2f", r.mean_step_seconds * 1e3),
                    StrFormat("%.2f", r.mean_balance_ratio),
                    StrFormat("%.2f", EffectiveThroughput(r) / 1e6),
                    StrFormat("%.3f", r.mean_token_efficiency),
                    StrFormat("%.2f", r.hours_to_target)});
    }
    std::printf("--- %s ---\n%s", scenarios[i].c_str(),
                table.ToAscii().c_str());

    // The differential: FlexMoE reaches quality first against every
    // baseline, sustains the highest effective token rate, and holds
    // better balance than the baselines that let imbalance show (SWIPE
    // buys balance=1 by re-routing tokens away from their experts, which
    // the effective-rate and time-to-quality columns charge it for).
    bool ok = flex.mean_balance_ratio < row[0].mean_balance_ratio &&
              flex.mean_balance_ratio < row[1].mean_balance_ratio;
    double time_lead = kInf, rate_lead = kInf;
    for (int s = 0; s < 3; ++s) {
      const ExperimentReport& base = row[s];
      ok = ok && flex.hours_to_target < base.hours_to_target &&
           EffectiveThroughput(flex) > EffectiveThroughput(base);
      time_lead =
          std::min(time_lead, base.hours_to_target / flex.hours_to_target);
      rate_lead = std::min(rate_lead, EffectiveThroughput(flex) /
                                          EffectiveThroughput(base));
    }
    std::printf("  differential: %s\n\n", ok ? "FlexMoE wins" : "VIOLATED");
    claims.push_back(
        {StrFormat("workload-suite.%s", scenarios[i].c_str()), "-",
         StrFormat("%.2fx time, %.2fx rate, balance %.2f vs %.2f/%.2f",
                   time_lead, rate_lead, flex.mean_balance_ratio,
                   row[0].mean_balance_ratio, row[1].mean_balance_ratio),
         "measured",
         "> 1.00x time to target and eff. rate vs each baseline; balance "
         "below DeepSpeed and FasterMoE",
         ok, true});
  }

  // Auto-K: FlexMoE with planned per-layer chunk depth must match or beat
  // the best static depth in every regime — otherwise the overhead-honest
  // model is mis-ranking the candidates somewhere and auto-K is a
  // regression, not a feature.
  const ExperimentReport* next = &reports[4 * scenarios.size()];
  for (size_t i = 0; i < scenarios.size(); ++i) {
    double wall[5];
    for (int d = 0; d < 5; ++d) {
      const ExperimentReport& r = kAutoKDepths[d] == flags.pipeline_chunks
                                      ? reports[4 * i + 3]
                                      : *next++;
      wall[d] = r.mean_step_seconds;
    }
    const double auto_wall = wall[0];
    double best_static = wall[1];
    int best_depth = kAutoKDepths[1];
    for (int d = 2; d < 5; ++d) {
      if (wall[d] < best_static) {
        best_static = wall[d];
        best_depth = kAutoKDepths[d];
      }
    }
    const bool ok = auto_wall <= best_static * (1.0 + 1e-9);
    std::printf(
        "--- %s auto-K: %.3f ms vs best static K=%d %.3f ms -> %s\n",
        scenarios[i].c_str(), auto_wall * 1e3, best_depth, best_static * 1e3,
        ok ? "auto wins/ties" : "VIOLATED");
    claims.push_back(
        {StrFormat("workload-suite.%s.auto-k", scenarios[i].c_str()), "-",
         StrFormat("%.3f ms vs K=%d %.3f ms", auto_wall * 1e3, best_depth,
                   best_static * 1e3),
         "measured", "auto-K step <= the best static K's (1e-9)", ok, true});
  }
  std::printf("\n");
  WriteDigests(flags, digests);
  if (AllHold(claims)) {
    std::printf("all %zu scenarios: FlexMoE beats every static baseline on "
                "time-to-quality and effective throughput.\n",
                scenarios.size());
  }
  return claims;
}

// Latency-SLO serving suite (DESIGN.md §8): under skewed, time-varying load
// a static layout either recirculates overflow (DeepSpeed capacity,
// SWIPE's cap) or re-broadcasts shadows every batch (FasterMoE), inflating
// tail latency — FlexMoE re-places experts once and serves balanced
// batches. Two suites run by default (--size-mix selects one):
//  * FIXED sizes — the single-size stream; the differential is SLO
//    attainment (arrived-denominated) and p99 where skew creates real
//    queueing: in the bursty and multi-tenant regimes FlexMoE must attain
//    STRICTLY more with no worse p99 than every static baseline (when both
//    attain 100%, a STRICTLY lower p99 instead).
//  * HEAVY sizes — the chat/batch-inference mix with deadline-aware
//    shedding (ServingSizeMixCell): request sizes span the batch token
//    cap, so admission chunks and sheds; the differential is GOODPUT
//    (SLO-met tokens/sec over arrived traffic), strict in the same two
//    regimes. Every cell also audits the admission ledger: arrived ==
//    completed + shed + queued, i.e. nothing is silently dropped.
// Each suite x strict scenario is one claim row; the other scenarios print
// an informational line. --trace-out / --metrics-out / --decisions-out add
// the traced headline cell (multi-tenant x flexmoe, fixed sizes) and print
// the policy-adoption lag behind each tenant switch.
const std::vector<std::string>& ServingScenarios() {
  static const std::vector<std::string> kScenarios = {
      "pretrain-steady", "bursty", "diurnal", "multi-tenant"};
  return kScenarios;
}

/// Scenarios where the differential is a claim row.
bool IsStrictScenario(const std::string& s) {
  return s == "bursty" || s == "multi-tenant";
}

ExperimentOptions ServingCell(const std::string& scenario,
                              const std::string& system, bool heavy,
                              const CommonFlags& flags) {
  ExperimentOptions o =
      heavy ? ServingSizeMixCell(scenario, system, flags.admission)
            : ServingGoldenCell(scenario, system);
  if (!flags.quick) {
    // Full scale: twice the horizon; scenario clocks stretch with it so
    // each regime still expresses several times per run.
    o.measure_steps = 120;
    o.warmup_steps = 20;
    o.workload.scenario.shift_step = 60;
    o.workload.scenario.diurnal_period = 40.0;
    o.workload.scenario.tenant_block_steps = 20;
  }
  o.pipeline_chunks = flags.pipeline_chunks;
  return o;
}

/// The traced headline cell: multi-tenant FlexMoE serving, fixed sizes,
/// with observability exporting the requested artifacts.
ExperimentOptions TracedHeadlineCell(const CommonFlags& flags) {
  ExperimentOptions o =
      ServingCell("multi-tenant", "flexmoe", /*heavy=*/false, flags);
  o.observability.enabled = true;
  o.observability.trace_out = flags.trace_out;
  o.observability.metrics_out = flags.metrics_out;
  o.observability.decisions_out = flags.decisions_out;
  return o;
}

/// Whether --size-mix runs the heavy-tailed (`heavy`) or fixed-size suite.
bool RunsSuite(const CommonFlags& flags, bool heavy) {
  return flags.size_mix != std::string(heavy ? "fixed" : "heavy");
}

/// The traced headline cell when requested, then four systems per suite
/// and scenario.
Cells ServingCells(const CommonFlags& flags) {
  const std::vector<std::string> scenarios =
      SuiteScenarios(flags, ServingScenarios());
  if (scenarios.empty()) {
    bench::UsageError(StrFormat(
        "--workload '%s' is not a serving scenario (serving-slo runs: %s)",
        flags.workload, Join(ServingScenarios(), ", ").c_str()));
  }
  Cells cells;
  if (flags.ObservabilityRequested()) {
    cells.push_back({"", TracedHeadlineCell(flags)});
  }
  for (const bool heavy : {false, true}) {
    if (!RunsSuite(flags, heavy)) continue;
    for (const std::string& scenario : scenarios) {
      for (const char* system : kSuiteSystems) {
        cells.push_back({"", ServingCell(scenario, system, heavy, flags)});
      }
    }
  }
  return cells;
}

/// The conservation audit every cell must pass: nothing that arrived was
/// silently dropped — it completed, was counted shed, or is still queued.
bool LedgerHolds(const ServingReport& r) {
  return r.requests_arrived ==
             r.requests_completed + r.requests_shed +
                 r.requests_queued_at_end &&
         r.tokens_arrived == r.tokens_completed + r.tokens_shed +
                                 r.tokens_queued_at_end;
}

/// The traced headline's summary. The decision audit turns "the planner
/// lags tenant switches" into a number: every tenant-block boundary is a
/// switch step, and PolicyAdoptionLags reports how many batches passed
/// before a plan was adopted.
void PrintTracedHeadline(const CommonFlags& flags,
                         const ExperimentReport& report) {
  const ExperimentOptions o = TracedHeadlineCell(flags);
  std::printf("=== traced headline: serve/multi-tenant/flexmoe ===\n");
  const ServingReport& r = report.serve;
  std::printf("attain %.1f%%  p99 %.2f ms  shed %lld  (%d batches)\n",
              100.0 * r.slo_attainment, r.p99_latency_seconds * 1e3,
              static_cast<long long>(r.requests_shed), o.measure_steps);
  if (flags.trace_out[0] != '\0') {
    std::printf("wrote Chrome trace to %s\n", flags.trace_out);
  }
  if (flags.metrics_out[0] != '\0') {
    std::printf("wrote metrics snapshot to %s\n", flags.metrics_out);
  }
  if (flags.decisions_out[0] == '\0') return;
  std::printf("wrote decision audit to %s\n", flags.decisions_out);

  // Serving runs exactly measure_steps microbatches (no warmup prefix),
  // so the hot tenant rotates at every multiple of tenant_block_steps.
  const Result<std::string> jsonl = ReadFile(flags.decisions_out);
  FLEXMOE_CHECK_MSG(jsonl.ok(), jsonl.status().ToString());
  const Result<std::vector<obs::PolicyDecisionRecord>> records =
      obs::ParseDecisionLog(*jsonl);
  FLEXMOE_CHECK_MSG(records.ok(), records.status().ToString());
  std::vector<int64_t> switches;
  const int block = o.workload.scenario.tenant_block_steps;
  for (int s = block; s < o.measure_steps; s += block) {
    switches.push_back(s);
  }
  const std::vector<int64_t> lags =
      obs::PolicyAdoptionLags(*records, switches);
  std::printf("policy adoption lag per tenant switch (batches):\n");
  for (size_t i = 0; i < switches.size(); ++i) {
    if (lags[i] < 0) {
      std::printf("  switch @%lld: no plan adopted before next switch\n",
                  static_cast<long long>(switches[i]));
    } else {
      std::printf("  switch @%lld: %lld\n",
                  static_cast<long long>(switches[i]),
                  static_cast<long long>(lags[i]));
    }
  }
  std::printf("\n");
}

std::vector<Claim> ServingSlo(const CommonFlags& flags,
                              const Reports& reports) {
  bench::PrintHeader("Serving SLO suite — all systems x serving scenarios",
                     "dynamic placement must win the tail where skew queues");
  const std::vector<std::string> scenarios =
      SuiteScenarios(flags, ServingScenarios());
  const ExperimentReport* next = reports.data();
  if (flags.ObservabilityRequested()) PrintTracedHeadline(flags, *next++);

  std::vector<MetricsDigest> digests;
  std::vector<Claim> claims;
  for (const bool heavy : {false, true}) {
    if (!RunsSuite(flags, heavy)) continue;
    std::printf("=== %s sizes (%s admission) ===\n",
                heavy ? "heavy-tailed" : "fixed",
                heavy ? flags.admission : "edf");
    for (const std::string& scenario : scenarios) {
      const ExperimentReport* row = next;
      next += 4;
      for (int s = 0; s < 4; ++s) {
        const std::string label =
            StrFormat("serve%s/%s/%s", heavy ? "-sized" : "",
                      scenario.c_str(), kSuiteSystems[s]);
        FLEXMOE_CHECK_MSG(LedgerHolds(row[s].serve),
                          label + ": admission ledger does not conserve");
        digests.push_back(DigestFromReport(label, row[s]));
      }
      const ServingReport& flex = row[3].serve;

      Table table({"system", "attain %", "goodput Mtok/s", "shed",
                   "p50 (ms)", "p99 (ms)", "recirc Mtok", "served Mtok/s"});
      for (int s = 0; s < 4; ++s) {
        const ServingReport& r = row[s].serve;
        table.AddRow(
            {row[s].system, StrFormat("%.1f", 100.0 * r.slo_attainment),
             StrFormat("%.2f", r.goodput_tokens_per_sec / 1e6),
             StrFormat("%lld", static_cast<long long>(r.requests_shed)),
             StrFormat("%.2f", r.p50_latency_seconds * 1e3),
             StrFormat("%.2f", r.p99_latency_seconds * 1e3),
             StrFormat("%.2f",
                       static_cast<double>(r.tokens_recirculated) / 1e6),
             StrFormat("%.2f", r.served_tokens_per_sec / 1e6)});
      }
      std::printf("--- %s ---\n%s", scenario.c_str(), table.ToAscii().c_str());

      bool ok = true;
      double best_attain = 0.0, best_p99 = kInf, best_goodput = 0.0;
      for (int s = 0; s < 3; ++s) {
        const ServingReport& base = row[s].serve;
        best_attain = std::max(best_attain, base.slo_attainment);
        best_p99 = std::min(best_p99, base.p99_latency_seconds);
        best_goodput = std::max(best_goodput, base.goodput_tokens_per_sec);
        if (heavy) {
          // The sized suite's claim is goodput over arrived traffic.
          ok = ok && flex.goodput_tokens_per_sec > base.goodput_tokens_per_sec;
        } else if (base.slo_attainment == 1.0 && flex.slo_attainment == 1.0) {
          // Both at full attainment: attainment cannot separate them, so
          // the win must be a strictly lower p99.
          ok = ok && flex.p99_latency_seconds < base.p99_latency_seconds;
        } else {
          ok = ok && flex.slo_attainment > base.slo_attainment &&
               flex.p99_latency_seconds <= base.p99_latency_seconds;
        }
      }
      if (!IsStrictScenario(scenario)) {
        std::printf("  differential (informational): %s\n\n",
                    ok ? "FlexMoE wins" : "not strict here");
        continue;
      }
      std::printf("  differential: %s\n\n", ok ? "FlexMoE wins" : "VIOLATED");
      claims.push_back(
          {StrFormat("serving-slo.%s.%s", heavy ? "heavy" : "fixed",
                     scenario.c_str()),
           "-",
           heavy ? StrFormat("goodput %.2f vs %.2f Mtok/s",
                             flex.goodput_tokens_per_sec / 1e6,
                             best_goodput / 1e6)
                 : StrFormat("attain %.1f%% vs %.1f%%, p99 %.2f vs %.2f ms",
                             100.0 * flex.slo_attainment, 100.0 * best_attain,
                             flex.p99_latency_seconds * 1e3, best_p99 * 1e3),
           "measured",
           heavy ? "goodput above every baseline"
                 : "attain above and p99 <= every baseline's (both at 100%: "
                   "p99 below)",
           ok, true});
    }
  }
  WriteDigests(flags, digests);
  if (AllHold(claims)) {
    std::printf(
        "bursty + multi-tenant: FlexMoE beats every static baseline — "
        "attainment/p99 at fixed sizes, goodput under the heavy-tailed "
        "mix.\n");
  }
  return claims;
}

// Elastic recovery: throughput dip and recovery time after a mid-run GPU
// fail-stop, FlexMoE vs. the static baselines. The same Expand/Shrink/
// Migrate machinery that adapts FlexMoE's placement to workload drift also
// absorbs cluster drift: after a fail-stop it drains the dead device
// (replicas cover most experts) and rebalances the survivors, so its
// steady-state step time returns to within ~10% of the pre-fault value. A
// static expert-parallel layout instead piles the dead device's experts
// onto one failover peer and pays a full checkpoint restart — its step
// time never recovers until a replacement joins.
constexpr const char* kElasticSystems[4] = {"flexmoe", "deepspeed",
                                            "fastermoe", "swipe"};

struct ElasticShape {
  int num_gpus, measure_steps, fault_step, warmup, tail_window;
};

ElasticShape ElasticRunShape(bool quick) {
  const int measure_steps = quick ? 60 : 120;
  return {quick ? 16 : 32, measure_steps, measure_steps / 3, quick ? 5 : 10,
          measure_steps / 6};
}

/// The cell of `system`; the caller picks the victim GPU.
ExperimentOptions ElasticCell(const char* system, const ElasticShape& shape) {
  ExperimentOptions o;
  o.system = system;
  o.model = GptMoES();
  o.num_gpus = shape.num_gpus;
  o.measure_steps = shape.measure_steps;
  o.warmup_steps = shape.warmup;
  o.seed = 17;
  // Capacity dropping disabled: with a capacity factor, DeepSpeed-EP masks
  // the overloaded failover peer by silently clipping its tokens — step
  // time stays flat while ~30% of the batch vanishes. Recovery has to show
  // in step time, not in discarded work.
  o.capacity_factor = 0.0;
  // Mildly skewed workload (late-training regime): with the early
  // heavy-tail skew, one hot device dominates the step for every static
  // system and a dead device elsewhere hides in its shadow. The elastic
  // question — can the system re-absorb a lost device? — needs every
  // device to matter. No balance-loss pressure shrinks it further.
  o.workload.logit_sigma = 0.3;
  o.balance_coef = 0.0;
  o.faults.scenario = "failstop";
  o.faults.fault_step = shape.fault_step;
  return o;
}

/// The fail-stop victim: the device hosting the hottest expert at fault
/// time — failures do not pick convenient victims, and a static layout
/// hurts most exactly when the lost device carried real load. (The home
/// GPU mirrors FixedExpertParallelPlacement's block distribution.)
struct Victim {
  GpuId gpu;
  int hottest_expert;
};

Victim FindVictim(const ElasticShape& shape) {
  const ExperimentOptions o = ElasticCell(kElasticSystems[0], shape);
  TraceGenerator probe = *BuildTraceGenerator(o);
  std::vector<Assignment> at_fault;
  for (int s = 0; s <= shape.fault_step; ++s) at_fault = probe.Step();
  int hottest = 0;
  for (int e = 1; e < o.model.num_experts; ++e) {
    if (at_fault[0].ExpertTotal(e) > at_fault[0].ExpertTotal(hottest)) {
      hottest = e;
    }
  }
  return {static_cast<GpuId>(static_cast<int64_t>(hottest) * shape.num_gpus /
                             o.model.num_experts),
          hottest};
}

Cells ElasticCells(const CommonFlags& flags) {
  const ElasticShape shape = ElasticRunShape(flags.quick);
  const GpuId victim = FindVictim(shape).gpu;
  Cells cells;
  for (const char* system : kElasticSystems) {
    cells.push_back({"", ElasticCell(system, shape)});
    cells.back().options.faults.gpu = victim;
  }
  return cells;
}

struct RecoveryStats {
  double pre_fault_step = 0.0;     ///< mean step seconds before the fault
  double post_fault_steady = 0.0;  ///< mean over the trailing window
  double worst_step = 0.0;         ///< peak step time at/after the fault
  int recovery_steps = -1;         ///< steps until back within 10% of pre
  double recovery_seconds = 0.0;   ///< blocking fault-handling time
  int64_t tokens_lost = 0;
  bool recovered = false;
};

RecoveryStats Analyze(const TrainingStats& stats, const ElasticShape& shape) {
  const std::vector<StepMetrics>& steps = stats.steps();
  RecoveryStats r;
  int n = 0;
  for (int s = shape.warmup; s < shape.fault_step; ++s) {
    r.pre_fault_step += steps[static_cast<size_t>(s)].step_seconds;
    ++n;
  }
  r.pre_fault_step /= std::max(1, n);

  const int total = static_cast<int>(steps.size());
  n = 0;
  for (int s = std::max(shape.fault_step, total - shape.tail_window);
       s < total; ++s) {
    r.post_fault_steady += steps[static_cast<size_t>(s)].step_seconds;
    ++n;
  }
  r.post_fault_steady /= std::max(1, n);

  const double threshold = r.pre_fault_step * 1.10;
  for (int s = shape.fault_step; s < total; ++s) {
    const StepMetrics& m = steps[static_cast<size_t>(s)];
    r.worst_step = std::max(r.worst_step, m.step_seconds);
    r.tokens_lost += m.tokens_dropped;
    r.recovery_seconds += m.recovery_seconds;
    if (r.recovery_steps < 0 && m.step_seconds <= threshold) {
      r.recovery_steps = s - shape.fault_step;
    }
  }
  r.recovered = r.recovery_steps >= 0 && r.post_fault_steady <= threshold;
  return r;
}

std::vector<Claim> ElasticRecovery(const CommonFlags& flags,
                                   const Reports& reports) {
  bench::PrintHeader(
      "Elastic recovery — fail-stop at step N, all systems",
      "FlexMoE drains + rebalances; static layouts restart + fail over");
  const ElasticShape shape = ElasticRunShape(flags.quick);
  std::printf("fail-stop: GPU dies at step %d of %d (%d GPUs)\n\n",
              shape.fault_step, shape.measure_steps, shape.num_gpus);
  // The cells were built with this victim; the probe is a few generator
  // steps, so the printer re-derives it rather than carry it.
  const Victim victim = FindVictim(shape);
  std::printf("victim: GPU %d (home of hottest expert %d)\n\n", victim.gpu,
              victim.hottest_expert);

  Table table({"system", "pre-fault (ms)", "worst (ms)", "steady (ms)",
               "steady/pre", "recovered<=10%", "recovery steps",
               "restart cost (s)", "tokens lost"});
  std::vector<RecoveryStats> all;
  for (const ExperimentReport& report : reports) {
    const RecoveryStats r = Analyze(report.stats, shape);
    all.push_back(r);
    table.AddRow(
        {report.system, StrFormat("%.1f", r.pre_fault_step * 1e3),
         StrFormat("%.1f", r.worst_step * 1e3),
         StrFormat("%.1f", r.post_fault_steady * 1e3),
         StrFormat("%.3f", r.post_fault_steady / r.pre_fault_step),
         r.recovered ? "yes" : "NO",
         r.recovery_steps < 0 ? std::string("never")
                              : StrFormat("%d", r.recovery_steps),
         StrFormat("%.1f", r.recovery_seconds),
         StrFormat("%lld", static_cast<long long>(r.tokens_lost))});
    std::printf(
        "{\"bench\": \"elastic_recovery\", \"system\": \"%s\", "
        "\"num_gpus\": %d, \"fault_step\": %d, "
        "\"pre_fault_step_sec\": %.6f, \"post_fault_steady_sec\": %.6f, "
        "\"recovered_within_10pct\": %s, \"recovery_steps\": %d, "
        "\"recovery_seconds\": %.3f, \"tokens_lost\": %lld}\n",
        report.system.c_str(), shape.num_gpus, shape.fault_step,
        r.pre_fault_step, r.post_fault_steady,
        r.recovered ? "true" : "false", r.recovery_steps, r.recovery_seconds,
        static_cast<long long>(r.tokens_lost));
  }
  std::printf("\n%s\n", table.ToAscii().c_str());
  // Dynamic placement absorbs the lost device; DeepSpeed's static layout
  // keeps the dead device's experts on one failover peer.
  auto row = [](const char* id, const RecoveryStats& r, bool want) {
    const double ratio = r.post_fault_steady / r.pre_fault_step;
    return Claim{id, "-", StrFormat("steady/pre %.3f", ratio), "measured",
                 want ? "recovers within 10%" : "does not",
                 r.recovered == want, true};
  };
  return {row("elastic.flexmoe-recovers", all[0], true),
          row("elastic.deepspeed-stays-degraded", all[1], false)};
}

struct Figure {
  const char* name;
  Cells (*cells)(const CommonFlags&);  ///< nullptr: the figure runs no grid
  std::vector<Claim> (*print)(const CommonFlags&, const Reports&);
  /// The bench::FlagBits of the flags the entry reads. A flag that no
  /// selected entry reads is a usage error.
  unsigned reads = 0;
};

constexpr unsigned kSuiteFlags =
    bench::kWorkloadFlag | bench::kPipelineChunksFlag | bench::kDigestsFlag;
constexpr Figure kFigures[] = {
    {"fig2", Fig2Cells, Fig2},
    {"fig3", nullptr, Fig3},
    {"fig5", Fig5Cells, Fig5, bench::kWorkloadFlag},
    {"fig6a", Fig6aCells, Fig6a},
    {"fig6b", Fig6bCells, Fig6b},
    {"fig6c", nullptr, Fig6c},
    {"fig7a", Fig7aCells, Fig7a},
    {"fig7b", Fig7bCells, Fig7b, bench::kWorkloadFlag},
    {"table2", Table2Cells, Table2},
    {"ablation-slots", SlotsCells, AblationSlots, bench::kWorkloadFlag},
    {"ablation-threshold", ThresholdCells, AblationThreshold,
     bench::kWorkloadFlag},
    {"ablation-topology", nullptr, AblationTopology, bench::kWorkloadFlag},
    {"workload-suite", WorkloadSuiteCells, WorkloadSuite, kSuiteFlags},
    {"serving-slo", ServingCells, ServingSlo,
     kSuiteFlags | bench::kSizeMixFlag | bench::kAdmissionFlag |
         bench::kTraceOutFlag | bench::kMetricsOutFlag |
         bench::kDecisionsOutFlag},
    {"elastic-recovery", ElasticCells, ElasticRecovery},
};

/// Exits 2 when the selected entries leave a given flag unread, or when
/// --digests does not name exactly one digest-writing entry.
void CheckFlagsRead(const CommonFlags& flags,
                    const std::vector<const Figure*>& selected) {
  unsigned reads = 0;
  int digest_writers = 0;
  for (const Figure* figure : selected) {
    reads |= figure->reads;
    digest_writers += (figure->reads & bench::kDigestsFlag) != 0;
  }
  for (size_t b = 0; b < std::size(bench::kEntryFlags); ++b) {
    const unsigned bit = 1u << b;
    if (!flags.Given(bit) || (reads & bit) != 0) continue;
    std::vector<std::string> readers;
    for (const Figure& figure : kFigures) {
      if ((figure.reads & bit) != 0) readers.push_back(figure.name);
    }
    bench::UsageError(StrFormat("no selected figure reads %s (read by: %s)",
                                bench::kEntryFlags[b],
                                Join(readers, ", ").c_str()));
  }
  if (flags.Given(bench::kDigestsFlag) && digest_writers != 1) {
    bench::UsageError(
        "--digests needs exactly one digest-writing figure selected "
        "(--figure workload-suite or serving-slo)");
  }
}

int Run(int argc, char** argv) {
  std::vector<std::string> names;
  for (const Figure& figure : kFigures) names.push_back(figure.name);
  const CommonFlags flags = bench::ParseCommonFlags(argc, argv, names);
  std::vector<const Figure*> selected;
  for (const Figure& figure : kFigures) {
    if (flags.figure[0] == '\0' || flags.figure == std::string(figure.name)) {
      selected.push_back(&figure);
    }
  }
  CheckFlagsRead(flags, selected);
  // One grid for every selected figure; selected[i] owns the cells
  // [first[i], first[i + 1]).
  Cells cells;
  std::vector<size_t> first = {0};
  for (const Figure* figure : selected) {
    if (figure->cells != nullptr) {
      for (GridCell& cell : figure->cells(flags)) cells.push_back(cell);
    }
    first.push_back(cells.size());
  }
  // Workers take cells in order, so the costliest go first: FlexMoE cells
  // (they plan), then by GPU-steps. A cell's label is its slot.
  for (size_t c = 0; c < cells.size(); ++c) cells[c].label = std::to_string(c);
  auto cost = [](const GridCell& cell) {
    const ExperimentOptions& o = cell.options;
    return std::make_pair(o.system == "flexmoe", o.num_gpus * o.measure_steps);
  };
  std::stable_sort(cells.begin(), cells.end(),
                   [&](const GridCell& a, const GridCell& b) {
                     return cost(a) > cost(b);
                   });
  std::vector<GridCellResult> results(cells.size());
  for (GridCellResult& r : RunExperimentGrid(cells, flags.threads)) {
    results[std::stoul(r.label)] = std::move(r);
  }

  std::vector<Claim> claims;
  for (size_t i = 0; i < selected.size(); ++i) {
    Reports reports;
    for (size_t c = first[i]; c < first[i + 1]; ++c) {
      FLEXMOE_CHECK_MSG(results[c].status.ok(), results[c].status.ToString());
      reports.push_back(std::move(results[c].report));
    }
    const std::vector<Claim> rows = selected[i]->print(flags, reports);
    bench::PrintClaims(rows);
    claims.insert(claims.end(), rows.begin(), rows.end());
  }
  return bench::FinishClaims(flags, claims);
}

}  // namespace
}  // namespace flexmoe

int main(int argc, char** argv) { return flexmoe::Run(argc, argv); }
