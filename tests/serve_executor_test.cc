// The serving batcher's queueing invariants, asserted over the audit log
// of real runs (see serve_executor.h for the discipline being pinned):
//   * admission ordering — EDF (or SJF) never passes a waiting request
//     over in favor of one that orders later;
//   * token conservation — every request (and token) that arrives is
//     completed, counted shed, or still queued at the end — nothing
//     vanishes, nothing double-counts, faults and chunking included;
//   * the token cap holds for EVERY batch even when single requests
//     exceed it (oversized requests chunk instead of blowing the cap or
//     crashing admission), and chunked requests eventually complete;
//   * deadline-aware shedding rejects only hopeless requests and keeps
//     the ledger exact;
//   * the survivor-bias fix — attainment is denominated over arrived
//     traffic, so a deeply backlogged run can no longer report ~1.0.
// Plus the deterministic assignment rescaling the batcher feeds systems
// (including the 128-bit overflow regression) and the request source's
// size mix contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/flexmoe.h"
#include "core/serve_executor.h"
#include "gate/request_source.h"
#include "harness/experiment.h"
#include "harness/golden.h"
#include "test_env.h"
#include "util/string_util.h"

namespace flexmoe {
namespace {

// ---- ScaleAssignmentTo ----------------------------------------------------

Assignment MakeSkewed(int experts, int gpus, uint64_t seed) {
  Rng rng(seed);
  Assignment a(experts, gpus);
  for (int e = 0; e < experts; ++e) {
    for (int g = 0; g < gpus; ++g) {
      // Heavy-tailed counts with plenty of zero cells.
      const uint64_t draw = rng.UniformInt(100);
      a.set(e, g, draw < 40 ? 0 : static_cast<int64_t>(draw * draw));
    }
  }
  return a;
}

TEST(ScaleAssignmentTest, HitsTargetExactlyAcrossTargets) {
  const Assignment src = MakeSkewed(16, 8, 3);
  const int64_t total = src.Total();
  ASSERT_GT(total, 0);
  for (const int64_t target :
       {int64_t{0}, int64_t{1}, int64_t{7}, total / 3, total - 1, total,
        2 * total + 13}) {
    const Assignment out = ScaleAssignmentTo(src, target);
    EXPECT_EQ(out.Total(), target) << "target " << target;
    for (int e = 0; e < src.num_experts(); ++e) {
      for (int g = 0; g < src.num_gpus(); ++g) {
        if (src.at(e, g) == 0) {
          // Zero cells stay zero: scaling never invents routing edges.
          EXPECT_EQ(out.at(e, g), 0);
        }
      }
    }
  }
}

TEST(ScaleAssignmentTest, PreservesProportionsWithinOneUnit) {
  const Assignment src = MakeSkewed(8, 4, 9);
  const int64_t total = src.Total();
  const int64_t target = total / 2;
  const Assignment out = ScaleAssignmentTo(src, target);
  for (int e = 0; e < src.num_experts(); ++e) {
    for (int g = 0; g < src.num_gpus(); ++g) {
      const double exact = static_cast<double>(src.at(e, g)) *
                           static_cast<double>(target) /
                           static_cast<double>(total);
      EXPECT_NEAR(static_cast<double>(out.at(e, g)), exact, 1.0)
          << "cell " << e << "," << g;
    }
  }
}

TEST(ScaleAssignmentTest, IsDeterministic) {
  const Assignment src = MakeSkewed(12, 8, 21);
  const Assignment a = ScaleAssignmentTo(src, 1234);
  const Assignment b = ScaleAssignmentTo(src, 1234);
  for (int e = 0; e < src.num_experts(); ++e) {
    for (int g = 0; g < src.num_gpus(); ++g) {
      ASSERT_EQ(a.at(e, g), b.at(e, g));
    }
  }
}

// Regression: count * target_total used to be computed in int64 and
// wrapped once both neared 2^32 (large traces rescaled to large batches);
// the product now runs in 128-bit arithmetic. These cells sit right at
// the overflow boundary: 6G x 4G ~ 2^64.5 >> int64.
TEST(ScaleAssignmentTest, SurvivesOverflowBoundary) {
  const int64_t g30 = int64_t{1} << 30;
  Assignment src(2, 2);
  src.set(0, 0, 6 * g30);
  src.set(1, 1, 2 * g30);
  const int64_t target = 4 * g30;
  const Assignment out = ScaleAssignmentTo(src, target);
  // Exact proportional split: 6/8 and 2/8 of the target.
  EXPECT_EQ(out.at(0, 0), 3 * g30);
  EXPECT_EQ(out.at(1, 1), g30);
  EXPECT_EQ(out.Total(), target);

  // Non-divisible variant: totals must still land exactly on target.
  Assignment skew(2, 2);
  skew.set(0, 0, 5 * g30 + 1);
  skew.set(0, 1, 3 * g30 - 1);
  const int64_t odd_target = 3 * g30 + 7;
  const Assignment out2 = ScaleAssignmentTo(skew, odd_target);
  EXPECT_EQ(out2.Total(), odd_target);
  EXPECT_GT(out2.at(0, 0), out2.at(0, 1));
}

// Differential against the reference implementation: the original full
// sort of every remainder. The serving path selects the leftover cells
// instead of sorting them all, and must hand out exactly the same units.
Assignment ScaleAssignmentToBySort(const Assignment& src,
                                   int64_t target_total) {
  const int64_t src_total = src.Total();
  Assignment out(src.num_experts(), src.num_gpus());
  if (src_total <= 0 || target_total == 0) return out;
  struct Remainder {
    int64_t rem;
    int expert;
    int gpu;
  };
  std::vector<Remainder> remainders;
  int64_t assigned = 0;
  for (int e = 0; e < src.num_experts(); ++e) {
    for (int g = 0; g < src.num_gpus(); ++g) {
      const int64_t count = src.at(e, g);
      if (count <= 0) continue;
      const __int128 numer =
          static_cast<__int128>(count) * static_cast<__int128>(target_total);
      const int64_t floor_share =
          static_cast<int64_t>(numer / static_cast<__int128>(src_total));
      const int64_t rem =
          static_cast<int64_t>(numer % static_cast<__int128>(src_total));
      if (floor_share > 0) out.set(e, g, floor_share);
      assigned += floor_share;
      if (rem > 0) remainders.push_back({rem, e, g});
    }
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const Remainder& a, const Remainder& b) {
              if (a.rem != b.rem) return a.rem > b.rem;
              if (a.expert != b.expert) return a.expert < b.expert;
              return a.gpu < b.gpu;
            });
  for (int64_t i = 0; i < target_total - assigned; ++i) {
    const Remainder& r = remainders[static_cast<size_t>(i)];
    out.add(r.expert, r.gpu, 1);
  }
  return out;
}

/// Compares every cell at the targets {0, 1, total - 1, total,
/// 2 * total + 13} plus `extra_targets`.
void ExpectSameAsSort(const Assignment& src, const std::string& what,
                      std::vector<int64_t> extra_targets = {}) {
  const int64_t total = src.Total();
  std::vector<int64_t> targets = {0, 1, total - 1, total, 2 * total + 13};
  targets.insert(targets.end(), extra_targets.begin(), extra_targets.end());
  for (const int64_t target : targets) {
    if (target < 0) continue;
    const Assignment got = ScaleAssignmentTo(src, target);
    const Assignment want = ScaleAssignmentToBySort(src, target);
    for (int e = 0; e < src.num_experts(); ++e) {
      for (int g = 0; g < src.num_gpus(); ++g) {
        ASSERT_EQ(got.at(e, g), want.at(e, g))
            << what << " target=" << target << " cell " << e << "," << g;
      }
    }
  }
}

TEST(ScaleAssignmentTest, MatchesFullSortReferenceOnTiesAndZeros) {
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const int experts = 1 + static_cast<int>(rng.UniformInt(40));
    const int gpus = 1 + static_cast<int>(rng.UniformInt(24));
    // Counts from a small alphabet: many cells share a count, hence a
    // remainder, so the expert/gpu tie-breaks decide who gets the units.
    static constexpr int64_t kCounts[] = {0, 0, 0, 1, 1, 2, 3, 6, 7, 12};
    Assignment src(experts, gpus);
    for (int e = 0; e < experts; ++e) {
      for (int g = 0; g < gpus; ++g) {
        src.set(e, g, kCounts[rng.UniformInt(10)]);
      }
    }
    ExpectSameAsSort(src, StrFormat("trial %d (%dx%d)", trial, experts, gpus));
  }
  ExpectSameAsSort(MakeSkewed(64, 8, 5), "skewed 64x8");
  ExpectSameAsSort(Assignment(4, 4), "all zero");
}

TEST(ScaleAssignmentTest, MatchesFullSortReferenceAtOverflowBoundary) {
  const int64_t g30 = int64_t{1} << 30;
  Assignment src(2, 3);
  src.set(0, 0, 5 * g30 + 1);
  src.set(0, 1, 3 * g30 - 1);
  src.set(1, 0, 6 * g30);
  src.set(1, 2, 2 * g30 + 3);
  // Targets near 2^32 and 2^33 push count * target past 2^64.
  ExpectSameAsSort(src, "2^64 boundary", {4 * g30, 8 * g30 + 7});
}

// ---- RequestSource --------------------------------------------------------

RequestSourceOptions ArrivalOptions(const std::string& scenario,
                                    double rate) {
  RequestSourceOptions o;
  o.arrival_rate_rps = rate;
  o.tokens_per_request = 64;
  o.slo_seconds = 0.05;
  o.step_seconds = 0.01;
  o.scenario.name = scenario;
  o.seed = 11;
  return o;
}

TEST(RequestSourceTest, DeterministicAndMonotone) {
  auto a = *RequestSource::Create(ArrivalOptions("bursty", 500.0));
  auto b = *RequestSource::Create(ArrivalOptions("bursty", 500.0));
  double last = 0.0;
  for (int i = 0; i < 200; ++i) {
    const ServeRequest ra = a.Next();
    const ServeRequest rb = b.Next();
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.arrival_seconds, rb.arrival_seconds);
    EXPECT_EQ(ra.deadline_seconds, rb.deadline_seconds);
    EXPECT_GE(ra.arrival_seconds, last);
    EXPECT_DOUBLE_EQ(ra.deadline_seconds, ra.arrival_seconds + 0.05);
    last = ra.arrival_seconds;
  }
}

TEST(RequestSourceTest, ScenarioModulationShapesTheRate) {
  // Bursty multipliers are >= 1 and spike above the flat rate somewhere.
  auto bursty = *RequestSource::Create(ArrivalOptions("bursty", 300.0));
  for (int i = 0; i < 500; ++i) bursty.Next();
  double peak = 0.0;
  for (int64_t w = 0; w < 50; ++w) {
    const double m = bursty.WindowMultiplier(w);
    EXPECT_GE(m, 1.0);
    peak = std::max(peak, m);
  }
  EXPECT_GT(peak, 2.0);  // at least one flash crowd in 50 windows

  // Multi-tenant rates are piecewise-constant per tenant block.
  auto tenants = *RequestSource::Create(ArrivalOptions("multi-tenant", 300.0));
  for (int i = 0; i < 500; ++i) tenants.Next();
  const int block = ArrivalOptions("multi-tenant", 300.0)
                        .scenario.tenant_block_steps;
  for (int64_t w = 0; w + 1 < 2 * block; ++w) {
    if ((w + 1) % block != 0) {
      EXPECT_EQ(tenants.WindowMultiplier(w), tenants.WindowMultiplier(w + 1));
    }
  }
  EXPECT_NE(tenants.WindowMultiplier(0), tenants.WindowMultiplier(block));
}

// ---- RequestSource size mix -----------------------------------------------

RequestSourceOptions HeavyOptions(const std::string& scenario, double rate) {
  RequestSourceOptions o = ArrivalOptions(scenario, rate);
  o.tokens_per_request = 256;
  o.size_mix = "heavy";
  return o;
}

TEST(RequestSizeMixTest, FixedMixIsByteIdenticalToLegacyStream) {
  // The "fixed" mix draws nothing from the Rng, so arrival times and ids
  // match the pre-mix stream exactly and every size is tokens_per_request.
  auto fixed = *RequestSource::Create(ArrivalOptions("bursty", 800.0));
  RequestSourceOptions explicit_fixed = ArrivalOptions("bursty", 800.0);
  explicit_fixed.size_mix = "fixed";  // the default
  auto dflt = *RequestSource::Create(explicit_fixed);
  for (int i = 0; i < 300; ++i) {
    const ServeRequest a = fixed.Next();
    const ServeRequest b = dflt.Next();
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.arrival_seconds, b.arrival_seconds);
    EXPECT_EQ(a.tokens, 64);
    EXPECT_EQ(b.tokens, 64);
  }
}

TEST(RequestSizeMixTest, HeavyMixIsDeterministicAndHeavyTailed) {
  auto a = *RequestSource::Create(HeavyOptions("bursty", 2000.0));
  auto b = *RequestSource::Create(HeavyOptions("bursty", 2000.0));
  std::vector<int64_t> sizes;
  const int64_t clamp = a.MaxRequestTokens();
  EXPECT_EQ(clamp, 64 * 256);
  for (int i = 0; i < 4000; ++i) {
    const ServeRequest ra = a.Next();
    const ServeRequest rb = b.Next();
    ASSERT_EQ(ra.tokens, rb.tokens) << "request " << i;
    ASSERT_GE(ra.tokens, 1);
    ASSERT_LE(ra.tokens, clamp);
    sizes.push_back(ra.tokens);
  }
  std::sort(sizes.begin(), sizes.end());
  const int64_t median = sizes[sizes.size() / 2];
  const int64_t p99 = sizes[sizes.size() * 99 / 100];
  double mean = 0.0;
  for (const int64_t s : sizes) mean += static_cast<double>(s);
  mean /= static_cast<double>(sizes.size());
  // Chat body: the median sits well below the base size; Pareto tail: the
  // p99 towers over the median, and the mean stays near the base so sized
  // cells offer the same token load as fixed-size ones.
  EXPECT_LT(median, 256);
  EXPECT_GT(p99, 4 * median);
  EXPECT_GT(mean, 0.5 * 256);
  EXPECT_LT(mean, 2.0 * 256);
  // The tail must actually express sizes beyond any fixed request.
  EXPECT_GT(sizes.back(), 8 * 256);
}

TEST(RequestSizeMixTest, ValidationRejectsNonsense) {
  RequestSourceOptions o = HeavyOptions("bursty", 100.0);
  o.size_mix = "zipf";
  EXPECT_FALSE(RequestSource::Create(o).ok());
  o = HeavyOptions("bursty", 100.0);
  o.arrival_rate_rps = std::nan("");
  EXPECT_FALSE(RequestSource::Create(o).ok());
}

// ---- Batcher invariants ---------------------------------------------------

struct ServeRig {
  TestEnv env;
  std::unique_ptr<MoESystem> system;
  std::unique_ptr<TraceSource> source;
  std::unique_ptr<RequestSource> requests;
};

ModelConfig ServeModel() {
  ModelConfig m = GptMoES();
  m.num_moe_layers = 2;
  m.tokens_per_gpu = 1024;
  return m;
}

ServeRig MakeRig(double rate, const std::string& scenario,
                 const RequestSourceOptions* arrival_override = nullptr) {
  ServeRig rig{TestEnv::Make(8), nullptr, nullptr, nullptr};
  const ModelConfig m = ServeModel();
  FlexMoEOptions o;
  o.model = m;
  o.num_gpus = 8;
  rig.system = *FlexMoESystem::Create(o, rig.env.topo.get(), &rig.env.profile);

  TraceGeneratorOptions t;
  t.num_experts = m.num_experts;
  t.num_moe_layers = m.num_moe_layers;
  t.num_gpus = 8;
  t.tokens_per_gpu = m.tokens_per_gpu;
  t.top_k = m.top_k;
  t.seed = 5;
  t.scenario.name = scenario;
  rig.source = std::unique_ptr<TraceSource>(
      new GeneratorTraceSource(*TraceGenerator::Create(t)));

  RequestSourceOptions ro =
      arrival_override ? *arrival_override : ArrivalOptions(scenario, rate);
  if (!arrival_override) ro.tokens_per_request = 128;
  rig.requests = std::make_unique<RequestSource>(*RequestSource::Create(ro));
  return rig;
}

ServingOptions RigServingOptions() {
  ServingOptions s;
  s.enabled = true;
  s.arrival_rate_rps = 1.0;  // unused by the executor itself
  s.tokens_per_request = 128;
  s.slo_seconds = 0.05;
  s.batch_window_seconds = 0.01;
  return s;
}

void CheckInvariants(const ServingReport& report,
                     const std::vector<ServeBatchRecord>& log,
                     const ServingOptions& options,
                     int64_t max_batch_tokens) {
  // Conservation ledger: everything that arrived either completed, was
  // counted shed, or is still waiting — nothing vanishes, nothing
  // double-counts, in requests AND tokens.
  EXPECT_EQ(report.requests_arrived,
            report.requests_completed + report.requests_shed +
                report.requests_queued_at_end);
  EXPECT_EQ(report.tokens_arrived,
            report.tokens_completed + report.tokens_shed +
                report.tokens_queued_at_end);
  EXPECT_GE(report.requests_queued_past_deadline, 0);
  EXPECT_LE(report.requests_queued_past_deadline,
            report.requests_queued_at_end);

  const bool sjf = options.admission_policy == "sjf";
  double prev_end = 0.0;
  for (const ServeBatchRecord& rec : log) {
    // The engine never runs two batches at once, and each batch does
    // positive work under the token cap — chunking keeps even oversized
    // requests inside it.
    EXPECT_EQ(rec.engine_idle, prev_end) << "batch " << rec.batch;
    EXPECT_GE(rec.launch, rec.engine_idle) << "batch " << rec.batch;
    EXPECT_GT(rec.end, rec.launch) << "batch " << rec.batch;
    EXPECT_GT(rec.tokens, 0) << "batch " << rec.batch;
    EXPECT_LE(rec.tokens, max_batch_tokens) << "batch " << rec.batch;
    EXPECT_GT(rec.num_requests, 0) << "batch " << rec.batch;

    // Work conservation: a backlog at engine-idle launches immediately
    // (unless shedding rejected that whole backlog, which re-opens the
    // window at the next arrival).
    if (rec.backlog_at_idle > 0 && rec.shed == 0) {
      EXPECT_EQ(rec.launch, rec.engine_idle) << "batch " << rec.batch;
    }
    // Admission ordering: nothing admitted orders after anything left
    // waiting, in the ACTIVE policy's key.
    if (rec.left_waiting > 0) {
      if (sjf) {
        EXPECT_LE(rec.max_admitted_remaining, rec.min_waiting_remaining)
            << "batch " << rec.batch;
      } else {
        EXPECT_LE(rec.max_admitted_deadline, rec.min_waiting_deadline)
            << "batch " << rec.batch;
      }
    }
    prev_end = rec.end;
  }
}

TEST(ServeBatcherTest, InvariantsHoldUnderLightLoad) {
  // Light load: the engine frequently idles, exercising the window branch.
  ServeRig rig = MakeRig(300.0, "pretrain-steady");
  const ServingOptions opts = RigServingOptions();
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192,
                     /*top_k=*/2);
  const auto report = exec.Run(60);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->batches, 60);
  EXPECT_EQ(report->failed_batches, 0);
  CheckInvariants(*report, exec.batch_log(), opts, 8192);
  // Light load meets the SLO comfortably.
  EXPECT_EQ(report->slo_attainment, 1.0);
  EXPECT_EQ(report->requests_shed, 0);
  EXPECT_GT(report->goodput_tokens_per_sec, 0.0);
}

TEST(ServeBatcherTest, InvariantsHoldUnderOverload) {
  // Overload: sustained backlog exercises the work-conserving branch and
  // the token cap (the 8-GPU rig drains ~4M tokens/sec; this offers ~10M).
  ServeRig rig = MakeRig(80000.0, "bursty");
  const ServingOptions opts = RigServingOptions();
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192,
                     /*top_k=*/2);
  const auto report = exec.Run(60);
  ASSERT_TRUE(report.ok());
  CheckInvariants(*report, exec.batch_log(), opts, 8192);
  // Overload must actually overload: a real backlog forms and the token
  // cap binds.
  EXPECT_GT(report->requests_queued_at_end, 0);
  bool saw_full_batch = false;
  for (const ServeBatchRecord& rec : exec.batch_log()) {
    if (rec.tokens == 8192) saw_full_batch = true;
  }
  EXPECT_TRUE(saw_full_batch);
  EXPECT_LT(report->slo_attainment, 1.0);
}

// The survivor-bias pin: the old formula divided met deadlines by
// COMPLETED requests only, so everything still queued at horizon end —
// however hopelessly late — silently improved attainment. SJF under deep
// overload is the sharpest exposure: small chat requests jump the queue
// and complete comfortably inside the SLO while the large ones rot past
// their deadlines unserved, so the survivor-only formula reports near-1.0
// for a system that is abandoning a growing share of its traffic. The
// honest formula folds the past-deadline backlog into the violations.
TEST(ServeBatcherTest, AttainmentCountsTheBacklogNotJustSurvivors) {
  RequestSourceOptions ro = HeavyOptions("pretrain-steady", 100000.0);
  ro.tokens_per_request = 256;
  ServeRig rig = MakeRig(100000.0, "pretrain-steady", &ro);
  ServingOptions opts = RigServingOptions();  // slo = 50 ms
  opts.size_mix = ro.size_mix;
  opts.admission_policy = "sjf";
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192,
                     /*top_k=*/2);
  const auto report = exec.Run(60);
  ASSERT_TRUE(report.ok());
  CheckInvariants(*report, exec.batch_log(), opts, 8192);

  // The scenario the bug needs: completions overwhelmingly met the SLO...
  ASSERT_GT(report->requests_completed, 0);
  const double survivor_only =
      static_cast<double>(report->requests_completed -
                          report->requests_completed_late) /
      static_cast<double>(report->requests_completed);
  EXPECT_GE(survivor_only, 0.8);
  // ...while a real past-deadline backlog piled up behind them.
  EXPECT_GT(report->requests_queued_past_deadline,
            report->requests_completed / 10);
  // The honest attainment therefore drops well below the survivor-only
  // reading instead of tracking it, and the violation count carries the
  // backlog.
  EXPECT_LT(report->slo_attainment, survivor_only - 0.25);
  EXPECT_GE(report->slo_violations, report->requests_queued_past_deadline);
}

TEST(ServeBatcherTest, OversizedFixedRequestsChunkUnderTheCap) {
  // Every request is 3.5x the cap: the old admission loop would both blow
  // the cap on every batch and (with an empty-admission edge) crash.
  RequestSourceOptions ro = ArrivalOptions("pretrain-steady", 40.0);
  ro.tokens_per_request = 28672;  // 3.5 * 8192
  ServeRig rig = MakeRig(40.0, "pretrain-steady", &ro);
  ServingOptions opts = RigServingOptions();
  opts.tokens_per_request = 28672;
  opts.slo_seconds = 0.5;
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192,
                     /*top_k=*/2);
  const auto report = exec.Run(40);
  ASSERT_TRUE(report.ok());
  CheckInvariants(*report, exec.batch_log(), opts, 8192);
  // Chunking happened (every request needs 4 batches) and nothing starved:
  // requests completed steadily despite each exceeding the cap.
  EXPECT_GT(report->chunked_admissions, 0);
  EXPECT_GT(report->requests_completed, 5);
  EXPECT_EQ(report->requests_shed, 0);
  int chunked_batches = 0;
  for (const ServeBatchRecord& rec : exec.batch_log()) {
    chunked_batches += rec.chunked;
  }
  EXPECT_EQ(chunked_batches, report->chunked_admissions);
  // An oversized request completes exactly once (conservation already
  // checked); its latency spans its multiple chunks.
  EXPECT_GT(report->max_latency_seconds, report->mean_batch_seconds);
}

TEST(ServeBatcherTest, HeavyTailedSizesRespectCapAndEventuallyServe) {
  RequestSourceOptions ro = HeavyOptions("bursty", 1200.0);
  ro.tokens_per_request = 512;  // tail reaches 64*512 = 4x the cap
  ServeRig rig = MakeRig(1200.0, "bursty", &ro);
  ServingOptions opts = RigServingOptions();
  opts.size_mix = ro.size_mix;
  opts.slo_seconds = 0.5;
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192,
                     /*top_k=*/2);
  const auto report = exec.Run(80);
  ASSERT_TRUE(report.ok());
  CheckInvariants(*report, exec.batch_log(), opts, 8192);
  EXPECT_GT(report->requests_completed, 0);
  // The tail actually exceeded the cap somewhere in the stream, so the
  // cap bound CheckInvariants verified was load-bearing.
  auto probe = *RequestSource::Create(ro);
  int64_t biggest = 0;
  for (int i = 0; i < 2000; ++i) {
    biggest = std::max(biggest, probe.Next().tokens);
  }
  EXPECT_GT(biggest, 8192);
  EXPECT_GT(report->chunked_admissions, 0);
}

TEST(ServeBatcherTest, SjfAdmissionHoldsItsOrderingInvariant) {
  RequestSourceOptions ro = HeavyOptions("bursty", 20000.0);
  ro.tokens_per_request = 256;
  ServeRig rig = MakeRig(20000.0, "bursty", &ro);
  ServingOptions opts = RigServingOptions();
  opts.size_mix = ro.size_mix;
  opts.admission_policy = "sjf";
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192,
                     /*top_k=*/2);
  const auto report = exec.Run(60);
  ASSERT_TRUE(report.ok());
  CheckInvariants(*report, exec.batch_log(), opts, 8192);
  // SJF under backlog must have exercised the ordering check.
  bool saw_waiting = false;
  for (const ServeBatchRecord& rec : exec.batch_log()) {
    saw_waiting = saw_waiting || rec.left_waiting > 0;
  }
  EXPECT_TRUE(saw_waiting);
}

TEST(ServeBatcherTest, SheddingConservesTheLedgerAndRejectsOnlyHopeless) {
  // Overloaded rig with a tight SLO and a synthetic linear estimator:
  // plenty of requests become hopeless while queued and must be shed —
  // counted, never executed, never silently dropped.
  ServeRig rig = MakeRig(60000.0, "bursty");
  ServingOptions opts = RigServingOptions();
  opts.shed_unreachable = true;
  opts.slo_seconds = 0.03;
  const auto estimator = [](int64_t tokens) {
    return 1e-3 + static_cast<double>(tokens) * 2.5e-7;
  };
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192,
                     /*top_k=*/2, estimator);
  const auto report = exec.Run(60);
  ASSERT_TRUE(report.ok());
  CheckInvariants(*report, exec.batch_log(), opts, 8192);
  EXPECT_GT(report->requests_shed, 0);
  EXPECT_GT(report->tokens_shed, 0);
  // Shed requests are violations; the bulk of completions met the SLO —
  // admission-time shedding prunes provably-dead requests, though it
  // cannot anticipate the co-scheduled batch, so a late minority remains.
  EXPECT_GE(report->slo_violations, report->requests_shed);
  if (report->requests_completed > 0) {
    EXPECT_LT(report->requests_completed_late, report->requests_completed / 3);
  }
  // Goodput counts only SLO-met tokens: bounded by the served rate.
  EXPECT_LE(report->goodput_tokens_per_sec,
            report->served_tokens_per_sec + 1e-9);
}

TEST(ServeBatcherTest, FaultRetriesDropNoAdmittedRequest) {
  ServeRig rig = MakeRig(4000.0, "pretrain-steady");
  FaultPlanOptions fo;
  fo.scenario = "failstop";
  fo.num_gpus = 8;
  fo.fault_step = 10;
  fo.gpu = 3;
  ASSERT_TRUE(rig.system->InstallFaultPlan(*FaultPlan::Generate(fo)).ok());

  const ServingOptions opts = RigServingOptions();
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192,
                     /*top_k=*/2);
  const auto report = exec.Run(40);
  ASSERT_TRUE(report.ok());
  CheckInvariants(*report, exec.batch_log(), opts, 8192);
  // The fail-stop hit a batch mid-serving...
  EXPECT_GE(report->failed_batches, 1);
  bool saw_failed = false;
  for (const ServeBatchRecord& rec : exec.batch_log()) {
    saw_failed = saw_failed || rec.failed;
  }
  EXPECT_TRUE(saw_failed);
  // ...and the retried requests completed anyway (CheckInvariants already
  // proved conservation; completions must dominate the queue tail).
  EXPECT_GT(report->requests_completed, 0);
}

// ---- Validation: statuses, not process aborts -----------------------------

TEST(ServeExecutorValidationTest, UnresolvedTokenCapIsAStatusNotACrash) {
  // max_batch_tokens == 0 is a legal "derive me" placeholder at the
  // options level but an unusable executor sizing: Run() must return
  // InvalidArgument (the constructor used to FLEXMOE_CHECK-abort).
  ServeRig rig = MakeRig(300.0, "pretrain-steady");
  ServeExecutor zero_cap(rig.system.get(), rig.source.get(),
                         rig.requests.get(), RigServingOptions(),
                         /*max_batch_tokens=*/0, /*top_k=*/2);
  const auto report = zero_cap.Run(5);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);

  ServeExecutor bad_topk(rig.system.get(), rig.source.get(),
                         rig.requests.get(), RigServingOptions(),
                         /*max_batch_tokens=*/8192, /*top_k=*/0);
  EXPECT_FALSE(bad_topk.Run(5).ok());
}

TEST(ServeExecutorValidationTest, BadPolicyAndMissingEstimatorAreRejected) {
  ServeRig rig = MakeRig(300.0, "pretrain-steady");
  ServingOptions bad_policy = RigServingOptions();
  bad_policy.admission_policy = "fifo";
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     bad_policy, /*max_batch_tokens=*/8192, /*top_k=*/2);
  EXPECT_FALSE(exec.Run(5).ok());

  // The master switch's disabled-mode Validate() early-out must not let a
  // direct caller's bad knobs through: constructing an executor IS serving.
  ServingOptions disabled_bad = bad_policy;
  disabled_bad.enabled = false;
  ServeExecutor disabled(rig.system.get(), rig.source.get(),
                         rig.requests.get(), disabled_bad,
                         /*max_batch_tokens=*/8192, /*top_k=*/2);
  EXPECT_FALSE(disabled.Run(5).ok());

  ServingOptions shed_without_estimator = RigServingOptions();
  shed_without_estimator.shed_unreachable = true;
  ServeExecutor shedder(rig.system.get(), rig.source.get(),
                        rig.requests.get(), shed_without_estimator,
                        /*max_batch_tokens=*/8192, /*top_k=*/2);
  const auto report = shedder.Run(5);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServeExecutorValidationTest, ServingOptionsValidateCatchesNewKnobs) {
  ServingOptions o = RigServingOptions();
  o.admission_policy = "lifo";
  EXPECT_FALSE(o.Validate().ok());
  o = RigServingOptions();
  o.size_mix = "weird";
  EXPECT_FALSE(o.Validate().ok());
  o = RigServingOptions();
  o.slo_seconds = HUGE_VAL;
  EXPECT_FALSE(o.Validate().ok());
  o = RigServingOptions();
  o.admission_policy = "sjf";
  o.size_mix = "heavy";
  EXPECT_TRUE(o.Validate().ok());
}

// ---- Cost-model latency estimate ------------------------------------------

TEST(ForwardEstimateTest, MonotoneAndBelowMeasuredLatency) {
  TestEnv env = TestEnv::Make(8);
  const ModelConfig m = ServeModel();
  // Monotone in tokens, zero at zero.
  EXPECT_EQ(EstimateForwardMicrobatchSeconds(env.profile, m, 8, 0), 0.0);
  double prev = 0.0;
  for (const int64_t tokens : {256, 1024, 4096, 8192, 32768}) {
    const double est =
        EstimateForwardMicrobatchSeconds(env.profile, m, 8, tokens);
    EXPECT_GT(est, prev) << tokens;
    prev = est;
  }

  // The estimate is a best case: the discrete-event executor's measured
  // microbatch time (contention, skewed routing) must not undercut it by
  // more than numerical slack.
  ServeRig rig = MakeRig(3000.0, "pretrain-steady");
  const ServingOptions opts = RigServingOptions();
  ServeExecutor exec(rig.system.get(), rig.source.get(), rig.requests.get(),
                     opts, /*max_batch_tokens=*/8192, /*top_k=*/2);
  const auto report = exec.Run(30);
  ASSERT_TRUE(report.ok());
  for (const ServeBatchRecord& rec : exec.batch_log()) {
    const double est = EstimateForwardMicrobatchSeconds(
        env.profile, m, 8, rec.tokens);
    EXPECT_LE(est, (rec.end - rec.launch) * 1.05)
        << "batch " << rec.batch << " tokens " << rec.tokens;
  }
}

// Serving mode flows end-to-end through the experiment harness.
TEST(ServingExperimentTest, ReportCarriesServingMetrics) {
  ExperimentOptions o = ServingGoldenCell("bursty", "flexmoe");
  o.measure_steps = 20;
  o.warmup_steps = 5;
  const auto report = RunExperiment(o);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->serving);
  EXPECT_EQ(report->serve.batches, 20);
  EXPECT_GT(report->serve.requests_completed, 0);
  EXPECT_GT(report->serve.p99_latency_seconds,
            report->serve.p50_latency_seconds * 0.999);
  EXPECT_GT(report->throughput_tokens_per_sec, 0.0);
  // Serving never reports a training time-to-quality.
  EXPECT_EQ(report->hours_to_target, 0.0);

  // Invalid serving options are rejected up front.
  ExperimentOptions bad = o;
  bad.serving.slo_seconds = 0.0;
  EXPECT_FALSE(RunExperiment(bad).ok());
  bad = o;
  bad.serving.arrival_rate_rps = -1.0;
  EXPECT_FALSE(RunExperiment(bad).ok());
  bad = o;
  bad.serving.admission_policy = "fifo";
  EXPECT_FALSE(RunExperiment(bad).ok());
  bad = o;
  bad.serving.size_mix = "nope";
  EXPECT_FALSE(RunExperiment(bad).ok());
}

// The sized/shedding cell flows end-to-end: chunking and shedding happen,
// the ledger conserves, and no FLEXMOE_CHECK aborts at any request size.
TEST(ServingExperimentTest, SizeMixCellShedsChunksAndConserves) {
  ExperimentOptions o = ServingSizeMixCell("bursty", "deepspeed");
  o.measure_steps = 25;
  o.warmup_steps = 5;
  const auto report = RunExperiment(o);
  ASSERT_TRUE(report.ok());
  const ServingReport& s = report->serve;
  EXPECT_EQ(s.requests_arrived,
            s.requests_completed + s.requests_shed + s.requests_queued_at_end);
  EXPECT_EQ(s.tokens_arrived,
            s.tokens_completed + s.tokens_shed + s.tokens_queued_at_end);
  EXPECT_GT(s.requests_completed, 0);
  EXPECT_GT(s.goodput_tokens_per_sec, 0.0);
}

}  // namespace
}  // namespace flexmoe
