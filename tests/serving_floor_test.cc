// The floor invariant behind deadline-aware shedding (DESIGN.md Sections 8
// and 11): EstimateForwardMicrobatchSeconds is a FLOOR on what the
// discrete-event engine measures for a microbatch of the same admitted
// token count. Shedding rejects a request when its deadline precedes even
// the floor, so the invariant is exactly what makes rejection provably
// safe — if the floor ever exceeded a measured batch, a servable request
// could be shed.
//
// Pinned here across the whole serving catalog: every serving scenario,
// both request-size regimes (fixed and heavy-tailed with shedding), and
// both pipelining depths (serial and chunks = 4), batch by batch over the
// audit log. Plus the failover half of the contract: after a fail-stop the
// floor retargeted at the alive count still lower-bounds a measured
// forward pass on the degraded cluster.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/cost_model.h"
#include "core/flexmoe.h"
#include "core/serve_executor.h"
#include "core/step_executor.h"
#include "gate/request_source.h"
#include "gate/trace_source.h"
#include "test_env.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

ModelConfig ServeModel() {
  ModelConfig m = GptMoES();
  m.num_moe_layers = 2;
  m.tokens_per_gpu = 1024;
  return m;
}

using FloorParam = std::tuple<const char*, bool, int>;  // scenario, sized, K

class ServingFloorInvariantTest
    : public testing::TestWithParam<FloorParam> {};

TEST_P(ServingFloorInvariantTest, FloorNeverExceedsMeasuredBatchLatency) {
  const std::string scenario = std::get<0>(GetParam());
  const bool sized = std::get<1>(GetParam());
  const int chunks = std::get<2>(GetParam());

  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = ServeModel();

  FlexMoEOptions o;
  o.model = model;
  o.num_gpus = 8;
  o.pipeline.chunks = chunks;
  std::unique_ptr<MoESystem> system =
      *FlexMoESystem::Create(o, env.topo.get(), &env.profile);

  TraceGeneratorOptions t;
  t.num_experts = model.num_experts;
  t.num_moe_layers = model.num_moe_layers;
  t.num_gpus = 8;
  t.tokens_per_gpu = model.tokens_per_gpu;
  t.top_k = model.top_k;
  t.seed = 5;
  t.scenario.name = scenario;
  GeneratorTraceSource source(*TraceGenerator::Create(t));

  // Enough offered load that the token cap binds in some batches (the
  // floor must hold at the cap, not just for small tails).
  RequestSourceOptions ro;
  ro.arrival_rate_rps = 40000.0;
  ro.tokens_per_request = 128;
  ro.slo_seconds = 0.05;
  ro.step_seconds = 0.01;
  ro.scenario.name = scenario;
  ro.seed = 11;
  if (sized) ro.size_mix.name = "heavy";
  RequestSource requests = *RequestSource::Create(ro);

  ServingOptions opts;
  opts.enabled = true;
  opts.arrival_rate_rps = ro.arrival_rate_rps;
  opts.tokens_per_request = ro.tokens_per_request;
  opts.slo_seconds = ro.slo_seconds;
  opts.batch_window_seconds = ro.step_seconds;
  opts.size_mix = ro.size_mix;
  opts.shed_unreachable = sized;

  const int64_t cap = 8192;
  ForwardFloorEstimator floor(&env.profile, model, 8, chunks);
  ServeExecutor exec(
      system.get(), &source, &requests, opts, cap, model.top_k,
      [&floor](int64_t tokens) { return floor.Seconds(tokens); });
  const auto report = exec.Run(40);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_GT(report->batches, 0);

  for (const ServeBatchRecord& rec : exec.batch_log()) {
    if (rec.failed) continue;  // retried batches re-appear with full timing
    const double measured = rec.end - rec.launch;
    const double bound = floor.Seconds(rec.tokens);
    EXPECT_LE(bound, measured)
        << scenario << (sized ? "/sized" : "/fixed") << " chunks=" << chunks
        << " batch=" << rec.batch << " tokens=" << rec.tokens;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ServingCatalog, ServingFloorInvariantTest,
    testing::Combine(testing::Values("bursty", "diurnal", "multi-tenant"),
                     testing::Bool(), testing::Values(1, 4)),
    [](const testing::TestParamInfo<FloorParam>& info) {
      std::string name = std::get<0>(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + (std::get<1>(info.param) ? "_sized" : "_fixed") + "_k" +
             std::to_string(std::get<2>(info.param));
    });

// The failover half (the staleness regression this PR fixes): kill a GPU,
// retarget the floor at the alive count, and the retargeted floor must
// still lower-bound a forward pass measured on the degraded cluster. Under
// the old behavior the estimator kept serving floors memoized for the full
// membership, which under-estimate the per-GPU load of the shrunken
// cluster.
TEST(ServingFloorFailoverTest, RetargetedFloorBoundsDegradedForward) {
  const TestEnv env = TestEnv::Make(8);
  ModelConfig model = ServeModel();
  model.num_experts = 8;

  PlacementOptions po;
  po.num_experts = 8;
  po.num_gpus = 8;
  po.slots_per_gpu = 1;
  const Placement p = *Placement::ExpertParallel(po);

  ClusterHealth health(8);
  FaultEvent kill;
  kill.type = FaultType::kFailStop;
  kill.gpu = 3;
  ASSERT_TRUE(health.Apply(kill).ok());
  ASSERT_EQ(health.num_alive(), 7);

  // Route only between alive GPUs: every routed token is both computed
  // AND moved on the wire, which is the traffic the balanced floor models
  // (a dead source's tokens would compute without transferring, letting
  // the measured A2A undershoot any sound floor). Expert 0 runs hot — the
  // floor assumes perfect balance, and on an EXACTLY balanced route its
  // conservative two-latency crossing can exceed the engine by one wire
  // latency (the self-pair's zero latency opens the bottleneck ingress
  // port early). Failover traffic is never that symmetric; the skew keeps
  // the test on the regime the floor is specified for.
  Assignment a(8, 8);
  for (int e = 0; e < 8; ++e) {
    if (e == 3) continue;
    for (int g = 0; g < 8; ++g) {
      if (g == 3) continue;
      a.set(e, g, e == 0 ? 1024 : 512);
    }
  }
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  LayerWork work;
  work.routed = &r;
  work.placement = &p;

  for (const int chunks : {1, 4}) {
    ClusterState cluster(env.topo.get());
    StepExecutor exec(&cluster, &env.profile, model, &health);
    PipelineOptions pipeline;
    pipeline.chunks = chunks;
    exec.set_pipeline(pipeline);
    const double measured = exec.ExecuteForward({work, work}).StepSeconds();

    ForwardFloorEstimator floor(&env.profile, model, 8, chunks);
    const int64_t tokens = a.Total() / model.top_k;
    // Populate the memo at full membership first — the regression needs a
    // cached full-membership slot for the same token count to go stale.
    const double full = floor.Seconds(tokens);
    floor.set_num_gpus(health.num_alive());
    const double degraded_floor = floor.Seconds(tokens);
    EXPECT_GT(degraded_floor, full) << "chunks=" << chunks;
    EXPECT_LE(degraded_floor, measured) << "chunks=" << chunks;
  }
}

// The memo's working-set contract: a serving run probes a few thousand
// distinct token counts over and over, and the memo must hold all of them
// — each count computed once, every later probe a hit — while returning
// values bitwise identical to the direct call.

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

TEST(ForwardFloorMemoTest, HoldsWorkingSetAndComputesEachCountOnce) {
  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = ServeModel();
  // 3,500 distinct counts spread over [1, 2^20), the top of the working
  // set measured on the serving workloads.
  Rng rng(29);
  std::set<int64_t> distinct;
  while (distinct.size() < 3500) {
    distinct.insert(1 + static_cast<int64_t>(rng.UniformInt(1 << 20)));
  }
  const std::vector<int64_t> counts(distinct.begin(), distinct.end());
  for (const int chunks : {1, 4, 0}) {
    const ForwardFloorEstimator floor(&env.profile, model, 8, chunks);
    for (int pass = 0; pass < 4; ++pass) {
      for (const int64_t tokens : counts) {
        ASSERT_EQ(Bits(floor.Seconds(tokens)),
                  Bits(EstimateForwardMicrobatchSeconds(env.profile, model, 8,
                                                        tokens, chunks)))
            << "chunks=" << chunks << " pass=" << pass << " tokens=" << tokens;
      }
      EXPECT_EQ(floor.computes(), static_cast<int64_t>(counts.size()))
          << "chunks=" << chunks << " pass=" << pass;
    }
  }
}

// Past the fill bound new counts evict older ones: the memo stays bounded
// and every value stays exact, evicted counts included.
TEST(ForwardFloorMemoTest, StaysExactWhenTheTableIsFull) {
  const TestEnv env = TestEnv::Make(8);
  const ModelConfig model = ServeModel();
  const ForwardFloorEstimator floor(&env.profile, model, 8, 4);
  const int64_t n = 2 * static_cast<int64_t>(ForwardFloorEstimator::kSlots);
  for (int pass = 0; pass < 2; ++pass) {
    for (int64_t tokens = 1; tokens <= n; ++tokens) {
      ASSERT_EQ(Bits(floor.Seconds(tokens)),
                Bits(EstimateForwardMicrobatchSeconds(env.profile, model, 8,
                                                      tokens, 4)))
          << "pass=" << pass << " tokens=" << tokens;
    }
  }
  // The first pass computed every count; the second recomputed at least
  // the counts the bound forced out.
  EXPECT_GE(floor.computes(),
            n + n - static_cast<int64_t>(ForwardFloorEstimator::kMaxEntries));
  EXPECT_LE(floor.computes(), 2 * n);
  // Non-positive counts bypass the memo and still match the direct call.
  EXPECT_EQ(Bits(floor.Seconds(0)),
            Bits(EstimateForwardMicrobatchSeconds(env.profile, model, 8, 0, 4)));
  EXPECT_EQ(Bits(floor.Seconds(-5)),
            Bits(EstimateForwardMicrobatchSeconds(env.profile, model, 8, -5, 4)));
}

}  // namespace
}  // namespace flexmoe
