// Tests for flexible token routing (Algorithm 3): conservation, locality,
// even partitioning, and proportional spill.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/balance.h"
#include "core/router.h"
#include "util/rng.h"

namespace flexmoe {
namespace {

Placement MakePlacement(int experts, int gpus, int slots) {
  PlacementOptions o;
  o.num_experts = experts;
  o.num_gpus = gpus;
  o.slots_per_gpu = slots;
  return *Placement::ExpertParallel(o);
}

TEST(RouterTest, AllLocalWhenCapacitySuffices) {
  // One expert, one GPU hosting it, all tokens local.
  Placement p = MakePlacement(2, 2, 2);
  Assignment a(2, 2);
  a.set(0, 0, 100);
  a.set(1, 1, 80);
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  EXPECT_EQ(r.expert_gpu_tokens[0][0], 100);
  EXPECT_EQ(r.expert_gpu_tokens[1][1], 80);
  EXPECT_EQ(r.dispatch(0, 0), 100);
  EXPECT_EQ(r.CrossGpuTokens(), 0);
}

TEST(RouterTest, RemoteTokensDispatchToHost) {
  Placement p = MakePlacement(2, 2, 2);
  Assignment a(2, 2);
  a.set(0, 1, 60);  // tokens for expert 0 originate on GPU 1; expert 0 @ GPU 0
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  EXPECT_EQ(r.expert_gpu_tokens[0][0], 60);
  EXPECT_EQ(r.dispatch(1, 0), 60);
  EXPECT_EQ(r.CrossGpuTokens(), 60);
}

TEST(RouterTest, ReplicasSplitEvenly) {
  // Expert 0 with replicas on both GPUs: cap = ceil(I_e / n_e).
  Placement p = MakePlacement(2, 2, 2);
  ASSERT_TRUE(p.RemoveVExpert(0, 0).ok());   // e0: 1 vExpert @ g0
  ASSERT_TRUE(p.RemoveVExpert(1, 1).ok());   // free a slot on g1
  ASSERT_TRUE(p.AddVExpert(0, 1).ok());      // e0: replicas on g0 and g1
  Assignment a(2, 2);
  a.set(0, 0, 100);
  a.set(0, 1, 100);
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  // Even partitioning: each replica gets exactly cap = 100 tokens, locally.
  EXPECT_EQ(r.expert_gpu_tokens[0][0], 100);
  EXPECT_EQ(r.expert_gpu_tokens[0][1], 100);
  EXPECT_EQ(r.CrossGpuTokens(), 0);
}

TEST(RouterTest, LocalityFirstThenSpill) {
  Placement p = MakePlacement(2, 2, 2);
  ASSERT_TRUE(p.RemoveVExpert(0, 0).ok());
  ASSERT_TRUE(p.RemoveVExpert(1, 1).ok());
  ASSERT_TRUE(p.AddVExpert(0, 1).ok());
  // All 200 tokens of expert 0 originate on GPU 0; cap = 100 per vExpert.
  Assignment a(2, 2);
  a.set(0, 0, 200);
  const RoutedAssignment r = FlexibleRouter::Route(a, p);
  // Locality first: 100 stay; spill: 100 go to the g1 replica.
  EXPECT_EQ(r.expert_gpu_tokens[0][0], 100);
  EXPECT_EQ(r.expert_gpu_tokens[0][1], 100);
  EXPECT_EQ(r.dispatch(0, 1), 100);
}

TEST(RouterTest, SpillProportionalToAvailability) {
  // Expert 0: 1 vExpert on g0, 2 on g1, 1 on g2. Tokens all from g3.
  Placement q = MakePlacement(4, 4, 4);
  // Shrink e0@g0 down to 1 vExpert.
  while (q.VExpertsOn(0, 0) > 1) ASSERT_TRUE(q.RemoveVExpert(0, 0).ok());
  // Free slots on g1/g2 and add replicas: 2 on g1, 1 on g2.
  ASSERT_TRUE(q.RemoveVExpert(1, 1).ok());
  ASSERT_TRUE(q.RemoveVExpert(1, 1).ok());
  ASSERT_TRUE(q.RemoveVExpert(2, 2).ok());
  ASSERT_TRUE(q.AddVExpert(0, 1).ok());
  ASSERT_TRUE(q.AddVExpert(0, 1).ok());
  ASSERT_TRUE(q.AddVExpert(0, 2).ok());
  ASSERT_EQ(q.VExperts(0), 4);

  Assignment a(4, 4);
  a.set(0, 3, 400);  // all tokens from non-host GPU 3; cap = 100
  const RoutedAssignment r = FlexibleRouter::Route(a, q);
  // Availability: g0 = 100, g1 = 200, g2 = 100 -> proportional split.
  EXPECT_EQ(r.expert_gpu_tokens[0][0], 100);
  EXPECT_EQ(r.expert_gpu_tokens[0][1], 200);
  EXPECT_EQ(r.expert_gpu_tokens[0][2], 100);
}

TEST(RouterTest, PerReplicaQuotaNeverExceeded) {
  Rng rng(1);
  for (int trial = 0; trial < 30; ++trial) {
    const int experts = 8, gpus = 4;
    Placement p = MakePlacement(experts, gpus, 4);
    // Random placement churn.
    for (int i = 0; i < 20; ++i) {
      const int e = static_cast<int>(rng.UniformInt(experts));
      const GpuId g = static_cast<GpuId>(rng.UniformInt(gpus));
      if (rng.Uniform() < 0.5) {
        (void)p.RemoveVExpert(e, g);
      } else {
        (void)p.AddVExpert(e, g);
      }
    }
    ASSERT_TRUE(p.Validate().ok());
    Assignment a(experts, gpus);
    for (int e = 0; e < experts; ++e) {
      for (int g = 0; g < gpus; ++g) {
        a.set(e, g, static_cast<int64_t>(rng.UniformInt(300)));
      }
    }
    const RoutedAssignment r = FlexibleRouter::Route(a, p);
    for (int e = 0; e < experts; ++e) {
      const int64_t total = a.ExpertTotal(e);
      if (total == 0) continue;
      const int64_t cap =
          (total + p.VExperts(e) - 1) / p.VExperts(e);
      for (int g = 0; g < gpus; ++g) {
        EXPECT_LE(r.expert_gpu_tokens[static_cast<size_t>(e)]
                                     [static_cast<size_t>(g)],
                  cap * p.VExpertsOn(e, g))
            << "trial " << trial;
      }
    }
  }
}

TEST(RouterTest, PropertyTokenConservation) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const int experts = 16, gpus = 8;
    Placement p = MakePlacement(experts, gpus, 4);
    for (int i = 0; i < 30; ++i) {
      const int e = static_cast<int>(rng.UniformInt(experts));
      const GpuId g = static_cast<GpuId>(rng.UniformInt(gpus));
      if (rng.Uniform() < 0.5) {
        (void)p.RemoveVExpert(e, g);
      } else {
        (void)p.AddVExpert(e, g);
      }
    }
    Assignment a(experts, gpus);
    for (int e = 0; e < experts; ++e) {
      for (int g = 0; g < gpus; ++g) {
        a.set(e, g, static_cast<int64_t>(rng.UniformInt(1000)));
      }
    }
    const RoutedAssignment r = FlexibleRouter::Route(a, p);
    // No token created or destroyed, globally and per expert.
    EXPECT_EQ(r.Total(), a.Total()) << trial;
    for (int e = 0; e < experts; ++e) {
      int64_t routed = 0;
      for (int g = 0; g < gpus; ++g) {
        routed += r.expert_gpu_tokens[static_cast<size_t>(e)]
                                     [static_cast<size_t>(g)];
      }
      EXPECT_EQ(routed, a.ExpertTotal(e)) << trial << " e" << e;
    }
    // Dispatch row sums equal per-GPU token origins.
    for (int g = 0; g < gpus; ++g) {
      int64_t sent = 0;
      for (int d = 0; d < gpus; ++d) {
        sent += r.dispatch(g, d);
      }
      EXPECT_EQ(sent, a.GpuTotal(g)) << trial << " g" << g;
    }
  }
}

TEST(RouterTest, ReplicationImprovesBalance) {
  // The whole point of replicated expert parallelism: replicating the hot
  // expert lowers the balance ratio.
  Placement p = MakePlacement(4, 4, 2);
  Assignment a(4, 4);
  for (int g = 0; g < 4; ++g) a.set(0, g, 500);  // expert 0 very hot
  for (int e = 1; e < 4; ++e) {
    for (int g = 0; g < 4; ++g) a.set(e, g, 50);
  }
  const double before = BalanceRatioOf(a, p);

  Placement replicated = p;
  for (GpuId g = 1; g < 4; ++g) {
    ASSERT_TRUE(replicated.RemoveVExpert(static_cast<int>(g), g).ok());
    ASSERT_TRUE(replicated.AddVExpert(0, g).ok());
  }
  const double after = BalanceRatioOf(a, replicated);
  EXPECT_LT(after, before);
  EXPECT_GE(after, 1.0);
}

// --- Balance metrics -------------------------------------------------------

// The per-expert router as it stood before the small-host-set path: the
// locality claim, then every spilling source through the general loop
// (G-sized take array, remainder vector), whatever the host count —
// verbatim, recording each cell in emission order.
std::vector<RouteEntry> GeneralLoopRouteExpert(const Assignment& assignment,
                                               const Placement& placement,
                                               int e) {
  std::vector<RouteEntry> cells;
  const int num_gpus = assignment.num_gpus();
  const int64_t total = assignment.ExpertTotal(e);
  if (total == 0) return cells;
  const int n_e = placement.VExperts(e);
  const int64_t cap = (total + n_e - 1) / n_e;
  std::vector<int64_t> quota(static_cast<size_t>(num_gpus));
  std::vector<int64_t> avail(static_cast<size_t>(num_gpus));
  std::vector<int64_t> spill(static_cast<size_t>(num_gpus));
  std::vector<int64_t> take(static_cast<size_t>(num_gpus));
  std::vector<GpuId> dsts;
  std::vector<std::pair<double, GpuId>> remainders;

  const int64_t* assigned = assignment.row(e);
  const int* replicas = placement.CountsRow(e);
  int64_t spill_total = 0;
  for (GpuId g = 0; g < num_gpus; ++g) {
    quota[static_cast<size_t>(g)] = cap * static_cast<int64_t>(replicas[g]);
    const int64_t local = std::min(quota[static_cast<size_t>(g)], assigned[g]);
    if (local != 0) cells.push_back(RouteEntry{g, g, local});
    avail[static_cast<size_t>(g)] = quota[static_cast<size_t>(g)] - local;
    spill[static_cast<size_t>(g)] = assigned[g] - local;
    spill_total += assigned[g] - local;
    if (avail[static_cast<size_t>(g)] > 0) dsts.push_back(g);
  }
  if (spill_total == 0) return cells;
  int64_t total_avail = 0;
  for (GpuId g = 0; g < num_gpus; ++g) {
    total_avail += avail[static_cast<size_t>(g)];
  }

  for (GpuId src = 0; src < num_gpus; ++src) {
    const int64_t sp = spill[static_cast<size_t>(src)];
    if (sp <= 0) continue;
    EXPECT_GE(total_avail, sp);
    remainders.clear();
    int64_t allocated = 0;
    for (const GpuId dst : dsts) {
      take[static_cast<size_t>(dst)] = 0;
      const int64_t a = avail[static_cast<size_t>(dst)];
      if (a <= 0) continue;
      const double exact = static_cast<double>(sp) *
                           static_cast<double>(a) /
                           static_cast<double>(total_avail);
      const int64_t base =
          std::min(a, static_cast<int64_t>(std::floor(exact)));
      take[static_cast<size_t>(dst)] = base;
      allocated += base;
      remainders.push_back({exact - std::floor(exact), dst});
    }
    const auto remainder_less = [](const std::pair<double, GpuId>& a,
                                   const std::pair<double, GpuId>& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    };
    for (size_t i = 1; i < remainders.size(); ++i) {
      const std::pair<double, GpuId> key = remainders[i];
      size_t j = i;
      for (; j > 0 && remainder_less(key, remainders[j - 1]); --j) {
        remainders[j] = remainders[j - 1];
      }
      remainders[j] = key;
    }
    int64_t leftover = sp - allocated;
    for (const auto& [frac, dst] : remainders) {
      if (leftover <= 0) break;
      if (take[static_cast<size_t>(dst)] < avail[static_cast<size_t>(dst)]) {
        ++take[static_cast<size_t>(dst)];
        --leftover;
      }
    }
    for (const GpuId dst : dsts) {
      if (leftover <= 0) break;
      const int64_t room =
          avail[static_cast<size_t>(dst)] - take[static_cast<size_t>(dst)];
      const int64_t extra = std::min(room, leftover);
      take[static_cast<size_t>(dst)] += extra;
      leftover -= extra;
    }
    EXPECT_EQ(leftover, 0);
    for (const GpuId dst : dsts) {
      const int64_t t = take[static_cast<size_t>(dst)];
      if (t <= 0) continue;
      cells.push_back(RouteEntry{dst, src, t});
      avail[static_cast<size_t>(dst)] -= t;
    }
    total_avail -= sp;
  }
  return cells;
}

// Every routing path — one host, two hosts, and the general path on stack
// or scratch arrays — emits exactly the general loop's cells, in its
// order, on random rows with 1-12 hosts (and a few with more hosts than
// the general path's stack arrays hold). Some rows carry counts past
// 2^50, the range where the one- and two-host paths fall back to the
// exact arithmetic.
TEST(RouterTest, EveryPathMatchesTheGeneralLoop) {
  Rng rng(2024);
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
  };
  int general_rows = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const bool many = trial % 10 == 9;
    const int gpus = many ? 24 : 12 + pick(13);  // 12..24
    const int hosts = many ? 17 + pick(8) : 1 + trial % 12;
    PlacementOptions po;
    po.num_experts = 1;
    po.num_gpus = gpus;
    po.slots_per_gpu = 3;
    std::vector<std::map<GpuId, int>> replicas(1);
    while (static_cast<int>(replicas[0].size()) < hosts) {
      replicas[0][pick(gpus)] = 1 + pick(3);
    }
    const Placement p = *Placement::FromReplicaMap(po, replicas);
    Assignment a(1, gpus);
    const bool huge = trial % 7 == 0;
    for (GpuId g = 0; g < gpus; ++g) {
      int64_t v = pick(4) == 0 ? 0 : pick(5000);
      if (huge) v = (int64_t{1} << 50) + pick(1 << 20) * int64_t{1021};
      a.set(0, g, v);
    }
    RoutedAssignment out;
    out.Clear(1, gpus);
    std::vector<RouteEntry> got;
    FlexibleRouter::RouteExpertInto(a, p, 0, &out, &got);
    const std::vector<RouteEntry> want = GeneralLoopRouteExpert(a, p, 0);
    ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(got[i].dst == want[i].dst && got[i].src == want[i].src &&
                  got[i].take == want[i].take)
          << "trial " << trial << " cell " << i;
    }
    if (hosts >= 3) ++general_rows;
  }
  EXPECT_GT(general_rows, 0);
}

TEST(BalanceTest, RatioOnKnownLoads) {
  EXPECT_DOUBLE_EQ(BalanceRatio({10, 10, 10, 10}), 1.0);
  EXPECT_DOUBLE_EQ(BalanceRatio({40, 0, 0, 0}), 4.0);
  EXPECT_DOUBLE_EQ(BalanceRatio({30, 10}), 1.5);
  EXPECT_DOUBLE_EQ(BalanceRatio({}), 1.0);
  EXPECT_DOUBLE_EQ(BalanceRatio({0, 0}), 1.0);
}

TEST(BalanceTest, RatioAlwaysAtLeastOne) {
  Rng rng(3);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> loads;
    for (int i = 0; i < 16; ++i) loads.push_back(rng.Uniform(0, 100));
    EXPECT_GE(BalanceRatio(loads), 1.0 - 1e-12);
  }
}

TEST(BalanceTest, VarianceMetric) {
  EXPECT_DOUBLE_EQ(BalanceVariance({5, 5, 5}), 0.0);
  EXPECT_NEAR(BalanceVariance({1, 3}), 0.5, 1e-12);  // CV
  EXPECT_DOUBLE_EQ(BalanceVariance({}), 0.0);
}

}  // namespace
}  // namespace flexmoe
