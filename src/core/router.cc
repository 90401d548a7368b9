#include "core/router.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace flexmoe {

void RoutedAssignment::EnableNodeAggregation(const Topology& topo) {
  FLEXMOE_CHECK(num_gpus == 0 || num_gpus == topo.num_gpus());
  node_of.resize(static_cast<size_t>(topo.num_gpus()));
  for (GpuId g = 0; g < topo.num_gpus(); ++g) {
    node_of[static_cast<size_t>(g)] = topo.NodeOf(g);
  }
  num_nodes = topo.num_nodes();
  node_dispatch_to.assign(topo.num_gpus(), num_nodes, 0);
  // Rebuild from an already-populated dispatch matrix so enabling after
  // routing is equivalent to enabling before.
  for (GpuId dst = 0; dst < num_gpus; ++dst) {
    const int64_t* row = dispatch_to.row(dst);
    int64_t* agg = node_dispatch_to.row(dst);
    for (GpuId src = 0; src < num_gpus; ++src) {
      agg[node_of[static_cast<size_t>(src)]] += row[src];
    }
  }
}

void RoutedAssignment::DisableNodeAggregation() {
  node_of.clear();
  num_nodes = 0;
  node_dispatch_to.assign(0, 0, 0);
}

void RoutedAssignment::Clear(int experts, int gpus) {
  num_experts = experts;
  num_gpus = gpus;
  expert_gpu_tokens.assign(experts, gpus, 0);
  dispatch_to.assign(gpus, gpus, 0);
  if (!node_of.empty()) {
    FLEXMOE_CHECK(static_cast<int>(node_of.size()) == gpus);
    node_dispatch_to.assign(gpus, num_nodes, 0);
  }
}

void RoutedAssignment::AddEntries(int expert, const RouteEntry* begin,
                                  const RouteEntry* end, int sign) {
  FLEXMOE_CHECK(expert >= 0 && expert < num_experts);
  FLEXMOE_CHECK(sign == 1 || sign == -1);
  int64_t* expert_row = expert_gpu_tokens.row(expert);
  const bool aggregate = !node_of.empty();
  for (const RouteEntry* it = begin; it != end; ++it) {
    const int64_t t = sign * it->take;
    expert_row[it->dst] += t;
    dispatch_to(it->dst, it->src) += t;
    if (aggregate) {
      node_dispatch_to(it->dst, node_of[static_cast<size_t>(it->src)]) += t;
    }
  }
}

std::vector<int64_t> RoutedAssignment::PerGpuComputeTokens() const {
  std::vector<int64_t> loads;
  PerGpuComputeTokensInto(&loads);
  return loads;
}

void RoutedAssignment::PerGpuComputeTokensInto(
    std::vector<int64_t>* out) const {
  out->assign(static_cast<size_t>(num_gpus), 0);
  for (int e = 0; e < num_experts; ++e) {
    const int64_t* row = expert_gpu_tokens.row(e);
    for (int g = 0; g < num_gpus; ++g) {
      (*out)[static_cast<size_t>(g)] += row[g];
    }
  }
}

std::vector<double> RoutedAssignment::PerGpuComputeLoads() const {
  const std::vector<int64_t> tokens = PerGpuComputeTokens();
  std::vector<double> loads(tokens.size());
  for (size_t i = 0; i < tokens.size(); ++i) {
    loads[i] = static_cast<double>(tokens[i]);
  }
  return loads;
}

int64_t RoutedAssignment::Total() const {
  int64_t total = 0;
  const int64_t* flat = expert_gpu_tokens.data();
  for (size_t i = 0; i < expert_gpu_tokens.element_count(); ++i) {
    total += flat[i];
  }
  return total;
}

int64_t RoutedAssignment::CrossGpuTokens() const {
  int64_t total = 0;
  for (int d = 0; d < num_gpus; ++d) {
    const int64_t* row = dispatch_to.row(d);
    for (int s = 0; s < num_gpus; ++s) {
      if (s != d) total += row[s];
    }
  }
  return total;
}

namespace {

/// Reusable per-call scratch for the per-expert routing core. thread_local
/// so concurrent grid cells never share it (see DESIGN.md "Performance
/// architecture" for the scratch ownership rules).
struct RouteScratch {
  std::vector<int64_t> quota;
  std::vector<int64_t> avail;
  std::vector<int64_t> spill;
  std::vector<int64_t> take;
  std::vector<GpuId> dsts;
  std::vector<std::pair<double, GpuId>> remainders;

  void Resize(int num_gpus) {
    quota.resize(static_cast<size_t>(num_gpus));
    avail.resize(static_cast<size_t>(num_gpus));
    spill.resize(static_cast<size_t>(num_gpus));
    take.resize(static_cast<size_t>(num_gpus));
    dsts.clear();
    dsts.reserve(static_cast<size_t>(num_gpus));
    remainders.reserve(static_cast<size_t>(num_gpus));
  }
};

RouteScratch& Scratch() {
  static thread_local RouteScratch scratch;
  return scratch;
}

/// Route's sink: adds each cell straight into the routing matrices.
class AccumulateSink {
 public:
  AccumulateSink(int expert, RoutedAssignment* out)
      : expert_row_(out->expert_gpu_tokens.row(expert)),
        out_(out),
        aggregate_(!out->node_of.empty()) {}

  void Add(GpuId dst, GpuId src, int64_t take) {
    expert_row_[dst] += take;
    out_->dispatch_to(dst, src) += take;
    // Per-node aggregation rides along when enabled (integer adds only).
    if (aggregate_) {
      out_->node_dispatch_to(dst, out_->node_of[static_cast<size_t>(src)]) +=
          take;
    }
  }

 private:
  int64_t* expert_row_;
  RoutedAssignment* out_;
  bool aggregate_;
};

/// RouteExpertInto's sink: accumulates each cell and records it.
class RecordingSink {
 public:
  RecordingSink(int expert, RoutedAssignment* out,
                std::vector<RouteEntry>* entries)
      : accumulate_(expert, out), entries_(entries) {}

  void Add(GpuId dst, GpuId src, int64_t take) {
    accumulate_.Add(dst, src, take);
    entries_->push_back(RouteEntry{dst, src, take});
  }

 private:
  AccumulateSink accumulate_;
  std::vector<RouteEntry>* entries_;
};

/// Routes one expert (Alg. 3 applied to expert `e` alone) and hands every
/// positive (dst, src, take) cell to `sink`. The cells are a pure function
/// of the expert's assignment row and placement row.
template <class Sink>
void RouteExpert(const Assignment& assignment, const Placement& placement,
                 int e, Sink* sink) {
  const int num_gpus = assignment.num_gpus();
  const int64_t total = assignment.ExpertTotal(e);
  if (total == 0) return;
  const int n_e = placement.VExperts(e);
  FLEXMOE_CHECK_MSG(n_e >= 1, "expert with zero vExperts");
  // cap_e = ceil(I_e / n_e): even partitioning across vExperts.
  const int64_t cap = (total + n_e - 1) / n_e;

  RouteScratch& s = Scratch();
  s.Resize(num_gpus);

  // Locality-first claim (Alg. 3 line 5).
  const int64_t* assigned = assignment.row(e);
  const int* replicas = placement.CountsRow(e);
  int64_t spill_total = 0;
  s.dsts.clear();
  for (GpuId g = 0; g < num_gpus; ++g) {
    s.quota[static_cast<size_t>(g)] =
        cap * static_cast<int64_t>(replicas[g]);
    const int64_t local =
        std::min(s.quota[static_cast<size_t>(g)], assigned[g]);
    // Guarded: only hosts can claim locally (quota is 0 elsewhere), and the
    // unguarded += 0 would touch one fresh cacheline per GPU (the dispatch
    // diagonal) — measurably the whole routing cost at G = 512.
    if (local != 0) sink->Add(g, g, local);
    s.avail[static_cast<size_t>(g)] = s.quota[static_cast<size_t>(g)] - local;
    s.spill[static_cast<size_t>(g)] = assigned[g] - local;
    spill_total += assigned[g] - local;
    // Spill can only land where capacity remains; only host GPUs have any
    // (quota > 0 requires a replica). Collecting them here (ascending, the
    // canonical order) lets every per-source loop below run over the
    // expert's hosts instead of all G — the difference between O(G^2) and
    // O(G + spill_sources * hosts) per expert at large EP.
    if (s.avail[static_cast<size_t>(g)] > 0) s.dsts.push_back(g);
  }
  if (spill_total == 0) return;

  // Proportional spill (Alg. 3 lines 8-10) with largest-remainder
  // rounding, then a greedy pass for residual integer slack. The total
  // available capacity is maintained incrementally (every spilled token
  // lands somewhere, so it shrinks by exactly `sp` per source).
  int64_t total_avail = 0;
  for (GpuId g = 0; g < num_gpus; ++g) {
    total_avail += s.avail[static_cast<size_t>(g)];
  }
  // Single-destination fast path: the common large-EP shape (an expert's
  // vExperts all on its home GPU) leaves exactly one GPU with spare
  // capacity, so the proportional/remainder/residue machinery below acts
  // on one element. This inlines that one-element execution — the same
  // arithmetic in the same order, so the resulting takes are bit-identical
  // to the general path — at a few scalar ops per spilling source.
  if (s.dsts.size() == 1) {
    const GpuId dst = s.dsts.front();
    // Local avail copy (written back after the loop): the sink's writes
    // below could alias any int64_t in the compiler's view, which would
    // force a reload/spill of the counter every iteration.
    int64_t avail_dst = s.avail[static_cast<size_t>(dst)];
    for (GpuId src = 0; src < num_gpus; ++src) {
      const int64_t sp = s.spill[static_cast<size_t>(src)];
      if (sp <= 0) continue;
      FLEXMOE_CHECK_MSG(total_avail >= sp,
                        "router capacity accounting broken");
      const int64_t a = avail_dst;
      int64_t take;
      if (sp < (int64_t{1} << 50)) {
        // a == total_avail >= sp, so the general path computes
        // floor(fl(fl(sp*a)/a)) with two roundings of combined relative
        // error < 2^-51; for sp < 2^50 the absolute error is < 1/2, so the
        // floor lands on sp or sp-1, and the largest-remainder step (take
        // < a holds because a >= sp > sp-1) bumps sp-1 back to sp. The
        // result is provably take == sp — the divide can be skipped.
        take = sp;
      } else {
        // Out-of-range token counts: run the general path's arithmetic in
        // its exact form so the results stay bit-identical regardless.
        const double exact = static_cast<double>(sp) *
                             static_cast<double>(a) /
                             static_cast<double>(total_avail);
        take = std::min(a, static_cast<int64_t>(std::floor(exact)));
        int64_t leftover = sp - take;
        if (leftover > 0 && take < a) {  // largest-remainder step
          ++take;
          --leftover;
        }
        const int64_t extra = std::min(a - take, leftover);  // greedy residue
        take += extra;
        leftover -= extra;
        FLEXMOE_CHECK_MSG(leftover == 0, "router failed to place spill");
      }
      if (take > 0) {
        sink->Add(dst, src, take);
        avail_dst -= take;
      }
      total_avail -= sp;
    }
    s.avail[static_cast<size_t>(dst)] = avail_dst;
    return;
  }

  // Two-destination fast path: the Policy Maker's expand candidates give
  // the hot expert exactly one extra host, so every candidate evaluation
  // routes it over two destinations. This transcribes the general loop's
  // per-source execution for |dsts| == 2 into scalars — the same FP ops in
  // the same order (proportional floors, largest-remainder in (frac desc,
  // id asc) order, greedy residue ascending) — so the takes are
  // bit-identical, without the remainder-vector and take-array traffic.
  if (s.dsts.size() == 2) {
    const GpuId d1 = s.dsts[0], d2 = s.dsts[1];  // ascending
    // Local avail copies (written back after the loop) — see above.
    int64_t av1 = s.avail[static_cast<size_t>(d1)];
    int64_t av2 = s.avail[static_cast<size_t>(d2)];
    for (GpuId src = 0; src < num_gpus; ++src) {
      const int64_t sp = s.spill[static_cast<size_t>(src)];
      if (sp <= 0) continue;
      FLEXMOE_CHECK_MSG(total_avail >= sp,
                        "router capacity accounting broken");
      const int64_t a1 = av1, a2 = av2;
      if (a1 <= 0 || a2 <= 0) {
        // One destination saturated: identical to the single-destination
        // path (the live avail == total_avail), including its no-divide
        // shortcut for in-range token counts.
        const bool live1 = a1 > 0;
        const int64_t a = live1 ? a1 : a2;
        int64_t take;
        if (sp < (int64_t{1} << 50)) {
          take = sp;  // provably equal to the general arithmetic (see above)
        } else {
          const double exact = static_cast<double>(sp) *
                               static_cast<double>(a) /
                               static_cast<double>(total_avail);
          take = std::min(a, static_cast<int64_t>(std::floor(exact)));
          int64_t leftover = sp - take;
          if (leftover > 0 && take < a) {
            ++take;
            --leftover;
          }
          const int64_t extra = std::min(a - take, leftover);
          take += extra;
          leftover -= extra;
          FLEXMOE_CHECK_MSG(leftover == 0, "router failed to place spill");
        }
        if (take > 0) {
          sink->Add(live1 ? d1 : d2, src, take);
          (live1 ? av1 : av2) -= take;
        }
        total_avail -= sp;
        continue;
      }
      // Proportional floors for both destinations (the general loop's
      // push order is d1 then d2; ids ascending breaks frac ties, so the
      // remainder order is d1-first iff f1 >= f2).
      const double exact1 = static_cast<double>(sp) *
                            static_cast<double>(a1) /
                            static_cast<double>(total_avail);
      const double fl1 = std::floor(exact1);
      int64_t t1 = std::min(a1, static_cast<int64_t>(fl1));
      const double f1 = exact1 - fl1;
      const double exact2 = static_cast<double>(sp) *
                            static_cast<double>(a2) /
                            static_cast<double>(total_avail);
      const double fl2 = std::floor(exact2);
      int64_t t2 = std::min(a2, static_cast<int64_t>(fl2));
      const double f2 = exact2 - fl2;
      int64_t leftover = sp - t1 - t2;
      if (leftover > 0) {
        if (f1 >= f2) {  // largest-remainder order: d1, d2
          if (t1 < a1) { ++t1; --leftover; }
          if (leftover > 0 && t2 < a2) { ++t2; --leftover; }
        } else {  // d2, d1
          if (t2 < a2) { ++t2; --leftover; }
          if (leftover > 0 && t1 < a1) { ++t1; --leftover; }
        }
        if (leftover > 0) {  // greedy residue, ascending dst order
          const int64_t e1 = std::min(a1 - t1, leftover);
          t1 += e1;
          leftover -= e1;
          const int64_t e2 = std::min(a2 - t2, leftover);
          t2 += e2;
          leftover -= e2;
        }
        FLEXMOE_CHECK_MSG(leftover == 0, "router failed to place spill");
      }
      if (t1 > 0) {
        sink->Add(d1, src, t1);
        av1 -= t1;
      }
      if (t2 > 0) {
        sink->Add(d2, src, t2);
        av2 -= t2;
      }
      total_avail -= sp;
    }
    s.avail[static_cast<size_t>(d1)] = av1;
    s.avail[static_cast<size_t>(d2)] = av2;
    return;
  }

  for (GpuId src = 0; src < num_gpus; ++src) {
    const int64_t sp = s.spill[static_cast<size_t>(src)];
    if (sp <= 0) continue;
    FLEXMOE_CHECK_MSG(total_avail >= sp, "router capacity accounting broken");

    // Proportional allocation over the expert's hosts (`s.dsts` is exactly
    // the ascending-id set the full-G scan would visit: every other GPU has
    // zero capacity, which the old scan skipped).
    s.remainders.clear();
    int64_t allocated = 0;
    for (const GpuId dst : s.dsts) {
      s.take[static_cast<size_t>(dst)] = 0;
      const int64_t a = s.avail[static_cast<size_t>(dst)];
      if (a <= 0) continue;
      const double exact = static_cast<double>(sp) *
                           static_cast<double>(a) /
                           static_cast<double>(total_avail);
      const int64_t base =
          std::min(a, static_cast<int64_t>(std::floor(exact)));
      s.take[static_cast<size_t>(dst)] = base;
      allocated += base;
      s.remainders.push_back({exact - std::floor(exact), dst});
    }
    // The comparator is a strict total order (destinations are unique), so
    // the sorted permutation is unique and any sorting algorithm produces
    // it; insertion sort skips std::sort's dispatch overhead at the tiny
    // sizes (|hosts|) seen here.
    const auto remainder_less = [](const std::pair<double, GpuId>& a,
                                   const std::pair<double, GpuId>& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    };
    for (size_t i = 1; i < s.remainders.size(); ++i) {
      const std::pair<double, GpuId> key = s.remainders[i];
      size_t j = i;
      for (; j > 0 && remainder_less(key, s.remainders[j - 1]); --j) {
        s.remainders[j] = s.remainders[j - 1];
      }
      s.remainders[j] = key;
    }
    int64_t leftover = sp - allocated;
    for (const auto& [frac, dst] : s.remainders) {
      if (leftover <= 0) break;
      if (s.take[static_cast<size_t>(dst)] <
          s.avail[static_cast<size_t>(dst)]) {
        ++s.take[static_cast<size_t>(dst)];
        --leftover;
      }
    }
    // Greedy residue (rounding can leave slack when many dsts saturate).
    for (const GpuId dst : s.dsts) {
      if (leftover <= 0) break;
      const int64_t room =
          s.avail[static_cast<size_t>(dst)] - s.take[static_cast<size_t>(dst)];
      const int64_t extra = std::min(room, leftover);
      s.take[static_cast<size_t>(dst)] += extra;
      leftover -= extra;
    }
    FLEXMOE_CHECK_MSG(leftover == 0, "router failed to place spill");

    // Destination-major writes: each dst's cell for this src sits at
    // column `src` of the dst row, so consecutive sources touch
    // consecutive bytes of the same few (|hosts|) rows.
    for (const GpuId dst : s.dsts) {
      const int64_t t = s.take[static_cast<size_t>(dst)];
      if (t <= 0) continue;
      sink->Add(dst, src, t);
      s.avail[static_cast<size_t>(dst)] -= t;
    }
    total_avail -= sp;
  }
}

}  // namespace

RoutedAssignment FlexibleRouter::Route(const Assignment& assignment,
                                       const Placement& placement) {
  RoutedAssignment out;
  RouteInto(assignment, placement, &out);
  return out;
}

void FlexibleRouter::RouteInto(const Assignment& assignment,
                               const Placement& placement,
                               RoutedAssignment* out) {
  FLEXMOE_CHECK(out != nullptr);
  FLEXMOE_CHECK(assignment.num_experts() == placement.num_experts());
  FLEXMOE_CHECK(assignment.num_gpus() == placement.num_gpus());
  const int num_experts = assignment.num_experts();
  out->Clear(num_experts, assignment.num_gpus());
  for (int e = 0; e < num_experts; ++e) {
    AccumulateSink sink(e, out);
    RouteExpert(assignment, placement, e, &sink);
  }
}

void FlexibleRouter::RouteExpertInto(const Assignment& assignment,
                                     const Placement& placement, int expert,
                                     RoutedAssignment* out,
                                     std::vector<RouteEntry>* entries) {
  FLEXMOE_CHECK(out != nullptr && entries != nullptr);
  FLEXMOE_CHECK(assignment.num_experts() == placement.num_experts());
  FLEXMOE_CHECK(assignment.num_gpus() == placement.num_gpus());
  FLEXMOE_CHECK(out->num_experts == assignment.num_experts() &&
                out->num_gpus == assignment.num_gpus());
  FLEXMOE_CHECK(expert >= 0 && expert < assignment.num_experts());
  RecordingSink sink(expert, out, entries);
  RouteExpert(assignment, placement, expert, &sink);
}

}  // namespace flexmoe
