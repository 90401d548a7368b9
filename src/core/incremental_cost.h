// Incremental Eq. 5 cost maintenance (DESIGN.md Section 10).
//
// The Policy Maker's candidate search evaluates placements that differ from
// the incumbent by one ModOp — one or two experts move. A from-scratch
// Eq. 5 evaluation pays O(E*G + G^2) per candidate; LayerCostState caches
// the per-GPU compute / All-to-All / sync partial sums, the routed token
// matrix, and every expert's routed contribution, and re-derives only the
// GPUs an op actually touches. A candidate costs the integer adds of the
// touched experts' recorded contributions plus the refresh of the touched
// GPUs and an O(log G) tournament update for the outer max; no routing
// walk is ever repeated within the life of a state.
//
// Exactness argument (DESIGN.md Section 10.1):
//  * Contributions are integer: retracting an expert's recorded (dst, src,
//    take) entries and adding the entries of its new placement row cancels
//    exactly, so the cached token matrices equal a from-scratch Route of
//    the current placement bitwise at every depth. An expert's entries and
//    its Eq. 9 sync term are pure functions of its assignment row and
//    placement count row, so memoizing them by (expert, count row) for the
//    life of the state (Reset clears the memo) returns exactly what a
//    fresh routing walk would.
//  * Per-GPU float sums are never delta-adjusted (FP addition is order-
//    dependent and not reversible). An affected GPU's compute/a2a/sync
//    terms are recomputed from scratch in the same canonical ascending-
//    expert / ascending-source order CostModel::EstimateLayer uses, from
//    bitwise-identical integer inputs — hence bitwise-identical sums.
//  * max is associative and commutative for non-NaN doubles, so the
//    tournament root equals std::max_element over the per-GPU totals.
//  * Undo swaps the contributions back and restores the floats Apply
//    saved. Every cached float is a pure function of the integer state
//    Undo restores, so the saved values are exactly what a recompute would
//    give: Undo restores the pre-Apply state bitwise without a refresh.
//
// The invariants are pinned by tests/incremental_cost_test.cc (randomized
// Apply/Undo sequences vs from-scratch EstimateLayer, exact comparison).

#ifndef FLEXMOE_CORE_INCREMENTAL_COST_H_
#define FLEXMOE_CORE_INCREMENTAL_COST_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/cost_model.h"
#include "placement/primitives.h"

namespace flexmoe {

/// \brief Search score for a candidate placement: the 8-norm of per-GPU
/// layer times. It upper-bounds and closely tracks the Eq. 5 max, but
/// unlike the bare max it strictly rewards relieving ANY heavily loaded
/// GPU (see PolicyMaker). Always evaluated left-to-right over all GPUs —
/// the sum is order-dependent in FP, so it is deliberately not maintained
/// incrementally; at 4 flops per GPU it is never the bottleneck.
double Score8Norm(const std::vector<double>& per_gpu_seconds);

/// \brief Cached Eq. 5 state for one (assignment, placement) pair with
/// O(Δ)-cost ApplyOp / Undo.
///
/// The state owns a private Placement copy that it mutates in lock-step
/// with the op stack; the Assignment is borrowed and must outlive every
/// use between Reset calls. Not thread-safe; one instance per search loop
/// (the scratch-ownership rules of DESIGN.md "Performance architecture").
/// All storage is pooled, so steady-state Apply/Undo cycles are
/// allocation-free.
class LayerCostState {
 public:
  /// `include_sync` = false drops the Eq. 9 replica-sync term — the
  /// serving objective (PolicyMakerOptions::serve_objective).
  LayerCostState(const CostModel* cost_model, bool include_sync);

  /// Full canonical rebuild against a new workload/placement:
  /// Route + BuildCosts. O(E*G + G^2).
  void Reset(const Assignment& assignment, const Placement& placement);

  /// The routing half of Reset: one routing walk that fills routed() and
  /// records every expert's contribution, and clears the memo. Until
  /// BuildCosts runs, only routed() and placement() may be read — the
  /// Scheduler reads its trigger metric here and builds the costs only
  /// when the trigger fires.
  void Route(const Assignment& assignment, const Placement& placement);

  /// The cost half of Reset: per-expert capacities and sync terms, every
  /// GPU's partial sums, and the tournament. Requires a Route. O(E + G^2).
  void BuildCosts();

  bool initialized() const { return costs_built_; }
  bool include_sync() const { return include_sync_; }

  /// True iff Apply(op) would succeed (the preconditions
  /// primitives::ApplyOp enforces). Side-effect free.
  bool CanApply(const ModOp& op) const;

  /// Applies `op` if it is feasible on the current placement; returns
  /// false and leaves the state untouched otherwise.
  bool Apply(const ModOp& op);

  /// Reverts the most recent successful Apply: swaps the touched experts'
  /// contributions back and restores the saved per-GPU values (no routing
  /// walk, no refresh). Bitwise restoration.
  void Undo();

  /// Open (not yet undone) Apply count since the last Reset.
  int depth() const { return static_cast<int>(undo_records_.size()); }

  // --- Queries (all O(1) unless noted) -----------------------------------

  /// Eq. 5 outer max over per-GPU totals (tournament root).
  double TotalSeconds() const { return tourney_[1]; }

  /// Score8Norm over the cached per-GPU totals. O(G).
  double Score() const { return Score8Norm(per_gpu_total_); }

  /// A lower bound on Score() after Apply(MakeExpand(expert, *, dst)):
  /// Score8Norm's sum restricted to the GPUs that op cannot touch (every
  /// GPU outside expert's hosts and dst), in the same index order. Those
  /// GPUs' totals are bitwise unchanged by the op and rounded addition of
  /// non-negative terms is monotone, so the restricted sum never exceeds
  /// the candidate's. pow may be off by a fraction of an ulp in either
  /// direction, so callers compare with a few ulps of margin. O(G).
  double ExpandScoreLowerBound(int expert, GpuId dst) const;

  const Assignment& assignment() const { return *assignment_; }
  const Placement& placement() const { return *placement_; }
  const RoutedAssignment& routed() const { return routed_; }

  const std::vector<double>& per_gpu_seconds() const { return per_gpu_total_; }

  /// The cached per-GPU compute, A2A and sync partials behind
  /// per_gpu_seconds(); BestChunkDepth combines them per chunk depth.
  const std::vector<double>& per_gpu_compute() const {
    return per_gpu_compute_;
  }
  const std::vector<double>& per_gpu_a2a() const { return per_gpu_a2a_; }
  const std::vector<double>& per_gpu_sync() const { return per_gpu_sync_; }

  /// Tokens of expert computation landing on each GPU (integer loads; ==
  /// routed().PerGpuComputeTokens() without the allocation).
  const std::vector<int64_t>& per_gpu_compute_tokens() const {
    return gpu_tokens_;
  }

  /// Per-vExpert capacity of each expert: I_e / n_e (Alg. 2 lines 3-5).
  const std::vector<double>& vexpert_capacities() const { return caps_; }

  /// Best pipeline chunk depth for this layer under the overhead-honest
  /// combiner, evaluated on the cached per-GPU compute/A2A/sync partial
  /// sums (O(G) per candidate over CostModel::kChunkDepthCandidates, no
  /// routing work). Selection is CostModel::BestChunkDepth's
  /// shallow-to-deep deepening ladder, and a non-zero `incumbent` engages
  /// its retention hysteresis (kChunkDepthSwitchMargin). The Scheduler
  /// publishes this as SchedulerDecision::pipeline_chunks on auto-K plans
  /// (DESIGN.md §12.2).
  int BestChunkDepth(int incumbent = 0) const {
    FLEXMOE_CHECK(initialized());
    return cost_model_->BestChunkDepth(per_gpu_compute_, per_gpu_a2a_,
                                       per_gpu_sync_, incumbent);
  }

  /// Memo lookups Apply served without a routing walk / with one, since
  /// construction (diagnostics for tests and benches).
  int64_t memo_hits() const { return memo_hits_; }
  int64_t memo_misses() const { return memo_misses_; }

 private:
  /// One expert's routed contribution under one placement count row: a
  /// slice of one cell block, the row's (gpu, count) key as a slice of
  /// keys_ (empty for the contributions Route records — those are reached
  /// by Undo, never looked up), and the row's Eq. 9 sync term.
  struct Contribution {
    int32_t expert = -1;
    int32_t block = 0;
    int32_t entry_begin = 0;
    int32_t entry_count = 0;
    int32_t key_begin = 0;
    int32_t key_count = 0;
    uint64_t hash = 0;
    double sync = 0.0;
  };

  /// One affected GPU's pre-op values — everything RefreshGpu writes.
  struct GpuSave {
    GpuId gpu = -1;
    int64_t tokens = 0;
    double compute = 0.0;
    double a2a = 0.0;
    double sync = 0.0;
    double total = 0.0;
  };

  /// Everything Undo needs to revert one Apply: the op (for the inverse
  /// placement mutation), the touched experts' contributions before it,
  /// and the count of GpuSaves it pushed.
  struct UndoRecord {
    ModOp op;
    int32_t prev1 = -1;
    int32_t prev2 = -1;
    int32_t num_gpus_saved = 0;
  };

  /// The second expert a Migrate touches (-1 for other ops or a self-swap).
  static int PartnerOf(const ModOp& op);

  /// The placement half of an op (replica add/remove bookkeeping only).
  void MutatePlacement(const ModOp& op);

  /// The op that exactly reverts `op` on the post-op placement.
  static ModOp InverseOf(const ModOp& op);

  /// Placement mutators that keep the per-GPU hosted-expert lists in sync.
  void AddReplica(int expert, GpuId gpu);
  void RemoveReplica(int expert, GpuId gpu);

  /// Collects `expert`'s current host GPUs into the affected set.
  void MarkHosts(int expert);

  /// Adds one GPU to the affected set (no-op for out-of-range ids, so op
  /// endpoints can be marked unconditionally).
  void MarkGpu(GpuId gpu);

  /// Routes `expert` under the current placement into routed_ and records
  /// the cells as a new Contribution (sync term when `with_sync`); returns
  /// its index.
  int32_t RouteContribution(int expert, bool with_sync);

  /// Adds `expert`'s contribution under its current placement row to
  /// routed_ and returns its index: the memoized cells on a hit, a routing
  /// walk (then memoized) on a miss.
  int32_t AddCurrentContribution(int expert);

  /// Adds (+1) or retracts (-1) a recorded contribution from routed_.
  void AddContribution(int32_t id, int sign);

  /// Inserts contribution `id` into the open-addressing memo table.
  void MemoInsert(int32_t id);

  /// Refreshes caps_ / sync_of_expert_ for one touched expert.
  void RefreshExpert(int expert);

  /// Canonically recomputes one GPU's partial sums, token totals, and
  /// tournament leaf from the cached integer state. O(G).
  void RefreshGpu(GpuId g);

  /// Writes one GPU's total into its tournament leaf and re-derives the
  /// leaf's root path. O(log G).
  void SetLeaf(GpuId g, double total);

  /// Pushes the values RefreshGpu would overwrite for `g`.
  void SaveGpu(GpuId g);

  /// Restores the most recently saved GPU (the inverse of SaveGpu).
  void RestoreLastGpu();

  const CostModel* cost_model_;
  bool include_sync_;

  const Assignment* assignment_ = nullptr;
  std::optional<Placement> placement_;
  RoutedAssignment routed_;
  bool costs_built_ = false;

  // Per-GPU partial sums (Eq. 5 terms) and their integer sources.
  std::vector<double> per_gpu_compute_;
  std::vector<double> per_gpu_a2a_;
  std::vector<double> per_gpu_sync_;
  std::vector<double> per_gpu_total_;
  std::vector<int64_t> gpu_tokens_;

  // Per-expert caches refreshed only for touched experts.
  std::vector<double> sync_of_expert_;
  std::vector<double> caps_;

  /// Experts hosting >= 1 vExpert per GPU, ascending — the canonical
  /// iteration order of EstimateLayer restricted to terms that can be
  /// non-zero (tokens land only on hosts; sync accrues only on hosts).
  /// Capacity is reserved at slots_per_gpu, the most a GPU can host.
  std::vector<std::vector<int>> gpu_experts_;

  // Contribution cache and memo (pooled: Route clears sizes, never
  // capacities). current_[e] indexes e's contribution under the current
  // placement.
  /// Recorded cells in blocks of at least kCellBlock entries. A
  /// contribution's cells are contiguous in one block, and the pool grows
  /// by adding a block, so growth never copies the cells or holds old and
  /// new buffers at once (a doubling vector's transient peak is three
  /// times its content — measurable RSS at G = 512). Only blocks
  /// [0, cell_block_] hold live cells.
  std::vector<std::vector<RouteEntry>> cell_blocks_;
  size_t cell_block_ = 0;
  std::vector<std::pair<GpuId, int>> keys_;
  std::vector<Contribution> contributions_;
  std::vector<int32_t> current_;
  /// Open-addressing table of contribution ids (-1 = empty), power-of-two
  /// size, kept at most half full.
  std::vector<int32_t> memo_table_;
  int32_t memo_size_ = 0;
  int64_t memo_hits_ = 0;
  int64_t memo_misses_ = 0;
  /// Host-list scratch for the sync term of a memo miss.
  std::vector<GpuId> hosts_scratch_;

  /// Flat binary tournament over per-GPU totals: leaves at
  /// [cap, cap + G) padded with -inf, root at index 1. A leaf update is
  /// O(log G); the root IS the Eq. 5 max (max is truly associative).
  std::vector<double> tourney_;
  int tourney_cap_ = 0;

  /// Undo stack and the GPU saves it owns, in push order (LIFO, so both
  /// are plain stacks whose capacity survives Undo/Reset).
  std::vector<UndoRecord> undo_records_;
  std::vector<GpuSave> gpu_saves_;

  // Scratch for the affected-GPU set (dedup via per-GPU marks).
  std::vector<GpuId> affected_;
  std::vector<char> affected_mark_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_CORE_INCREMENTAL_COST_H_
