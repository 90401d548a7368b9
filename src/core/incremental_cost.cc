#include "core/incremental_cost.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <utility>

namespace flexmoe {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Minimum cells per contribution block (128 KiB): one block holds a G = 16
/// invocation's cells.
constexpr size_t kCellBlock = size_t{1} << 13;

/// v^8 by repeated squaring: the one term both Score8Norm and the pruning
/// bound accumulate, so the two sums see bitwise-identical terms.
double Pow8(double v) {
  const double v2 = v * v;
  const double v4 = v2 * v2;
  return v4 * v4;
}

int PowerOfTwoAtLeast(int n) {
  int cap = 1;
  while (cap < n) cap <<= 1;
  return cap;
}

uint64_t MixHash(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  h ^= h >> 31;
  h *= 0xbf58476d1ce4e5b9ULL;
  return h ^ (h >> 29);
}

/// Memo key hash of (expert, placement count row).
uint64_t HashRow(int expert, const ReplicaList& row) {
  uint64_t h = MixHash(0, static_cast<uint64_t>(expert));
  for (const auto& [gpu, count] : row) {
    h = MixHash(h, (static_cast<uint64_t>(static_cast<uint32_t>(gpu)) << 32) |
                       static_cast<uint32_t>(count));
  }
  return h;
}

}  // namespace

double Score8Norm(const std::vector<double>& per_gpu_seconds) {
  double acc = 0.0;
  for (double v : per_gpu_seconds) acc += Pow8(v);
  return std::pow(acc, 1.0 / 8.0);
}

LayerCostState::LayerCostState(const CostModel* cost_model, bool include_sync)
    : cost_model_(cost_model), include_sync_(include_sync), cell_blocks_(1) {
  FLEXMOE_CHECK(cost_model != nullptr);
  // Reserved by the building thread, so the pool sits in that thread's
  // malloc arena even when another thread plans on the state: a planner
  // helper's arena then holds only its transient allocations.
  cell_blocks_[0].reserve(kCellBlock);
}

void LayerCostState::Reset(const Assignment& assignment,
                           const Placement& placement) {
  Route(assignment, placement);
  BuildCosts();
}

void LayerCostState::Route(const Assignment& assignment,
                           const Placement& placement) {
  FLEXMOE_CHECK(assignment.num_experts() == placement.num_experts());
  FLEXMOE_CHECK(assignment.num_gpus() == placement.num_gpus());
  assignment_ = &assignment;
  if (placement_.has_value()) {
    *placement_ = placement;  // reuses the count matrix and list capacities
  } else {
    placement_.emplace(placement);
  }
  const int num_experts = assignment.num_experts();
  routed_.Clear(num_experts, assignment.num_gpus());

  // The memo holds contributions of the previous assignment: drop it.
  cell_block_ = 0;
  cell_blocks_[0].clear();
  keys_.clear();
  contributions_.clear();
  std::fill(memo_table_.begin(), memo_table_.end(), -1);
  memo_size_ = 0;

  // The one routing walk: accumulates the cells RouteInto would, and
  // records each expert's as its current contribution.
  current_.resize(static_cast<size_t>(num_experts));
  for (int e = 0; e < num_experts; ++e) {
    current_[static_cast<size_t>(e)] =
        RouteContribution(e, /*with_sync=*/false);
  }

  undo_records_.clear();
  gpu_saves_.clear();
  costs_built_ = false;
}

void LayerCostState::BuildCosts() {
  FLEXMOE_CHECK(assignment_ != nullptr);
  FLEXMOE_CHECK(undo_records_.empty());
  const int num_experts = assignment_->num_experts();
  const int num_gpus = assignment_->num_gpus();

  gpu_experts_.resize(static_cast<size_t>(num_gpus));
  for (std::vector<int>& hosted : gpu_experts_) {
    hosted.clear();
    hosted.reserve(static_cast<size_t>(placement_->slots_per_gpu()));
  }
  sync_of_expert_.assign(static_cast<size_t>(num_experts), 0.0);
  caps_.assign(static_cast<size_t>(num_experts), 0.0);
  for (int e = 0; e < num_experts; ++e) {
    for (const auto& [gpu, count] : placement_->Replicas(e)) {
      gpu_experts_[static_cast<size_t>(gpu)].push_back(e);
    }
    if (include_sync_) {
      const int32_t id = current_[static_cast<size_t>(e)];
      contributions_[static_cast<size_t>(id)].sync =
          cost_model_->SyncSeconds(*placement_, e);
    }
    RefreshExpert(e);
  }

  per_gpu_compute_.assign(static_cast<size_t>(num_gpus), 0.0);
  per_gpu_a2a_.assign(static_cast<size_t>(num_gpus), 0.0);
  per_gpu_sync_.assign(static_cast<size_t>(num_gpus), 0.0);
  per_gpu_total_.assign(static_cast<size_t>(num_gpus), 0.0);
  gpu_tokens_.assign(static_cast<size_t>(num_gpus), 0);

  tourney_cap_ = PowerOfTwoAtLeast(num_gpus);
  tourney_.assign(static_cast<size_t>(2 * tourney_cap_), kNegInf);
  for (GpuId g = 0; g < num_gpus; ++g) RefreshGpu(g);

  affected_.clear();
  affected_mark_.assign(static_cast<size_t>(num_gpus), 0);
  costs_built_ = true;
}

int32_t LayerCostState::RouteContribution(int expert, bool with_sync) {
  // At most one cell per (source, host) pair plus one local claim per
  // host; the walk appends into a block with room for that many, so the
  // block never reallocates under its live cells.
  const size_t hosts = placement_->Replicas(expert).size();
  const size_t max_cells =
      hosts * (static_cast<size_t>(placement_->num_gpus()) + 1);
  if (cell_blocks_[cell_block_].capacity() -
          cell_blocks_[cell_block_].size() <
      max_cells) {
    if (!cell_blocks_[cell_block_].empty()) ++cell_block_;
    if (cell_block_ == cell_blocks_.size()) cell_blocks_.emplace_back();
    cell_blocks_[cell_block_].clear();
    cell_blocks_[cell_block_].reserve(std::max(kCellBlock, max_cells));
  }
  std::vector<RouteEntry>& cells = cell_blocks_[cell_block_];
  Contribution c;
  c.expert = expert;
  c.block = static_cast<int32_t>(cell_block_);
  c.entry_begin = static_cast<int32_t>(cells.size());
  FlexibleRouter::RouteExpertInto(*assignment_, *placement_, expert, &routed_,
                                  &cells);
  c.entry_count = static_cast<int32_t>(cells.size()) - c.entry_begin;
  if (with_sync) {
    hosts_scratch_.clear();
    for (const auto& [gpu, count] : placement_->Replicas(expert)) {
      hosts_scratch_.push_back(gpu);
    }
    c.sync = cost_model_->GroupSyncSeconds(hosts_scratch_);
  }
  contributions_.push_back(c);
  return static_cast<int32_t>(contributions_.size()) - 1;
}

int32_t LayerCostState::AddCurrentContribution(int expert) {
  const ReplicaList& row = placement_->Replicas(expert);
  const uint64_t hash = HashRow(expert, row);
  if (!memo_table_.empty()) {
    const size_t mask = memo_table_.size() - 1;
    for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
      const int32_t id = memo_table_[i];
      if (id < 0) break;
      const Contribution& c = contributions_[static_cast<size_t>(id)];
      if (c.hash == hash && c.expert == expert &&
          c.key_count == static_cast<int32_t>(row.size()) &&
          std::equal(row.begin(), row.end(), keys_.begin() + c.key_begin)) {
        ++memo_hits_;
        AddContribution(id, +1);
        return id;
      }
    }
  }
  ++memo_misses_;
  const int32_t id = RouteContribution(expert, include_sync_);
  Contribution& c = contributions_[static_cast<size_t>(id)];
  c.hash = hash;
  c.key_begin = static_cast<int32_t>(keys_.size());
  c.key_count = static_cast<int32_t>(row.size());
  keys_.insert(keys_.end(), row.begin(), row.end());
  MemoInsert(id);
  return id;
}

void LayerCostState::MemoInsert(int32_t id) {
  if (2 * static_cast<size_t>(memo_size_ + 1) > memo_table_.size()) {
    // Grow and rehash every memoized contribution (Route's own records
    // carry no key and are never looked up).
    memo_table_.assign(std::max<size_t>(64, 2 * memo_table_.size()), -1);
    memo_size_ = 0;
    for (size_t i = 0; i < contributions_.size(); ++i) {
      if (contributions_[i].key_count > 0 && static_cast<int32_t>(i) != id) {
        MemoInsert(static_cast<int32_t>(i));
      }
    }
  }
  const size_t mask = memo_table_.size() - 1;
  const uint64_t hash = contributions_[static_cast<size_t>(id)].hash;
  size_t i = static_cast<size_t>(hash) & mask;
  while (memo_table_[i] >= 0) i = (i + 1) & mask;
  memo_table_[i] = id;
  ++memo_size_;
}

void LayerCostState::AddContribution(int32_t id, int sign) {
  const Contribution& c = contributions_[static_cast<size_t>(id)];
  const RouteEntry* begin =
      cell_blocks_[static_cast<size_t>(c.block)].data() + c.entry_begin;
  routed_.AddEntries(c.expert, begin, begin + c.entry_count, sign);
}

void LayerCostState::RefreshExpert(int expert) {
  caps_[static_cast<size_t>(expert)] =
      static_cast<double>(assignment_->ExpertTotal(expert)) /
      static_cast<double>(placement_->VExperts(expert));
  if (include_sync_) {
    const int32_t id = current_[static_cast<size_t>(expert)];
    sync_of_expert_[static_cast<size_t>(expert)] =
        contributions_[static_cast<size_t>(id)].sync;
  }
}

void LayerCostState::RefreshGpu(GpuId g) {
  // Canonical recompute: the exact term sequence EstimateLayer produces
  // for this GPU, restricted to hosted experts (the only experts that can
  // contribute compute or sync here).
  double compute = 0.0;
  double sync = 0.0;
  int64_t tokens_total = 0;
  for (const int e : gpu_experts_[static_cast<size_t>(g)]) {
    const int64_t tokens = routed_.expert_gpu_tokens(e, g);
    if (tokens > 0) compute += cost_model_->ComputeSeconds(tokens);
    tokens_total += tokens;
    if (include_sync_) sync += sync_of_expert_[static_cast<size_t>(e)];
  }
  const double a2a = cost_model_->A2ASeconds(routed_, g);
  gpu_tokens_[static_cast<size_t>(g)] = tokens_total;
  per_gpu_compute_[static_cast<size_t>(g)] = compute;
  per_gpu_a2a_[static_cast<size_t>(g)] = a2a;
  per_gpu_sync_[static_cast<size_t>(g)] = sync;
  SetLeaf(g,
          cost_model_->CombineGpuSeconds(compute, a2a, sync, /*chunks=*/1));
}

void LayerCostState::SetLeaf(GpuId g, double total) {
  per_gpu_total_[static_cast<size_t>(g)] = total;
  size_t i = static_cast<size_t>(tourney_cap_ + g);
  tourney_[i] = total;
  for (i >>= 1; i >= 1; i >>= 1) {
    tourney_[i] = std::max(tourney_[2 * i], tourney_[2 * i + 1]);
  }
}

void LayerCostState::SaveGpu(GpuId g) {
  const size_t i = static_cast<size_t>(g);
  GpuSave s;
  s.gpu = g;
  s.tokens = gpu_tokens_[i];
  s.compute = per_gpu_compute_[i];
  s.a2a = per_gpu_a2a_[i];
  s.sync = per_gpu_sync_[i];
  s.total = per_gpu_total_[i];
  gpu_saves_.push_back(s);
}

void LayerCostState::RestoreLastGpu() {
  const GpuSave& s = gpu_saves_.back();
  const GpuId g = s.gpu;
  const size_t i = static_cast<size_t>(g);
  gpu_tokens_[i] = s.tokens;
  per_gpu_compute_[i] = s.compute;
  per_gpu_a2a_[i] = s.a2a;
  per_gpu_sync_[i] = s.sync;
  SetLeaf(g, s.total);
  gpu_saves_.pop_back();
}

void LayerCostState::AddReplica(int expert, GpuId gpu) {
  if (placement_->VExpertsOn(expert, gpu) == 0) {
    std::vector<int>& hosted = gpu_experts_[static_cast<size_t>(gpu)];
    hosted.insert(std::lower_bound(hosted.begin(), hosted.end(), expert),
                  expert);
  }
  FLEXMOE_CHECK_OK(placement_->AddVExpert(expert, gpu));
}

void LayerCostState::RemoveReplica(int expert, GpuId gpu) {
  FLEXMOE_CHECK_OK(placement_->RemoveVExpert(expert, gpu));
  if (placement_->VExpertsOn(expert, gpu) == 0) {
    std::vector<int>& hosted = gpu_experts_[static_cast<size_t>(gpu)];
    hosted.erase(std::lower_bound(hosted.begin(), hosted.end(), expert));
  }
}

void LayerCostState::MarkHosts(int expert) {
  for (const auto& [gpu, count] : placement_->Replicas(expert)) MarkGpu(gpu);
}

void LayerCostState::MarkGpu(GpuId gpu) {
  if (gpu < 0 || gpu >= placement_->num_gpus()) return;
  if (!affected_mark_[static_cast<size_t>(gpu)]) {
    affected_mark_[static_cast<size_t>(gpu)] = 1;
    affected_.push_back(gpu);
  }
}

int LayerCostState::PartnerOf(const ModOp& op) {
  return op.type == ModOpType::kMigrate && op.partner_expert != op.expert
             ? op.partner_expert
             : -1;
}

ModOp LayerCostState::InverseOf(const ModOp& op) {
  switch (op.type) {
    case ModOpType::kShrink:
      // copy_from = -1: the undo re-adds capacity, provenance is moot.
      return MakeExpand(op.expert, /*copy_from=*/-1, /*dst=*/op.src);
    case ModOpType::kExpand:
      return MakeShrink(op.expert, op.dst);
    case ModOpType::kMigrate:
      return MakeMigrate(op.expert, op.dst, op.partner_expert, op.src);
  }
  FLEXMOE_CHECK(false);
  return op;
}

bool LayerCostState::CanApply(const ModOp& op) const {
  FLEXMOE_CHECK(placement_.has_value());
  const Placement& p = *placement_;
  const int num_experts = p.num_experts();
  const int num_gpus = p.num_gpus();
  if (op.expert < 0 || op.expert >= num_experts) return false;

  // Feasibility prechecks mirror primitives::ApplyOp (including the
  // ordered Remove/Remove/Add/Add semantics of Migrate), so Apply
  // succeeds exactly when ApplyOp on the same placement would.
  switch (op.type) {
    case ModOpType::kShrink:
      if (op.src < 0 || op.src >= num_gpus) return false;
      if (p.VExpertsOn(op.expert, op.src) == 0) return false;
      if (p.VExperts(op.expert) < 2) return false;
      break;
    case ModOpType::kExpand:
      if (op.dst < 0 || op.dst >= num_gpus) return false;
      if (op.src >= num_gpus) return false;
      if (op.src >= 0 && p.VExpertsOn(op.expert, op.src) == 0) return false;
      if (p.FreeSlots(op.dst) <= 0) return false;
      break;
    case ModOpType::kMigrate: {
      if (op.partner_expert < 0 || op.partner_expert >= num_experts) {
        return false;
      }
      if (op.src < 0 || op.src >= num_gpus) return false;
      if (op.dst < 0 || op.dst >= num_gpus) return false;
      if (op.src == op.dst) return false;
      if (p.VExpertsOn(op.expert, op.src) == 0) return false;
      if (p.VExpertsOn(op.partner_expert, op.dst) == 0) return false;
      if (p.VExperts(op.expert) < 2) return false;
      const int partner_after =
          p.VExperts(op.partner_expert) -
          (op.partner_expert == op.expert ? 1 : 0);
      if (partner_after < 2) return false;
      break;
    }
  }
  return true;
}

void LayerCostState::MutatePlacement(const ModOp& op) {
  switch (op.type) {
    case ModOpType::kShrink:
      RemoveReplica(op.expert, op.src);
      break;
    case ModOpType::kExpand:
      AddReplica(op.expert, op.dst);
      break;
    case ModOpType::kMigrate:
      RemoveReplica(op.expert, op.src);
      RemoveReplica(op.partner_expert, op.dst);
      AddReplica(op.expert, op.dst);
      AddReplica(op.partner_expert, op.src);
      break;
  }
}

bool LayerCostState::Apply(const ModOp& op) {
  FLEXMOE_CHECK(initialized());
  if (!CanApply(op)) return false;
  const int e1 = op.expert;
  const int e2 = PartnerOf(op);

  // Affected GPUs: hosts of every touched expert before the op, plus the
  // op's endpoints — together exactly the hosts before AND after
  // (dispatch rows — and hence A2A terms — change only for those
  // destinations; tokens land only on hosts). Expand's dst is the only
  // possible new host; every other endpoint is already a host.
  affected_.clear();
  MarkHosts(e1);
  if (e2 >= 0) MarkHosts(e2);
  MarkGpu(op.src);
  MarkGpu(op.dst);

  UndoRecord rec;
  rec.op = op;
  rec.prev1 = current_[static_cast<size_t>(e1)];
  rec.prev2 = e2 >= 0 ? current_[static_cast<size_t>(e2)] : -1;
  rec.num_gpus_saved = static_cast<int32_t>(affected_.size());
  for (const GpuId g : affected_) SaveGpu(g);

  // Swap the touched experts' contributions: retract the recorded cells,
  // mutate, add the memoized cells of the new placement rows.
  AddContribution(rec.prev1, -1);
  if (e2 >= 0) AddContribution(rec.prev2, -1);
  MutatePlacement(op);
  current_[static_cast<size_t>(e1)] = AddCurrentContribution(e1);
  if (e2 >= 0) current_[static_cast<size_t>(e2)] = AddCurrentContribution(e2);

  RefreshExpert(e1);
  if (e2 >= 0) RefreshExpert(e2);
  for (const GpuId g : affected_) {
    affected_mark_[static_cast<size_t>(g)] = 0;
    RefreshGpu(g);
  }
  affected_.clear();
  undo_records_.push_back(rec);
  return true;
}

void LayerCostState::Undo() {
  FLEXMOE_CHECK(!undo_records_.empty());
  const UndoRecord rec = undo_records_.back();
  undo_records_.pop_back();
  const int e1 = rec.op.expert;
  const int e2 = PartnerOf(rec.op);

  AddContribution(current_[static_cast<size_t>(e1)], -1);
  current_[static_cast<size_t>(e1)] = rec.prev1;
  AddContribution(rec.prev1, +1);
  if (e2 >= 0) {
    AddContribution(current_[static_cast<size_t>(e2)], -1);
    current_[static_cast<size_t>(e2)] = rec.prev2;
    AddContribution(rec.prev2, +1);
  }
  MutatePlacement(InverseOf(rec.op));
  RefreshExpert(e1);
  if (e2 >= 0) RefreshExpert(e2);

  // Every saved float is a pure function of the integer state just
  // restored, so restoring them equals a recompute, bitwise.
  for (int32_t i = 0; i < rec.num_gpus_saved; ++i) RestoreLastGpu();
}

double LayerCostState::ExpandScoreLowerBound(int expert, GpuId dst) const {
  FLEXMOE_CHECK(initialized());
  const int* hosted = placement_->CountsRow(expert);
  double acc = 0.0;
  for (GpuId g = 0; g < placement_->num_gpus(); ++g) {
    if (g == dst || hosted[g] > 0) continue;
    acc += Pow8(per_gpu_total_[static_cast<size_t>(g)]);
  }
  return std::pow(acc, 1.0 / 8.0);
}

}  // namespace flexmoe
