#include "placement/placement.h"

#include <algorithm>
#include <sstream>

#include "util/string_util.h"

namespace flexmoe {

namespace {

/// First entry of the gpu-ascending `list` whose gpu is not below `gpu`.
ReplicaList::iterator LowerBound(ReplicaList* list, GpuId gpu) {
  return std::lower_bound(
      list->begin(), list->end(), gpu,
      [](const std::pair<GpuId, int>& r, GpuId g) { return r.first < g; });
}

}  // namespace

int PlacementOptions::EffectiveSlotsPerGpu() const {
  if (slots_per_gpu > 0) return slots_per_gpu;
  const int experts_per_gpu =
      (num_experts + num_gpus - 1) / std::max(1, num_gpus);
  return std::max(4, 2 * experts_per_gpu);
}

Status PlacementOptions::Validate() const {
  if (num_experts <= 0) return Status::InvalidArgument("num_experts <= 0");
  if (num_gpus <= 0) return Status::InvalidArgument("num_gpus <= 0");
  if (slots_per_gpu < 0) return Status::InvalidArgument("slots_per_gpu < 0");
  if (static_cast<int64_t>(EffectiveSlotsPerGpu()) * num_gpus < num_experts) {
    return Status::InvalidArgument(
        "total vExpert slots smaller than expert count");
  }
  return Status::OK();
}

Placement::Placement(const PlacementOptions& options, int slots_per_gpu)
    : options_(options),
      slots_per_gpu_(slots_per_gpu),
      replicas_(static_cast<size_t>(options.num_experts)),
      counts_(options.num_experts, options.num_gpus, 0),
      vexperts_(static_cast<size_t>(options.num_experts), 0),
      used_slots_(static_cast<size_t>(options.num_gpus), 0) {}

Result<Placement> Placement::ExpertParallel(const PlacementOptions& options) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  Placement p(options, options.EffectiveSlotsPerGpu());

  // Block-distribute experts over GPUs, then hand every slot on a GPU to
  // the experts homed there, as evenly as possible (fully packed start).
  const int n = options.num_experts;
  const int g = options.num_gpus;
  std::vector<std::vector<int>> experts_on_gpu(static_cast<size_t>(g));
  for (int e = 0; e < n; ++e) {
    const GpuId home = static_cast<GpuId>(
        static_cast<int64_t>(e) * g / n);
    experts_on_gpu[static_cast<size_t>(home)].push_back(e);
  }
  for (GpuId gpu = 0; gpu < g; ++gpu) {
    const auto& homed = experts_on_gpu[static_cast<size_t>(gpu)];
    if (homed.empty()) continue;
    // Spread this GPU's slots across its homed experts round-robin.
    for (int s = 0; s < p.slots_per_gpu_; ++s) {
      const int expert = homed[static_cast<size_t>(s) % homed.size()];
      FLEXMOE_CHECK_OK(p.AddVExpert(expert, gpu));
    }
  }
  // GPUs with no homed expert (num_gpus > num_experts) receive replicas of
  // block-matched experts so that every slot is bound.
  for (GpuId gpu = 0; gpu < g; ++gpu) {
    while (p.FreeSlots(gpu) > 0) {
      const int expert = static_cast<int>(
          static_cast<int64_t>(gpu) * n / g);
      FLEXMOE_CHECK_OK(p.AddVExpert(expert, gpu));
    }
  }
  FLEXMOE_RETURN_IF_ERROR(p.Validate());
  return p;
}

Result<Placement> Placement::FromReplicaMap(
    const PlacementOptions& options,
    const std::vector<std::map<GpuId, int>>& replicas) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  if (static_cast<int>(replicas.size()) != options.num_experts) {
    return Status::InvalidArgument("replica map size != num_experts");
  }
  Placement p(options, options.EffectiveSlotsPerGpu());
  for (int e = 0; e < options.num_experts; ++e) {
    for (const auto& [gpu, count] : replicas[static_cast<size_t>(e)]) {
      if (count <= 0) {
        return Status::InvalidArgument("non-positive replica count");
      }
      for (int i = 0; i < count; ++i) {
        FLEXMOE_RETURN_IF_ERROR(p.AddVExpert(e, gpu));
      }
    }
  }
  FLEXMOE_RETURN_IF_ERROR(p.Validate());
  return p;
}

int Placement::VExperts(int expert) const {
  FLEXMOE_CHECK(expert >= 0 && expert < num_experts());
  return vexperts_[static_cast<size_t>(expert)];
}

std::vector<GpuId> Placement::HostGpus(int expert) const {
  const auto& m = Replicas(expert);
  std::vector<GpuId> out;
  out.reserve(m.size());
  for (const auto& [gpu, count] : m) out.push_back(gpu);
  return out;
}

const ReplicaList& Placement::Replicas(int expert) const {
  FLEXMOE_CHECK(expert >= 0 && expert < num_experts());
  return replicas_[static_cast<size_t>(expert)];
}

std::vector<int> Placement::ExpertsOn(GpuId gpu) const {
  FLEXMOE_CHECK(gpu >= 0 && gpu < num_gpus());
  std::vector<int> out;
  for (int e = 0; e < num_experts(); ++e) {
    if (VExpertsOn(e, gpu) > 0) out.push_back(e);
  }
  return out;
}

int Placement::UsedSlots(GpuId gpu) const {
  FLEXMOE_CHECK(gpu >= 0 && gpu < num_gpus());
  return used_slots_[static_cast<size_t>(gpu)];
}

int Placement::FreeSlots(GpuId gpu) const {
  return slots_per_gpu_ - UsedSlots(gpu);
}

double Placement::IdealVExpertCapacity(int64_t total_tokens) const {
  return static_cast<double>(total_tokens) /
         static_cast<double>(total_slots());
}

Status Placement::AddVExpert(int expert, GpuId gpu) {
  if (expert < 0 || expert >= num_experts()) {
    return Status::InvalidArgument("expert out of range");
  }
  if (gpu < 0 || gpu >= num_gpus()) {
    return Status::InvalidArgument("gpu out of range");
  }
  if (FreeSlots(gpu) <= 0) {
    return Status::ResourceExhausted(
        StrFormat("no free vExpert slot on GPU %d", gpu));
  }
  ReplicaList& list = replicas_[static_cast<size_t>(expert)];
  const auto it = LowerBound(&list, gpu);
  if (it != list.end() && it->first == gpu) {
    ++it->second;
  } else {
    list.insert(it, {gpu, 1});
  }
  ++counts_(expert, gpu);
  ++vexperts_[static_cast<size_t>(expert)];
  ++used_slots_[static_cast<size_t>(gpu)];
  return Status::OK();
}

Status Placement::RemoveVExpert(int expert, GpuId gpu) {
  if (expert < 0 || expert >= num_experts()) {
    return Status::InvalidArgument("expert out of range");
  }
  if (gpu < 0 || gpu >= num_gpus()) {
    return Status::InvalidArgument("gpu out of range");
  }
  ReplicaList& list = replicas_[static_cast<size_t>(expert)];
  const auto it = LowerBound(&list, gpu);
  if (it == list.end() || it->first != gpu) {
    return Status::FailedPrecondition(
        StrFormat("expert %d has no vExpert on GPU %d", expert, gpu));
  }
  if (VExperts(expert) <= 1) {
    return Status::FailedPrecondition(
        StrFormat("cannot shrink expert %d below one vExpert", expert));
  }
  if (--it->second == 0) list.erase(it);
  --counts_(expert, gpu);
  --vexperts_[static_cast<size_t>(expert)];
  --used_slots_[static_cast<size_t>(gpu)];
  return Status::OK();
}

Status Placement::Validate() const {
  std::vector<int> recount(static_cast<size_t>(num_gpus()), 0);
  int total = 0;
  for (int e = 0; e < num_experts(); ++e) {
    int n_e = 0;
    for (const auto& [gpu, count] : replicas_[static_cast<size_t>(e)]) {
      if (gpu < 0 || gpu >= num_gpus()) {
        return Status::Internal("replica on out-of-range GPU");
      }
      if (count <= 0) return Status::Internal("non-positive replica count");
      if (counts_(e, gpu) != count) {
        return Status::Internal("flat count cache out of sync");
      }
      recount[static_cast<size_t>(gpu)] += count;
      n_e += count;
    }
    if (n_e < 1) {
      return Status::Internal(
          StrFormat("expert %d has no vExpert", e));
    }
    if (vexperts_[static_cast<size_t>(e)] != n_e) {
      return Status::Internal("vExpert total cache out of sync");
    }
    // Full mirror check: a stale counts_ entry at a pair absent from the
    // sparse map would slip past the per-entry comparison above.
    int row_sum = 0;
    for (GpuId g = 0; g < num_gpus(); ++g) row_sum += counts_(e, g);
    if (row_sum != n_e) {
      return Status::Internal("flat count cache out of sync");
    }
    total += n_e;
  }
  for (GpuId g = 0; g < num_gpus(); ++g) {
    if (recount[static_cast<size_t>(g)] != used_slots_[static_cast<size_t>(g)]) {
      return Status::Internal("used-slot accounting mismatch");
    }
    if (used_slots_[static_cast<size_t>(g)] > slots_per_gpu_) {
      return Status::Internal(StrFormat("GPU %d over-subscribed", g));
    }
  }
  if (total > total_slots()) {
    return Status::Internal("more vExperts than slots");
  }
  return Status::OK();
}

std::string Placement::ToString() const {
  std::ostringstream os;
  for (int e = 0; e < num_experts(); ++e) {
    os << "e" << e << ":";
    for (const auto& [gpu, count] : replicas_[static_cast<size_t>(e)]) {
      os << " g" << gpu << "x" << count;
    }
    os << "\n";
  }
  return os.str();
}

bool Placement::operator==(const Placement& other) const {
  return replicas_ == other.replicas_ &&
         slots_per_gpu_ == other.slots_per_gpu_;
}

}  // namespace flexmoe
