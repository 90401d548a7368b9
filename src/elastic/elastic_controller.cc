#include "elastic/elastic_controller.h"

#include <algorithm>

namespace flexmoe {

namespace {

/// Restart penalty a static system pays per membership change (checkpoint
/// load, process re-spawn, communicator re-bootstrap).
constexpr double kRestartSeconds = 30.0;
/// Checkpoint-store read bandwidth for re-materializing lost expert
/// states.
constexpr double kCheckpointBytesPerSec = 2e9;

}  // namespace

ElasticController::ElasticController(int num_gpus, const Topology* topo,
                                     RepairMode mode)
    : num_gpus_(num_gpus), topo_(topo), mode_(mode), health_(num_gpus) {
  FLEXMOE_CHECK(topo != nullptr);
  FLEXMOE_CHECK(topo->num_gpus() == num_gpus);
}

Status ElasticController::InstallPlan(const FaultPlan& plan) {
  for (const FaultEvent& e : plan.events()) {
    if (e.gpu < 0 || e.gpu >= num_gpus_) {
      return Status::InvalidArgument("fault plan targets out-of-range GPU");
    }
  }
  health_ = ClusterHealth(num_gpus_);
  scheduler_ = std::make_unique<FaultScheduler>(plan);
  baseline_.clear();
  baseline_captured_ = false;
  newly_failed_.clear();
  return Status::OK();
}

void ElasticController::RecordReport(const StepReport& report) {
  obs::MetricsRegistry* m = obs::MetricsOf(obs_);
  if (m == nullptr || report.events.empty()) return;
  m->Add("elastic.fault_events", static_cast<int64_t>(report.events.size()));
  if (report.membership_changed) m->Add("elastic.membership_changes");
  if (report.perf_changed) m->Add("elastic.perf_changes");
  if (report.experts_restored > 0) {
    m->Add("elastic.experts_restored", report.experts_restored);
  }
  if (report.orphaned_experts > 0) {
    m->Add("elastic.orphaned_experts", report.orphaned_experts);
  }
  if (report.recovery_seconds > 0.0) {
    m->Observe("elastic.recovery_seconds", report.recovery_seconds);
  }
}

ElasticController::StepReport ElasticController::OnStepBoundary(
    int64_t step, const std::vector<Placement*>& placements,
    NcclGroupCache* group_cache, double expert_state_bytes) {
  StepReport report;
  if (scheduler_ == nullptr) return report;

  if (!baseline_captured_) {
    baseline_.reserve(placements.size());
    for (const Placement* p : placements) {
      FLEXMOE_CHECK(p != nullptr);
      baseline_.push_back(*p);
    }
    baseline_captured_ = true;
  }
  FLEXMOE_CHECK(placements.size() == baseline_.size());

  newly_failed_.clear();
  report.events = scheduler_->AdvanceTo(step, &health_);
  if (report.events.empty()) return report;

  for (const FaultEvent& e : report.events) {
    switch (e.type) {
      case FaultType::kFailStop:
        newly_failed_.push_back(e.gpu);
        report.membership_changed = true;
        break;
      case FaultType::kLeave:
      case FaultType::kJoin:
        report.membership_changed = true;
        break;
      case FaultType::kSlowdown:
      case FaultType::kRecover:
        report.perf_changed = true;
        break;
    }
    if (group_cache != nullptr &&
        (e.type == FaultType::kFailStop || e.type == FaultType::kLeave)) {
      // Communicators that include a departed rank are dead; evict them so
      // the next Acquire pays the re-bootstrap cost.
      group_cache->EvictGroupsContaining(e.gpu);
    }
  }
  if (!report.membership_changed) {
    RecordReport(report);
    return report;
  }

  if (mode_ == RepairMode::kDrain) {
    // A join brings empty slots, not state: any tombstone replica parked
    // on the rejoining device (an orphan that could not be restored
    // elsewhere) must be re-read from the checkpoint store now.
    for (const FaultEvent& e : report.events) {
      if (e.type != FaultType::kJoin) continue;
      for (Placement* p : placements) {
        const int tombstones =
            static_cast<int>(p->ExpertsOn(e.gpu).size());
        report.experts_restored += tombstones;
        report.recovery_seconds += tombstones * expert_state_bytes /
                                   kCheckpointBytesPerSec;
      }
    }
    // Elastic drain (best effort): replicas cover most losses; only
    // sole-replica experts cost a checkpoint read; experts the survivors
    // cannot host run orphaned. Training continues without a restart.
    for (Placement* p : placements) {
      const Result<DrainReport> drained =
          DrainPlacement(health_, expert_state_bytes, p);
      FLEXMOE_CHECK_OK(drained);
      report.experts_restored += drained->experts_restored;
      report.orphaned_experts += drained->orphaned_experts;
      report.recovery_seconds +=
          drained->restore_bytes / kCheckpointBytesPerSec;
    }
  } else {
    // Static failover: the whole job restarts from the checkpoint; each
    // dead device's experts reload onto its failover peer (or back onto
    // their home device once it rejoins).
    report.recovery_seconds += kRestartSeconds;
    for (size_t i = 0; i < placements.size(); ++i) {
      const Result<Placement> repaired =
          FailoverPlacement(baseline_[i], health_, *topo_);
      if (!repaired.ok()) {
        report.orphaned_experts +=
            ExpertsWithoutLiveReplica(*placements[i], health_);
        continue;
      }
      // Reload every expert that is not where the current placement has it.
      double moved_bytes = 0.0;
      for (int e = 0; e < repaired->num_experts(); ++e) {
        if (!(repaired->Replicas(e) == placements[i]->Replicas(e))) {
          moved_bytes += expert_state_bytes;
        }
      }
      report.recovery_seconds += moved_bytes / kCheckpointBytesPerSec;
      *placements[i] = *repaired;
    }
  }
  RecordReport(report);
  return report;
}

Assignment ElasticController::AdjustAssignment(const Assignment& assignment,
                                               int64_t* tokens_dropped) const {
  if (scheduler_ == nullptr) return assignment;
  Assignment adjusted = assignment;
  if (!newly_failed_.empty()) {
    // Tokens resident on a device that just fail-stopped are gone; their
    // loss is the irreducible cost of an abrupt failure.
    int64_t lost = 0;
    Assignment pruned(assignment.num_experts(), assignment.num_gpus());
    for (int e = 0; e < assignment.num_experts(); ++e) {
      for (int g = 0; g < assignment.num_gpus(); ++g) {
        const int64_t tokens = assignment.at(e, g);
        if (tokens <= 0) continue;
        const bool just_failed =
            std::find(newly_failed_.begin(), newly_failed_.end(), g) !=
            newly_failed_.end();
        if (just_failed) {
          lost += tokens;
        } else {
          pruned.add(e, g, tokens);
        }
      }
    }
    if (tokens_dropped != nullptr) *tokens_dropped += lost;
    adjusted = std::move(pruned);
  }
  if (health_.num_alive() < num_gpus_) {
    adjusted = RedistributeSources(adjusted, health_);
  }
  return adjusted;
}

}  // namespace flexmoe
