#include "elastic/fault_plan.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/string_util.h"

namespace flexmoe {

const char* FaultTypeName(FaultType t) {
  switch (t) {
    case FaultType::kFailStop:
      return "FailStop";
    case FaultType::kSlowdown:
      return "Slowdown";
    case FaultType::kRecover:
      return "Recover";
    case FaultType::kLeave:
      return "Leave";
    case FaultType::kJoin:
      return "Join";
  }
  return "?";
}

std::string FaultEvent::ToString() const {
  if (type == FaultType::kSlowdown) {
    return StrFormat("step %lld: %s gpu %d (compute x%.3f, bw x%.3f)",
                     static_cast<long long>(step), FaultTypeName(type), gpu,
                     compute_multiplier, bandwidth_multiplier);
  }
  return StrFormat("step %lld: %s gpu %d", static_cast<long long>(step),
                   FaultTypeName(type), gpu);
}

bool FaultEvent::operator==(const FaultEvent& o) const {
  return step == o.step && type == o.type && gpu == o.gpu &&
         compute_multiplier == o.compute_multiplier &&
         bandwidth_multiplier == o.bandwidth_multiplier;
}

Status FaultPlanOptions::Validate() const {
  if (scenario != "none" && scenario != "failstop" && scenario != "straggler" &&
      scenario != "churn" && scenario != "random") {
    return Status::InvalidArgument(
        StrFormat("unknown fault scenario '%s'", scenario.c_str()));
  }
  if (num_gpus <= 0) return Status::InvalidArgument("num_gpus <= 0");
  if (scenario != "none") {
    if (fault_step < 0) return Status::InvalidArgument("fault_step < 0");
    if (gpu >= num_gpus) return Status::InvalidArgument("gpu out of range");
    if (!std::isfinite(compute_multiplier) || compute_multiplier < 1.0 ||
        !std::isfinite(bandwidth_multiplier) || bandwidth_multiplier < 1.0) {
      return Status::InvalidArgument(
          "slowdown multipliers must be finite and >= 1");
    }
  }
  if (scenario == "random") {
    if (horizon_steps <= 0) return Status::InvalidArgument("horizon_steps <= 0");
    if (!std::isfinite(fail_rate_per_step) || fail_rate_per_step < 0.0 ||
        !std::isfinite(straggle_rate_per_step) ||
        straggle_rate_per_step < 0.0) {
      return Status::InvalidArgument("event rates must be finite and >= 0");
    }
    if (mean_outage_steps <= 0 || mean_straggle_steps <= 0) {
      return Status::InvalidArgument("mean event durations must be > 0");
    }
  }
  return Status::OK();
}

FaultPlan FaultPlan::FromEvents(std::vector<FaultEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.step < b.step;
                   });
  return FaultPlan(std::move(events));
}

namespace {

/// Random scenario generation walks a shadow health state so it never emits
/// impossible transitions (failing an already-failed GPU, recovering a
/// healthy one).
std::vector<FaultEvent> GenerateRandom(const FaultPlanOptions& o) {
  Rng rng(o.seed);
  enum class S { kUp, kDown, kSlow };
  std::vector<S> state(static_cast<size_t>(o.num_gpus), S::kUp);
  // Scheduled end events, keyed by step; generated inline so the stream of
  // Rng draws (and thus the plan) is a pure function of the seed.
  std::vector<FaultEvent> events;
  std::vector<int64_t> until(static_cast<size_t>(o.num_gpus), -1);

  for (int64_t step = 1; step <= o.horizon_steps; ++step) {
    // Scheduled recoveries fire first.
    for (int g = 0; g < o.num_gpus; ++g) {
      const size_t gi = static_cast<size_t>(g);
      if (until[gi] == step) {
        FaultEvent e;
        e.step = step;
        e.gpu = g;
        e.type = state[gi] == S::kDown ? FaultType::kJoin : FaultType::kRecover;
        events.push_back(e);
        state[gi] = S::kUp;
        until[gi] = -1;
      }
    }
    // New faults: at most one per step keeps scenarios interpretable.
    const double draw = rng.Uniform();
    FaultType type;
    if (draw < o.fail_rate_per_step) {
      type = FaultType::kFailStop;
    } else if (draw < o.fail_rate_per_step + o.straggle_rate_per_step) {
      type = FaultType::kSlowdown;
    } else {
      continue;
    }
    std::vector<GpuId> up;
    for (int g = 0; g < o.num_gpus; ++g) {
      if (state[static_cast<size_t>(g)] == S::kUp) up.push_back(g);
    }
    // Keep a quorum: never take out the last half of the cluster.
    if (static_cast<int>(up.size()) <= (o.num_gpus + 1) / 2) continue;
    const GpuId g = up[rng.UniformInt(up.size())];
    const size_t gi = static_cast<size_t>(g);
    FaultEvent e;
    e.step = step;
    e.gpu = g;
    e.type = type;
    if (type == FaultType::kSlowdown) {
      e.compute_multiplier = o.compute_multiplier;
      e.bandwidth_multiplier = o.bandwidth_multiplier;
      state[gi] = S::kSlow;
      until[gi] = step + 1 +
                  static_cast<int64_t>(rng.UniformInt(
                      static_cast<uint64_t>(2 * o.mean_straggle_steps - 1)));
    } else {
      state[gi] = S::kDown;
      until[gi] = step + 1 +
                  static_cast<int64_t>(rng.UniformInt(
                      static_cast<uint64_t>(2 * o.mean_outage_steps - 1)));
    }
    events.push_back(e);
  }
  return events;
}

}  // namespace

Result<FaultPlan> FaultPlan::Generate(const FaultPlanOptions& options) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  if (options.scenario == "none") return FaultPlan();

  const GpuId target =
      options.gpu >= 0
          ? options.gpu
          : static_cast<GpuId>(Rng(options.seed).UniformInt(
                static_cast<uint64_t>(options.num_gpus)));

  std::vector<FaultEvent> events;
  if (options.scenario == "failstop") {
    FaultEvent fail;
    fail.step = options.fault_step;
    fail.type = FaultType::kFailStop;
    fail.gpu = target;
    events.push_back(fail);
    if (options.recover_step > options.fault_step) {
      FaultEvent join;
      join.step = options.recover_step;
      join.type = FaultType::kJoin;
      join.gpu = target;
      events.push_back(join);
    }
  } else if (options.scenario == "straggler") {
    FaultEvent slow;
    slow.step = options.fault_step;
    slow.type = FaultType::kSlowdown;
    slow.gpu = target;
    slow.compute_multiplier = options.compute_multiplier;
    slow.bandwidth_multiplier = options.bandwidth_multiplier;
    events.push_back(slow);
    if (options.recover_step > options.fault_step) {
      FaultEvent rec;
      rec.step = options.recover_step;
      rec.type = FaultType::kRecover;
      rec.gpu = target;
      events.push_back(rec);
    }
  } else if (options.scenario == "churn") {
    FaultEvent leave;
    leave.step = options.fault_step;
    leave.type = FaultType::kLeave;
    leave.gpu = target;
    events.push_back(leave);
    if (options.recover_step > options.fault_step) {
      FaultEvent join;
      join.step = options.recover_step;
      join.type = FaultType::kJoin;
      join.gpu = target;
      events.push_back(join);
    }
  } else {  // "random"
    events = GenerateRandom(options);
  }
  return FromEvents(std::move(events));
}

int64_t FaultPlan::horizon() const {
  return events_.empty() ? -1 : events_.back().step;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultEvent& e : events_) {
    out += e.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace flexmoe
