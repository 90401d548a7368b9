#include "elastic/fault_scheduler.h"

namespace flexmoe {

FaultScheduler::FaultScheduler(FaultPlan plan) : plan_(std::move(plan)) {}

std::vector<FaultEvent> FaultScheduler::AdvanceTo(int64_t step,
                                                  ClusterHealth* health) {
  FLEXMOE_CHECK(health != nullptr);
  std::vector<FaultEvent> applied;
  const std::vector<FaultEvent>& events = plan_.events();
  while (next_ < events.size() && events[next_].step <= step) {
    const FaultEvent& e = events[next_];
    ++next_;
    if (health->Apply(e).ok()) {
      applied.push_back(e);
    } else {
      ++skipped_;
    }
  }
  return applied;
}

}  // namespace flexmoe
