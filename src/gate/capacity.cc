#include "gate/capacity.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/status.h"

namespace flexmoe {

CapacityResult ApplyCapacity(const Assignment& assignment,
                             double capacity_factor) {
  FLEXMOE_CHECK(capacity_factor > 0.0);
  const int num_experts = assignment.num_experts();
  const int num_gpus = assignment.num_gpus();
  CapacityResult result;
  result.total = assignment.Total();
  result.kept = Assignment(num_experts, num_gpus);
  // Clamped to the layer total before the cast: a capacity of at least the
  // total already keeps every token, and a huge factor would otherwise
  // overflow the double -> int64 conversion.
  const double capacity = std::ceil(
      capacity_factor * static_cast<double>(result.total) / num_experts);
  result.capacity_per_expert =
      capacity < static_cast<double>(result.total)
          ? static_cast<int64_t>(capacity)
          : result.total;

  for (int e = 0; e < num_experts; ++e) {
    const int64_t load = assignment.ExpertTotal(e);
    if (load <= result.capacity_per_expert) {
      for (int g = 0; g < num_gpus; ++g) {
        result.kept.set(e, g, assignment.at(e, g));
      }
      continue;
    }
    // Keep capacity tokens, shedding the overflow proportionally by source
    // GPU with largest-remainder rounding so the kept total is exact.
    const int64_t keep_total = result.capacity_per_expert;
    std::vector<int64_t> keep(static_cast<size_t>(num_gpus), 0);
    std::vector<std::pair<double, int>> remainders;
    remainders.reserve(static_cast<size_t>(num_gpus));
    int64_t assigned = 0;
    for (int g = 0; g < num_gpus; ++g) {
      const double exact = static_cast<double>(assignment.at(e, g)) *
                           static_cast<double>(keep_total) /
                           static_cast<double>(load);
      keep[static_cast<size_t>(g)] = static_cast<int64_t>(std::floor(exact));
      assigned += keep[static_cast<size_t>(g)];
      remainders.push_back({exact - std::floor(exact), g});
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    int64_t leftover = keep_total - assigned;
    for (const auto& [frac, g] : remainders) {
      if (leftover <= 0) break;
      // Never keep more than the GPU originally routed.
      if (keep[static_cast<size_t>(g)] < assignment.at(e, g)) {
        ++keep[static_cast<size_t>(g)];
        --leftover;
      }
    }
    for (int g = 0; g < num_gpus; ++g) {
      result.kept.set(e, g, keep[static_cast<size_t>(g)]);
    }
    result.dropped += load - (keep_total - leftover);
  }
  return result;
}

Assignment CapacityOverflow(const Assignment& full, const Assignment& kept) {
  FLEXMOE_CHECK(full.num_experts() == kept.num_experts() &&
                full.num_gpus() == kept.num_gpus());
  Assignment overflow(full.num_experts(), full.num_gpus());
  for (int e = 0; e < full.num_experts(); ++e) {
    for (int g = 0; g < full.num_gpus(); ++g) {
      overflow.set(e, g, full.at(e, g) - kept.at(e, g));
    }
  }
  return overflow;
}

}  // namespace flexmoe
