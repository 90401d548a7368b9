#include "moe/moe_layer.h"

namespace flexmoe {

Assignment::Assignment(int num_experts, int num_gpus)
    : num_experts_(num_experts),
      num_gpus_(num_gpus),
      counts_(num_experts, num_gpus, 0) {
  FLEXMOE_CHECK(num_experts > 0 && num_gpus > 0);
}

int64_t Assignment::at(int expert, int gpu) const {
  FLEXMOE_CHECK(expert >= 0 && expert < num_experts_);
  FLEXMOE_CHECK(gpu >= 0 && gpu < num_gpus_);
  return counts_(expert, gpu);
}

void Assignment::set(int expert, int gpu, int64_t tokens) {
  FLEXMOE_CHECK(expert >= 0 && expert < num_experts_);
  FLEXMOE_CHECK(gpu >= 0 && gpu < num_gpus_);
  FLEXMOE_CHECK(tokens >= 0);
  counts_(expert, gpu) = tokens;
}

void Assignment::add(int expert, int gpu, int64_t tokens) {
  set(expert, gpu, at(expert, gpu) + tokens);
}

int64_t Assignment::ExpertTotal(int expert) const {
  FLEXMOE_CHECK(expert >= 0 && expert < num_experts_);
  const int64_t* r = counts_.row(expert);
  int64_t total = 0;
  for (int g = 0; g < num_gpus_; ++g) total += r[g];
  return total;
}

int64_t Assignment::GpuTotal(int gpu) const {
  FLEXMOE_CHECK(gpu >= 0 && gpu < num_gpus_);
  int64_t total = 0;
  for (int e = 0; e < num_experts_; ++e) total += counts_(e, gpu);
  return total;
}

int64_t Assignment::Total() const {
  int64_t total = 0;
  const int64_t* flat = counts_.data();
  for (size_t i = 0; i < counts_.element_count(); ++i) total += flat[i];
  return total;
}

std::vector<double> Assignment::ExpertLoads() const {
  std::vector<double> loads(static_cast<size_t>(num_experts_), 0.0);
  for (int e = 0; e < num_experts_; ++e) {
    loads[static_cast<size_t>(e)] = static_cast<double>(ExpertTotal(e));
  }
  return loads;
}

}  // namespace flexmoe
