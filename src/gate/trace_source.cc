#include "gate/trace_source.h"

#include <array>

namespace flexmoe {

std::vector<Assignment> ReplayTraceSource::NextStep() {
  FLEXMOE_CHECK_MSG(cursor_ < trace_.num_steps(),
                    "replay trace exhausted");
  const std::vector<Assignment>& step =
      trace_.step(static_cast<int>(cursor_));
  ++cursor_;
  return step;
}

std::vector<Assignment> RecordingTraceSource::NextStep() {
  std::vector<Assignment> step = inner_->NextStep();
  FLEXMOE_CHECK_MSG(sink_->Append(step).ok(),
                    "recorded step shape mismatch");
  return step;
}

namespace {

constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// kFnvPowers[m] = kFnvPrime^m mod 2^64.
constexpr std::array<uint64_t, 9> FnvPowers() {
  std::array<uint64_t, 9> powers{};
  uint64_t p = 1;
  for (uint64_t& power : powers) {
    power = p;
    p *= kFnvPrime;
  }
  return powers;
}
constexpr std::array<uint64_t, 9> kFnvPowers = FnvPowers();

}  // namespace

uint64_t HashWord(uint64_t v, uint64_t h) {
  // A zero byte only does h *= kFnvPrime, so the run of zero bytes above
  // the word's top nonzero byte folds into one multiply by
  // kFnvPrime^run.
  int bytes = 0;
  for (; v != 0; v >>= 8, ++bytes) {
    h ^= v & 0xff;
    h *= kFnvPrime;
  }
  return h * kFnvPowers[static_cast<size_t>(8 - bytes)];
}

uint64_t HashStep(const std::vector<Assignment>& step, uint64_t h) {
  for (const Assignment& a : step) {
    h = HashWord(static_cast<uint64_t>(a.num_experts()), h);
    h = HashWord(static_cast<uint64_t>(a.num_gpus()), h);
    for (int e = 0; e < a.num_experts(); ++e) {
      const int64_t* row = a.row(e);
      for (int g = 0; g < a.num_gpus(); ++g) {
        h = HashWord(static_cast<uint64_t>(row[g]), h);
      }
    }
  }
  return h;
}

}  // namespace flexmoe
