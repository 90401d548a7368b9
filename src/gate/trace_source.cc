#include "gate/trace_source.h"

#include <array>
#include <system_error>
#include <utility>

#include "util/thread_budget.h"

namespace flexmoe {

GeneratorTraceSource::~GeneratorTraceSource() {
  if (!helper_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  helper_.join();
}

std::vector<Assignment> GeneratorTraceSource::NextStep() {
  // One helper per source: once it has stopped, pulls stay inline.
  if (!helper_.joinable() && !helper_done_ && WithinHorizon()) {
    MaybeStartHelper();
  }
  if (helper_.joinable()) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !ready_.empty() || helper_done_; });
    if (!ready_.empty()) {
      std::vector<Assignment> step = std::move(ready_.front());
      ready_.pop_front();
      lock.unlock();
      cv_.notify_one();
      return step;
    }
    // The helper has stopped; the generator is the caller's now.
    lock.unlock();
    helper_.join();
    if (failure_) std::rethrow_exception(std::exchange(failure_, nullptr));
  }
  ++generated_;
  return gen_.Step();
}

int64_t GeneratorTraceSource::helper_steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return helper_made_;
}

void GeneratorTraceSource::MaybeStartHelper() {
  if (!TryClaimThread()) return;
  try {
    helper_ = std::thread(&GeneratorTraceSource::HelperMain, this);
  } catch (const std::system_error&) {
    ReleaseThreads(1);  // no thread to run it on: keep generating inline
  }
}

void GeneratorTraceSource::HelperMain() {
  try {
    GenerateAhead();
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    failure_ = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    helper_done_ = true;
  }
  cv_.notify_one();
  ReleaseThreads(1);
}

void GeneratorTraceSource::GenerateAhead() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || ready_.size() < kDepth; });
    if (stop_ || !WithinHorizon()) return;
    // Only this thread touches gen_ until helper_done_ is set.
    lock.unlock();
    std::vector<Assignment> step = gen_.Step();
    lock.lock();
    ready_.push_back(std::move(step));
    ++generated_;
    ++helper_made_;
    cv_.notify_one();
  }
}

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
