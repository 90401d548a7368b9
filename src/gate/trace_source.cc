#include "gate/trace_source.h"

#include <array>
#include <system_error>
#include <utility>

#include "util/thread_budget.h"

namespace flexmoe {

GeneratorTraceSource::~GeneratorTraceSource() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  claim_cv_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

std::vector<Assignment> GeneratorTraceSource::NextStep() {
  std::unique_lock<std::mutex> lock(mu_);
  bool starved = false;
  while (true) {
    if (!slots_.empty() && slots_.front().done) {
      Slot slot = std::move(slots_.front());
      slots_.pop_front();
      ++next_out_;
      lock.unlock();
      claim_cv_.notify_all();
      if (slot.failure) std::rethrow_exception(slot.failure);
      return std::move(slot.step);
    }
    // The step is not finished: one more helper, once per pull.
    if (!starved) {
      starved = true;
      if (!failed_ && WithinHorizon()) MaybeStartHelper();
    }
    if (slots_.empty()) break;
    ready_cv_.wait(lock, [this] { return slots_.front().done; });
  }
  // Nobody has prepared this step, so nobody is preparing one: make it
  // inline, in its turn.
  FLEXMOE_CHECK(!preparing_);
  preparing_ = true;
  ++prepared_;
  ++next_out_;
  lock.unlock();
  const TraceGenerator::PreparedStep prepared = PrepareAndRelease();
  return gen_.Sample(prepared);
}

TraceGenerator::PreparedStep GeneratorTraceSource::PrepareAndRelease() {
  struct Release {
    GeneratorTraceSource* source;
    ~Release() {
      {
        std::lock_guard<std::mutex> lock(source->mu_);
        source->preparing_ = false;
      }
      source->claim_cv_.notify_all();
    }
  } release{this};
  return gen_.Prepare();
}

int64_t GeneratorTraceSource::helper_steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return helper_made_;
}

int GeneratorTraceSource::helpers_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(helpers_.size());
}

void GeneratorTraceSource::MaybeStartHelper() {
  if (!TryClaimThread()) return;
  try {
    helpers_.emplace_back(&GeneratorTraceSource::HelperMain, this);
  } catch (const std::system_error&) {
    ReleaseThreads(1);  // no thread to run it on: the pulls carry on
  }
}

void GeneratorTraceSource::HelperMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    claim_cv_.wait(lock, [this] {
      return stop_ || failed_ ||
             (!preparing_ && slots_.size() < helpers_.size() + 1);
    });
    if (stop_ || failed_ || !WithinHorizon()) break;
    preparing_ = true;
    const int64_t index = prepared_++;
    slots_.emplace_back();
    lock.unlock();
    std::vector<Assignment> step;
    std::exception_ptr failure;
    try {
      const TraceGenerator::PreparedStep prepared = PrepareAndRelease();
      step = gen_.Sample(prepared);
    } catch (...) {
      failure = std::current_exception();
    }
    lock.lock();
    // Only the caller pops, and only finished slots: this one is in place.
    Slot& slot = slots_[static_cast<size_t>(index - next_out_)];
    slot.step = std::move(step);
    slot.failure = failure;
    slot.done = true;
    ++helper_made_;
    if (failure) failed_ = true;
    ready_cv_.notify_one();
  }
  lock.unlock();
  claim_cv_.notify_all();  // a failure stops the other helpers too
  ReleaseThreads(1);
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
