#include "gate/logit_process.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "gate/trace_generator.h"
#include "util/string_util.h"

namespace flexmoe {

Status ScenarioOptions::Validate() const {
  if (!IsKnownScenario(name)) {
    return Status::InvalidArgument(
        StrFormat("unknown workload scenario '%s'", name.c_str()));
  }
  if (shift_step < 0) return Status::InvalidArgument("shift_step < 0");
  // NaN passes every range check below, and an infinity passes the
  // one-sided ones; either would reach the samplers.
  for (const double v :
       {burst_rate, burst_boost, burst_decay, diurnal_period}) {
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("scenario parameters must be finite");
    }
  }
  if (burst_rate < 0.0 || burst_rate > 1.0) {
    return Status::InvalidArgument("burst_rate must be in [0, 1]");
  }
  if (burst_boost <= 0.0) return Status::InvalidArgument("burst_boost <= 0");
  if (burst_decay <= 0.0 || burst_decay >= 1.0) {
    return Status::InvalidArgument("burst_decay must be in (0, 1)");
  }
  if (diurnal_period <= 1.0) {
    return Status::InvalidArgument("diurnal_period must be > 1 step");
  }
  if (tenant_block_steps <= 0) {
    return Status::InvalidArgument("tenant_block_steps <= 0");
  }
  return Status::OK();
}

const std::vector<std::string>& ScenarioCatalog() {
  static const std::vector<std::string> catalog = {
      "pretrain-steady", "finetune-shift", "bursty", "diurnal",
      "multi-tenant"};
  return catalog;
}

bool IsKnownScenario(const std::string& name) {
  const auto& catalog = ScenarioCatalog();
  return std::find(catalog.begin(), catalog.end(), name) != catalog.end();
}

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

void GaussianInit(double sigma, Rng* rng, std::vector<double>* out) {
  for (double& v : *out) v = rng->Normal(0.0, sigma);
}

/// The steady logit update (verbatim the pre-catalog
/// TraceGenerator::EvolveLayer logit block): an equilibrium-preserving OU
/// step followed by renormalization to the balance-pressure target scale.
/// Byte-identity of pretrain-steady with the pre-catalog generator rests on
/// this consuming the Rng exactly as that code did
/// (workload_scenarios_test.cc pins it against an inline reference).
void OuEvolve(double sigma0, double target_sigma, Rng* rng,
              std::vector<double>* z) {
  constexpr double theta = TraceGenerator::kOuTheta;
  const double noise_sigma = sigma0 * std::sqrt(2.0 * theta);
  for (double& v : *z) {
    v += -theta * v + rng->Normal(0.0, noise_sigma);
  }
  double mean = std::accumulate(z->begin(), z->end(), 0.0) /
                static_cast<double>(z->size());
  double var = 0.0;
  for (double v : *z) var += (v - mean) * (v - mean);
  var /= static_cast<double>(z->size());
  const double sd = std::sqrt(std::max(var, 1e-12));
  for (double& v : *z) v = (v - mean) * (target_sigma / sd);
}

class SteadyProcess : public LogitProcess {
 public:
  SteadyProcess(std::string name, double sigma0)
      : name_(std::move(name)), sigma0_(sigma0) {}

  void Init(Rng* rng, std::vector<double>* out) override {
    GaussianInit(sigma0_, rng, out);
  }

  void Evolve(int64_t, double target_sigma, Rng* rng,
              std::vector<double>* out) override {
    OuEvolve(sigma0_, target_sigma, rng, out);
  }

  const std::string& name() const override { return name_; }

 protected:
  const std::string name_;
  const double sigma0_;
};

/// Steady drift until `shift_step`, then the popularity distribution
/// re-draws in one step — a fine-tuning task switch.
class FinetuneShiftProcess : public SteadyProcess {
 public:
  FinetuneShiftProcess(std::string name, double sigma0, int64_t shift_step)
      : SteadyProcess(std::move(name), sigma0), shift_step_(shift_step) {}

  void Evolve(int64_t step, double target_sigma, Rng* rng,
              std::vector<double>* out) override {
    if (step == shift_step_) {
      GaussianInit(target_sigma, rng, out);
      return;
    }
    OuEvolve(sigma0_, target_sigma, rng, out);
  }

 private:
  const int64_t shift_step_;
};

/// Steady base plus transient logit spikes: a spike arrives with
/// probability `rate` per step, lands on a uniform expert, and decays
/// multiplicatively — producing a heavy right tail of hot-expert shares.
class BurstyProcess : public SteadyProcess {
 public:
  BurstyProcess(std::string name, double sigma0, const ScenarioOptions& s)
      : SteadyProcess(std::move(name), sigma0),
        rate_(s.burst_rate),
        boost_(s.burst_boost),
        decay_(s.burst_decay) {}

  void Init(Rng* rng, std::vector<double>* out) override {
    base_.resize(out->size());
    spikes_.assign(out->size(), 0.0);
    GaussianInit(sigma0_, rng, &base_);
    *out = base_;
  }

  void Evolve(int64_t, double target_sigma, Rng* rng,
              std::vector<double>* out) override {
    OuEvolve(sigma0_, target_sigma, rng, &base_);
    for (double& v : spikes_) v *= decay_;
    if (rng->Uniform() < rate_) {
      const size_t e = static_cast<size_t>(rng->UniformInt(spikes_.size()));
      spikes_[e] += boost_ * target_sigma;
    }
    for (size_t e = 0; e < out->size(); ++e) {
      (*out)[e] = base_[e] + spikes_[e];
    }
  }

 private:
  const double rate_;
  const double boost_;
  const double decay_;
  std::vector<double> base_;
  std::vector<double> spikes_;
};

/// Steady base plus a per-expert sinusoid with random phase: expert
/// popularity rotates with period `diurnal_period`.
class DiurnalProcess : public SteadyProcess {
 public:
  DiurnalProcess(std::string name, double sigma0, const ScenarioOptions& s)
      : SteadyProcess(std::move(name), sigma0), period_(s.diurnal_period) {}

  void Init(Rng* rng, std::vector<double>* out) override {
    base_.resize(out->size());
    phase_.resize(out->size());
    GaussianInit(sigma0_, rng, &base_);
    for (double& p : phase_) p = rng->Uniform(0.0, kTwoPi);
    Compose(0, sigma0_, out);
  }

  void Evolve(int64_t step, double target_sigma, Rng* rng,
              std::vector<double>* out) override {
    OuEvolve(sigma0_, target_sigma, rng, &base_);
    Compose(step, target_sigma, out);
  }

 private:
  void Compose(int64_t step, double scale, std::vector<double>* out) {
    const double t = kTwoPi * static_cast<double>(step) / period_;
    for (size_t e = 0; e < out->size(); ++e) {
      (*out)[e] = base_[e] + ScenarioOptions::kDiurnalAmplitude * scale *
                                 std::sin(t + phase_[e]);
    }
  }

  const double period_;
  std::vector<double> base_;
  std::vector<double> phase_;
};

/// N independent steady processes; step blocks round-robin over which
/// tenant's logits reach the gate. Inactive tenants keep evolving, so each
/// reappearance shows genuine drift.
class MultiTenantProcess : public SteadyProcess {
 public:
  MultiTenantProcess(std::string name, double sigma0,
                     const ScenarioOptions& s)
      : SteadyProcess(std::move(name), sigma0),
        block_steps_(s.tenant_block_steps) {}

  void Init(Rng* rng, std::vector<double>* out) override {
    tenants_.assign(static_cast<size_t>(ScenarioOptions::kNumTenants),
                    std::vector<double>(out->size()));
    for (auto& tenant : tenants_) GaussianInit(sigma0_, rng, &tenant);
    *out = tenants_.front();
  }

  void Evolve(int64_t step, double target_sigma, Rng* rng,
              std::vector<double>* out) override {
    for (auto& tenant : tenants_) {
      OuEvolve(sigma0_, target_sigma, rng, &tenant);
    }
    const size_t active = static_cast<size_t>(
        (step / block_steps_) % ScenarioOptions::kNumTenants);
    *out = tenants_[active];
  }

 private:
  const int block_steps_;
  std::vector<std::vector<double>> tenants_;
};

}  // namespace

Result<std::unique_ptr<LogitProcess>> MakeLogitProcess(
    const ScenarioOptions& scenario, int num_experts, double sigma0) {
  FLEXMOE_RETURN_IF_ERROR(scenario.Validate());
  if (num_experts <= 0) return Status::InvalidArgument("num_experts <= 0");
  const std::string& n = scenario.name;
  if (n == "pretrain-steady") {
    return std::unique_ptr<LogitProcess>(
        new SteadyProcess(n, sigma0));
  }
  if (n == "finetune-shift") {
    return std::unique_ptr<LogitProcess>(
        new FinetuneShiftProcess(n, sigma0, scenario.shift_step));
  }
  if (n == "bursty") {
    return std::unique_ptr<LogitProcess>(
        new BurstyProcess(n, sigma0, scenario));
  }
  if (n == "diurnal") {
    return std::unique_ptr<LogitProcess>(
        new DiurnalProcess(n, sigma0, scenario));
  }
  if (n == "multi-tenant") {
    return std::unique_ptr<LogitProcess>(
        new MultiTenantProcess(n, sigma0, scenario));
  }
  return Status::InvalidArgument(
      StrFormat("unknown workload scenario '%s'", n.c_str()));
}

}  // namespace flexmoe
