// Pluggable logit dynamics for the synthetic trace generator.
//
// Each MoE layer of a TraceGenerator owns one LogitProcess that evolves the
// layer's latent expert logits step by step; the generator turns those
// logits into routing counts through the gate. The process catalog spans
// the workload regimes a production MoE service sees (DESIGN.md Section 7):
//
//   pretrain-steady   the paper's Section 2.4 dynamics: mean-reverting OU
//                     drift, calibrated skew (the pre-catalog default;
//                     byte-identical to it)
//   finetune-shift    steady drift with an abrupt re-draw of the expert
//                     popularity distribution at `shift_step` (the paper's
//                     fine-tuning motivation: a new task re-routes)
//   bursty            steady drift plus heavy-tailed transient hot experts
//                     (flash-crowd inference traffic)
//   diurnal           slow periodic popularity waves on top of the drift
//                     (time-of-day traffic mix)
//   multi-tenant      independent logit processes time-sliced across steps
//                     (several jobs sharing one cluster)
//
// Determinism contract: Init/Evolve consume the caller's Rng in an order
// that is a pure function of (options, call sequence), so generated traces
// replay bit-for-bit for a fixed seed.

#ifndef FLEXMOE_GATE_LOGIT_PROCESS_H_
#define FLEXMOE_GATE_LOGIT_PROCESS_H_

#include <memory>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Named workload scenario plus its dynamics parameters. Fields are
/// read only by the scenario they are grouped under.
struct ScenarioOptions {
  /// One of ScenarioCatalog(); see the header comment for semantics.
  std::string name = "pretrain-steady";

  /// finetune-shift: step at which the popularity distribution re-draws.
  int64_t shift_step = 100;

  /// bursty: per-layer-step probability of a new transient hot expert, the
  /// spike magnitude in units of the current logit scale, and the per-step
  /// multiplicative decay of outstanding spikes. Defaults make bursts rare
  /// and sharp (a spike ~every 33 steps, ~3-step half-life), so the
  /// hot-expert share is heavy-tailed rather than persistently elevated.
  double burst_rate = 0.03;
  double burst_boost = 5.0;
  double burst_decay = 0.80;

  /// diurnal: wave length in steps. The amplitude, in units of the current
  /// logit scale, is kDiurnalAmplitude. Each expert gets a random phase, so
  /// popularity rotates.
  double diurnal_period = 200.0;
  static constexpr double kDiurnalAmplitude = 1.5;

  /// multi-tenant: the length of each tenant's time slice in steps, over
  /// kNumTenants independent tenants.
  int tenant_block_steps = 25;
  static constexpr int kNumTenants = 4;

  Status Validate() const;
};

/// \brief Abstract per-layer logit dynamics.
///
/// The same `out` vector (sized num_experts) is handed back on every call
/// for a given layer; a process may use it as its own state (the steady OU
/// process does) or keep internal state and overwrite it.
class LogitProcess {
 public:
  virtual ~LogitProcess() = default;

  /// Draws the layer's initial latent logits. Called once per layer,
  /// before the first Evolve.
  virtual void Init(Rng* rng, std::vector<double>* out) = 0;

  /// Advances to step `step` (0-based index of the step being generated).
  /// `target_sigma` is the balance-pressure logit scale the dynamics
  /// renormalize toward (TraceGenerator::TargetSigma).
  virtual void Evolve(int64_t step, double target_sigma, Rng* rng,
                      std::vector<double>* out) = 0;

  /// Catalog name this process was built from.
  virtual const std::string& name() const = 0;
};

/// \brief All scenario names, in catalog order.
const std::vector<std::string>& ScenarioCatalog();

/// \brief True if `name` is a catalog scenario.
bool IsKnownScenario(const std::string& name);

/// \brief Builds one layer's process. `sigma0` is the calibrated base
/// logit scale; the drift reverts at TraceGenerator::kOuTheta.
Result<std::unique_ptr<LogitProcess>> MakeLogitProcess(
    const ScenarioOptions& scenario, int num_experts, double sigma0);

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_LOGIT_PROCESS_H_
