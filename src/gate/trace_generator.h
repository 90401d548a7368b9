// Synthetic routing-trace generator reproducing the paper's empirical
// observations (Section 2.4):
//
//  * Skewness (Fig. 3a): expert popularity follows a heavy-tailed softmax;
//    the logit scale sigma0 is auto-calibrated so the top-10 of 64 experts
//    capture ~75% of tokens.
//  * Smoothness/continuousness (Fig. 3b): logits follow a mean-reverting
//    Ornstein-Uhlenbeck random walk, so expert loads drift gradually and
//    ranks swap over hundreds of steps rather than jumping.
//  * Balance-loss pressure (Fig. 2 / Fig. 7a): a coefficient lambda > 0
//    shrinks the equilibrium logit scale over training, improving balance
//    at a rate that grows with lambda.
//
// Each MoE layer owns an independent logit process; each GPU sees a small
// jittered copy of the layer logits (data heterogeneity across ranks).
// The logit dynamics are pluggable (gate/logit_process.h): the `scenario`
// option selects a named workload regime from the catalog, defaulting to
// the paper-calibrated `pretrain-steady` dynamics above.

#ifndef FLEXMOE_GATE_TRACE_GENERATOR_H_
#define FLEXMOE_GATE_TRACE_GENERATOR_H_

#include <memory>
#include <vector>

#include "gate/gate.h"
#include "gate/logit_process.h"
#include "moe/moe_layer.h"
#include "util/rng.h"
#include "util/status.h"

namespace flexmoe {

/// \brief Generator configuration. Calibration constants are documented at
/// their defaults; DESIGN.md Section 4 explains how they map to the paper's
/// reported numbers.
struct TraceGeneratorOptions {
  int num_experts = 64;
  int num_moe_layers = 12;
  int num_gpus = 64;
  int64_t tokens_per_gpu = 8192;
  int top_k = 2;

  /// Skew calibration target: the `skew_top_count` most popular experts
  /// capture `skew_top_share` of tokens (paper Fig. 3a: 10 of 64 -> 75%).
  /// skew_top_count <= 0 selects round(num_experts * 10 / 64).
  int skew_top_count = 0;
  double skew_top_share = 0.75;

  /// Explicit logit scale; 0 triggers auto-calibration from the skew target.
  double logit_sigma = 0.0;

  /// OU mean-reversion rate per step; 1/ou_theta is the correlation time in
  /// steps that produces the gradual drift of Fig. 3b.
  double ou_theta = 0.01;

  /// Std of the per-GPU logit jitter (data heterogeneity across ranks).
  double gpu_jitter_sigma = 0.15;
  double gpu_jitter_theta = 0.05;

  /// Balance-loss coefficient lambda (paper Fig. 2 sweeps 0 .. 0.05).
  double balance_coef = 0.0;
  /// Equilibrium skew multiplier is 1/(1 + balance_strength*sqrt(lambda));
  /// the default reproduces Fig. 2's utilization range (18.8% .. 63.3%).
  double balance_strength = 10.5;
  /// Time constant (steps) for approaching the balanced equilibrium
  /// ("with training progressing, imbalance is getting better", Fig. 7a).
  double balance_tau_steps = 400.0;

  /// Workload regime: which logit dynamics drive expert popularity. The
  /// default reproduces the pre-catalog generator byte-for-byte.
  ScenarioOptions scenario;

  bool exact_sampling = false;
  uint64_t seed = 42;

  Status Validate() const;
};

/// \brief Monte-Carlo calibration: the logit sigma at which the mean
/// `top_count`-expert share of softmax(N(0, sigma^2)) logits equals
/// `target_share`.
double CalibrateLogitSigma(int num_experts, int top_count,
                           double target_share, uint64_t seed);

/// \brief Streaming generator of per-step, per-layer routing assignments.
class TraceGenerator {
 public:
  static Result<TraceGenerator> Create(const TraceGeneratorOptions& options);

  /// Advances one training step; returns one Assignment per MoE layer.
  std::vector<Assignment> Step();

  int64_t step_index() const { return step_; }
  const TraceGeneratorOptions& options() const { return options_; }

  /// Current latent logits of a layer (before GPU jitter).
  const std::vector<double>& LayerLogits(int layer) const;

  /// Calibrated base logit scale.
  double sigma0() const { return sigma0_; }

  /// Current target logit scale after `t` steps of balance-loss pressure.
  double TargetSigma(int64_t t) const;

  /// Serializes the generator's complete evolution state — step index,
  /// RNG state, per-layer latent logits, per-GPU jitter, and each layer's
  /// LogitProcess internals — so a long-clock run can pause and resume
  /// byte-identically (ROADMAP: checkpoint/restore of generator state).
  /// Options are NOT serialized: RestoreCheckpoint must be called on a
  /// generator created with identical options (a shape fingerprint in the
  /// header rejects obvious mismatches). Native byte order; not a
  /// portable interchange format. On a restore error the generator's
  /// state is unspecified — recreate it before use.
  std::string SaveCheckpoint() const;
  Status RestoreCheckpoint(const std::string& bytes);

 private:
  TraceGenerator(const TraceGeneratorOptions& options, double sigma0,
                 TopKGate gate,
                 std::vector<std::unique_ptr<LogitProcess>> processes);

  void EvolveLayer(int layer);
  /// Fills `gpu_logits_scratch_` with the per-GPU jittered logits of
  /// `layer` and returns it — valid until the next call.
  const Matrix<double>& JitteredGpuLogits(int layer);

  TraceGeneratorOptions options_;
  double sigma0_;
  TopKGate gate_;
  Rng rng_;
  int64_t step_ = 0;
  /// One scenario process per layer (independent dynamics).
  std::vector<std::unique_ptr<LogitProcess>> processes_;
  /// [layer][expert] latent logits, written by the layer's process.
  std::vector<std::vector<double>> logits_;
  /// Per-layer [gpu][expert] slow-moving jitter processes (flat rows).
  std::vector<Matrix<double>> jitter_;
  /// Reusable [gpu][expert] buffer handed to the gate each layer-step.
  Matrix<double> gpu_logits_scratch_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_TRACE_GENERATOR_H_
