// Statistical-efficiency model.
//
// The paper's quality results (Table 2, Figures 2 and 5) compare systems
// that process different numbers of *useful* tokens per step: DeepSpeed
// drops tokens beyond expert capacity, SWIPE re-routes tokens to experts
// the gate did not choose, FlexMoE/FasterMoE process everything. Following
// the scaling-law literature (Kaplan et al.), we model the validation
// metric as a power law in cumulative effective tokens U:
//
//   perplexity(U) = ppl_inf + A * (U / U_total)^(-alpha)        (lower better)
//   accuracy(U)   = acc_inf - B * (U / U_total)^(-beta)         (higher better)
//
// The two free constants per model are calibrated so that the curve passes
// through the paper's Table 2 values: FlexMoE's number at U = U_total and
// DeepSpeed's number at U = nominal_ds_eff * U_total. A balance-loss
// quality penalty fitted to Figure 2's accuracy column shifts the curve
// for other coefficients. DESIGN.md documents every constant.

#ifndef FLEXMOE_QUALITY_CONVERGENCE_H_
#define FLEXMOE_QUALITY_CONVERGENCE_H_

#include <string>

#include "util/status.h"

namespace flexmoe {

enum class MetricKind { kPerplexity, kAccuracy };

/// \brief Per-model calibration anchors (from the paper's Table 2).
struct QualityCalibration {
  std::string metric_name;  ///< "PPL", "acc@1", "acc@5"
  MetricKind kind = MetricKind::kPerplexity;
  double flexmoe_value = 0.0;   ///< Table 2 FlexMoE column
  double deepspeed_value = 0.0; ///< Table 2 DeepSpeed column
  /// Assumed mean token efficiency of capacity-1.0 DeepSpeed on the
  /// paper's workloads, used only to pin the curve's second anchor. 0.45
  /// matches the measured mean on the synthetic trace (≈0.39 during the
  /// skewed early phase, rising as the balance loss tames the routing).
  double nominal_ds_token_eff = 0.45;
  /// Power-law exponent.
  double alpha = 0.35;
  /// Full training budget in tokens (sets the U scale; also the horizon at
  /// which Table 2 is read out).
  double u_total_tokens = 20e9;
  /// Both Table 2 columns were trained at this balance coefficient.
  double calibration_balance_coef = 0.001;

  Status Validate() const;
};

/// \brief Balance-loss quality penalty in metric units, fitted to the
/// accuracy column of the paper's Figure 2: penalty(l) = p * l^q with
/// p = 2.18, q = 0.427 (accuracy points). For perplexity the penalty is
/// applied as an equivalent relative shift.
double BalanceLossPenalty(double balance_coef);

/// \brief The calibrated metric-vs-tokens curve for one model/metric.
class ConvergenceModel {
 public:
  static Result<ConvergenceModel> Create(const QualityCalibration& calib);

  /// Metric value after consuming `effective_tokens` useful tokens while
  /// training with `balance_coef`.
  double MetricAt(double effective_tokens, double balance_coef) const;

  /// Inverse: effective tokens needed to reach `target` at `balance_coef`.
  /// Returns infinity if the target is unreachable (beyond the asymptote).
  double EffectiveTokensForMetric(double target, double balance_coef) const;

  bool LowerIsBetter() const {
    return calib_.kind == MetricKind::kPerplexity;
  }

  /// The default time-to-quality target: DeepSpeed's Table 2 value (the
  /// quality every system must reach in Figure 5).
  double DefaultTarget() const { return calib_.deepspeed_value; }

  const QualityCalibration& calibration() const { return calib_; }
  double asymptote() const { return asymptote_; }
  double amplitude() const { return amplitude_; }

 private:
  ConvergenceModel(const QualityCalibration& calib, double asymptote,
                   double amplitude);

  double PenaltyShift(double balance_coef) const;

  QualityCalibration calib_;
  double asymptote_ = 0.0;  ///< ppl_inf or acc_inf
  double amplitude_ = 0.0;  ///< A or B (positive)
};

/// \brief Converts a system's raw token efficiency into the effective-token
/// rate used by the convergence model. Re-assigned tokens (SWIPE) still
/// carry partial signal; dropped tokens (DeepSpeed) carry none.
double EffectiveTokenRate(const std::string& system_name,
                          double token_efficiency);

}  // namespace flexmoe

#endif  // FLEXMOE_QUALITY_CONVERGENCE_H_
