#include "quality/convergence.h"

#include <cmath>
#include <limits>

#include "util/string_util.h"

namespace flexmoe {

namespace {
// Figure 2 accuracy-penalty fit: acc drop (points) vs balance coefficient.
constexpr double kPenaltyScale = 2.18;
constexpr double kPenaltyExponent = 0.427;
// Fraction of signal retained by a token processed by a re-routed expert
// (SWIPE): it still trains *an* expert and the residual path, but not the
// gate-chosen one.
constexpr double kReassignedTokenValue = 0.25;
}  // namespace

Status QualityCalibration::Validate() const {
  if (flexmoe_value <= 0 || deepspeed_value <= 0) {
    return Status::InvalidArgument("calibration anchors must be positive");
  }
  if (kind == MetricKind::kPerplexity &&
      flexmoe_value >= deepspeed_value) {
    return Status::InvalidArgument(
        "perplexity anchor must improve (decrease) for FlexMoE");
  }
  if (kind == MetricKind::kAccuracy && flexmoe_value <= deepspeed_value) {
    return Status::InvalidArgument(
        "accuracy anchor must improve (increase) for FlexMoE");
  }
  if (nominal_ds_token_eff <= 0 || nominal_ds_token_eff >= 1) {
    return Status::InvalidArgument("nominal_ds_token_eff in (0,1) required");
  }
  if (alpha <= 0 || alpha >= 1) {
    return Status::InvalidArgument("alpha in (0,1) required");
  }
  if (u_total_tokens <= 0) {
    return Status::InvalidArgument("u_total_tokens must be positive");
  }
  return Status::OK();
}

double BalanceLossPenalty(double balance_coef) {
  if (balance_coef <= 0) return 0.0;
  return kPenaltyScale * std::pow(balance_coef, kPenaltyExponent);
}

Result<ConvergenceModel> ConvergenceModel::Create(
    const QualityCalibration& calib) {
  FLEXMOE_RETURN_IF_ERROR(calib.Validate());
  // Solve the two-anchor system:
  //   flex = asym +/- amp                         (at U = U_total)
  //   ds   = asym +/- amp * eff^(-alpha)          (at U = eff * U_total)
  const double x = std::pow(calib.nominal_ds_token_eff, -calib.alpha);
  double amplitude, asymptote;
  if (calib.kind == MetricKind::kPerplexity) {
    amplitude = (calib.deepspeed_value - calib.flexmoe_value) / (x - 1.0);
    asymptote = calib.flexmoe_value - amplitude;
  } else {
    amplitude = (calib.flexmoe_value - calib.deepspeed_value) / (x - 1.0);
    asymptote = calib.flexmoe_value + amplitude;
  }
  if (amplitude <= 0) {
    return Status::Internal("degenerate convergence calibration");
  }
  return ConvergenceModel(calib, asymptote, amplitude);
}

ConvergenceModel::ConvergenceModel(const QualityCalibration& calib,
                                   double asymptote, double amplitude)
    : calib_(calib), asymptote_(asymptote), amplitude_(amplitude) {}

double ConvergenceModel::PenaltyShift(double balance_coef) const {
  // Table 2 anchors were trained at calibration_balance_coef; only the
  // difference to that baseline shifts the curve. Accuracy penalties are
  // in points; perplexity penalties are an equivalent relative shift
  // (1 accuracy point ~ 1.5% relative perplexity).
  const double delta = BalanceLossPenalty(balance_coef) -
                       BalanceLossPenalty(calib_.calibration_balance_coef);
  if (calib_.kind == MetricKind::kAccuracy) return -delta;
  return calib_.flexmoe_value * 0.015 * delta;
}

double ConvergenceModel::MetricAt(double effective_tokens,
                                  double balance_coef) const {
  FLEXMOE_CHECK(effective_tokens > 0);
  const double u = effective_tokens / calib_.u_total_tokens;
  const double tail = amplitude_ * std::pow(u, -calib_.alpha);
  const double shift = PenaltyShift(balance_coef);
  if (calib_.kind == MetricKind::kPerplexity) {
    return asymptote_ + tail + shift;
  }
  return asymptote_ - tail + shift;
}

double ConvergenceModel::EffectiveTokensForMetric(double target,
                                                  double balance_coef) const {
  const double shift = PenaltyShift(balance_coef);
  double tail;
  if (calib_.kind == MetricKind::kPerplexity) {
    tail = target - asymptote_ - shift;
  } else {
    tail = asymptote_ + shift - target;
  }
  if (tail <= 0) return std::numeric_limits<double>::infinity();
  // tail = amplitude * u^(-alpha)  =>  u = (amplitude/tail)^(1/alpha)
  const double u = std::pow(amplitude_ / tail, 1.0 / calib_.alpha);
  return u * calib_.u_total_tokens;
}

double EffectiveTokenRate(const std::string& system_name,
                          double token_efficiency) {
  const std::string key = ToLower(system_name);
  if (key == "swipe") {
    // Re-assigned tokens retain partial value.
    return token_efficiency +
           kReassignedTokenValue * (1.0 - token_efficiency);
  }
  // DeepSpeed: dropped tokens are worthless. FlexMoE/FasterMoE: eff == 1.
  return token_efficiency;
}

}  // namespace flexmoe
