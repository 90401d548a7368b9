#include "gate/request_source.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace flexmoe {

namespace {

// The heavy mix's shape, in multiples of tokens_per_request
// (RequestSourceOptions::size_mix).
constexpr double kChatFraction = 0.85;
constexpr double kChatMedianFactor = 0.5;
constexpr double kChatLogSigma = 0.6;
constexpr double kBatchScaleFactor = 1.1;
constexpr double kBatchParetoAlpha = 1.5;
constexpr double kMaxFactor = 64.0;

}  // namespace

Status ValidateSizeMix(const std::string& size_mix) {
  if (size_mix != "fixed" && size_mix != "heavy") {
    return Status::InvalidArgument(StrFormat(
        "unknown size mix '%s' (want fixed|heavy)", size_mix.c_str()));
  }
  return Status::OK();
}

Status RequestSourceOptions::Validate() const {
  if (!std::isfinite(arrival_rate_rps) || arrival_rate_rps <= 0.0) {
    return Status::InvalidArgument("arrival_rate_rps must be finite and > 0");
  }
  if (tokens_per_request <= 0) {
    return Status::InvalidArgument("tokens_per_request must be > 0");
  }
  if (!std::isfinite(slo_seconds) || slo_seconds <= 0.0) {
    return Status::InvalidArgument("slo_seconds must be finite and > 0");
  }
  if (!std::isfinite(step_seconds) || step_seconds <= 0.0) {
    return Status::InvalidArgument("step_seconds must be finite and > 0");
  }
  FLEXMOE_RETURN_IF_ERROR(ValidateSizeMix(size_mix));
  return scenario.Validate();
}

Result<RequestSource> RequestSource::Create(
    const RequestSourceOptions& options) {
  FLEXMOE_RETURN_IF_ERROR(options.Validate());
  return RequestSource(options);
}

RequestSource::RequestSource(const RequestSourceOptions& options)
    : options_(options), rng_(options.seed) {}

double RequestSource::NextWindowMultiplier(int64_t w) {
  const ScenarioOptions& s = options_.scenario;
  double mult = 1.0;
  if (s.name == "bursty") {
    // Same flash-crowd shape as the routing process: spikes arrive at
    // burst_rate per step, add burst_boost x base rate, decay
    // multiplicatively. The Rng draw happens every window regardless of
    // outcome, keeping the stream a pure function of the window index.
    burst_level_ *= s.burst_decay;
    const double u = rng_.Uniform();
    if (u < s.burst_rate) burst_level_ += s.burst_boost;
    mult = 1.0 + burst_level_;
  } else if (s.name == "diurnal") {
    // Sinusoidal traffic wave; amplitude capped below 1 so the rate never
    // vanishes (the logit amplitude is in logit-scale units, a fraction of
    // it makes a sensible rate swing).
    const double amp = std::min(0.8, 0.5 * ScenarioOptions::kDiurnalAmplitude);
    constexpr double kTwoPi = 6.283185307179586476925286766559;
    mult = 1.0 + amp * std::sin(kTwoPi * static_cast<double>(w) /
                                s.diurnal_period);
  } else if (s.name == "multi-tenant") {
    // Each tenant slice carries a distinct constant rate; the mean over a
    // full rotation is the base rate.
    const int64_t tenant = (w / s.tenant_block_steps) %
                           static_cast<int64_t>(ScenarioOptions::kNumTenants);
    mult = 0.5 + static_cast<double>(tenant) /
                     static_cast<double>(ScenarioOptions::kNumTenants - 1);
  }
  // pretrain-steady and finetune-shift keep a flat rate: their dynamics
  // live entirely in the routing distribution.
  window_multipliers_.push_back(mult);
  return mult;
}

int64_t RequestSource::MaxRequestTokens() const {
  if (options_.size_mix == "fixed") return options_.tokens_per_request;
  return static_cast<int64_t>(std::llround(
      kMaxFactor * static_cast<double>(options_.tokens_per_request)));
}

int64_t RequestSource::NextRequestTokens(int64_t w, double mult) {
  if (options_.size_mix == "fixed") return options_.tokens_per_request;

  // Scenario-conditioned class share: flash crowds are interactive (chat)
  // traffic, so the chat share rises with the burst multiplier; alternate
  // multi-tenant slices are batch-inference tenants, inverting the mix.
  double chat = kChatFraction;
  const ScenarioOptions& s = options_.scenario;
  if (s.name == "bursty" && mult > 1.0) {
    chat = 1.0 - (1.0 - chat) / mult;
  } else if (s.name == "multi-tenant") {
    const int64_t tenant = (w / s.tenant_block_steps) %
                           static_cast<int64_t>(ScenarioOptions::kNumTenants);
    if (tenant % 2 == 1) chat = 1.0 - chat;
  }

  const double base = static_cast<double>(options_.tokens_per_request);
  const int64_t cap = MaxRequestTokens();
  double tokens;
  if (rng_.Uniform() < chat) {
    // Chat turn: lognormal body around a sub-base median.
    tokens = kChatMedianFactor * base * std::exp(kChatLogSigma * rng_.Normal());
  } else {
    // Batch-inference job: Pareto tail. 1 - u is in (0, 1], so the draw
    // is finite and >= the scale.
    const double u = rng_.Uniform();
    tokens = kBatchScaleFactor * base *
             std::pow(1.0 - u, -1.0 / kBatchParetoAlpha);
  }
  const int64_t rounded = static_cast<int64_t>(std::llround(tokens));
  return std::max<int64_t>(1, std::min(cap, rounded));
}

void RequestSource::FillBuffer() {
  while (buffer_.empty()) {
    const int64_t w = next_window_++;
    const double mult = NextWindowMultiplier(w);
    const double lambda =
        options_.arrival_rate_rps * mult * options_.step_seconds;
    const int64_t count = rng_.Poisson(lambda);
    if (count <= 0) continue;
    // Poisson arrivals within a constant-rate window are iid uniforms;
    // sorting them is deterministic.
    std::vector<double> offsets(static_cast<size_t>(count));
    for (double& o : offsets) o = rng_.Uniform();
    std::sort(offsets.begin(), offsets.end());
    const double start = static_cast<double>(w) * options_.step_seconds;
    for (const double o : offsets) {
      ServeRequest req;
      req.id = next_id_++;
      req.arrival_seconds = start + o * options_.step_seconds;
      req.deadline_seconds = req.arrival_seconds + options_.slo_seconds;
      req.tokens = NextRequestTokens(w, mult);
      buffer_.push_back(req);
    }
  }
}

ServeRequest RequestSource::Next() {
  FillBuffer();
  const ServeRequest req = buffer_.front();
  buffer_.pop_front();
  return req;
}

double RequestSource::PeekArrival() {
  FillBuffer();
  return buffer_.front().arrival_seconds;
}

double RequestSource::WindowMultiplier(int64_t window) const {
  FLEXMOE_CHECK(window >= 0 &&
                window < static_cast<int64_t>(window_multipliers_.size()));
  return window_multipliers_[static_cast<size_t>(window)];
}

}  // namespace flexmoe
