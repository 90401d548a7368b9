#include "gate/request_source.h"

#include <algorithm>
#include <cmath>

#include "util/byte_io.h"
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

namespace {
constexpr uint32_t kRequestCheckpointMagic = 0x464d5251;  // "FMRQ"
// Version 2: the fingerprint holds only the settable scenario parameters
// (the size-mix shape and the diurnal amplitude and tenant count became
// constants). A version 1 payload has a longer fingerprint, so it is
// refused rather than misread.
constexpr uint32_t kRequestCheckpointVersion = 2;
}  // namespace

std::vector<double> RequestSource::FingerprintParams() const {
  const ScenarioOptions& s = options_.scenario;
  return {s.burst_rate, s.burst_boost, s.burst_decay, s.diurnal_period,
          static_cast<double>(s.tenant_block_steps)};
}

std::string RequestSource::SaveCheckpoint() const {
  std::string out;
  PutPod(kRequestCheckpointMagic, &out);
  PutPod(kRequestCheckpointVersion, &out);
  // Options fingerprint: enough to reject a restore onto a source built
  // from a different arrival process or size mix.
  PutPod<uint64_t>(options_.seed, &out);
  PutPod<double>(options_.arrival_rate_rps, &out);
  PutPod<int64_t>(options_.tokens_per_request, &out);
  PutPod<double>(options_.slo_seconds, &out);
  PutPod<double>(options_.step_seconds, &out);
  PutPod<uint64_t>(options_.scenario.name.size(), &out);
  out.append(options_.scenario.name);
  PutPod<uint64_t>(options_.size_mix.size(), &out);
  out.append(options_.size_mix);
  // Numeric dynamics parameters: two sources whose names match but whose
  // burst rate or burst/diurnal/tenant clocks differ would diverge
  // after a restore, so they are part of the fingerprint too.
  for (const double param : FingerprintParams()) PutPod(param, &out);

  PutPod(rng_.SaveState(), &out);
  PutPod<int64_t>(next_window_, &out);
  PutPod<int64_t>(next_id_, &out);
  PutPod<double>(burst_level_, &out);
  PutPod<uint64_t>(buffer_.size(), &out);
  for (const ServeRequest& req : buffer_) PutPod(req, &out);
  PutDoubleVec(window_multipliers_, &out);
  return out;
}

Status RequestSource::RestoreCheckpoint(const std::string& bytes) {
  const char* cursor = bytes.data();
  const char* end = bytes.data() + bytes.size();
  uint32_t magic = 0, version = 0;
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &magic));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &version));
  if (magic != kRequestCheckpointMagic ||
      version != kRequestCheckpointVersion) {
    return Status::InvalidArgument("not a request-source checkpoint");
  }
  uint64_t seed = 0;
  double rate = 0.0, slo = 0.0, step = 0.0;
  int64_t tpr = 0;
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &seed));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &rate));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &tpr));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &slo));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &step));
  std::string scenario, mix;
  for (std::string* name : {&scenario, &mix}) {
    uint64_t len = 0;
    FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &len));
    // Unsigned compare: a hostile length with the high bit set must not
    // slip past as a negative ptrdiff_t and reach the string constructor.
    if (len > static_cast<uint64_t>(end - cursor)) {
      return Status::InvalidArgument("checkpoint truncated");
    }
    name->assign(cursor, static_cast<size_t>(len));
    cursor += len;
  }
  bool params_match = true;
  for (const double want : FingerprintParams()) {
    double got = 0.0;
    FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &got));
    params_match = params_match && got == want;
  }
  if (seed != options_.seed || rate != options_.arrival_rate_rps ||
      tpr != options_.tokens_per_request || slo != options_.slo_seconds ||
      step != options_.step_seconds || scenario != options_.scenario.name ||
      mix != options_.size_mix || !params_match) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint fingerprint [seed %llu, %.17g rps, %lld tok, %s/%s] "
        "does not match this request source",
        static_cast<unsigned long long>(seed), rate,
        static_cast<long long>(tpr), scenario.c_str(), mix.c_str()));
  }

  Rng::State rng_state;
  int64_t next_window = 0, next_id = 0;
  double burst_level = 0.0;
  uint64_t buffered = 0;
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &rng_state));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &next_window));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &next_id));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &burst_level));
  FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &buffered));
  if (buffered > static_cast<uint64_t>(end - cursor) / sizeof(ServeRequest)) {
    return Status::InvalidArgument("checkpoint truncated");
  }
  std::deque<ServeRequest> buffer;
  for (uint64_t i = 0; i < buffered; ++i) {
    ServeRequest req;
    FLEXMOE_RETURN_IF_ERROR(GetPod(&cursor, end, &req));
    buffer.push_back(req);
  }
  std::vector<double> window_multipliers;
  FLEXMOE_RETURN_IF_ERROR(GetDoubleVec(&cursor, end, &window_multipliers));
  if (cursor != end) {
    return Status::InvalidArgument("checkpoint has trailing bytes");
  }

  rng_.RestoreState(rng_state);
  next_window_ = next_window;
  next_id_ = next_id;
  burst_level_ = burst_level;
  buffer_ = std::move(buffer);
  window_multipliers_ = std::move(window_multipliers);
  return Status::OK();
}

}  // namespace flexmoe
