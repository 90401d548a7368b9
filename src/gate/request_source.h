// RequestSource: the arrival side of the serving workload (DESIGN.md
// Section 8). Produces an unbounded, deterministic stream of inference
// requests — arrival times from a piecewise-constant-rate Poisson process
// whose rate is modulated by the same scenario catalog that drives the
// routing dynamics (gate/logit_process.h), so the bursty / diurnal /
// multi-tenant regimes shape WHEN traffic lands, while the TraceSource
// shapes WHERE the gate routes it.
//
// Request SIZES come from a named mix: "fixed" gives every request exactly
// tokens_per_request (and draws nothing from the Rng, so pre-mix streams
// replay byte-identically), while "heavy" draws a two-class
// chat/batch-inference size per request — a lognormal body with a Pareto
// tail — whose class share is conditioned on the same scenario that
// modulates the rate. The heavy mix's shape is fixed (request_source.cc).
//
// Determinism contract: arrivals and sizes are a pure function of the
// options (rate windows are consumed strictly in order, each drawing from
// the source's own Rng), so a serving run and its replay see identical
// request streams for a fixed seed.

#ifndef FLEXMOE_GATE_REQUEST_SOURCE_H_
#define FLEXMOE_GATE_REQUEST_SOURCE_H_

#include <cstdint>
#include <deque>
#include <string>

#include "gate/logit_process.h"
#include "util/rng.h"
#include "util/status.h"

namespace flexmoe {

/// \brief One inference request.
struct ServeRequest {
  int64_t id = 0;
  double arrival_seconds = 0.0;
  /// Absolute completion deadline: arrival + the experiment's SLO.
  double deadline_seconds = 0.0;
  int64_t tokens = 0;
};

/// \brief Checks a request-size mix name: "fixed" or "heavy".
Status ValidateSizeMix(const std::string& size_mix);

/// \brief Arrival-process configuration.
struct RequestSourceOptions {
  /// Mean arrival rate (requests/second) before scenario modulation.
  double arrival_rate_rps = 100.0;
  int64_t tokens_per_request = 256;
  /// Per-request latency SLO; deadline = arrival + slo.
  double slo_seconds = 0.5;
  /// Wall-clock length of one scenario "step": the catalog's
  /// step-denominated clocks (diurnal_period, tenant_block_steps, the
  /// per-step burst rate/decay) are mapped onto seconds through this.
  double step_seconds = 0.1;
  /// Rate-modulation regime (same semantics as the routing catalog):
  ///   pretrain-steady / finetune-shift  constant rate
  ///   bursty      flash crowds: rate spikes arriving at burst_rate per
  ///               step, height burst_boost x base, decaying by
  ///               burst_decay per step
  ///   diurnal     sinusoidal rate, period diurnal_period steps
  ///   multi-tenant  tenant time slices with distinct per-tenant rates
  ScenarioOptions scenario;
  /// Per-request token sizes, all multiples of tokens_per_request:
  /// "fixed"  every request is exactly tokens_per_request;
  /// "heavy"  with the chat share (0.85 at the base rate) a CHAT turn,
  ///          lognormal with median 0.5 x and log-sigma 0.6, else a
  ///          BATCH-INFERENCE job, Pareto(1.5) with scale 1.1 x, clamped
  ///          at 64 x. The mix mean stays near tokens_per_request, so a
  ///          sized stream stresses the serving token cap without changing
  ///          the offered load of an equivalent fixed-size cell.
  std::string size_mix = "fixed";
  uint64_t seed = 42;

  Status Validate() const;
};

/// \brief Deterministic scenario-modulated Poisson request stream.
class RequestSource {
 public:
  static Result<RequestSource> Create(const RequestSourceOptions& options);

  /// Next request in non-decreasing arrival order (unbounded stream).
  ServeRequest Next();

  /// Arrival time of the next request without consuming it.
  double PeekArrival();

  /// Rate multiplier the given window used (1.0 = base rate). Only valid
  /// for windows the stream already generated; exposed for tests.
  double WindowMultiplier(int64_t window) const;

  /// Largest per-request size the mix can emit (the clamp), in tokens.
  int64_t MaxRequestTokens() const;

  const RequestSourceOptions& options() const { return options_; }

 private:
  explicit RequestSource(const RequestSourceOptions& options);

  /// Generates windows until at least one arrival is buffered.
  void FillBuffer();
  /// The rate multiplier of window `w`; advances the burst state, so it
  /// must be called once per window in order.
  double NextWindowMultiplier(int64_t w);
  /// Draws one request's token count for window `w` (whose rate
  /// multiplier was `mult`); consumes Rng draws only for non-fixed mixes.
  int64_t NextRequestTokens(int64_t w, double mult);

  RequestSourceOptions options_;
  Rng rng_;
  int64_t next_window_ = 0;
  int64_t next_id_ = 0;
  double burst_level_ = 0.0;
  std::deque<ServeRequest> buffer_;
  std::vector<double> window_multipliers_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_GATE_REQUEST_SOURCE_H_
