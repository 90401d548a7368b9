#include "core/step_executor.h"

#include <algorithm>

#include "collective/ordered_sync.h"
#include "moe/transformer.h"
#include "util/string_util.h"

namespace flexmoe {

namespace {

/// Chunk k of K of a cell of v tokens: v*(k+1)/K - v*k/K. Integer-exact
/// (the K pieces sum to v), and the last chunk is the ceil — the property
/// the pipelined floor bound relies on (cost_model.cc, DESIGN.md Section
/// 11). K = 1 returns v directly: the two 64-bit divisions would otherwise
/// be most of the unpipelined leg's per-cell cost.
int64_t ChunkShare(int64_t v, int k, int K) {
  if (K == 1) return v;
  return v * (k + 1) / K - v * k / K;
}

}  // namespace

Status PipelineOptions::Validate() const {
  if (chunks < 0 || chunks > kMaxPipelineChunks) {
    return Status::InvalidArgument(StrFormat(
        "pipeline chunks must be in [0, %d] (0 = auto-K), got %d",
        kMaxPipelineChunks, chunks));
  }
  return Status::OK();
}

StepExecutor::StepExecutor(ClusterState* cluster,
                           const HardwareProfile* profile,
                           const ModelConfig& model)
    : cluster_(cluster), profile_(profile), model_(model) {
  FLEXMOE_CHECK(cluster != nullptr);
  FLEXMOE_CHECK(profile != nullptr);
  FLEXMOE_CHECK_OK(model.Validate());
}

double StepExecutor::Frontier() const {
  double t = 0.0;
  for (int g = 0; g < cluster_->num_gpus(); ++g) {
    t = std::max(t, cluster_->GpuFreeAt(g));
  }
  return t;
}

const std::vector<double>* StepExecutor::BandwidthScales() const {
  if (health_ == nullptr) return nullptr;
  // Refilled per phase (cheap O(G)); the engine stretches each port by its
  // own GPU's factor, so a straggler pays its slowdown exactly once, on
  // its own ports, and never leaks it onto healthy peers' ports (the old
  // group-max scaling stretched every member of a ring and both endpoints
  // of a message — the double-stretch this replaces).
  port_scale_scratch_.resize(static_cast<size_t>(cluster_->num_gpus()));
  for (GpuId g = 0; g < cluster_->num_gpus(); ++g) {
    port_scale_scratch_[static_cast<size_t>(g)] =
        health_->bandwidth_multiplier(g);
  }
  return &port_scale_scratch_;
}

std::vector<GpuId> StepExecutor::AliveGpus() const {
  std::vector<GpuId> out;
  out.reserve(static_cast<size_t>(cluster_->num_gpus()));
  for (GpuId g = 0; g < cluster_->num_gpus(); ++g) {
    if (Alive(g)) out.push_back(g);
  }
  return out;
}

const ByteMatrix& StepExecutor::DispatchBytes(const RoutedAssignment& routed,
                                              bool transpose, int k,
                                              int K) const {
  // Reusable scratch: one G x G matrix per executor, refilled per call
  // (callers consume the matrix before the next DispatchBytes call).
  dispatch_bytes_scratch_.assign(routed.num_gpus, routed.num_gpus, 0.0);
  ByteMatrix& bytes = dispatch_bytes_scratch_;
  const double token_bytes = model_.token_bytes();
  for (int d = 0; d < routed.num_gpus; ++d) {
    if (!Alive(d)) continue;
    const int64_t* row = routed.dispatch_to.row(d);
    for (int s = 0; s < routed.num_gpus; ++s) {
      const int64_t tokens = row[s];
      if (tokens <= 0) continue;
      // Dead endpoints move nothing. Straggler slowdown is NOT folded into
      // the payload here: the engine's per-port scale (BandwidthScales)
      // stretches the slow endpoint's port directly, so the stretch
      // applies exactly once instead of inflating both ports' bytes.
      if (!Alive(s)) continue;
      const int64_t piece = ChunkShare(tokens, k, K);
      if (piece <= 0) continue;
      const double payload = static_cast<double>(piece) * token_bytes;
      if (transpose) {
        bytes(d, s) += payload;
      } else {
        bytes(s, d) += payload;
      }
    }
  }
  return bytes;
}

double StepExecutor::RunExpertCompute(
    const RoutedAssignment& routed, double flops_per_token, int k, int K,
    const std::vector<double>& per_gpu_earliest, StepTiming* timing,
    const char* span_name, int layer) {
  // The same split rule as DispatchBytes, so the computed tokens are
  // exactly the ones this chunk's dispatch delivered.
  obs::Tracer* tr = trace();
  double finish = 0.0;
  for (GpuId g = 0; g < routed.num_gpus; ++g) {
    // Tokens landing on a dead device (possible only in degraded mode,
    // when no live replica exists) are simply not computed.
    if (!Alive(g)) continue;
    const double gpu_start = per_gpu_earliest[static_cast<size_t>(g)];
    double gpu_finish = gpu_start;
    const double effective_flops = flops_per_token * ComputeScale(g);
    for (int e = 0; e < routed.num_experts; ++e) {
      const int64_t cell = routed.expert_gpu_tokens(e, g);
      if (cell <= 0) continue;
      const int64_t tokens = ChunkShare(cell, k, K);
      if (tokens <= 0) continue;
      // Busy time is the reservation, not the wall: a chunk may wait for
      // the previous chunk's compute to drain, and that wait is overlap,
      // not expert occupancy. At K = 1 the stream is idle when the
      // dispatch lands, so this equals the wall interval bit for bit.
      double start = gpu_finish;
      gpu_finish = ExecCompute(cluster_, *profile_, g,
                               static_cast<double>(tokens), effective_flops,
                               gpu_finish, &start);
      timing->per_gpu_expert_compute[static_cast<size_t>(g)] +=
          gpu_finish - start;
    }
    if (tr != nullptr && gpu_finish > gpu_start) {
      tr->Span(span_name, "compute", g, gpu_start, gpu_finish, "layer",
               static_cast<double>(layer), "chunk", static_cast<double>(k));
    }
    finish = std::max(finish, gpu_finish);
  }
  return finish;
}

double StepExecutor::RunForwardLayers(const std::vector<LayerWork>& layers,
                                      const std::vector<GpuId>& alive,
                                      double frontier, StepTiming* timing) {
  obs::Tracer* tr = trace();
  const double fwd_flops = model_.expert_fwd_flops_per_token();
  const std::vector<double>* scales = BandwidthScales();
  const LegSpans forward{"dispatch", "expert_compute", "combine", "a2a"};
  const LegSpans recirculation{"recirc_dispatch", "recirc_expert_compute",
                               "recirc_combine", "recirculation"};
  for (size_t l = 0; l < layers.size(); ++l) {
    const LayerWork& work = layers[l];
    FLEXMOE_CHECK(work.routed != nullptr);
    const int layer = static_cast<int>(l);
    // Shadow-parameter broadcasts (baseline FasterMoE) precede the layer.
    for (const ShadowBroadcast& bc : work.broadcasts) {
      if (!Alive(bc.root) || alive.size() < 2) continue;
      const CollectiveResult r =
          ExecBroadcast(cluster_, *profile_, bc.bytes, bc.root, alive,
                        frontier, scales);
      if (tr != nullptr) {
        tr->Span("shadow_bcast", "sync", bc.root, frontier, r.finish, "layer",
                 static_cast<double>(layer));
      }
      timing->sync_seconds += r.finish - frontier;
      frontier = r.finish;
    }
    // Entries past the model's MoE layers are recirculation passes (the
    // serving path's second pass for overflow/re-routed tokens).
    frontier = RunLayerLeg(
        work, layer,
        layer >= model_.num_moe_layers ? recirculation : forward, fwd_flops,
        scales, frontier, timing, /*sync=*/nullptr);
  }
  return frontier;
}

double StepExecutor::RunLayerLeg(const LayerWork& work, int layer,
                                 const LegSpans& spans,
                                 double flops_per_token,
                                 const std::vector<double>* scales,
                                 double frontier, StepTiming* timing,
                                 LegSync* sync) {
  obs::Tracer* tr = trace();
  const RoutedAssignment& routed = *work.routed;
  const int K = EffectiveChunks(work);
  // One span per GPU an A2A kept busy past `start` (untouched GPUs keep
  // their start time in per_gpu_finish and emit nothing).
  const auto trace_a2a = [&](const char* name, double start,
                             const CollectiveResult& result, int k) {
    if (tr == nullptr) return;
    for (size_t g = 0; g < result.per_gpu_finish.size(); ++g) {
      if (result.per_gpu_finish[g] > start) {
        tr->Span(name, spans.a2a_category, static_cast<int>(g), start,
                 result.per_gpu_finish[g], "layer",
                 static_cast<double>(layer), "chunk", static_cast<double>(k));
      }
    }
  };

  // Post every chunk's dispatch from the leg start: the NIC ports
  // serialize them in chunk order, so chunk k+1's wire time hides behind
  // chunk k's expert compute instead of extending the layer.
  const double phase0 = frontier;
  std::vector<CollectiveResult>& dispatches = chunk_dispatch_scratch_;
  dispatches.clear();
  double dispatch_all = phase0;
  for (int k = 0; k < K; ++k) {
    dispatches.push_back(ExecAllToAll(
        cluster_, *profile_, DispatchBytes(routed, false, k, K), phase0,
        scales));
    trace_a2a(spans.dispatch, phase0, dispatches.back(), k);
    dispatch_all = std::max(dispatch_all, dispatches.back().finish);
  }
  timing->a2a_seconds += dispatch_all - phase0;

  // Each chunk computes as soon as its own dispatch lands per GPU (the
  // compute streams serialize chunks), and its combine launches at the
  // chunk's global compute finish — draining behind later chunks' compute
  // on the port streams.
  double compute_all = phase0;
  double leg_end = phase0;
  for (int k = 0; k < K; ++k) {
    const double chunk_compute = RunExpertCompute(
        routed, flops_per_token, k, K,
        dispatches[static_cast<size_t>(k)].per_gpu_finish, timing,
        spans.compute, layer);
    compute_all = std::max(compute_all, chunk_compute);
    const CollectiveResult combine =
        ExecAllToAll(cluster_, *profile_, DispatchBytes(routed, true, k, K),
                     chunk_compute, scales);
    trace_a2a(spans.combine, chunk_compute, combine, k);
    leg_end = std::max(leg_end, combine.finish);
  }
  // Expert syncs launch once every gradient contribution is in, posted
  // after the last combine (see the header).
  if (sync != nullptr) {
    sync->finish = RunLayerSyncs(work, compute_all, sync->group_cache, scales,
                                 timing, sync->finish);
  }
  // A2A gets the leading dispatch window plus the combine tail past
  // compute; compute gets its exposed (non-overlapped) stretch.
  timing->compute_seconds += std::max(0.0, compute_all - dispatch_all);
  timing->a2a_seconds += std::max(0.0, leg_end - compute_all);
  return std::max(leg_end, compute_all);
}

double StepExecutor::RunNonMoECompute(double seconds, double frontier,
                                      StepTiming* timing) {
  double phase_finish = frontier;
  for (GpuId g = 0; g < cluster_->num_gpus(); ++g) {
    if (!Alive(g)) continue;
    const double scaled = seconds * ComputeScale(g);
    const double start = cluster_->compute(g).Reserve(frontier, scaled);
    phase_finish = std::max(phase_finish, start + scaled);
  }
  if (obs::Tracer* tr = trace(); tr != nullptr) {
    tr->Span("non_moe", "compute", obs::kControlLane, frontier, phase_finish);
  }
  timing->non_moe_seconds += phase_finish - frontier;
  return phase_finish;
}

StepTiming StepExecutor::ExecuteForward(const std::vector<LayerWork>& layers) {
  StepTiming timing;
  timing.per_gpu_expert_compute.assign(
      static_cast<size_t>(cluster_->num_gpus()), 0.0);
  timing.start = Frontier();

  // With no backward pass there is no shadow-gradient AllReduce to pay,
  // so a broadcast is the whole shadowing price.
  const std::vector<GpuId> alive = AliveGpus();
  double frontier = RunForwardLayers(layers, alive, timing.start, &timing);

  // Non-MoE forward compute (attention, dense FFNs, gate), scaled to the
  // forward share of the full-step cost by the same fwd/fwdbwd ratio the
  // expert networks exhibit. No optimizer, no gradient AllReduce.
  const double fwd_fraction = model_.expert_fwd_flops_per_token() /
                              model_.expert_fwdbwd_flops_per_token();
  frontier = RunNonMoECompute(
      NonMoEComputeSeconds(model_, *profile_) * fwd_fraction, frontier,
      &timing);

  timing.end = frontier;
  if (obs::Tracer* tr = trace(); tr != nullptr) {
    tr->Span("forward_pass", "step", obs::kControlLane, timing.start,
             timing.end, "layers", static_cast<double>(layers.size()));
  }
  return timing;
}

double StepExecutor::RunLayerSyncs(const LayerWork& work, double earliest_base,
                                   NcclGroupCache* group_cache,
                                   const std::vector<double>* scales,
                                   StepTiming* timing, double sync_finish) {
  // Launch this layer's expert syncs, ordered by logical id (== expert
  // id): every GPU posts in the same ascending order, so the posting is
  // deadlock-free, and disjoint groups overlap through the stream model.
  obs::Tracer* tr = trace();
  std::vector<SyncOp> ops;
  // Dead members take no part; a group left with fewer than two live
  // members has nothing to reduce. Returns whether the op was kept.
  const auto add_op = [&](int logical_id, std::vector<GpuId> group) {
    if (health_ != nullptr) {
      group.erase(std::remove_if(group.begin(), group.end(),
                                 [this](GpuId g) { return !Alive(g); }),
                  group.end());
    }
    if (group.size() < 2) return false;
    ops.push_back({logical_id, std::move(group), model_.expert_grad_bytes()});
    return true;
  };
  if (work.placement != nullptr) {
    for (int e = 0; e < work.placement->num_experts(); ++e) {
      add_op(e, work.placement->HostGpus(e));
    }
  }
  int extra_id = work.routed->num_experts;
  for (const std::vector<GpuId>& group : work.extra_sync_groups) {
    if (add_op(extra_id, group)) ++extra_id;
  }
  for (const SyncOp& op : ops) {
    double earliest = earliest_base;
    if (group_cache != nullptr) {
      earliest += group_cache->Acquire(op.group);
    }
    const CollectiveResult r = ExecRingAllReduce(
        cluster_, *profile_, op.bytes, op.group, earliest, scales);
    if (tr != nullptr && !op.group.empty()) {
      tr->Span("expert_sync", "sync", op.group.front(), earliest, r.finish,
               "expert", static_cast<double>(op.logical_id), "gpus",
               static_cast<double>(op.group.size()));
    }
    sync_finish = std::max(sync_finish, r.finish);
    timing->sync_busy_seconds += r.finish - earliest;
  }
  return sync_finish;
}

StepTiming StepExecutor::ExecuteStep(const std::vector<LayerWork>& layers,
                                     NcclGroupCache* group_cache) {
  StepTiming timing;
  timing.per_gpu_expert_compute.assign(
      static_cast<size_t>(cluster_->num_gpus()), 0.0);
  timing.start = Frontier();
  double frontier = timing.start;

  const double bwd_flops = model_.expert_fwdbwd_flops_per_token() -
                           model_.expert_fwd_flops_per_token();

  // Membership is fixed for the duration of a step (the elastic controller
  // mutates health only at step boundaries), so the alive list is computed
  // once and shared by every shadow broadcast and the DP AllReduce below.
  const std::vector<GpuId> alive = AliveGpus();

  // ---- Forward pass over MoE layers ------------------------------------
  frontier = RunForwardLayers(layers, alive, frontier, &timing);

  // ---- Non-MoE compute (attention, dense FFNs, gate, optimizer) --------
  frontier = RunNonMoECompute(NonMoEComputeSeconds(model_, *profile_),
                              frontier, &timing);

  // ---- Backward pass in reverse order -----------------------------------
  // A layer's expert gradients are final right after its backward compute,
  // so its replica AllReduces launch immediately and overlap with the
  // remaining (shallower) layers' backward work — the standard bucketed-
  // overlap of DDP, applied per expert. The step only stretches if syncs
  // outlast the backward pass.
  obs::Tracer* tr = trace();
  const std::vector<double>* scales = BandwidthScales();
  const LegSpans backward{"grad_dispatch", "expert_compute_bwd",
                          "grad_combine", "a2a"};
  LegSync sync{group_cache, frontier};
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
    const int layer = static_cast<int>(layers.rend() - it) - 1;
    frontier = RunLayerLeg(*it, layer, backward, bwd_flops, scales, frontier,
                           &timing, &sync);
  }

  // The step ends when both the backward pass and the slowest expert sync
  // are done; only the non-overlapped tail counts as sync time.
  timing.sync_seconds += std::max(0.0, sync.finish - frontier);
  frontier = std::max(frontier, sync.finish);

  // ---- Data-parallel AllReduce of non-MoE gradients ----------------------
  // (every system pays it; tracked separately from the Eq. 9 expert sync).
  if (alive.size() >= 2) {
    const CollectiveResult dp = ExecRingAllReduce(
        cluster_, *profile_,
        model_.non_moe_params() * model_.grad_bytes, alive, frontier,
        scales);
    if (tr != nullptr) {
      tr->Span("dp_sync", "sync", alive.front(), frontier, dp.finish, "gpus",
               static_cast<double>(alive.size()));
    }
    timing.dp_sync_seconds += dp.finish - frontier;
    frontier = dp.finish;
  }

  timing.end = frontier;
  if (tr != nullptr) {
    tr->Span("train_step", "step", obs::kControlLane, timing.start, timing.end,
             "layers", static_cast<double>(layers.size()));
  }
  return timing;
}

}  // namespace flexmoe
