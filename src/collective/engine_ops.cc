#include "collective/engine_ops.h"

#include <algorithm>

#include "util/status.h"

namespace flexmoe {

namespace {

/// Reserves a pipelined (chunked) transfer: the source egress port is busy
/// for the serialization time, the destination ingress port for the same
/// time but starting one latency after the first chunk leaves. NCCL-style
/// chunking means the two ports need not be simultaneously free, which
/// avoids the convoy effects a store-and-forward model would create.
/// Returns the completion time; *start_out (optional) gets the egress
/// start.
double PipelinedTransfer(Stream* egress, Stream* ingress, double earliest,
                         double duration, double latency,
                         double* start_out = nullptr) {
  const double send_start = egress->Reserve(earliest, duration);
  const double recv_start = ingress->Reserve(send_start + latency, duration);
  if (start_out != nullptr) *start_out = send_start;
  return recv_start + duration;
}

/// Per-GPU port stretch factor (1.0 without a scale vector). x * 1.0 == x
/// bitwise, so a scale vector of ones is indistinguishable from nullptr.
double ScaleOf(const std::vector<double>* port_scale, GpuId g) {
  return port_scale == nullptr ? 1.0
                               : (*port_scale)[static_cast<size_t>(g)];
}

}  // namespace

CollectiveResult ExecAllToAll(ClusterState* cluster,
                              const HardwareProfile& profile,
                              const ByteMatrix& bytes, double earliest,
                              const std::vector<double>* port_scale) {
  const int n = cluster->num_gpus();
  FLEXMOE_CHECK(bytes.rows() == n && bytes.cols() == n);
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(n), earliest);

  // NCCL chunk-interleaves all peer flows, so during a bulk-synchronous
  // All-to-All every port stays continuously busy until its own queue
  // drains (LogGP-style port model). Each message therefore accumulates
  // serialization time on its source egress port and its destination
  // ingress port independently; a GPU finishes when both of its ports
  // drain. The shifted schedule (round r: src -> (src+r) % n) fixes the
  // deterministic processing order.
  for (int r = 0; r < n; ++r) {
    for (GpuId src = 0; src < n; ++src) {
      const GpuId dst = (src + r) % n;
      const double b = bytes(src, dst);
      if (b <= 0.0) continue;
      const double duration = b / profile.BandwidthBytesPerSec(src, dst);
      const double lat = profile.LatencySeconds(src, dst);
      // A degraded endpoint stretches only its own port's serialization
      // time; a healthy peer's port drains at full speed and frees early.
      const double dur_src = duration * ScaleOf(port_scale, src);
      const double dur_dst = duration * ScaleOf(port_scale, dst);
      const double send_start = cluster->egress(src).Reserve(earliest, dur_src);
      const double recv_start =
          cluster->ingress(dst).Reserve(earliest + lat, dur_dst);
      const double end =
          std::max(send_start + dur_src, recv_start + dur_dst) + lat;
      auto& src_fin = result.per_gpu_finish[static_cast<size_t>(src)];
      auto& dst_fin = result.per_gpu_finish[static_cast<size_t>(dst)];
      src_fin = std::max(src_fin, end);
      dst_fin = std::max(dst_fin, end);
    }
  }
  result.finish = earliest;
  for (double t : result.per_gpu_finish) result.finish = std::max(result.finish, t);
  return result;
}

CollectiveResult ExecRingAllReduce(ClusterState* cluster,
                                   const HardwareProfile& profile,
                                   double bytes,
                                   const std::vector<GpuId>& group,
                                   double earliest,
                                   const std::vector<double>* port_scale) {
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(cluster->num_gpus()),
                               earliest);
  const size_t k = group.size();
  if (k < 2 || bytes <= 0.0) {
    result.finish = earliest;
    return result;
  }

  // Ring all-reduce as port occupancy: every member moves 2(k-1) chunks of
  // bytes/k over its ring hop, so its egress and ingress ports are each
  // busy for that serialization time. Chunk interleaving (NCCL) keeps the
  // ports continuously busy without per-phase barriers; the collective
  // completes when the slowest member's ports drain, plus the 2(k-1)-hop
  // latency chain of the last chunk.
  const size_t phases = 2 * (k - 1);
  const double chunk = bytes / static_cast<double>(k);
  double slowest_end = earliest;
  double max_lat = 0.0;
  for (size_t i = 0; i < k; ++i) {
    const GpuId src = group[i];
    const GpuId dst = group[(i + 1) % k];
    const double duration = static_cast<double>(phases) * chunk /
                            profile.BandwidthBytesPerSec(src, dst);
    // Only the degraded member's own ports stretch; the barrier below
    // (slowest_end) still makes the whole ring wait for it.
    const double dur_src = duration * ScaleOf(port_scale, src);
    const double dur_dst = duration * ScaleOf(port_scale, dst);
    const double send_start = cluster->egress(src).Reserve(earliest, dur_src);
    const double recv_start =
        cluster->ingress(dst).Reserve(earliest, dur_dst);
    slowest_end =
        std::max(slowest_end,
                 std::max(send_start + dur_src, recv_start + dur_dst));
    max_lat = std::max(max_lat, profile.LatencySeconds(src, dst));
  }
  result.finish = slowest_end + static_cast<double>(phases) * max_lat;
  for (GpuId g : group) {
    result.per_gpu_finish[static_cast<size_t>(g)] = result.finish;
  }
  return result;
}

CollectiveResult ExecP2p(ClusterState* cluster, const HardwareProfile& profile,
                         double bytes, GpuId src, GpuId dst, double earliest) {
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(cluster->num_gpus()),
                               earliest);
  if (bytes <= 0.0) {
    result.finish = earliest;
    return result;
  }
  const double duration = bytes / profile.BandwidthBytesPerSec(src, dst);
  double start = earliest;
  const double end = PipelinedTransfer(&cluster->egress(src),
                                       &cluster->ingress(dst), earliest,
                                       duration,
                                       profile.LatencySeconds(src, dst),
                                       &start);
  result.start = start;
  result.per_gpu_finish[static_cast<size_t>(src)] = end;
  result.per_gpu_finish[static_cast<size_t>(dst)] = end;
  result.finish = end;
  return result;
}

CollectiveResult ExecBackgroundCopy(ClusterState* cluster,
                                    const HardwareProfile& profile,
                                    double bytes, GpuId src, GpuId dst,
                                    double earliest, double slowdown) {
  FLEXMOE_CHECK(slowdown >= 1.0);
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(cluster->num_gpus()),
                               earliest);
  if (bytes <= 0.0) {
    result.finish = earliest;
    return result;
  }
  const double duration =
      slowdown * bytes / profile.BandwidthBytesPerSec(src, dst);
  double start = earliest;
  const double end = PipelinedTransfer(&cluster->adjust(src),
                                       &cluster->adjust(dst), earliest,
                                       duration,
                                       profile.LatencySeconds(src, dst),
                                       &start);
  result.start = start;
  result.per_gpu_finish[static_cast<size_t>(src)] = end;
  result.per_gpu_finish[static_cast<size_t>(dst)] = end;
  result.finish = end;
  return result;
}

double ExecCompute(ClusterState* cluster, const HardwareProfile& profile,
                   GpuId gpu, double tokens, double flops_per_token,
                   double earliest, double* start_out) {
  if (start_out != nullptr) *start_out = earliest;
  if (tokens <= 0.0) return earliest;
  const double duration = profile.ComputeSeconds(tokens, flops_per_token);
  const double start = cluster->compute(gpu).Reserve(earliest, duration);
  if (start_out != nullptr) *start_out = start;
  return start + duration;
}

CollectiveResult ExecBroadcast(ClusterState* cluster,
                               const HardwareProfile& profile, double bytes,
                               GpuId root, const std::vector<GpuId>& group,
                               double earliest,
                               const std::vector<double>* port_scale) {
  CollectiveResult result;
  result.start = earliest;
  result.per_gpu_finish.assign(static_cast<size_t>(cluster->num_gpus()),
                               earliest);
  if (bytes <= 0.0 || group.size() < 2) {
    result.finish = earliest;
    return result;
  }
  // Pipelined ring broadcast rooted at `root`: the payload streams through
  // the ring once; each hop adds latency, the bandwidth term is paid once
  // (chunks overlap across hops).
  std::vector<GpuId> ring;
  ring.push_back(root);
  for (GpuId g : group) {
    if (g != root) ring.push_back(g);
  }
  double start = earliest;
  for (GpuId g : ring) {
    start = std::max(start, std::max(cluster->egress(g).busy_until(),
                                     cluster->ingress(g).busy_until()));
  }
  double finish = start;
  for (size_t i = 0; i + 1 < ring.size(); ++i) {
    const GpuId src = ring[i];
    const GpuId dst = ring[i + 1];
    const double hop = bytes / profile.BandwidthBytesPerSec(src, dst) /
                       static_cast<double>(ring.size() - 1);
    // Per-port straggler stretch (see ExecAllToAll).
    const double hop_src = hop * ScaleOf(port_scale, src);
    const double hop_dst = hop * ScaleOf(port_scale, dst);
    const double lat = profile.LatencySeconds(src, dst);
    const double at = i == 0 ? start : finish;
    const double send_start = cluster->egress(src).Reserve(at, hop_src);
    const double recv_start =
        cluster->ingress(dst).Reserve(send_start + lat, hop_dst);
    finish = std::max(finish, recv_start + hop_dst);
  }
  for (GpuId g : ring) {
    result.per_gpu_finish[static_cast<size_t>(g)] = finish;
  }
  result.finish = finish;
  return result;
}

}  // namespace flexmoe
