// Stream: a serialized hardware resource (a GPU compute queue, a NIC egress
// or ingress port, a background-copy engine). Work items reserve intervals;
// contention emerges from serialization, which is what differentiates the
// "real" engine timing from the Policy Maker's analytic estimates
// (paper Figure 6(c)).

#ifndef FLEXMOE_SIM_STREAM_H_
#define FLEXMOE_SIM_STREAM_H_

#include <vector>

#include "topology/topology.h"

namespace flexmoe {

/// \brief A serialized resource timeline.
class Stream {
 public:
  /// Reserves `duration` seconds starting no earlier than `earliest` and no
  /// earlier than the end of the last reservation. Returns the start time.
  double Reserve(double earliest, double duration);

  /// Records an externally computed interval [start, end); used when one
  /// transfer simultaneously occupies several streams. `start` may be
  /// earlier than busy_until() only if the caller already serialized
  /// against it.
  void ReserveInterval(double start, double end);

  double busy_until() const { return busy_until_; }
  /// Total reserved time; busy_time()/elapsed gives utilization.
  double busy_time() const { return busy_time_; }

  void Reset();

 private:
  double busy_until_ = 0.0;
  double busy_time_ = 0.0;
};

/// \brief Per-GPU hardware resources for one simulated cluster.
///
/// Each GPU owns a compute stream, a NIC egress port, a NIC ingress port,
/// and an adjustment (background copy) stream used by best-effort placement
/// modifications — mirroring the separate CUDA stream the paper uses.
class ClusterState {
 public:
  explicit ClusterState(const Topology* topo);

  const Topology& topology() const { return *topo_; }
  int num_gpus() const { return topo_->num_gpus(); }

  Stream& compute(GpuId g) { return compute_[g]; }
  Stream& egress(GpuId g) { return egress_[g]; }
  Stream& ingress(GpuId g) { return ingress_[g]; }
  Stream& adjust(GpuId g) { return adjust_[g]; }

  /// Earliest time every stream of `g` is free.
  double GpuFreeAt(GpuId g) const;

  /// Max busy_until across all streams — end of all scheduled work.
  double AllFreeAt() const;

  /// Total compute-stream busy time divided by (num_gpus x elapsed):
  /// the GPU utilization metric of paper Figure 2.
  double ComputeUtilization(double elapsed) const;

  /// Reserves [start, start+duration) on every training-critical stream of
  /// every GPU — models a globally blocking operation (synchronous
  /// placement adjustment).
  void BlockAll(double start, double duration);

  void Reset();

 private:
  const Topology* topo_;
  std::vector<Stream> compute_;
  std::vector<Stream> egress_;
  std::vector<Stream> ingress_;
  std::vector<Stream> adjust_;
};

}  // namespace flexmoe

#endif  // FLEXMOE_SIM_STREAM_H_
