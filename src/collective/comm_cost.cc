#include "collective/comm_cost.h"

#include <algorithm>

#include "util/status.h"

namespace flexmoe {

ByteMatrix MakeByteMatrix(int num_gpus) {
  FLEXMOE_CHECK(num_gpus > 0);
  return ByteMatrix(num_gpus, num_gpus, 0.0);
}

double A2AReceiverSeconds(const ByteMatrix& bytes, GpuId dst,
                          const HardwareProfile& profile) {
  // Pure bandwidth serialization, exactly the paper's Eq. 8 inner sum:
  // chunked flows keep the port busy back-to-back, so per-message latency
  // does not accumulate (it is charged once per phase by the caller).
  double t = 0.0;
  for (int src = 0; src < bytes.rows(); ++src) {
    const double b = bytes(src, dst);
    if (b <= 0.0) continue;
    t += b / profile.BandwidthBytesPerSec(static_cast<GpuId>(src), dst);
  }
  return t;
}

double A2ASenderSeconds(const ByteMatrix& bytes, GpuId src,
                        const HardwareProfile& profile) {
  double t = 0.0;
  const double* row = bytes.row(src);
  for (int dst = 0; dst < bytes.cols(); ++dst) {
    if (row[dst] <= 0.0) continue;
    t += row[dst] / profile.BandwidthBytesPerSec(src, static_cast<GpuId>(dst));
  }
  return t;
}

double A2ASecondsAnalytic(const ByteMatrix& bytes,
                          const HardwareProfile& profile) {
  const int n = bytes.rows();
  double worst = 0.0;
  double max_lat = 0.0;
  for (GpuId g = 0; g < n; ++g) {
    worst = std::max(worst, A2AReceiverSeconds(bytes, g, profile));
    worst = std::max(worst, A2ASenderSeconds(bytes, g, profile));
    for (GpuId peer = 0; peer < n; ++peer) {
      if (bytes(g, peer) > 0.0) {
        max_lat = std::max(max_lat, profile.LatencySeconds(g, peer));
      }
    }
  }
  // Pipeline fill + drain: one latency at each end of the phase.
  return worst + 2.0 * max_lat;
}

}  // namespace flexmoe
