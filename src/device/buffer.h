#pragma once

/// \file buffer.h
/// Staged-traffic accounting for the device runner
/// (exec/device_executor.h). Shard data reaches a kernel replay only
/// through a metered H2D copy into a staging slot of the runner's arena,
/// and leaves only through a metered D2H copy, both made by the GPU's
/// pool task (exec/device_executor.cpp), so every byte of staging
/// traffic lands in the device.upload_bytes / device.download_bytes obs
/// counters. buffer_stats() reads those two.

#include <cstdint>

#include "obs/metrics.h"
#include "obs/names.h"

namespace atlas::device {

/// Process-wide staged bytes, monotone. Snapshot via buffer_stats();
/// tests and benches assert deltas.
struct BufferStats {
  std::uint64_t upload_bytes = 0;    ///< H2D: device.upload_bytes
  std::uint64_t download_bytes = 0;  ///< D2H: device.download_bytes
};

/// Point-in-time read of the two device.* byte counters.
inline BufferStats buffer_stats() {
  return {obs::counter(obs::names::kDeviceUploadBytes).value(),
          obs::counter(obs::names::kDeviceDownloadBytes).value()};
}

}  // namespace atlas::device
