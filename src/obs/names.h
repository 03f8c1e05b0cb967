#pragma once

/// \file names.h
/// The canonical catalog of metric and span names. Names are part of
/// the operator-facing contract (dashboards, `atlas-servectl metrics`,
/// trace viewers key on them), so — like verify::Code — the catalog is
/// **append-only**: never rename or delete an entry, add a new one and
/// deprecate the old in docs/OBSERVABILITY.md.
///
/// Every registration site must name its metric through a constant in
/// this file; `atlas-lint --metrics-catalog src/obs/names.h` (run in
/// CI) fails the build if two constants carry the same string, which
/// is how a copy-paste "registered twice under one name" slips in.
///
/// Conventions: `<layer>.<noun>[.<event>]`, `_us` suffix for
/// microsecond histograms, counters are monotone, gauges are
/// instantaneous. Per-tenant serve metrics append the tenant name to
/// kServeTenantLatencyPrefix.

namespace atlas::obs::names {

// --- compile pipeline (core/pipeline.cpp) -----------------------------
inline constexpr char kCompileCount[] = "compile.count";
inline constexpr char kCompileTotalUs[] = "compile.total_us";
inline constexpr char kCompileOptimizeUs[] = "compile.phase_us.optimize";
inline constexpr char kCompileCanonicalizeUs[] =
    "compile.phase_us.canonicalize";
inline constexpr char kCompileStageUs[] = "compile.phase_us.stage";
inline constexpr char kCompileKernelizeUs[] = "compile.phase_us.kernelize";
inline constexpr char kCompileProgramUs[] = "compile.phase_us.program";

// --- per-session structural plan cache (core/session.cpp) -------------
inline constexpr char kPlanCacheHits[] = "core.plan_cache.hits";
inline constexpr char kPlanCacheMisses[] = "core.plan_cache.misses";
inline constexpr char kPlanCacheEvictions[] = "core.plan_cache.evictions";

// --- execution (exec/executor.cpp, exec/stage_program.cpp) ------------
inline constexpr char kExecRuns[] = "exec.runs";
inline constexpr char kExecStageUs[] = "exec.stage_us";
inline constexpr char kSkeletonCacheHits[] = "exec.skeleton_cache.hits";
inline constexpr char kSkeletonCacheMisses[] = "exec.skeleton_cache.misses";

// --- device backend (device/buffer.cpp, device/command_queue.cpp,
// --- exec/device_executor.cpp) ----------------------------------------
inline constexpr char kDeviceQueueDepth[] = "device.queue.depth";
inline constexpr char kDeviceUploadBytes[] = "device.upload_bytes";
inline constexpr char kDeviceDownloadBytes[] = "device.download_bytes";
inline constexpr char kDeviceConstUploads[] = "device.const_uploads";
inline constexpr char kDeviceLaunches[] = "device.launches";
inline constexpr char kDeviceBatches[] = "device.batches";
inline constexpr char kDeviceBatchSize[] = "device.launch_batch_size";

// --- noise engine (noise/engine.cpp) ----------------------------------
inline constexpr char kNoiseTrajectories[] = "noise.trajectories";
inline constexpr char kNoiseBatches[] = "noise.batches";

// --- serving daemon (serve/) ------------------------------------------
inline constexpr char kServeRequests[] = "serve.requests";
inline constexpr char kServeAdmissionRefused[] = "serve.admission.refused";
inline constexpr char kServeBytesIn[] = "serve.bytes_in";
inline constexpr char kServeBytesOut[] = "serve.bytes_out";
inline constexpr char kServeQueueWaitUs[] = "serve.queue_wait_us";
/// Per-tenant request latency histograms: prefix + tenant name.
inline constexpr char kServeTenantLatencyPrefix[] =
    "serve.request_latency_us.";

// --- trace span names (not registry metrics; catalogued here so the
// --- duplicate-name lint covers them too) -----------------------------
inline constexpr char kSpanCompileOptimize[] = "compile.optimize";
inline constexpr char kSpanCompileCanonicalize[] = "compile.canonicalize";
inline constexpr char kSpanCompileStage[] = "compile.stage";
inline constexpr char kSpanCompileKernelize[] = "compile.kernelize";
inline constexpr char kSpanCompileProgram[] = "compile.program";
inline constexpr char kSpanExecStage[] = "exec.stage";
inline constexpr char kSpanExecBind[] = "exec.bind";
inline constexpr char kSpanExecShard[] = "exec.shard";
inline constexpr char kSpanNoiseBatch[] = "noise.batch";
/// No longer emitted: device walks record exec.stage like every walk.
inline constexpr char kSpanDeviceStage[] = "device.stage";
inline constexpr char kSpanDeviceBatch[] = "device.batch";
inline constexpr char kSpanDeviceH2D[] = "device.h2d";
inline constexpr char kSpanDeviceD2H[] = "device.d2h";
inline constexpr char kSpanDeviceLaunch[] = "device.launch";

}  // namespace atlas::obs::names
