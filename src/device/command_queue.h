#pragma once

/// \file command_queue.h
/// The asynchronous half of the device backend: a FIFO of typed
/// commands (H2D, D2H, LAUNCH) drained by one dedicated worker thread,
/// modeling a device stream. The executor enqueues a stage's whole
/// transfer/replay schedule and returns to host work (remapping the
/// next point, binding matrices) while the queue runs it.
///
/// Overlap model — two serialization domains, nothing else ordered:
///
///  * a **buffer token** names one staging slot: copies on a slot wait
///    for the launch reading it, never for launches on other slots;
///  * an **exec token** names one modeled GPU: its launches run one at
///    a time (a device executes one kernel per stream), but they run
///    *asynchronously* on the cluster pool, so the worker thread is
///    already performing the next slot's H2D while they replay.
///
/// With double-buffered slots (two buffer tokens per exec token) the
/// steady state is exactly the classic pipeline: upload shard i+1 into
/// slot B while the kernel replays shard i out of slot A.
///
/// Copies are executed synchronously by the worker (they are the
/// modeled DMA engine) and metered into device.upload_bytes /
/// device.download_bytes; launches are submitted to the cluster's
/// thread pool and tracked via per-token pending counts. sync() waits
/// for every prior command to complete and rethrows the first
/// exception any launch raised. Slots are raw pointers into storage
/// the caller owns and must keep alive until the queue is destroyed:
/// the destructor drains whatever is still enqueued and waits out
/// in-flight launches — tearing a queue down under load is safe and
/// exercised by the TSan suite.

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace atlas::device {

class CommandQueue {
 public:
  /// `pool` runs launch bodies; tokens index the two domains:
  /// exec tokens in [0, num_exec_tokens), buffer tokens in
  /// [0, num_buffer_tokens).
  CommandQueue(ThreadPool& pool, int num_exec_tokens, int num_buffer_tokens);

  /// Drains every command still enqueued, waits for in-flight launches,
  /// and joins the worker; on return every launch closure has been
  /// released, so the slots it captured may be freed. Pending errors
  /// are swallowed here (sync() is the reporting point); destruction is
  /// never throwing.
  ~CommandQueue();

  CommandQueue(const CommandQueue&) = delete;
  CommandQueue& operator=(const CommandQueue&) = delete;

  /// Copy `bytes` from host memory into `slot` once every launch
  /// reading `buffer_token` has completed.
  void enqueue_h2d(Amp* slot, const Amp* host_src, std::size_t bytes,
                   int buffer_token);

  /// Copy `bytes` out of `slot` to host memory once every launch
  /// writing `buffer_token` has completed.
  void enqueue_d2h(const Amp* slot, Amp* host_dst, std::size_t bytes,
                   int buffer_token);

  /// Run `fn` on the cluster pool once `exec_token`'s previous launch
  /// has completed. `fn` owns everything it reads except the slots (the
  /// queue may outlive the caller's stack frame).
  void enqueue_launch(std::function<void()> fn, int exec_token,
                      int buffer_token);

  /// Blocks until everything enqueued so far has completed; rethrows
  /// the first exception any launch raised since the last sync().
  void sync();

 private:
  struct Command {
    enum class Kind { H2D, D2H, Launch };
    Kind kind = Kind::Launch;
    const Amp* src = nullptr;  ///< copies only
    Amp* dst = nullptr;        ///< copies only
    std::size_t bytes = 0;
    int exec_token = 0;
    int buffer_token = 0;
    std::function<void()> fn = nullptr;  ///< launches only
  };

  void push(Command cmd) ATLAS_EXCLUDES(mu_);
  void worker_loop() ATLAS_EXCLUDES(mu_);
  void run_command(Command& cmd) ATLAS_EXCLUDES(mu_);
  void finish_launch(int exec_token, int buffer_token,
                     std::exception_ptr error) ATLAS_EXCLUDES(mu_);
  void record_error(std::exception_ptr error) ATLAS_REQUIRES(mu_);

  ThreadPool& pool_;
  mutable Mutex mu_;
  CondVar cv_work_;   ///< worker: queue non-empty or stopping
  CondVar cv_state_;  ///< waiters: pending counts / queue drained
  std::queue<Command> queue_ ATLAS_GUARDED_BY(mu_);
  std::vector<int> pending_exec_ ATLAS_GUARDED_BY(mu_);
  std::vector<int> pending_buf_ ATLAS_GUARDED_BY(mu_);
  int pending_total_ ATLAS_GUARDED_BY(mu_) = 0;
  bool worker_busy_ ATLAS_GUARDED_BY(mu_) = false;
  bool stop_ ATLAS_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ ATLAS_GUARDED_BY(mu_);
  std::thread worker_;
};

}  // namespace atlas::device
