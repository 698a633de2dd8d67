// Execution worker pool: conflict-aware parallel execution behind the
// execute-only drain loop (the P-SMR playbook — classify after ordering,
// parallelize independence, serialize conflicts).
//
// Topology: the stage thread is the single dispatcher AND the single
// retirer; workers run nothing but Service::execute. Each worker owns one
// SPSC job ring — the stage publishes jobs with a release store, the
// worker consumes them FIFO and publishes results back into the same slot.
// Requests are routed by their AccessClass shard (ExecOrder::worker_of), so
// two requests on one shard always land on one worker in dispatch order:
// per-shard FIFO holds by construction, and no lock is needed anywhere on
// the dispatch/execute/retire fast path. Global (unclassified) requests
// never enter the pool — the stage drains it and runs them inline, a
// barrier (see ExecutionStage).
//
// All client-visible bookkeeping (dedup, reply cache, reply emission,
// checkpoints) stays on the stage thread, applied at *retirement* in
// ticket order == dispatch order == total order — which is what makes a
// parallel schedule observationally identical to sequential execution.
//
// Parking: both sides spin briefly, then park on an annotated Mutex/Cv.
// The park/wake helpers are deliberately not COP_HOT — they run on the
// empty/contended edges, not per job (same shape as the stage's own
// wake_exec latch).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "app/service.hpp"
#include "common/hot.hpp"
#include "common/threading.hpp"

namespace copbft::core {

class ExecPool {
 public:
  /// `workers` >= 1; ring capacity per worker is fixed (kRingSlots).
  ExecPool(std::uint32_t workers, app::Service& service);
  ~ExecPool();

  void start();
  void stop();

  std::uint32_t workers() const {
    return static_cast<std::uint32_t>(workers_v_.size());
  }

  /// Stage thread only: true when `worker`'s ring has a free slot (a
  /// shard's worker is ExecOrder::worker_of, fixed for the pool's lifetime,
  /// which is what gives same-shard requests their FIFO). When false the
  /// stage must retire outstanding jobs first (it is the only party that
  /// frees slots), never spin-wait here.
  bool can_dispatch(std::uint32_t worker) const;

  /// Stage thread only: publishes `request` to `worker`'s ring. The
  /// caller must have checked can_dispatch. The request must stay alive
  /// until the matching retire() (the stage holds the batch shared_ptr).
  /// Returns the slot index to pass to retire().
  std::uint32_t dispatch(std::uint32_t worker,
                         const protocol::Request* request);

  /// Stage thread only: waits for the job in `slot` of `worker` to
  /// complete, takes the result and frees the slot. Jobs of one worker
  /// must be retired in dispatch order (the stage's pending FIFO
  /// guarantees it).
  Bytes retire(std::uint32_t worker, std::uint32_t slot);

 private:
  // Job slot states: the stage moves a slot kFree -> kReady (request
  // published); the worker moves it kReady -> kDone (result published);
  // the stage's retire moves it kDone -> kFree. Each transition is a
  // release store read by an acquire load on the other side.
  enum : std::uint32_t { kFree = 0, kReady = 1, kDone = 2 };

  struct alignas(64) Job {
    std::atomic<std::uint32_t> state{kFree};
    const protocol::Request* request = nullptr;
    Bytes result;
  };

  struct alignas(64) Worker {
    std::vector<Job> ring;
    /// Stage-side cursor: next slot to fill. Worker-side cursor lives in
    /// the worker's stack frame; both advance monotonically mod capacity.
    std::uint32_t head = 0;
    /// Set (seq_cst) by the worker before its final empty-check, cleared
    /// when it wakes: the stage wakes it only when it is actually parked.
    std::atomic<bool> parked{false};
    Mutex mutex;
    Cv cv;
    /// Absorbs a notify that races the worker into its wait (same latch
    /// shape as the stage's wake_pending_).
    bool wake_pending COP_GUARDED_BY(mutex) = false;
    std::jthread thread;
  };

  void worker_loop(Worker& w);
  /// Slow paths, off the COP_HOT ring operations.
  void wake_worker(Worker& w);
  void park_worker(Worker& w, const Job& next);
  void wait_done(const Job& job);

  app::Service& service_;
  std::vector<std::unique_ptr<Worker>> workers_v_;
  /// Stage parked in retire(): workers notify completion_cv_ after
  /// publishing a result iff this is set (seq_cst Dekker pairing with the
  /// stage's park sequence).
  std::atomic<bool> stage_parked_{false};
  Mutex completion_mutex_;
  Cv completion_cv_;
  /// Absorbs a completion notify that races the stage into its wait.
  bool completion_pending_ COP_GUARDED_BY(completion_mutex_) = false;
  std::atomic<bool> stop_{false};
};

}  // namespace copbft::core
