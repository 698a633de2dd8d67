// Execution stage: turns the out-of-order stream of committed instances
// into the total order, executes the service, and hands replies back to
// the pillars (paper §4.1/§4.2/§4.3).
//
// Pre-execution offload (paper §4.3.1): commit admission no longer runs
// on the stage thread. Each pillar calls admit() from its own thread and
// writes the committed batch directly into its interleaved slice of the
// reorder ring (single writer per slot by the c(p,i) = p + i·NP
// partition; lock-free publish with an atomic per-slot state word). The
// ring, the frontier, the admission watermarks and the routing rules are
// core::ExecOrder (exec_order.hpp), which the simulator drives too. The
// pillar's poll_pillar() lets it pick up its own work — gap fills for its
// slice on timeout and checkpoint rounds it owns — so the stage thread
// does nothing but advance the frontier, read ready slots and invoke the
// service.
//
// Responsibilities that remain on the stage thread:
//   * execute strictly in sequence order from the reorder ring,
//   * exactly-once execution per (client, request id) with a bounded,
//     indexed reply cache for O(1) retransmission handling,
//   * offloaded post-execution: emit a ReplyTask to the originating
//     pillar, which runs post_process + MAC sealing + egress in parallel
//     across the NP pillar threads (inline fallback when no ReplyFn is
//     installed — the TOP/SMaRt baselines — or the pillar is saturated),
//   * checkpoint digest/snapshot every `checkpoint_interval` sequence
//     numbers; the StartCheckpoint signal is mailed to the owning pillar
//     and picked up by its next poll_pillar() (paper §4.2.2),
//   * checkpoint install from state transfer (ring truncation composes
//     with concurrent pillar writers: the frontier moves first, stragglers
//     self-heal their slots).
//
// Parallel execution (exec_workers > 0): the stage thread stops invoking
// Service::execute itself for requests the service classifies onto a
// shard (Service::classify). It dispatches them — still in total order —
// to a fixed pool of workers over per-worker SPSC rings (ExecPool), with
// per-shard FIFO by the fixed shard->worker mapping, and retires results
// in dispatch order, at which point all client-visible bookkeeping
// (dedup, reply cache, reply emission) happens exactly as it would have
// sequentially. kGlobal requests are barriers: drain the pool, run
// inline. Checkpoints and installs drain first too, so Service::
// snapshot()/state_digest() always see a quiescent service.
//
// The commit hot path is lock-free end to end: slot publication is an
// atomic state machine, counters are single-writer atomics (or relaxed
// fetch_add where pillars share them), and the only locks left are the
// stage wake-up latch, the per-pillar checkpoint mailboxes and the worker
// pool's park latches — all off the per-commit path.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "app/service.hpp"
#include "common/metrics.hpp"
#include "common/queue.hpp"
#include "common/threading.hpp"
#include "core/events.hpp"
#include "core/exec_order.hpp"
#include "core/exec_pool.hpp"
#include "core/runtime_config.hpp"

namespace copbft::core {

struct ExecutionStats {
  std::uint64_t batches_executed = 0;
  std::uint64_t requests_executed = 0;
  std::uint64_t noops_executed = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t replies_sent = 0;
  /// Of replies_sent: how many were handed to a pillar (vs. sealed inline).
  std::uint64_t replies_offloaded = 0;
  std::uint64_t replies_omitted = 0;
  /// Of requests_executed: how many ran on the execution worker pool
  /// (parallel path). Zero when exec_workers == 0.
  std::uint64_t requests_parallel = 0;
  /// Requests classified kGlobal while a pool was active: each drained
  /// the pool (barrier) and ran inline on the stage thread.
  std::uint64_t exec_barriers = 0;
  std::uint64_t checkpoints_triggered = 0;
  /// Pillar-side gap-fill timeouts: each pillar polls its own stall timer,
  /// so NP pillars observing one stall count NP fills (one per slice).
  std::uint64_t gap_fills_requested = 0;
  /// Redundant commits dropped because their ring slot was still occupied
  /// by an older, not-yet-executed sequence number (re-fetched on demand).
  std::uint64_t reorder_slot_drops = 0;
  /// Checkpoints installed via state transfer / rejected (bad artifact).
  std::uint64_t state_installs = 0;
  std::uint64_t installs_rejected = 0;
  /// Highest seq whose effects this stage's state reflects — by execution
  /// or by checkpoint install.
  protocol::SeqNum last_executed_seq = 0;
  protocol::SeqNum installed_seq = 0;
};

/// Single-writer cell: only the stage thread writes, any thread reads.
/// The store(load+delta) pattern avoids the lock-prefixed RMW a fetch_add
/// would emit — this is the de-locked replacement for the old per-request
/// stats mutex. Release/acquire pairing keeps multi-counter snapshots
/// coherent for pollers (e.g. a test that waits on requests_executed and
/// then reads replies_omitted).
class StageCounter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.store(value_.load(std::memory_order_relaxed) + delta,
                 std::memory_order_release);
  }
  void set(std::uint64_t value) {
    value_.store(value, std::memory_order_release);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Multi-writer counter: pillar threads share it (gap fills), so this one
/// does pay for the RMW.
class SharedCounter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t get() const { return value_.load(std::memory_order_acquire); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class ExecutionStage {
 public:
  /// Receives (seq, composite digest, encoded CheckpointArtifact) on every
  /// checkpoint boundary; the host stores it for serving state transfers.
  using SnapshotFn =
      std::function<void(protocol::SeqNum, const crypto::Digest&, Bytes)>;
  /// Offloaded post-execution hook (paper §4.3.2): hand a finished request
  /// to the originating pillar for post_process + sealing + egress.
  /// Returns false *leaving the task intact* when the pillar cannot take
  /// it (queue full, shutting down); the stage then seals inline.
  using ReplyFn = std::function<bool(ReplyTask&)>;

  ExecutionStage(ReplicaId self, const ReplicaRuntimeConfig& config,
                 app::Service& service, const crypto::CryptoProvider& crypto,
                 transport::Transport& transport);

  void start();
  void stop();

  /// Install before start(); snapshots are only materialized when set.
  void set_snapshot_fn(SnapshotFn fn) { snapshot_fn_ = std::move(fn); }
  /// Install before start(); unset (TOP/SMaRt baselines, bare-stage
  /// tests) means replies are post-processed, sealed and sent inline.
  void set_reply_fn(ReplyFn fn) { reply_fn_ = std::move(fn); }

  /// Pre-execution offload (paper §4.3.1): called *on the pillar thread*
  /// when an instance commits. Invariant-checks the batch and publishes it
  /// straight into its reorder-ring slot, then wakes the stage thread iff
  /// the batch is the execution frontier. Thread-safe: each pillar only
  /// writes slots of its own slice c(p,i) = p + i·NP.
  void admit(CommittedBatch batch);

  /// Called by the state-transfer manager with a fetched stable
  /// checkpoint; `done` runs on the stage thread with the outcome.
  bool submit_install(InstallState install);

  /// Pillar-side bookkeeping poll (pre-execution offload): pillar
  /// `pillar` drains the checkpoint rounds it owns and its slice's
  /// gap-fill timer into `out` (commands it then feeds to its own
  /// handle_command). Called periodically from the pillar's run loop.
  void poll_pillar(std::uint32_t pillar, std::uint64_t now_us,
                   std::vector<PillarCommand>& out);

  /// Snapshot of the counters; safe to call from any thread while running.
  ExecutionStats stats() const;
  protocol::SeqNum next_seq() const { return order_.next_seq(); }
  /// The ordering core: frontier, reorder ring and routing rules.
  const ExecOrder& order() const { return order_; }

 private:
  struct CachedReply {
    protocol::SeqNum seq = 0;  ///< instance the request executed in
    Bytes result;              ///< raw ordered result (pre-post_process)
    /// Non-zero while the request is dispatched to a worker but not yet
    /// retired: the ticket to force-retire up to before this entry's
    /// result may be resent (the in-flight retransmission race). Always 0
    /// at checkpoint boundaries — the stage drains before hashing.
    std::uint64_t pending_ticket = 0;
  };
  struct ClientState {
    protocol::RequestId max_done = 0;
    /// Executed ids above the pruning floor (async windows commit out of
    /// order within a client).
    // COPLINT(allow:det-unordered-member: lookup-only dedup set; pruning walks ids numerically from max_done, never by iteration)
    std::unordered_set<protocol::RequestId> done;
    /// Recent replies for retransmission handling: eviction order (oldest
    /// first) plus an id -> reply index for O(1) lookup.
    std::deque<protocol::RequestId> reply_order;
    // COPLINT(allow:det-unordered-member: lookup-only cache; eviction order comes from reply_order, a deque)
    std::unordered_map<protocol::RequestId, CachedReply> replies;
  };

  /// Per-pillar gap-poll state, private to the owning pillar's thread.
  struct alignas(64) PillarLane {
    protocol::SeqNum last_frontier = 0;
    std::uint64_t stall_since_us = 0;
  };

  /// Checkpoint hand-off to the owning pillar. The stage thread appends at
  /// most one signal per checkpoint_interval sequence numbers and the
  /// owner drains on its next poll — far off the per-commit path, so a
  /// tiny mutex beats inventing a lock-free mailbox here.
  struct CkptSignal {
    protocol::SeqNum seq = 0;
    crypto::Digest digest{};
  };
  struct CkptMailbox {
    Mutex mutex;
    std::vector<CkptSignal> pending COP_GUARDED_BY(mutex);
  };

  void run();
  /// Wakes the stage thread (publish-side of the Dekker handshake: slot
  /// publish with seq_cst, then a seq_cst next_seq load decides the wake).
  /// Deliberately not COP_HOT: it only runs when the published seq *is*
  /// the frontier, i.e. once per stage wake-up, not per commit.
  void wake_exec();
  /// Verifies and installs a transferred checkpoint (state transfer).
  void handle_install(InstallState install);
  Bytes encode_client_table() const;
  bool decode_client_table(
      ByteSpan table,
      std::unordered_map<protocol::ClientId, ClientState>& out) const;
  void apply_ready();
  void execute_batch(const CommittedBatch& batch);
  void execute_request(const protocol::Request& request,
                       const CommittedBatch& batch, std::uint32_t index);
  /// Parallel-path bookkeeping (stage thread only). A request the service
  /// classified onto a shard is dispatched to the worker pool and queued
  /// on pending_; everything client-visible happens at retirement, in
  /// ticket order == total order. Cached resends ride pending_ too, so
  /// the reply stream is emitted in exactly the sequential order.
  void dispatch_request(const protocol::Request& request,
                        const CommittedBatch& batch, std::uint32_t index,
                        std::uint32_t shard);
  void finish_request(ClientState& state, const protocol::Request& request,
                      const CommittedBatch& batch, std::uint32_t index,
                      Bytes result);
  void retire_front();
  /// Retires pending entries up to and including `ticket`.
  void retire_until(std::uint64_t ticket);
  /// Barrier: retires everything outstanding; afterwards the service is
  /// quiescent (no execute() in flight anywhere).
  void drain_pool();
  /// Offloads the reply to its originating pillar, or — when no ReplyFn is
  /// installed or the pillar rejected it — post-processes, seals and sends
  /// inline.
  void emit_reply(ReplyTask task);
  void maybe_checkpoint(protocol::SeqNum seq);
  bool already_executed(ClientState& state, protocol::RequestId id) const;
  void record_executed(ClientState& state, protocol::RequestId id);

  const ReplicaId self_;
  const ReplicaRuntimeConfig& config_;
  app::Service& service_;
  const crypto::CryptoProvider& crypto_;
  transport::Transport& transport_;
  SnapshotFn snapshot_fn_;
  ReplyFn reply_fn_;

  // Shared between pillar writers (admit) and the stage thread (take,
  // advance, install).
  ExecOrder order_;
  std::unique_ptr<PillarLane[]> lanes_;
  std::unique_ptr<CkptMailbox[]> ckpt_mail_;

  // State transfer installs still arrive over a queue: they are rare,
  // whole-state operations that must run on the stage thread.
  BoundedQueue<InstallState> install_queue_;

  // Stage wake-up latch. wake_pending_ absorbs the race between a
  // pillar's notify and the stage re-entering the wait.
  mutable Mutex wake_mutex_;
  Cv wake_cv_;
  bool wake_pending_ COP_GUARDED_BY(wake_mutex_) = false;
  std::atomic<bool> stop_requested_{false};

  // Parallel execution (exec_workers > 0). pool_ runs Service::execute on
  // worker threads; pending_ is the stage-owned retirement FIFO — ticket
  // order is dispatch order is total order. A `resend` entry carries a
  // cached result instead of a worker slot, so retransmissions keep their
  // place in the reply stream.
  struct PendingRetire {
    std::uint64_t ticket = 0;
    std::uint32_t worker = 0;
    std::uint32_t slot = 0;
    bool resend = false;
    bool omit = false;
    ReplyTask task;  ///< result empty until retirement (except resends)
  };
  std::unique_ptr<ExecPool> pool_;
  std::deque<PendingRetire> pending_;
  std::uint64_t next_ticket_ = 1;

  // clients_ and installed_floor_ are owned by the stage thread.
  // COPLINT(allow:det-unordered-member: per-request access is keyed lookup; the one iteration (encode_client_table) sorts ids before serializing)
  std::unordered_map<protocol::ClientId, ClientState> clients_;
  /// Highest checkpoint installed via state transfer; execution and later
  /// installs must never regress below it.
  protocol::SeqNum installed_floor_ = 0;

  // Observability (registered once in the ctor; handles are stable).
  metrics::Gauge& m_reorder_depth_;
  metrics::Gauge& m_drift_;
  metrics::Counter& m_batches_executed_;
  metrics::Counter& m_requests_executed_;
  metrics::Counter& m_replies_sent_;
  metrics::HistogramMetric& m_execute_us_;

  // Counters: written only by the stage thread, snapshotted by stats().
  StageCounter n_batches_executed_;
  StageCounter n_requests_executed_;
  StageCounter n_requests_parallel_;
  StageCounter n_exec_barriers_;
  StageCounter n_noops_executed_;
  StageCounter n_duplicates_suppressed_;
  StageCounter n_replies_sent_;
  StageCounter n_replies_offloaded_;
  StageCounter n_replies_omitted_;
  StageCounter n_checkpoints_triggered_;
  StageCounter n_state_installs_;
  StageCounter n_installs_rejected_;
  StageCounter n_last_executed_seq_;
  StageCounter n_installed_seq_;
  // Written from pillar threads (gap polls run on the pillars).
  SharedCounter n_gap_fills_requested_;

  std::jthread thread_;
};

}  // namespace copbft::core
