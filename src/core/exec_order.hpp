// Execution ordering (paper §4.1/§4.2): the part of the execution stage
// that needs no I/O. It puts the pillars' out-of-order commits back into
// the total order and owns the rules that follow from a sequence number:
// checkpoint boundary and owner pillar, reply pillar, omitted replier and
// shard -> worker. The threaded ExecutionStage and the simulator each own
// one; every call returns its outcome and the host acts on it (metrics and
// wake-ups there, cost constants here). admit() runs on any pillar thread
// at once — pillar p only admits its slice c(p,i) = p + i·NP — while
// take(), advance(), install() and reset() belong to one consumer thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/events.hpp"
#include "core/runtime_config.hpp"

namespace copbft::core {

class ExecOrder {
 public:
  enum class Outcome {
    kStale,         ///< below the frontier: already executed or installed
    kStored,        ///< batch published into its ring slot
    kDuplicate,     ///< slot already carries this seq (redelivery)
    kDroppedSelf,   ///< collision with a lower live seq: ours dropped
    kEvictedOther,  ///< collision with a higher live seq: it was evicted
  };
  struct Admission {
    Outcome outcome = Outcome::kStale;
    bool at_frontier = false;  ///< buffered at the frontier: wake the consumer
  };

  ExecOrder(const protocol::ProtocolConfig& protocol,
            std::uint32_t num_pillars);

  /// Invariant-checks the batch (genesis, slice partition, drift bound,
  /// duplicate fork check), publishes it into its ring slot and raises the
  /// pillar's admission watermark.
  Admission admit(CommittedBatch&& batch);
  /// Claims and removes the batch at the frontier, if admitted; advance()
  /// moves the frontier past it once it has executed.
  std::optional<CommittedBatch> take();
  void advance();
  /// Checkpoint install: frontier to seq + 1 first, then drop every batch
  /// at or below `seq`. True when the new frontier is already buffered (no
  /// future admit wakes the consumer for it).
  bool install(protocol::SeqNum seq);
  /// Crash recovery, no producer running: frontier 1, nothing buffered.
  void reset();

  protocol::SeqNum next_seq() const {
    return next_seq_.load(std::memory_order_seq_cst);
  }
  /// Highest seq admitted at or above the frontier of its time: the
  /// gap-fill target (0 = none).
  protocol::SeqNum highest_admitted() const;
  std::size_t size() const { return ring_.size(); }
  bool empty() const { return ring_.empty(); }
  /// Commits dropped or evicted on a slot collision (the gap-fill path
  /// re-fetches each).
  std::uint64_t slot_drops() const {
    return slot_drops_.load(std::memory_order_acquire);
  }

  // ---- routing rules ----
  std::uint32_t num_pillars() const { return num_pillars_; }
  bool checkpoint_boundary(protocol::SeqNum seq) const {
    return seq % checkpoint_interval_ == 0;
  }
  /// Checkpoint agreements rotate round-robin over the pillars (§4.2.2).
  std::uint32_t checkpoint_owner(protocol::SeqNum seq) const {
    return static_cast<std::uint32_t>((seq / checkpoint_interval_) %
                                      num_pillars_);
  }
  /// Replies go back through the pillar that ran the instance (§4.3.2).
  std::uint32_t reply_pillar(protocol::SeqNum seq) const {
    return static_cast<std::uint32_t>(seq % num_pillars_);
  }
  /// kOmitOne: exactly one replica per request key stays silent.
  bool omits_reply(ReplyMode mode, protocol::ReplicaId self,
                   std::uint64_t request_key) const {
    return mode == ReplyMode::kOmitOne && request_key % num_replicas_ == self;
  }
  /// Fixed shard -> worker mapping of the execution pool: per-shard FIFO.
  static std::uint32_t worker_of(std::uint32_t shard, std::uint32_t workers) {
    return shard % workers;
  }

 private:
  /// Window-bounded concurrent reorder buffer indexed by seq % capacity.
  /// Multi-producer (one pillar per slot by the slice partition),
  /// single-consumer (the stage thread). Each slot carries an atomic state
  /// word encoding {empty, claimed(seq), published(seq)}:
  ///
  ///   0                  free
  ///   (seq << 1) | 1     claimed — a writer (or the consumer) holds the
  ///                      payload exclusively
  ///   (seq << 1)         published — payload readable, owned by `seq`
  ///
  /// Writers claim a slot by CAS, fill the payload, then publish with a
  /// seq_cst store (the stage pairs it with a seq_cst next_seq load for
  /// the wake-up handshake). The consumer claims a published frontier slot
  /// before moving the batch out, so a concurrent writer can never touch a
  /// payload the stage is consuming. The drift invariant keeps live
  /// sequence numbers within `window` of the execution frontier, so a
  /// ring of ~2x window slots gives every live seq a distinct slot; slot
  /// collisions (bound violated or clamped ring) keep the lower seq.
  class ReorderRing {
   public:
    struct PublishResult {
      Outcome outcome = Outcome::kStored;
      /// kDuplicate only: stored fingerprint was read consistently and can
      /// be compared against the incoming batch (fork check).
      bool fingerprint_valid = false;
      std::uint64_t stored_hash = 0;
      std::uint64_t stored_meta = 0;
    };

    explicit ReorderRing(std::uint64_t window);

    /// Writer side (pillar thread). `frontier` is the caller's seq_cst
    /// snapshot of next_seq; occupants below it are dead and reclaimed in
    /// place. `hash`/`meta` fingerprint the batch for fork detection.
    PublishResult publish(CommittedBatch&& batch, protocol::SeqNum frontier,
                          std::uint64_t hash, std::uint64_t meta);
    /// Consumer side (stage thread): atomically claims and removes the
    /// batch published for exactly `seq`, or returns nullopt.
    std::optional<CommittedBatch> take(protocol::SeqNum seq);
    /// Consumer side: drops every published batch with seq <= `upto`
    /// (checkpoint install). Slots a writer holds claimed are skipped —
    /// they republish against the post-install frontier and self-heal.
    void discard_upto(protocol::SeqNum upto);
    /// True when the batch for exactly `seq` is published.
    bool ready(protocol::SeqNum seq) const;

    std::size_t size() const {
      return count_.load(std::memory_order_relaxed);
    }
    bool empty() const { return size() == 0; }

   private:
    struct alignas(64) Slot {
      std::atomic<std::uint64_t> state{0};
      /// Fingerprint of the published batch (batch_hash/batch_meta in the
      /// .cpp): readable by any pillar for the duplicate fork check, so
      /// they are atomics validated by re-reading `state`.
      std::atomic<std::uint64_t> hash{0};
      std::atomic<std::uint64_t> meta{0};
      std::optional<CommittedBatch> batch;
    };

    std::size_t index(protocol::SeqNum seq) const {
      return static_cast<std::size_t>(seq) & mask_;
    }
    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    std::atomic<std::size_t> count_{0};
  };

  /// Max seq the pillar admitted: written only by the owning pillar
  /// (release), read by every pillar's gap poll (acquire).
  struct alignas(64) Watermark {
    std::atomic<protocol::SeqNum> seq{0};
  };

  const std::uint32_t num_pillars_;
  const std::uint64_t window_;
  const std::uint64_t checkpoint_interval_;
  const std::uint32_t num_replicas_;
  // next_seq_ is advanced only by the consumer (execution and install);
  // producers read it with seq_cst for the stale check / wake handshake.
  ReorderRing ring_;
  std::atomic<protocol::SeqNum> next_seq_{1};
  std::unique_ptr<Watermark[]> watermarks_;
  std::atomic<std::uint64_t> slot_drops_{0};
};

}  // namespace copbft::core
