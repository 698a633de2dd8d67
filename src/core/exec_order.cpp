#include "core/exec_order.hpp"

#include <algorithm>
#include <limits>

#include "common/hot.hpp"
#include "common/invariant.hpp"

namespace copbft::core {
namespace {

// Slot state encoding (see ReorderRing in the header).
constexpr std::uint64_t slot_published(protocol::SeqNum seq) {
  return static_cast<std::uint64_t>(seq) << 1;
}
constexpr std::uint64_t slot_claimed(protocol::SeqNum seq) {
  return (static_cast<std::uint64_t>(seq) << 1) | 1;
}

/// FNV-1a over the request keys. Two commits for the same sequence number
/// must carry the same batch; a fingerprint mismatch on a duplicate means
/// the total order forked. The stored fingerprint lets any pillar run the
/// check against a slot another pillar published without touching the
/// (non-atomic) payload.
std::uint64_t batch_hash(const CommittedBatch& b) {
  std::uint64_t h = 1469598103934665603ULL;
  if (!b.requests) return h;
  for (const auto& r : *b.requests) {
    std::uint64_t k = r.key();
    for (int i = 0; i < 8; ++i) {
      h ^= (k >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

/// (request count << 1) | is_noop — the cheap half of the fingerprint.
std::uint64_t batch_meta(const CommittedBatch& b) {
  const bool noop = !b.requests || b.requests->empty();
  const std::uint64_t n = noop ? 0 : b.requests->size();
  return (n << 1) | (noop ? 1 : 0);
}

/// Live sequence numbers span at most [frontier, stable + window]; the
/// frontier can itself trail stability, so 2x window plus slack covers
/// every buffered seq with distinct slots. Clamped so a pathological
/// window cannot exhaust memory — collisions are then legal and resolved
/// by publish().
std::size_t ring_slots(std::uint64_t window) {
  const std::uint64_t want = 2 * window + 2;
  std::size_t n = 64;
  while (n < want && n < (std::size_t{1} << 20)) n <<= 1;
  return n;
}

}  // namespace

// --------------------------------------------------------------------------
// ReorderRing — lock-free slot ring, one pillar writer per slot (slice
// partition), single consumer (the stage thread).

ExecOrder::ReorderRing::ReorderRing(std::uint64_t window)
    : slots_(ring_slots(window)), mask_(slots_.size() - 1) {}

COP_HOT ExecOrder::ReorderRing::PublishResult
ExecOrder::ReorderRing::publish(CommittedBatch&& batch,
                                protocol::SeqNum frontier, std::uint64_t hash,
                                std::uint64_t meta) {
  Slot& s = slots_[index(batch.seq)];
  const std::uint64_t mine_pub = slot_published(batch.seq);
  const std::uint64_t mine_claim = slot_claimed(batch.seq);
  std::uint64_t cur = s.state.load(std::memory_order_seq_cst);
  while (true) {
    if (cur == mine_pub) {
      // Redelivery of a seq someone already published. Read the stored
      // fingerprint and validate it by re-reading the state word: if the
      // slot changed under us (consumed/reclaimed mid-read), the
      // fingerprint may belong to another batch and the check is skipped.
      PublishResult res;
      res.outcome = Outcome::kDuplicate;
      res.stored_hash = s.hash.load(std::memory_order_relaxed);
      res.stored_meta = s.meta.load(std::memory_order_relaxed);
      res.fingerprint_valid =
          s.state.load(std::memory_order_seq_cst) == mine_pub;
      return res;
    }
    if (cur == mine_claim) {
      // Another writer is mid-publishing the same seq (concurrent
      // redelivery); nothing to verify yet.
      return {Outcome::kDuplicate, false, 0, 0};
    }
    if (cur == 0) {
      if (!s.state.compare_exchange_strong(cur, mine_claim,
                                           std::memory_order_seq_cst))
        continue;  // cur reloaded
      s.hash.store(hash, std::memory_order_relaxed);
      s.meta.store(meta, std::memory_order_relaxed);
      s.batch.emplace(std::move(batch));
      count_.fetch_add(1, std::memory_order_relaxed);
      s.state.store(mine_pub, std::memory_order_seq_cst);
      return {Outcome::kStored, false, 0, 0};
    }
    if (cur & 1) {
      // Claimed by a writer for a *different* seq — only reachable when
      // distinct live seqs collide on one slot (clamped ring). Drop ours;
      // gap detection re-fetches it.
      return {Outcome::kDroppedSelf, false, 0, 0};
    }
    const protocol::SeqNum occupant = cur >> 1;
    if (occupant < frontier) {
      // Stale leftover below the execution frontier (e.g. dropped by a
      // checkpoint install sweep that lost its CAS): reclaim in place.
      if (!s.state.compare_exchange_strong(cur, mine_claim,
                                           std::memory_order_seq_cst))
        continue;
      s.hash.store(hash, std::memory_order_relaxed);
      s.meta.store(meta, std::memory_order_relaxed);
      s.batch.emplace(std::move(batch));  // destroys the stale payload
      s.state.store(mine_pub, std::memory_order_seq_cst);
      return {Outcome::kStored, false, 0, 0};
    }
    if (occupant < batch.seq) {
      // Ring wrap-around with a live lower occupant: it executes first,
      // keep it and drop ours; gap detection re-fetches.
      return {Outcome::kDroppedSelf, false, 0, 0};
    }
    // Live higher occupant: evict it, ours executes first.
    if (!s.state.compare_exchange_strong(cur, mine_claim,
                                         std::memory_order_seq_cst))
      continue;
    s.hash.store(hash, std::memory_order_relaxed);
    s.meta.store(meta, std::memory_order_relaxed);
    s.batch.emplace(std::move(batch));
    s.state.store(mine_pub, std::memory_order_seq_cst);
    return {Outcome::kEvictedOther, false, 0, 0};
  }
}

COP_HOT std::optional<CommittedBatch> ExecOrder::ReorderRing::take(
    protocol::SeqNum seq) {
  Slot& s = slots_[index(seq)];
  std::uint64_t want = slot_published(seq);
  if (s.state.load(std::memory_order_seq_cst) != want) return std::nullopt;
  // Claim before moving the payload out: writer CASes expect `published`
  // and fail while we hold the claim, so eviction/reclaim can never race
  // the move.
  if (!s.state.compare_exchange_strong(want, slot_claimed(seq),
                                       std::memory_order_seq_cst))
    return std::nullopt;
  std::optional<CommittedBatch> out = std::move(s.batch);
  s.batch.reset();
  count_.fetch_sub(1, std::memory_order_relaxed);
  // Freed before the caller advances next_seq, so the slot is reusable by
  // the time any writer can consider this seq stale.
  s.state.store(0, std::memory_order_seq_cst);
  return out;
}

void ExecOrder::ReorderRing::discard_upto(protocol::SeqNum upto) {
  for (Slot& s : slots_) {
    std::uint64_t cur = s.state.load(std::memory_order_seq_cst);
    if (cur == 0 || (cur & 1)) continue;  // free, or a writer owns it
    const protocol::SeqNum occupant = cur >> 1;
    if (occupant > upto) continue;
    if (!s.state.compare_exchange_strong(cur, slot_claimed(occupant),
                                         std::memory_order_seq_cst))
      continue;  // republished concurrently; the writer self-heals later
    s.batch.reset();
    count_.fetch_sub(1, std::memory_order_relaxed);
    s.state.store(0, std::memory_order_seq_cst);
  }
}

bool ExecOrder::ReorderRing::ready(protocol::SeqNum seq) const {
  return slots_[index(seq)].state.load(std::memory_order_seq_cst) ==
         slot_published(seq);
}

// --------------------------------------------------------------------------

ExecOrder::ExecOrder(const protocol::ProtocolConfig& protocol,
                     std::uint32_t num_pillars)
    : num_pillars_(std::max<std::uint32_t>(num_pillars, 1)),
      window_(protocol.window),
      checkpoint_interval_(protocol.checkpoint_interval),
      num_replicas_(protocol.num_replicas),
      ring_(protocol.window),
      watermarks_(new Watermark[num_pillars_]) {}

COP_HOT ExecOrder::Admission ExecOrder::admit(CommittedBatch&& batch) {
  const std::uint32_t np = num_pillars_;
  COP_INVARIANT(batch.seq != 0,
                "sequence number 0 is genesis and must never commit "
                "(pillar %u)",
                batch.pillar);
  // Paper §4.2.1: pillar p owns exactly the numbers c(p,i) = p + i*NP.
  // This partition is also what makes pillar-side admission single-writer
  // per ring slot: distinct pillars can never contend on a live slot.
  COP_INVARIANT(batch.pillar < np && batch.seq % np == batch.pillar,
                "seq %llu delivered by pillar %u breaks the c(p,i)=p+i*NP "
                "partition (NP=%u)",
                static_cast<unsigned long long>(batch.seq), batch.pillar, np);

  // seq_cst pairs with take()/advance(): any occupant below this snapshot
  // is no longer consumable and is safe to reclaim.
  const protocol::SeqNum frontier = next_seq_.load(std::memory_order_seq_cst);
  if (batch.seq < frontier) return {};  // stale redelivery

  // Paper §3.4/§4.2.2: commits may only run `window` past the stable
  // checkpoint. The bound is checked against the emitting core's stable
  // seq (carried in the batch), not this frontier: a replica that learns
  // stability from its peers' votes can legitimately buffer commits
  // further ahead than its own execution has reached.
  COP_INVARIANT(batch.seq <= batch.stable_basis + window_,
                "seq %llu exceeds the checkpoint-window drift bound: stable "
                "checkpoint %llu + window %llu",
                static_cast<unsigned long long>(batch.seq),
                static_cast<unsigned long long>(batch.stable_basis),
                static_cast<unsigned long long>(window_));

  const protocol::SeqNum seq = batch.seq;
  const std::uint32_t pillar = batch.pillar < np ? batch.pillar : 0;
  const std::uint64_t hash = batch_hash(batch);
  const std::uint64_t meta = batch_meta(batch);

  const auto res = ring_.publish(std::move(batch), frontier, hash, meta);
  switch (res.outcome) {
    case Outcome::kDuplicate:
      // A duplicate commit is tolerated, a conflicting one is a fork: two
      // different batches for one slot can not both enter the total order.
      if (res.fingerprint_valid) {
        COP_INVARIANT(res.stored_hash == hash && res.stored_meta == meta,
                      "conflicting commits for seq %llu: the total order "
                      "would fork or leave a hole",
                      static_cast<unsigned long long>(seq));
      }
      break;
    case Outcome::kDroppedSelf:
    case Outcome::kEvictedOther:
      slot_drops_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Outcome::kStale:
    case Outcome::kStored:
      break;
  }

  // Slice admission watermark: the max seq this pillar has admitted (even
  // when the ring dropped it — a dropped commit still needs re-fetching,
  // which is exactly what the watermark-driven gap poll arranges). Single
  // writer: only the owning pillar's thread stores it.
  std::atomic<protocol::SeqNum>& mark = watermarks_[pillar].seq;
  if (seq > mark.load(std::memory_order_relaxed))
    mark.store(seq, std::memory_order_release);

  // Wake handshake (Dekker): the slot publish above and this next_seq
  // load are both seq_cst, as are the consumer's next_seq store and slot
  // read — so either we observe the frontier and wake, or the consumer's
  // drain observes our publish. Waking only on the frontier edge is what
  // keeps the consumer's dequeue cost off the per-commit path.
  return {res.outcome, res.outcome != Outcome::kDroppedSelf &&
                           next_seq_.load(std::memory_order_seq_cst) == seq};
}

COP_HOT std::optional<CommittedBatch> ExecOrder::take() {
  return ring_.take(next_seq_.load(std::memory_order_relaxed));
}

COP_HOT void ExecOrder::advance() {
  // seq_cst pairs with the producers' publish/frontier-check handshake;
  // take() already freed the slot, so a writer that sees this new
  // frontier can immediately reuse it.
  next_seq_.store(next_seq_.load(std::memory_order_relaxed) + 1,
                  std::memory_order_seq_cst);
}

bool ExecOrder::install(protocol::SeqNum seq) {
  // Ring truncation races pillar writers: advance the frontier *first*
  // (seq_cst), then sweep. A writer that published concurrently and lost
  // the sweep's CAS left a below-frontier occupant, which any later
  // publish to that slot reclaims in place — the ring self-heals.
  next_seq_.store(seq + 1, std::memory_order_seq_cst);
  ring_.discard_upto(seq);
  return ring_.ready(seq + 1);
}

void ExecOrder::reset() {
  ring_.discard_upto(std::numeric_limits<protocol::SeqNum>::max());
  next_seq_.store(1, std::memory_order_seq_cst);
  for (std::uint32_t p = 0; p < num_pillars_; ++p)
    watermarks_[p].seq.store(0, std::memory_order_release);
}

protocol::SeqNum ExecOrder::highest_admitted() const {
  protocol::SeqNum target = 0;
  for (std::uint32_t p = 0; p < num_pillars_; ++p)
    target = std::max(target,
                      watermarks_[p].seq.load(std::memory_order_acquire));
  return target;
}

}  // namespace copbft::core
