#include "core/execution_stage.hpp"

#include <algorithm>
#include <optional>

#include "common/invariant.hpp"
#include "common/hot.hpp"
#include "common/logging.hpp"
#include "common/time.hpp"
#include "common/trace.hpp"
#include "core/checkpoint_artifact.hpp"
#include "core/outbound.hpp"
#include "protocol/wire.hpp"

namespace copbft::core {
namespace {

constexpr std::size_t kReplyCachePerClient = 32;
constexpr std::uint64_t kDedupWindow = 4096;

std::string exec_metric(ReplicaId self, const char* name) {
  return "replica" + std::to_string(self) + ".exec." + name;
}

}  // namespace

ExecutionStage::ExecutionStage(ReplicaId self,
                               const ReplicaRuntimeConfig& config,
                               app::Service& service,
                               const crypto::CryptoProvider& crypto,
                               transport::Transport& transport)
    : self_(self),
      config_(config),
      service_(service),
      crypto_(crypto),
      transport_(transport),
      order_(config.protocol, config.num_pillars),
      lanes_(new PillarLane[order_.num_pillars()]),
      ckpt_mail_(new CkptMailbox[order_.num_pillars()]),
      install_queue_(config.queue_capacity),
      m_reorder_depth_(metrics::MetricsRegistry::global().gauge(
          exec_metric(self, "reorder_depth"))),
      m_drift_(
          metrics::MetricsRegistry::global().gauge(exec_metric(self, "drift"))),
      m_batches_executed_(metrics::MetricsRegistry::global().counter(
          exec_metric(self, "batches_executed"))),
      m_requests_executed_(metrics::MetricsRegistry::global().counter(
          exec_metric(self, "requests_executed"))),
      m_replies_sent_(metrics::MetricsRegistry::global().counter(
          exec_metric(self, "replies_sent"))),
      m_execute_us_(metrics::MetricsRegistry::global().histogram(
          exec_metric(self, "execute_us"))) {
  if (config.exec_workers > 0)
    pool_ = std::make_unique<ExecPool>(config.exec_workers, service_);
  // Commit admission no longer queues; the instrumented queue is the
  // (rare) state-transfer install lane.
  install_queue_.instrument(
      metrics::MetricsRegistry::global().gauge(exec_metric(self, "queue_depth")),
      metrics::MetricsRegistry::global().counter(
          exec_metric(self, "queue_blocked_pushes")));
}

void ExecutionStage::start() {
  if (pool_) pool_->start();
  thread_ = named_thread("exec", [this] { run(); });
}

void ExecutionStage::stop() {
  stop_requested_.store(true, std::memory_order_release);
  install_queue_.close();
  wake_exec();
  if (thread_.joinable()) thread_.join();
  // The stage thread drained pending_ before exiting (apply_ready always
  // leaves the pool quiescent), so the workers stop idle.
  if (pool_) pool_->stop();
}

bool ExecutionStage::submit_install(InstallState install) {
  const bool ok = install_queue_.push(std::move(install));
  wake_exec();
  return ok;
}

ExecutionStats ExecutionStage::stats() const {
  ExecutionStats out;
  // Acquire loads pairing with the stage thread's release stores. The
  // progress counters are read first: an observer that sees a request
  // counted is then guaranteed to also see everything counted before it
  // (e.g. the matching reply omission — tests sum both).
  out.requests_executed = n_requests_executed_.get();
  out.last_executed_seq = n_last_executed_seq_.get();
  out.requests_parallel = n_requests_parallel_.get();
  out.exec_barriers = n_exec_barriers_.get();
  out.batches_executed = n_batches_executed_.get();
  out.noops_executed = n_noops_executed_.get();
  out.duplicates_suppressed = n_duplicates_suppressed_.get();
  out.replies_sent = n_replies_sent_.get();
  out.replies_offloaded = n_replies_offloaded_.get();
  out.replies_omitted = n_replies_omitted_.get();
  out.checkpoints_triggered = n_checkpoints_triggered_.get();
  out.gap_fills_requested = n_gap_fills_requested_.get();
  out.reorder_slot_drops = order_.slot_drops();
  out.state_installs = n_state_installs_.get();
  out.installs_rejected = n_installs_rejected_.get();
  out.installed_seq = n_installed_seq_.get();
  return out;
}

void ExecutionStage::wake_exec() {
  {
    MutexLock lock(wake_mutex_);
    wake_pending_ = true;
  }
  wake_cv_.notify_one();
}

void ExecutionStage::run() {
  // The wait below is a fallback heartbeat, not the main wake path:
  // pillars notify whenever they publish the execution frontier. It still
  // bounds the stage's reaction to events with no publish edge (e.g. an
  // install that unblocks an already-buffered frontier on a quiet system).
  const auto poll = std::chrono::microseconds(
      std::max<std::uint64_t>(config_.gap_timeout_us / 2, 500));
  while (true) {
    while (auto install = install_queue_.try_pop())
      handle_install(std::move(*install));
    apply_ready();
    if (stop_requested_.load(std::memory_order_acquire) &&
        install_queue_.empty())
      return;
    CvLock lock(wake_mutex_);
    if (!wake_pending_) wake_cv_.wait_for(lock, poll);
    wake_pending_ = false;
  }
}

COP_HOT void ExecutionStage::admit(CommittedBatch batch) {
  const protocol::SeqNum seq = batch.seq;
  const auto view = batch.view;
  const std::uint32_t pillar = batch.pillar;
  const auto drift = static_cast<std::int64_t>(seq - batch.stable_basis);

  const ExecOrder::Admission res = order_.admit(std::move(batch));
  switch (res.outcome) {
    case ExecOrder::Outcome::kStale:
      return;
    case ExecOrder::Outcome::kStored:
    case ExecOrder::Outcome::kEvictedOther:
      trace::point(trace::Point::kReorderEnter, self_, pillar, seq, view,
                   /*client=*/0, /*request=*/0);
      m_reorder_depth_.set(static_cast<std::int64_t>(order_.size()));
      break;
    case ExecOrder::Outcome::kDuplicate:
    case ExecOrder::Outcome::kDroppedSelf:
      break;
  }
  m_drift_.set(drift);
  if (res.at_frontier) wake_exec();
}

void ExecutionStage::poll_pillar(std::uint32_t pillar, std::uint64_t now_us,
                                 std::vector<PillarCommand>& out) {
  if (pillar >= order_.num_pillars()) return;

  // Checkpoint rounds this pillar owns (paper §4.2.2): drained here and
  // fed to the pillar's own handle_command by the caller.
  {
    CkptMailbox& mail = ckpt_mail_[pillar];
    MutexLock lock(mail.mutex);
    for (const CkptSignal& sig : mail.pending)
      out.push_back(StartCheckpoint{sig.seq, sig.digest});
    mail.pending.clear();
  }

  // Slice-local gap tracking: the execution frontier is stalled when it
  // stops moving while some pillar has admitted past it. Each pillar runs
  // its own timer and requests fills for its own slice only.
  PillarLane& lane = lanes_[pillar];
  const protocol::SeqNum frontier = order_.next_seq();
  if (frontier != lane.last_frontier) {
    lane.last_frontier = frontier;
    lane.stall_since_us = 0;
    return;
  }
  const protocol::SeqNum target = order_.highest_admitted();
  if (target < frontier) {
    // Nothing admitted at or beyond the frontier: no gap. At == the
    // frontier itself was admitted: either the stage is about to run it
    // (the frontier moves and the timer resets) or the ring dropped it,
    // which only a redelivery after the stall timeout recovers.
    lane.stall_since_us = 0;
    return;
  }
  if (lane.stall_since_us == 0) {
    lane.stall_since_us = now_us;
    return;
  }
  if (now_us - lane.stall_since_us < config_.gap_timeout_us) return;
  lane.stall_since_us = now_us;
  n_gap_fills_requested_.add();
  out.push_back(FillGap{target, frontier});
}

COP_HOT void ExecutionStage::apply_ready() {
  while (std::optional<CommittedBatch> batch = order_.take()) {
    {
      metrics::ScopedTimer timer(m_execute_us_);
      execute_batch(*batch);
    }
    m_reorder_depth_.set(static_cast<std::int64_t>(order_.size()));
    n_last_executed_seq_.set(batch->seq);
    maybe_checkpoint(batch->seq);
    order_.advance();
  }
  // Quiescent before parking (or stopping): every dispatched request is
  // retired and its reply emitted, so outside a ready streak the parallel
  // stage is observationally indistinguishable from the sequential one.
  drain_pool();
}

COP_HOT void ExecutionStage::execute_batch(const CommittedBatch& batch) {
  m_batches_executed_.add();
  n_batches_executed_.add();
  if (!batch.requests || batch.requests->empty()) {
    n_noops_executed_.add();
    return;
  }
  const auto& requests = *batch.requests;
  for (std::uint32_t i = 0; i < requests.size(); ++i) {
    // The linking event: ties (client, request) to the sequence number the
    // protocol-phase events are stamped with.
    trace::point(trace::Point::kExecute, self_, batch.pillar, batch.seq,
                 batch.view, requests[i].client, requests[i].id);
    execute_request(requests[i], batch, i);
  }
}

bool ExecutionStage::already_executed(ClientState& state,
                                      protocol::RequestId id) const {
  if (state.max_done >= kDedupWindow && id <= state.max_done - kDedupWindow)
    return true;  // far below the window: long done
  return state.done.contains(id);
}

void ExecutionStage::record_executed(ClientState& state,
                                     protocol::RequestId id) {
  state.done.insert(id);
  if (id > state.max_done) state.max_done = id;
  // Prune entries that fell below the dedup window.
  if (state.done.size() > 2 * kDedupWindow) {
    std::erase_if(state.done, [&](protocol::RequestId done_id) {
      return state.max_done >= kDedupWindow &&
             done_id <= state.max_done - kDedupWindow;
    });
  }
}

COP_HOT void ExecutionStage::execute_request(
    const protocol::Request& request,
                                     const CommittedBatch& batch,
                                     std::uint32_t index) {
  ClientState& state = clients_[request.client];
  if (already_executed(state, request.id)) {
    n_duplicates_suppressed_.add();
    // Retransmission of an executed request: resend the cached reply (the
    // raw ordered result; post_process ran when it was first sent, and a
    // retransmission skips it — null `requests` signals that downstream).
    auto cached = state.replies.find(request.id);
    if (cached == state.replies.end()) return;
    if (cached->second.pending_ticket != 0) {
      // The original is dispatched but not yet retired (the in-flight
      // retransmission race): force in-order retirement up to it, so the
      // resend carries the executed result and the original (pillar, seq)
      // stamp — never a second, differently-stamped reply. Re-find after
      // retiring: retirement inserts nothing, but stay rehash-safe.
      retire_until(cached->second.pending_ticket);
      cached = state.replies.find(request.id);
      if (cached == state.replies.end()) return;
    }
    ReplyTask task;
    task.client = request.client;
    task.request = request.id;
    task.view = batch.view;
    task.seq = cached->second.seq;
    task.pillar = order_.reply_pillar(cached->second.seq);
    task.result = cached->second.result;  // the cache keeps its entry
    if (pending_.empty()) {
      emit_reply(std::move(task));
    } else {
      // Keep the reply stream in total order: earlier requests are still
      // awaiting retirement, so the resend queues behind them instead of
      // overtaking.
      PendingRetire p;
      p.ticket = next_ticket_++;
      p.resend = true;
      p.task = std::move(task);
      pending_.push_back(std::move(p));
    }
    return;
  }

  if (pool_) {
    const app::AccessClass access = service_.classify(request);
    if (access.scope == app::AccessClass::Scope::kShard) {
      dispatch_request(request, batch, index, access.shard);
      return;
    }
    // kGlobal: barrier — the request may touch anything, so nothing may
    // be in flight while it runs.
    n_exec_barriers_.add();
    drain_pool();
  }

  Bytes result = service_.execute(request);
  m_requests_executed_.add();
  record_executed(state, request.id);
  finish_request(state, request, batch, index, std::move(result));
}

COP_HOT void ExecutionStage::dispatch_request(const protocol::Request& request,
                                              const CommittedBatch& batch,
                                              std::uint32_t index,
                                              std::uint32_t shard) {
  const std::uint32_t worker = ExecOrder::worker_of(shard, pool_->workers());
  // The stage is the only party that frees ring slots (by retiring), so a
  // full ring is resolved here, never by spinning inside the pool.
  while (!pool_->can_dispatch(worker)) retire_front();

  ClientState& state = clients_[request.client];
  // Dedup and cache placement happen at dispatch — this request's
  // total-order position — exactly where sequential execution would do
  // them. The cache entry stays pending until retirement fills it.
  record_executed(state, request.id);
  const std::uint64_t ticket = next_ticket_++;
  if (state.replies
          .emplace(request.id, CachedReply{batch.seq, Bytes(), ticket})
          .second) {
    state.reply_order.push_back(request.id);
    if (state.reply_order.size() > kReplyCachePerClient) {
      state.replies.erase(state.reply_order.front());
      state.reply_order.pop_front();
    }
  }

  PendingRetire p;
  p.ticket = ticket;
  p.worker = worker;
  p.slot = pool_->dispatch(worker, &(*batch.requests)[index]);
  p.omit = order_.omits_reply(config_.reply_mode, self_, request.key());
  p.task.client = request.client;
  p.task.request = request.id;
  p.task.view = batch.view;
  p.task.pillar = batch.pillar;
  p.task.seq = batch.seq;
  p.task.requests = batch.requests;
  p.task.index = index;
  pending_.push_back(std::move(p));
}

void ExecutionStage::finish_request(ClientState& state,
                                    const protocol::Request& request,
                                    const CommittedBatch& batch,
                                    std::uint32_t index, Bytes result) {
  // The cache stores the *raw* ordered result for every request: it is
  // replicated state (part of the checkpoint digest), so it must not
  // depend on this replica's omit role or on post_process decoration.
  if (state.replies.emplace(request.id, CachedReply{batch.seq, result})
          .second) {
    state.reply_order.push_back(request.id);
    if (state.reply_order.size() > kReplyCachePerClient) {
      state.replies.erase(state.reply_order.front());
      state.reply_order.pop_front();
    }
  }

  const bool omit =
      order_.omits_reply(config_.reply_mode, self_, request.key());
  // The omission is counted before requests_executed's release store, so
  // an observer that sees the request counted also sees the omission.
  if (omit) n_replies_omitted_.add();
  n_requests_executed_.add();
  if (omit) return;

  ReplyTask task;
  task.client = request.client;
  task.request = request.id;
  task.view = batch.view;
  task.pillar = batch.pillar;
  task.seq = batch.seq;
  task.result = std::move(result);
  task.requests = batch.requests;
  task.index = index;
  emit_reply(std::move(task));
}

COP_HOT void ExecutionStage::retire_front() {
  PendingRetire p = std::move(pending_.front());
  pending_.pop_front();
  if (p.resend) {
    emit_reply(std::move(p.task));
    return;
  }
  Bytes result = pool_->retire(p.worker, p.slot);
  m_requests_executed_.add();
  n_requests_parallel_.add();

  // Fill the pending cache entry (unless a busy client already evicted
  // it — sequential execution would have evicted it identically).
  auto client = clients_.find(p.task.client);
  if (client != clients_.end()) {
    auto cached = client->second.replies.find(p.task.request);
    if (cached != client->second.replies.end() &&
        cached->second.pending_ticket == p.ticket) {
      cached->second.result = result;
      cached->second.pending_ticket = 0;
    }
  }

  if (p.omit) n_replies_omitted_.add();
  n_requests_executed_.add();
  if (p.omit) return;
  p.task.result = std::move(result);
  emit_reply(std::move(p.task));
}

void ExecutionStage::retire_until(std::uint64_t ticket) {
  while (!pending_.empty() && pending_.front().ticket <= ticket)
    retire_front();
}

void ExecutionStage::drain_pool() {
  while (!pending_.empty()) retire_front();
}

COP_HOT void ExecutionStage::emit_reply(ReplyTask task) {
  // Counted at emission — offloaded or inline — so exec.replies_sent
  // covers every reply exactly once wherever it is sealed.
  m_replies_sent_.add();
  n_replies_sent_.add();
  // Offloaded post-execution (paper §4.3.2): the originating pillar runs
  // post_process, seals and sends, in parallel with this stage.
  if (reply_fn_ && reply_fn_(task)) {
    n_replies_offloaded_.add();
    return;
  }
  // Inline fallback: single-logic baselines (no ReplyFn installed) and the
  // overload/shutdown path (the pillar's queue is full or closed).
  Bytes result = task.requests
                     ? service_.post_process((*task.requests)[task.index],
                                             std::move(task.result))
                     : std::move(task.result);
  protocol::Message msg = protocol::Reply{
      task.view, task.client, task.request, self_, std::move(result), {}};
  Bytes frame = seal_message(msg, crypto_, protocol::replica_node(self_),
                             {protocol::client_node(task.client)});
  trace::point(trace::Point::kReplyEgress, self_, task.pillar, task.seq,
               task.view, task.client, task.request);
  transport_.send(protocol::client_node(task.client), /*lane=*/0,
                  std::move(frame));
}

void ExecutionStage::maybe_checkpoint(protocol::SeqNum seq) {
  if (!order_.checkpoint_boundary(seq)) return;
  // Quiescent point for the hash: state_digest()/snapshot() may only run
  // with no execute() in flight, so everything dispatched before this
  // boundary retires first (which also clears every pending_ticket).
  drain_pool();
  COP_INVARIANT(pending_.empty(),
                "checkpoint at seq %llu with %zu unretired executions",
                static_cast<unsigned long long>(seq), pending_.size());
  n_checkpoints_triggered_.add();
  // The agreed checkpoint digest covers the service state *and* the
  // exactly-once client bookkeeping: both are part of what a transferred
  // replica must resume with (see checkpoint_artifact.hpp).
  Bytes client_table = encode_client_table();
  const crypto::Digest service_digest = service_.state_digest();
  const crypto::Digest digest = CheckpointArtifact::checkpoint_digest(
      crypto_, client_table, service_digest);
  if (snapshot_fn_) {
    CheckpointArtifact artifact{std::move(client_table), service_digest,
                                service_.snapshot()};
    snapshot_fn_(seq, digest, artifact.encode());
  }
  // Round-robin checkpoint ownership across pillars (paper §4.2.2): mail
  // the frontier-crossing signal to the owner; its next poll_pillar()
  // turns it into a StartCheckpoint on the owning pillar's own thread.
  CkptMailbox& mail = ckpt_mail_[order_.checkpoint_owner(seq)];
  MutexLock lock(mail.mutex);
  mail.pending.push_back(CkptSignal{seq, digest});
}

// --------------------------------------------------------------------------
// state transfer: checkpoint install + client-table codec

Bytes ExecutionStage::encode_client_table() const {
  std::vector<protocol::ClientId> ids;
  ids.reserve(clients_.size());
  // COPLINT(allow:det-unordered-iter: only ids are collected and sorted below; the encoding never sees map order)
  for (const auto& [id, state] : clients_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());

  Bytes out;
  protocol::WireWriter w(out);
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (protocol::ClientId id : ids) {
    const ClientState& state = clients_.at(id);
    w.u32(id);
    w.u64(state.max_done);
    std::vector<protocol::RequestId> done(state.done.begin(),
                                          state.done.end());
    std::sort(done.begin(), done.end());
    w.u32(static_cast<std::uint32_t>(done.size()));
    for (protocol::RequestId rid : done) w.u64(rid);
    // Replies in eviction order so a restored replica evicts identically.
    w.u32(static_cast<std::uint32_t>(state.reply_order.size()));
    for (protocol::RequestId rid : state.reply_order) {
      const CachedReply& cached = state.replies.at(rid);
      w.u64(rid);
      w.u64(cached.seq);
      w.bytes(cached.result);
    }
  }
  return out;
}

bool ExecutionStage::decode_client_table(
    ByteSpan table,
    std::unordered_map<protocol::ClientId, ClientState>& out) const {
  protocol::WireReader r(table);
  std::uint32_t n_clients = r.u32();
  // Each client record occupies >= 20 bytes; bound allocations.
  if (!r.ok() || r.remaining() / 20 < n_clients) return false;
  out.reserve(n_clients);
  for (std::uint32_t i = 0; i < n_clients; ++i) {
    protocol::ClientId id = r.u32();
    ClientState state;
    state.max_done = r.u64();
    std::uint32_t n_done = r.u32();
    if (!r.ok() || r.remaining() / 8 < n_done) return false;
    state.done.reserve(n_done);
    for (std::uint32_t d = 0; d < n_done; ++d) state.done.insert(r.u64());
    std::uint32_t n_replies = r.u32();
    // Each cached reply occupies >= 20 bytes (id + seq + length prefix).
    if (!r.ok() || r.remaining() / 20 < n_replies) return false;
    for (std::uint32_t q = 0; q < n_replies && r.ok(); ++q) {
      protocol::RequestId rid = r.u64();
      CachedReply cached;
      cached.seq = r.u64();
      cached.result = r.bytes();
      if (state.replies.emplace(rid, std::move(cached)).second)
        state.reply_order.push_back(rid);
    }
    if (!r.ok()) return false;
    if (!out.emplace(id, std::move(state)).second) return false;
  }
  return r.at_end();
}

void ExecutionStage::handle_install(InstallState install) {
  // Installs replace service state wholesale (restore() requires a
  // quiescent service) and rewrite the client table the pending entries
  // would retire into — finish all in-flight execution first.
  drain_pool();
  const auto reject = [&] {
    n_installs_rejected_.add();
    if (install.done) install.done(false);
  };

  // Checkpoints exist only at interval boundaries; a misaligned install
  // means the transfer path and the protocol disagree about the windows.
  const std::uint64_t interval = config_.protocol.checkpoint_interval;
  COP_INVARIANT(install.seq != 0 && install.seq % interval == 0,
                "state install at seq %llu, not a multiple of the "
                "checkpoint interval %llu",
                static_cast<unsigned long long>(install.seq),
                static_cast<unsigned long long>(interval));
  // Windows never regress: no install may move the frontier below a
  // checkpoint this stage already installed (execution below an installed
  // checkpoint would re-apply history onto newer state).
  COP_INVARIANT(install.seq >= installed_floor_,
                "state install at seq %llu regresses below the installed "
                "checkpoint %llu",
                static_cast<unsigned long long>(install.seq),
                static_cast<unsigned long long>(installed_floor_));
  if (install.seq == 0 || install.seq % interval != 0 ||
      install.seq < installed_floor_)
    return reject();  // a continuing invariant handler lands here

  // Execution already passed this checkpoint (the transfer raced normal
  // progress): nothing to do, and not a failure.
  if (install.seq < order_.next_seq()) {
    if (install.done) install.done(true);
    return;
  }

  auto artifact = CheckpointArtifact::decode(install.artifact);
  if (!artifact) return reject();
  if (artifact->composite_digest(crypto_) != install.digest) return reject();
  // Parse the client table into scratch state before touching anything, so
  // a torn install is impossible; the service restore is atomic itself.
  // COPLINT(allow:det-unordered-member: scratch table mirroring clients_; filled by keyed insert and moved, never iterated)
  std::unordered_map<protocol::ClientId, ClientState> clients;
  if (!decode_client_table(artifact->client_table, clients)) return reject();
  if (!service_.restore(artifact->service_snapshot, artifact->service_digest))
    return reject();

  clients_ = std::move(clients);
  // A buffered new frontier needs no wake: apply_ready runs next.
  order_.install(install.seq);
  m_reorder_depth_.set(static_cast<std::int64_t>(order_.size()));
  installed_floor_ = install.seq;
  n_state_installs_.add();
  n_installed_seq_.set(install.seq);
  // The state now reflects everything through install.seq.
  if (n_last_executed_seq_.get() < install.seq)
    n_last_executed_seq_.set(install.seq);
  if (install.done) install.done(true);
}

}  // namespace copbft::core
