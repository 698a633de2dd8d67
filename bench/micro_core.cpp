// Microbenchmarks of PbftCore's per-event bookkeeping.
//
// A core holds every instance from its stable checkpoint up to the head of
// the log. Between two checkpoints most of them are delivered and only
// wait for truncation: with checkpoint interval 1000 and two pillars, a
// pillar's core holds up to 500-1000 of them. The argument of each
// benchmark is that number of delivered, untruncated instances. The
// per-tick and per-request paths should not depend on it.
//
//   BM_CoreTick/N       one timer tick of the leader with N delivered and
//                       8 in-flight instances (perfbench's
//                       max_active_proposals); nothing is due, so it
//                       measures the scan alone.
//   BM_CoreOnRequest/N  one request ordered end to end by the leader:
//                       on_request, then two PREPAREs and two COMMITs.
//                       Checkpoints truncate the log so that N to N+100
//                       delivered instances stay in it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "crypto/provider.hpp"
#include "protocol/pbft_core.hpp"

namespace {

using namespace copbft;
using namespace copbft::protocol;

constexpr std::uint64_t kNow = 1'000'000;
constexpr SeqNum kInterval = 100;

/// Replica 0 of four, leader of view 0, ordering the whole sequence space.
/// Peers are simulated by feeding their (pre-verified) votes directly.
class LeaderCore {
 public:
  explicit LeaderCore(std::uint64_t delivered)
      : crypto_(crypto::make_null_crypto()),
        core_(config_for(delivered), 0, SeqSlice{0, 1}, verifier_, *crypto_) {}

  /// Proposes one request; returns its pre-prepare digest.
  crypto::Digest propose() {
    Request req{1001, ++next_request_, 0, Bytes(16, Byte{0x5a}), {}};
    core_.on_request(std::move(req), kNow, /*verified=*/true);
    crypto::Digest digest;
    for (Effect& e : core_.take_effects())
      if (auto* bc = std::get_if<Broadcast>(&e))
        if (auto* pp = std::get_if<PrePrepare>(&bc->msg)) digest = pp->digest;
    return digest;
  }

  /// Orders one request end to end; returns its sequence number.
  SeqNum order_one() {
    const crypto::Digest digest = propose();
    const SeqNum seq = ++next_seq_;
    for (ReplicaId r : {ReplicaId{1}, ReplicaId{2}})
      vote(Prepare{0, seq, digest, r, {}});
    for (ReplicaId r : {ReplicaId{1}, ReplicaId{2}})
      vote(Commit{0, seq, digest, r, {}});
    core_.take_effects();
    return seq;
  }

  /// Leaves `in_flight` proposals without votes.
  void propose_in_flight(int in_flight) {
    for (int i = 0; i < in_flight; ++i) {
      propose();
      ++next_seq_;
    }
  }

  PbftCore& core() { return core_; }

 private:
  static ProtocolConfig config_for(std::uint64_t delivered) {
    ProtocolConfig cfg;
    cfg.num_replicas = 4;
    cfg.max_faulty = 1;
    cfg.batching = false;
    cfg.checkpoint_interval = kInterval;
    cfg.window = delivered + 2 * kInterval;
    return cfg;
  }

  void vote(Message msg) {
    IncomingMessage im;
    im.msg = std::move(msg);
    im.pre_verified = true;
    core_.on_message(std::move(im), kNow);
  }

  std::unique_ptr<crypto::CryptoProvider> crypto_;
  AcceptAllVerifier verifier_;
  PbftCore core_;
  RequestId next_request_ = 0;
  SeqNum next_seq_ = 0;
};

void BM_CoreTick(benchmark::State& state) {
  const auto delivered = static_cast<std::uint64_t>(state.range(0));
  LeaderCore leader(delivered);
  for (std::uint64_t i = 0; i < delivered; ++i) leader.order_one();
  leader.propose_in_flight(8);
  for (auto _ : state) {
    leader.core().tick(kNow);
    benchmark::DoNotOptimize(leader.core().effects().size());
  }
  state.counters["open_instances"] =
      static_cast<double>(leader.core().open_instances());
}
BENCHMARK(BM_CoreTick)->Arg(0)->Arg(500)->Arg(1000);

void BM_CoreOnRequest(benchmark::State& state) {
  const auto delivered = static_cast<std::uint64_t>(state.range(0));
  // Checkpoints land N (rounded up to the interval) below the head.
  const SeqNum lag = (delivered + kInterval - 1) / kInterval * kInterval;
  LeaderCore leader(delivered);
  for (std::uint64_t i = 0; i < delivered; ++i) leader.order_one();
  for (auto _ : state) {
    const SeqNum seq = leader.order_one();
    if (seq % kInterval == 0 && seq > lag) {
      state.PauseTiming();
      leader.core().note_checkpoint_stable(seq - lag, crypto::Digest{});
      state.ResumeTiming();
    }
  }
  state.counters["open_instances"] =
      static_cast<double>(leader.core().open_instances());
}
BENCHMARK(BM_CoreOnRequest)->Arg(0)->Arg(1000);

}  // namespace

BENCHMARK_MAIN();
