// Property test for conflict-aware parallel execution: for any seeded
// workload, running the execution stage with a worker pool (any size)
// must be observationally identical to sequential execution — the same
// reply stream in the same order with the same results, the same state
// digest at every checkpoint boundary, and the same final service state.
//
// The workload mixes KvStore operations across shards (puts, gets,
// deletes, key reuse), garbage payloads (classified kGlobal — the barrier
// path), noop batches, and client request-id reuse (retransmissions,
// including ones that race in-flight originals). Seeds print on failure
// so every run reproduces.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "app/kv_store.hpp"
#include "common/rng.hpp"
#include "core/execution_stage.hpp"
#include "support/fake_transport.hpp"

namespace copbft::test {
namespace {

using namespace copbft::core;
using namespace copbft::protocol;

constexpr std::uint32_t kPillars = 2;
constexpr SeqNum kSeqs = 120;  // 12 checkpoint intervals, < ring capacity

/// Everything observable about one run, in a directly comparable shape.
struct RunRecord {
  /// (seq, client, request id, result bytes) per emitted reply, in
  /// emission order — fresh executions and cached retransmissions alike.
  std::vector<std::tuple<SeqNum, ClientId, RequestId, Bytes>> replies;
  /// (seq, composite checkpoint digest) per checkpoint, in order.
  std::vector<std::pair<SeqNum, std::string>> checkpoints;
  Bytes final_snapshot;
  std::string final_digest;
  ExecutionStats stats;
};

/// Batch contents depend only on the content seed and the sequence
/// number — identical across worker counts by construction.
CommittedBatch make_batch(std::uint64_t content_seed, SeqNum seq) {
  SplitMix64 sm(content_seed ^ (seq * 0x9e3779b97f4a7c15ULL));
  auto requests = std::make_shared<std::vector<Request>>();
  if (sm.next() % 8 != 0) {  // 1 in 8 batches is a no-op fill
    const std::size_t count = 1 + sm.next() % 3;
    for (std::size_t i = 0; i < count; ++i) {
      Request req;
      req.client = static_cast<ClientId>(1001 + sm.next() % 4);
      req.id = static_cast<RequestId>(1 + sm.next() % 64);
      if (sm.next() % 16 == 0) {
        // Undecodable payload: KvStore classifies it kGlobal, so this
        // request is a pool barrier (and executes to kBadRequest).
        req.payload = to_bytes("garbage");
      } else {
        const std::string key = "k" + std::to_string(sm.next() % 24);
        const std::uint64_t roll = sm.next() % 10;
        app::KvOp op;
        if (roll < 5) {
          op = {app::KvOpCode::kPut, key,
                to_bytes("v" + std::to_string(sm.next() % 100))};
        } else if (roll < 8) {
          op = {app::KvOpCode::kGet, key, {}};
        } else {
          op = {app::KvOpCode::kDelete, key, {}};
        }
        req.payload = op.encode();
      }
      requests->push_back(std::move(req));
    }
  }
  const SeqNum window = 40;
  const SeqNum basis = seq > window ? seq - window : 0;
  return CommittedBatch{seq, 0, std::move(requests), seq % kPillars, basis};
}

RunRecord run_workload(std::uint64_t content_seed, std::uint32_t exec_workers,
                       std::uint32_t kv_shards) {
  ReplicaRuntimeConfig config;
  config.num_pillars = kPillars;
  config.protocol.num_pillars = kPillars;
  config.protocol.checkpoint_interval = 10;
  config.protocol.window = 40;
  config.gap_timeout_us = 1'000'000;  // no fills: the stream has no gaps
  config.exec_workers = exec_workers;
  auto crypto = crypto::make_real_crypto(3);
  app::KvStore service(*crypto, kv_shards);
  FakeTransport transport;
  ExecutionStage stage(/*self=*/1, config, service, *crypto, transport);

  RunRecord record;
  std::mutex mutex;
  stage.set_reply_fn([&](ReplyTask& task) {
    std::lock_guard lock(mutex);
    record.replies.emplace_back(task.seq, task.client, task.request,
                                task.result);
    return true;
  });
  stage.set_snapshot_fn(
      [&](SeqNum seq, const crypto::Digest& digest, Bytes) {
        std::lock_guard lock(mutex);
        record.checkpoints.emplace_back(seq, digest.hex());
      });
  stage.start();

  for (SeqNum s = 1; s <= kSeqs; ++s)
    stage.admit(make_batch(content_seed, s));
  for (int spin = 0; spin < 5000 && stage.next_seq() <= kSeqs; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GT(stage.next_seq(), kSeqs) << "stage drained the whole stream";
  stage.stop();

  record.stats = stage.stats();
  record.final_snapshot = service.snapshot();
  record.final_digest = service.state_digest().hex();
  return record;
}

void expect_equivalent(const RunRecord& base, const RunRecord& run,
                       const std::string& label) {
  EXPECT_EQ(base.replies, run.replies)
      << label << ": reply stream must match sequential order and content";
  EXPECT_EQ(base.checkpoints, run.checkpoints)
      << label << ": every checkpoint digest must match";
  EXPECT_EQ(base.final_snapshot, run.final_snapshot) << label;
  EXPECT_EQ(base.final_digest, run.final_digest) << label;
  EXPECT_EQ(base.stats.requests_executed, run.stats.requests_executed)
      << label;
  EXPECT_EQ(base.stats.duplicates_suppressed, run.stats.duplicates_suppressed)
      << label;
  EXPECT_EQ(base.stats.replies_sent, run.stats.replies_sent) << label;
  EXPECT_EQ(base.stats.noops_executed, run.stats.noops_executed) << label;
  EXPECT_EQ(base.stats.checkpoints_triggered, run.stats.checkpoints_triggered)
      << label;
  EXPECT_EQ(base.stats.last_executed_seq, run.stats.last_executed_seq)
      << label;
}

TEST(ParallelExec, AnyWorkerCountMatchesSequentialExecution) {
  for (std::uint64_t content_seed : {101ULL, 202ULL, 303ULL}) {
    SCOPED_TRACE("content_seed=" + std::to_string(content_seed));
    const RunRecord baseline =
        run_workload(content_seed, /*exec_workers=*/0, /*kv_shards=*/16);

    // The baseline must be worth comparing against: the workload really
    // contains checkpoints, duplicates and meaningful replies.
    ASSERT_EQ(baseline.stats.last_executed_seq, kSeqs);
    EXPECT_EQ(baseline.stats.checkpoints_triggered, kSeqs / 10);
    EXPECT_GT(baseline.stats.duplicates_suppressed, 0u);
    EXPECT_EQ(baseline.stats.requests_parallel, 0u);
    EXPECT_EQ(baseline.stats.exec_barriers, 0u) << "no pool, no barriers";

    for (std::uint32_t workers : {1u, 2u, 4u}) {
      const RunRecord run =
          run_workload(content_seed, workers, /*kv_shards=*/16);
      expect_equivalent(baseline, run,
                        "workers=" + std::to_string(workers));
      // The pool must actually be exercised, including the barrier path.
      EXPECT_GT(run.stats.requests_parallel, 0u);
      EXPECT_GT(run.stats.exec_barriers, 0u)
          << "the workload's garbage payloads must hit the barrier path";
    }
  }
}

TEST(ParallelExec, ShardCountIsExecutionDetailNotState) {
  // Same workload, different KvStore shard counts (and so different
  // dispatch patterns): identical observable behaviour.
  const RunRecord base = run_workload(404, /*exec_workers=*/2, 16);
  const RunRecord one_shard = run_workload(404, /*exec_workers=*/2, 1);
  const RunRecord odd_shards = run_workload(404, /*exec_workers=*/3, 5);
  expect_equivalent(base, one_shard, "kv_shards=1");
  expect_equivalent(base, odd_shards, "kv_shards=5/workers=3");
  // One shard serializes everything through one worker — still correct.
  EXPECT_GT(one_shard.stats.requests_parallel, 0u);
}

}  // namespace
}  // namespace copbft::test
