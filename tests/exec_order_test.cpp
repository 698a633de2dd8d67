// core::ExecOrder against a reference model: the std::map reorder buffer
// and frontier the simulator's execution model used before it drove
// ExecOrder. Seeded, single-threaded random walks over admissions (in
// the window, duplicate, stale), drains, installs and resets must agree
// with the model step by step; the routing rules must agree with the
// formulas they replaced.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "app/null_service.hpp"
#include "common/rng.hpp"
#include "core/exec_order.hpp"

namespace copbft::test {
namespace {

using core::CommittedBatch;
using core::ExecOrder;
using protocol::SeqNum;

using Requests = std::shared_ptr<const std::vector<protocol::Request>>;

constexpr SeqNum kInterval = 10;
constexpr SeqNum kWindow = 40;

protocol::ProtocolConfig order_config(std::uint32_t pillars) {
  protocol::ProtocolConfig cfg;
  cfg.num_replicas = 4;
  cfg.checkpoint_interval = kInterval;
  cfg.window = kWindow;
  cfg.num_pillars = pillars;
  return cfg;
}

/// Batch contents are a function of seq (every seventh a no-op), so a
/// redelivery carries the same fingerprint as the first commit.
Requests contents(SeqNum seq) {
  if (seq % 7 == 0) return nullptr;
  auto requests = std::make_shared<std::vector<protocol::Request>>();
  for (SeqNum i = 0; i < 1 + seq % 3; ++i) {
    protocol::Request r;
    r.client = 1000 + static_cast<protocol::ClientId>(seq % 5);
    r.id = seq * 4 + i;
    requests->push_back(std::move(r));
  }
  return requests;
}

/// The old simulator's reorder buffer: an unbounded ordered map, first
/// commit wins, nothing below the frontier.
struct MapModel {
  std::uint32_t pillars;
  SeqNum next_seq = 1;
  std::map<SeqNum, Requests> buffer;
  std::vector<SeqNum> watermark;

  explicit MapModel(std::uint32_t np) : pillars(np), watermark(np, 0) {}

  void admit(SeqNum seq, const Requests& requests) {
    if (seq < next_seq) return;
    buffer.emplace(seq, requests);
    watermark[seq % pillars] = std::max(watermark[seq % pillars], seq);
  }
  std::optional<Requests> take() {
    auto it = buffer.find(next_seq);
    if (it == buffer.end()) return std::nullopt;
    Requests out = it->second;
    buffer.erase(it);
    return out;
  }
  bool install(SeqNum stable) {
    buffer.erase(buffer.begin(), buffer.upper_bound(stable));
    next_seq = stable + 1;
    return buffer.contains(next_seq);
  }
  void reset() {
    buffer.clear();
    next_seq = 1;
    watermark.assign(pillars, 0);
  }
  SeqNum highest_admitted() const {
    return *std::max_element(watermark.begin(), watermark.end());
  }
  /// The stable checkpoint a correct core could hold at this frontier.
  SeqNum stable_basis() const { return (next_seq - 1) / kInterval * kInterval; }
};

void expect_same(const ExecOrder& order, const MapModel& model, int step) {
  ASSERT_EQ(order.next_seq(), model.next_seq) << "step " << step;
  ASSERT_EQ(order.size(), model.buffer.size()) << "step " << step;
  ASSERT_EQ(order.empty(), model.buffer.empty()) << "step " << step;
  ASSERT_EQ(order.highest_admitted(), model.highest_admitted())
      << "step " << step;
  // The simulator's gap poll filled up to the buffer's largest key.
  if (!model.buffer.empty()) {
    ASSERT_EQ(order.highest_admitted(), model.buffer.rbegin()->first)
        << "step " << step;
  }
}

void random_walk(std::uint32_t pillars, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message() << "NP=" << pillars << " seed=" << seed);
  ExecOrder order(order_config(pillars), pillars);
  MapModel model(pillars);
  Rng rng(seed);

  const auto admit = [&](SeqNum seq, SeqNum basis) {
    const Requests requests = contents(seq);
    const ExecOrder::Admission a = order.admit(CommittedBatch{
        seq, 0, requests, static_cast<std::uint32_t>(seq % pillars), basis});
    const bool stale = seq < model.next_seq;
    const bool duplicate = !stale && model.buffer.contains(seq);
    model.admit(seq, requests);
    EXPECT_EQ(a.outcome, stale       ? ExecOrder::Outcome::kStale
                         : duplicate ? ExecOrder::Outcome::kDuplicate
                                     : ExecOrder::Outcome::kStored);
    EXPECT_EQ(a.at_frontier, seq == model.next_seq);
  };

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t roll = rng.below(100);
    const SeqNum basis = model.stable_basis();
    if (roll < 50) {
      // Out-of-order commit anywhere the drift bound allows.
      const SeqNum hi = basis + kWindow;
      admit(model.next_seq + rng.below(hi - model.next_seq + 1), basis);
    } else if (roll < 60 && !model.buffer.empty()) {
      // Redelivery of a buffered commit.
      auto it = model.buffer.begin();
      std::advance(it, static_cast<long>(rng.below(model.buffer.size())));
      admit(it->first, basis);
    } else if (roll < 70 && model.next_seq > 1) {
      // Late redelivery below the frontier.
      admit(1 + rng.below(model.next_seq - 1), basis);
    } else if (roll < 92) {
      // Drain a ready streak (sometimes only part of it).
      std::uint64_t budget = 1 + rng.below(kWindow);
      while (budget-- > 0) {
        const std::optional<Requests> expected = model.take();
        std::optional<CommittedBatch> got = order.take();
        ASSERT_EQ(got.has_value(), expected.has_value()) << "step " << step;
        if (!got) break;
        EXPECT_EQ(got->seq, model.next_seq);
        EXPECT_EQ(got->requests, *expected) << "first commit wins";
        order.advance();
        ++model.next_seq;
      }
    } else if (roll < 99) {
      // Checkpoint install at an interval boundary near the frontier; the
      // hosts skip one the frontier already passed.
      const SeqNum stable =
          (model.next_seq + rng.below(kWindow)) / kInterval * kInterval;
      if (stable != 0 && stable >= model.next_seq) {
        const bool expected = model.install(stable);
        EXPECT_EQ(order.install(stable), expected) << "step " << step;
      }
    } else {
      order.reset();
      model.reset();
    }
    expect_same(order, model, step);
  }
  EXPECT_EQ(order.slot_drops(), 0u);
}

TEST(ExecOrder, MatchesMapModelOnRandomWalks) {
  for (std::uint32_t pillars : {1u, 2u, 4u})
    for (std::uint64_t seed = 1; seed <= 5; ++seed)
      random_walk(pillars, seed * 7919 + pillars);
}

TEST(ExecOrder, RoutingRulesMatchTheirFormulas) {
  const app::NullService service;
  for (std::uint32_t pillars : {1u, 2u, 4u}) {
    const protocol::ProtocolConfig cfg = order_config(pillars);
    const ExecOrder order(cfg, pillars);
    for (SeqNum seq = 1; seq <= 200; ++seq) {
      EXPECT_EQ(order.checkpoint_boundary(seq),
                seq % cfg.checkpoint_interval == 0);
      EXPECT_EQ(order.checkpoint_owner(seq),
                (seq / cfg.checkpoint_interval) % pillars);
      EXPECT_EQ(order.reply_pillar(seq), seq % pillars);
    }
  }
  const ExecOrder order(order_config(2), 2);
  for (protocol::RequestId id = 1; id <= 64; ++id) {
    protocol::Request r;
    r.client = 1001;
    r.id = id;
    const protocol::ReplicaId silent =
        static_cast<protocol::ReplicaId>(r.key() % 4);
    for (protocol::ReplicaId self = 0; self < 4; ++self) {
      EXPECT_EQ(order.omits_reply(core::ReplyMode::kOmitOne, self, r.key()),
                self == silent);
      EXPECT_FALSE(order.omits_reply(core::ReplyMode::kAll, self, r.key()));
    }
    // The simulator classified kNull requests as key % kNumShards.
    const std::uint32_t shard = service.classify(r).shard;
    EXPECT_EQ(shard, r.key() % app::NullService::kNumShards);
    for (std::uint32_t workers : {1u, 3u, 4u})
      EXPECT_EQ(ExecOrder::worker_of(shard, workers), shard % workers);
  }
}

TEST(ExecOrder, SlotCollisionKeepsLowerSeqAndCounts) {
  // A replica that learned stability from its peers may buffer commits
  // more than the ring's span ahead of its own frontier.
  ExecOrder order(order_config(1), 1);
  const SeqNum far = 2 + 128;  // 128 slots for a window of 40
  EXPECT_EQ(order.admit(CommittedBatch{2, 0, contents(2), 0, 0}).outcome,
            ExecOrder::Outcome::kStored);
  EXPECT_EQ(
      order.admit(CommittedBatch{far, 0, contents(far), 0, far - 1}).outcome,
      ExecOrder::Outcome::kDroppedSelf);
  EXPECT_EQ(order.slot_drops(), 1u);
  EXPECT_EQ(order.size(), 1u);
  EXPECT_EQ(order.highest_admitted(), far) << "a drop still sets the target";
}

}  // namespace
}  // namespace copbft::test
