// Tracing probes the benchmark hangs on the runtime from outside, through
// its public seams only: decorators for the CryptoProvider, Service and
// Transport objects the benchmark builds and hands to the replicas, and a
// sampler of per-thread CPU time and wake-ups from /proc/self/task grouped
// by the runtime's thread names. Nothing here changes the runtime itself;
// the decorators are installed only in traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "app/service.hpp"
#include "common/metrics.hpp"
#include "crypto/provider.hpp"
#include "transport/transport.hpp"

namespace perfbench {

using namespace copbft;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct CryptoCounts {
  std::uint64_t mac_calls = 0, mac_ns = 0;
  std::uint64_t verify_calls = 0, verify_ns = 0;
  std::uint64_t digest_calls = 0, digest_bytes = 0, digest_ns = 0;
};

/// Counts and times every digest, MAC and MAC verification.
class TracedCrypto final : public crypto::CryptoProvider {
 public:
  explicit TracedCrypto(const crypto::CryptoProvider& inner) : inner_(inner) {}

  crypto::Digest digest(ByteSpan data) const override;
  crypto::Mac mac(crypto::KeyNodeId sender, crypto::KeyNodeId receiver,
                  ByteSpan data) const override;
  bool verify_mac(crypto::KeyNodeId sender, crypto::KeyNodeId receiver,
                  ByteSpan data, const crypto::Mac& candidate) const override;

  CryptoCounts counts() const;

 private:
  const crypto::CryptoProvider& inner_;
  // The runtime's own sharded counters: each thread bumps its own cache
  // line, so the probes add no shared-line contention to what they time.
  mutable metrics::Counter mac_calls_, mac_ns_, verify_calls_, verify_ns_,
      digest_calls_, digest_bytes_, digest_ns_;
};

struct ServiceCounts {
  std::uint64_t execute_calls = 0, execute_ns = 0;
  std::uint64_t snapshot_calls = 0, snapshot_ns = 0, snapshot_bytes = 0;
  std::uint64_t digest_calls = 0, digest_ns = 0;
};

/// Times Service::execute, snapshot() and state_digest(); forwards the rest.
/// One instance per replica, so counts are plain atomics: execute() and the
/// checkpoint calls all run on that replica's execution stage thread.
class TracedService final : public app::Service {
 public:
  explicit TracedService(std::unique_ptr<app::Service> inner)
      : inner_(std::move(inner)) {}

  Bytes execute(const protocol::Request& request) override;
  app::AccessClass classify(const protocol::Request& request) const override {
    return inner_->classify(request);
  }
  crypto::Digest state_digest() const override;
  bool pre_validate(const protocol::Request& request) override {
    return inner_->pre_validate(request);
  }
  Bytes post_process(const protocol::Request& request, Bytes result) override {
    return inner_->post_process(request, std::move(result));
  }
  Bytes snapshot() const override;
  bool restore(ByteSpan snapshot, const crypto::Digest& expect) override {
    return inner_->restore(snapshot, expect);
  }

  ServiceCounts counts() const;

 private:
  std::unique_ptr<app::Service> inner_;
  std::atomic<std::uint64_t> execute_calls_{0}, execute_ns_{0};
  mutable std::atomic<std::uint64_t> snapshot_calls_{0}, snapshot_ns_{0},
      snapshot_bytes_{0}, digest_calls_{0}, digest_ns_{0};
};

/// Frames and bytes handed to Transport::send, shared by every decorated
/// transport of one cluster.
struct SendTally {
  metrics::Counter frames, bytes;
};

/// Counts outgoing frames; forwards everything to the wrapped transport.
class TracedTransport final : public transport::Transport {
 public:
  TracedTransport(transport::Transport& inner, SendTally& tally)
      : inner_(inner), tally_(tally) {}

  void register_sink(transport::LaneId lane,
                     std::shared_ptr<transport::FrameSink> sink) override {
    inner_.register_sink(lane, std::move(sink));
  }
  bool send(crypto::KeyNodeId to, transport::LaneId lane,
            Bytes frame) override {
    tally_.frames.add();
    tally_.bytes.add(frame.size());
    return inner_.send(to, lane, std::move(frame));
  }
  void shutdown() override { inner_.shutdown(); }

 private:
  transport::Transport& inner_;
  SendTally& tally_;
};

/// CPU time and voluntary context switches (parks and wakes) summed over
/// the live threads of one stage.
struct StageUsage {
  std::uint32_t threads = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t voluntary_switches = 0;
};

/// Stage a runtime thread belongs to, from its name: "pillar", "exec",
/// "statex", "client", "transport" (tcp-lane*), or "other".
std::string stage_of(const std::string& thread_name);

/// Reads /proc/self/task/*/{comm,schedstat,status}, grouped by stage_of().
std::map<std::string, StageUsage> sample_stages();

/// Voluntary context switches of each live thread of one stage.
std::vector<std::uint64_t> voluntary_switches(const std::string& stage);

}  // namespace perfbench
