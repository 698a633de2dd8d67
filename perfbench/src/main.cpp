// Closed-loop benchmark of the threaded COP runtime.
//
//   copbench --workload <null-batched|null-unbatched|kv-tcp> --seed <n>
//            --cluster <i> --seconds <s> --trace <0|1>
//   copbench --selftest
//
// Sets up one 4-replica, f=1 COP cluster (NP=2 pillars, exec_workers=0,
// checkpoint interval 1000) with real HMAC-SHA256 in a fresh process,
// drives it with 4 closed-loop clients for --seconds after a warm-up,
// checks every reply and the replicas' final state against the
// benchmark's own model, and prints one JSON object as the last line of
// stdout. perfbench/run.py runs several such processes per benchmark run
// and reports medians. --trace 1 installs the probes of probes.hpp and
// adds per-layer metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "app/kv_store.hpp"
#include "app/null_service.hpp"
#include "checks.hpp"
#include "client/client.hpp"
#include "common/metrics.hpp"
#include "core/cop_replica.hpp"
#include "probes.hpp"
#include "transport/inproc.hpp"
#include "transport/tcp.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kReplicas = 4;
constexpr std::uint32_t kPillars = 2;
constexpr std::uint32_t kClients = 4;  // two per pillar lane
constexpr std::size_t kNullReplySize = 8;
constexpr std::size_t kNullPayloadSize = 16;
constexpr std::uint32_t kKvKeys = 4096;  // 4 MiB of 1 KiB values
constexpr double kWarmupS = 1.0;
/// Little's-law tolerance: outstanding vs throughput x mean latency.
constexpr double kLittleTolerance = 0.10;
/// Every wait has a deadline, so a wedged cluster is reported instead of
/// hanging the benchmark: set-up (with the kv-tcp preload, normally about
/// 1 s), draining the requests in flight, and lagging replicas catching up.
constexpr double kSetupDeadlineS = 20.0;
constexpr double kDrainDeadlineS = 10.0;
constexpr double kQuiesceDeadlineS = 10.0;

struct Workload {
  const char* name;
  bool batching;
  std::uint32_t outstanding;  ///< per client
  bool kv_tcp;                ///< KvStore over TcpTransport, else NullService in-process
};

constexpr Workload kWorkloads[] = {
    {"null-batched", true, 64, false},
    {"null-unbatched", false, 16, false},
    {"kv-tcp", true, 16, true},
};

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  std::uint32_t cluster = 0;  ///< which of the run's clusters: inputs and ports
  double seconds = 3;
  bool trace = false;
};

double mono_s() { return static_cast<double>(now_ns()) / 1e9; }

/// The process's resident-set high-water mark (VmHWM).
double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// cluster

/// One 4-replica COP cluster plus its clients, over the in-process network
/// or loopback TCP. Traced clusters hand the replicas and clients the
/// probes instead of the bare crypto, service and transport objects.
class Cluster {
 public:
  Cluster(const Workload& w, bool trace, std::uint16_t port_base)
      : crypto_(crypto::make_real_crypto(7)) {
    if (trace) traced_crypto_ = std::make_unique<TracedCrypto>(*crypto_);
    const crypto::CryptoProvider& crypto =
        trace ? static_cast<const crypto::CryptoProvider&>(*traced_crypto_)
              : *crypto_;

    core::ReplicaRuntimeConfig config;
    config.num_pillars = kPillars;
    config.protocol.num_pillars = kPillars;
    config.protocol.checkpoint_interval = 1000;
    config.protocol.window = 2000;
    config.protocol.batching = w.batching;
    config.protocol.max_active_proposals = 8;
    config.protocol.view_change_timeout_us = 30'000'000;
    config.exec_workers = 0;

    std::vector<transport::Transport*> replica_transports;
    if (w.kv_tcp) {
      std::map<crypto::KeyNodeId, transport::TcpPeer> peers;
      for (protocol::ReplicaId r = 0; r < kReplicas; ++r)
        peers[protocol::replica_node(r)] = {
            "127.0.0.1", static_cast<std::uint16_t>(port_base + r)};
      transport::TcpOptions options;
      options.lane_threads = kPillars;
      for (protocol::ReplicaId r = 0; r < kReplicas; ++r) {
        tcp_.push_back(std::make_unique<transport::TcpTransport>(
            protocol::replica_node(r),
            static_cast<std::uint16_t>(port_base + r), peers, options));
        if (!tcp_.back()->start()) return;  // port taken: ok() is false
        replica_transports.push_back(tcp_.back().get());
      }
      tcp_.push_back(std::make_unique<transport::TcpTransport>(
          kClientMuxNode, /*listen_port=*/0, peers, options));
      if (!tcp_.back()->start()) return;
      for (std::uint32_t c = 0; c < kClients; ++c)
        client_endpoints_.push_back(tcp_.back()->client_endpoint(
            protocol::client_node(protocol::kClientIdBase + c)));
    } else {
      for (protocol::ReplicaId r = 0; r < kReplicas; ++r)
        replica_transports.push_back(
            &inproc_.endpoint(protocol::replica_node(r)));
    }

    for (protocol::ReplicaId r = 0; r < kReplicas; ++r) {
      std::unique_ptr<app::Service> service;
      if (w.kv_tcp) {
        auto kv = std::make_unique<app::KvStore>(crypto);
        kv_stores_.push_back(kv.get());
        service = std::move(kv);
      } else {
        auto null = std::make_unique<app::NullService>(kNullReplySize);
        null_services_.push_back(null.get());
        service = std::move(null);
      }
      if (trace) {
        auto wrapped = std::make_unique<TracedService>(std::move(service));
        traced_services_.push_back(wrapped.get());
        service = std::move(wrapped);
      }
      replicas_.push_back(std::make_unique<core::CopReplica>(
          r, config, std::move(service), crypto,
          traced(*replica_transports[r], trace)));
    }
    for (auto& replica : replicas_) replica->start();

    for (std::uint32_t c = 0; c < kClients; ++c) {
      client::ClientConfig cc;
      cc.id = protocol::kClientIdBase + c;  // lane = id % NP: two per lane
      cc.num_replicas = kReplicas;
      cc.max_faulty = 1;
      cc.num_pillars = kPillars;
      cc.window = w.outstanding;
      transport::Transport& base =
          w.kv_tcp ? *client_endpoints_[c]
                   : static_cast<transport::Transport&>(
                         inproc_.endpoint(protocol::client_node(cc.id)));
      clients_.push_back(std::make_unique<client::Client>(
          cc, crypto, traced(base, trace)));
      clients_.back()->start();
    }
    ok_ = true;
  }

  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  bool ok() const { return ok_; }

  void stop() {
    for (auto& client : clients_) client->stop();
    for (auto& replica : replicas_) replica->stop();
    for (auto& t : tcp_) t->shutdown();
  }

  client::Client& client(std::uint32_t c) { return *clients_[c]; }
  core::CopReplica& replica(std::uint32_t r) { return *replicas_[r]; }
  const app::KvStore* kv_store(std::uint32_t r) const { return kv_stores_[r]; }
  const app::NullService* null_service(std::uint32_t r) const {
    return null_services_[r];
  }
  const TracedCrypto* traced_crypto() const { return traced_crypto_.get(); }
  const std::vector<TracedService*>& traced_services() const {
    return traced_services_;
  }
  const SendTally& send_tally() const { return tally_; }

 private:
  static constexpr crypto::KeyNodeId kClientMuxNode = 2'000'000;

  transport::Transport& traced(transport::Transport& base, bool trace) {
    if (!trace) return base;
    traced_transports_.push_back(
        std::make_unique<TracedTransport>(base, tally_));
    return *traced_transports_.back();
  }

  std::unique_ptr<crypto::CryptoProvider> crypto_;
  std::unique_ptr<TracedCrypto> traced_crypto_;
  SendTally tally_;
  transport::InprocNetwork inproc_;
  std::vector<std::unique_ptr<transport::TcpTransport>> tcp_;
  std::vector<std::shared_ptr<transport::Transport>> client_endpoints_;
  std::vector<std::unique_ptr<TracedTransport>> traced_transports_;
  std::vector<const app::KvStore*> kv_stores_;
  std::vector<const app::NullService*> null_services_;
  std::vector<TracedService*> traced_services_;
  std::vector<std::unique_ptr<core::CopReplica>> replicas_;
  std::vector<std::unique_ptr<client::Client>> clients_;
  bool ok_ = false;
};

// ---------------------------------------------------------------------------
// closed-loop load

/// Per-client tallies. Only the client's own thread writes them while load
/// runs; the main thread polls the atomics and reads the rest after
/// `outstanding` has dropped to zero (acquire on the final release).
struct ClientTally {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint32_t> outstanding{0};
  std::vector<std::uint32_t> window_latency_us;  ///< one per op completed in the window
};

/// Every (client, slot) pair is one closed loop: it has exactly one request
/// outstanding and issues the next from the completion callback.
class Load {
 public:
  enum class Phase { kPreload, kMixed };

  Load(Cluster& cluster, const Workload& w, std::uint64_t seed)
      : cluster_(cluster),
        workload_(w),
        tallies_(kClients),
        model_(kClients * w.outstanding, kKvKeys / (kClients * w.outstanding)) {
    slots_.resize(std::size_t{kClients} * w.outstanding);
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      slots_[s].client = s / w.outstanding;
      slots_[s].rng = seed * 0x100000001b3ULL + s;
    }
  }

  /// Starts every slot; in kPreload each slot writes its own keys once
  /// and goes idle, in kMixed it loops until stop().
  void start(Phase phase) {
    phase_ = phase;
    running_.store(true);
    for (auto& t : tallies_) t.outstanding.store(workload_.outstanding);
    for (std::uint32_t s = 0; s < slots_.size(); ++s) {
      slots_[s].preload_next = 0;
      issue(s);
    }
  }

  void open_window() { in_window_.store(true); }
  void close_window() { in_window_.store(false); }
  void stop() { running_.store(false); }
  void abort() { aborted_.store(true); }

  std::uint64_t completed() const {
    std::uint64_t n = 0;
    for (const auto& t : tallies_) n += t.completed.load();
    return n;
  }
  std::uint32_t outstanding() const {
    std::uint32_t n = 0;
    for (const auto& t : tallies_)
      n += t.outstanding.load(std::memory_order_acquire);
    return n;
  }
  bool every_client_completed() const {
    for (const auto& t : tallies_)
      if (t.completed.load() == 0) return false;
    return true;
  }
  std::uint64_t issued() const { return issued_.load(); }
  std::uint64_t wrong() const { return wrong_.load(); }
  const std::vector<ClientTally>& tallies() const { return tallies_; }
  const KvModel& model() const { return model_; }

 private:
  struct Slot {
    std::uint32_t client = 0;
    std::uint64_t rng = 0;
    std::uint32_t preload_next = 0;
    // the operation in flight
    std::uint64_t sent_ns = 0;
    std::uint32_t key_index = 0;
    bool put = false;
    std::uint64_t tag = 0;
  };

  void issue(std::uint32_t s) {
    Slot& slot = slots_[s];
    Bytes payload;
    if (workload_.kv_tcp) {
      app::KvOp op;
      if (phase_ == Phase::kPreload) {
        slot.put = true;
        slot.key_index = slot.preload_next++;
      } else {
        const std::uint64_t r = splitmix(slot.rng);
        slot.put = (r & 1) != 0;  // 50% get / 50% put
        slot.key_index = static_cast<std::uint32_t>((r >> 1) %
                                                    model_.keys_per_slot());
      }
      op.key = model_.key(s, slot.key_index);
      if (slot.put) {
        op.op = app::KvOpCode::kPut;
        slot.tag = model_.next_tag(s);
        op.value = KvModel::value_for(slot.tag);
      } else {
        op.op = app::KvOpCode::kGet;
      }
      payload = op.encode();
    } else {
      payload.resize(kNullPayloadSize);
      std::uint64_t r = splitmix(slot.rng);
      for (std::size_t i = 0; i < payload.size(); ++i) {
        if (i % 8 == 0 && i != 0) r = splitmix(slot.rng);
        payload[i] = static_cast<Byte>(r >> (8 * (i % 8)));
      }
    }
    slot.sent_ns = now_ns();
    issued_.fetch_add(1);
    const bool sent = cluster_.client(slot.client).invoke_async(
        std::move(payload), 0,
        [this, s](Bytes result, std::uint64_t) { complete(s, result); });
    if (!sent) {
      issued_.fetch_sub(1);
      tallies_[slot.client].outstanding.fetch_sub(1, std::memory_order_release);
    }
  }

  void complete(std::uint32_t s, const Bytes& result) {
    if (aborted_.load()) return;  // orphaned by Client::stop after a deadline
    Slot& slot = slots_[s];
    ClientTally& tally = tallies_[slot.client];
    const std::uint64_t latency_ns = now_ns() - slot.sent_ns;
    bool right;
    if (!workload_.kv_tcp) {
      right = null_reply_ok(result, kNullReplySize);
    } else if (slot.put) {
      right = result == KvModel::expected_put();
      model_.note_put(s, slot.key_index, slot.tag);
    } else {
      right = result == model_.expected_get(s, slot.key_index);
    }
    if (!right) wrong_.fetch_add(1);
    if (in_window_.load(std::memory_order_relaxed))
      tally.window_latency_us.push_back(
          static_cast<std::uint32_t>(latency_ns / 1000));
    tally.completed.fetch_add(1);
    const bool more = phase_ == Phase::kPreload
                          ? slot.preload_next < model_.keys_per_slot()
                          : running_.load();
    if (more) {
      issue(s);
    } else {
      tally.outstanding.fetch_sub(1, std::memory_order_release);
    }
  }

  Cluster& cluster_;
  const Workload& workload_;
  std::vector<ClientTally> tallies_;
  std::vector<Slot> slots_;
  KvModel model_;
  Phase phase_ = Phase::kMixed;
  std::atomic<bool> running_{false};
  std::atomic<bool> in_window_{false};
  std::atomic<bool> aborted_{false};
  std::atomic<std::uint64_t> issued_{0};
  std::atomic<std::uint64_t> wrong_{0};
};

// ---------------------------------------------------------------------------
// measurement

/// Counters read at the two ends of the steady window.
struct Snapshot {
  double t = 0, cpu_s = 0;
  std::vector<core::ReplicaStats> replicas;
  std::uint64_t over_window_deferred = 0;  ///< summed per pillar
  std::uint64_t retransmissions = 0;
  std::map<std::string, StageUsage> stages;
  CryptoCounts crypto;
  ServiceCounts service;
  std::uint64_t frames = 0, bytes = 0;
  std::string registry;
};

Snapshot take_snapshot(Cluster& cluster, bool trace) {
  Snapshot s;
  s.t = mono_s();
  s.cpu_s = process_cpu_s();
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    s.replicas.push_back(cluster.replica(r).stats());
    for (std::uint32_t p = 0; p < kPillars; ++p)
      s.over_window_deferred +=
          cluster.replica(r).pillar(p).core_stats().over_window_deferred;
  }
  for (std::uint32_t c = 0; c < kClients; ++c)
    s.retransmissions += cluster.client(c).retransmissions();
  if (!trace) return s;
  s.stages = sample_stages();
  s.crypto = cluster.traced_crypto()->counts();
  for (const TracedService* svc : cluster.traced_services()) {
    ServiceCounts c = svc->counts();
    s.service.execute_calls += c.execute_calls;
    s.service.execute_ns += c.execute_ns;
    s.service.snapshot_calls += c.snapshot_calls;
    s.service.snapshot_ns += c.snapshot_ns;
    s.service.snapshot_bytes += c.snapshot_bytes;
    s.service.digest_calls += c.digest_calls;
    s.service.digest_ns += c.digest_ns;
  }
  s.frames = cluster.send_tally().frames.value();
  s.bytes = cluster.send_tally().bytes.value();
  s.registry = metrics::MetricsRegistry::global().snapshot_json();
  return s;
}

/// Sum over replicas of one counter's growth between two snapshots.
template <typename Field>
double delta(const Snapshot& a, const Snapshot& b, Field field) {
  double sum = 0;
  for (std::size_t r = 0; r < a.replicas.size(); ++r)
    sum += static_cast<double>(field(b.replicas[r]) - field(a.replicas[r]));
  return sum;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

using Metrics = std::map<std::string, double>;

/// JSON object writer for flat name -> number maps.
class JsonObject {
 public:
  void add(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    out_ << (first_ ? "" : ",") << '"' << name << "\":" << buf;
    first_ = false;
  }
  void add_raw(const std::string& name, const std::string& json) {
    out_ << (first_ ? "" : ",") << '"' << name << "\":" << json;
    first_ = false;
  }
  void add(const std::string& name, const Metrics& m) {
    JsonObject inner;
    for (const auto& [key, value] : m) inner.add(key, value);
    add_raw(name, inner.str());
  }
  std::string str() const {
    std::string json = "{";
    json += out_.str();
    json += '}';
    return json;
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

/// Per-layer metrics over the window between two snapshots of a traced
/// cluster; `ops` is the number of operations completed in it.
Metrics layer_metrics(const Snapshot& a, const Snapshot& b, double ops) {
  Metrics m;
  const auto add = [&m](const std::string& name, double value) {
    m[name] = value;
  };
  const double window_s = b.t - a.t;
  const double kops = ops / 1000.0;
  const auto stage = [&](const char* stage, const std::string& prefix,
                         bool busy, bool wakeups) {
    const auto find = [stage](const Snapshot& s) {
      auto it = s.stages.find(stage);
      return it == s.stages.end() ? StageUsage{} : it->second;
    };
    const StageUsage u0 = find(a), u1 = find(b);
    const double cpu_ns = static_cast<double>(u1.cpu_ns - u0.cpu_ns);
    add(prefix + ".cpu_us_per_op", ratio(cpu_ns / 1000.0, ops));
    if (busy)
      add(prefix + ".busy", ratio(cpu_ns / 1e9, window_s * u1.threads));
    if (wakeups)
      add(prefix + ".wakeups_per_op",
          ratio(static_cast<double>(u1.voluntary_switches -
                                    u0.voluntary_switches),
                ops));
  };
  stage("pillar", "core.pillar", true, true);
  stage("exec", "core.exec", true, true);
  stage("statex", "core.statex", false, false);
  stage("client", "client", false, true);
  stage("transport", "transport", true, true);

  const CryptoCounts& c0 = a.crypto;
  const CryptoCounts& c1 = b.crypto;
  const double mac_calls = static_cast<double>(c1.mac_calls - c0.mac_calls);
  add("crypto.mac_calls_per_op", ratio(mac_calls, ops));
  add("crypto.mac_ns",
      ratio(static_cast<double>(c1.mac_ns - c0.mac_ns), mac_calls));
  add("crypto.verify_calls_per_op",
      ratio(static_cast<double>(c1.verify_calls - c0.verify_calls), ops));
  add("crypto.digest_calls_per_op",
      ratio(static_cast<double>(c1.digest_calls - c0.digest_calls), ops));
  add("crypto.digest_bytes_per_op",
      ratio(static_cast<double>(c1.digest_bytes - c0.digest_bytes), ops));
  add("crypto.us_per_op",
      ratio(static_cast<double>((c1.mac_ns - c0.mac_ns) +
                                (c1.verify_ns - c0.verify_ns) +
                                (c1.digest_ns - c0.digest_ns)) /
                1000.0,
            ops));

  const auto core = [&](auto field) {
    return delta(a, b, [field](const core::ReplicaStats& s) {
      return s.core.*field;
    });
  };
  const auto exec = [&](auto field) {
    return delta(a, b, [field](const core::ReplicaStats& s) {
      return s.exec.*field;
    });
  };
  using protocol::CoreStats;
  using core::ExecutionStats;
  add("protocol.requests_per_instance",
      ratio(core(&CoreStats::requests_delivered),
            core(&CoreStats::instances_delivered)));
  add("protocol.noop_share", ratio(core(&CoreStats::noop_proposals),
                                   core(&CoreStats::proposals)));
  add("protocol.macs_verified_per_op",
      ratio(core(&CoreStats::macs_verified), ops));
  add("protocol.verifications_skipped_per_op",
      ratio(core(&CoreStats::verifications_skipped), ops));
  add("protocol.request_macs_verified_per_op",
      ratio(core(&CoreStats::request_macs_verified), ops));
  add("protocol.over_window_deferred",
      static_cast<double>(b.over_window_deferred - a.over_window_deferred));
  add("protocol.checkpoints_stable", core(&CoreStats::checkpoints_stable));

  add("core.exec.gap_fills_per_kop",
      ratio(exec(&ExecutionStats::gap_fills_requested), kops));
  add("core.exec.noops_executed_per_kop",
      ratio(exec(&ExecutionStats::noops_executed), kops));
  add("core.exec.replies_offloaded_share",
      ratio(exec(&ExecutionStats::replies_offloaded),
            exec(&ExecutionStats::replies_sent)));
  add("core.exec.reorder_slot_drops",
      exec(&ExecutionStats::reorder_slot_drops));
  add("core.exec.checkpoints_per_kop",
      ratio(exec(&ExecutionStats::checkpoints_triggered), kops));

  const ServiceCounts& s0 = a.service;
  const ServiceCounts& s1 = b.service;
  add("app.execute_ns",
      ratio(static_cast<double>(s1.execute_ns - s0.execute_ns),
            static_cast<double>(s1.execute_calls - s0.execute_calls)));
  add("app.snapshot_ms",
      ratio(static_cast<double>(s1.snapshot_ns - s0.snapshot_ns) / 1e6,
            static_cast<double>(s1.snapshot_calls - s0.snapshot_calls)));
  add("app.snapshot_bytes_per_op",
      ratio(static_cast<double>(s1.snapshot_bytes - s0.snapshot_bytes), ops));
  add("app.state_digest_us",
      ratio(static_cast<double>(s1.digest_ns - s0.digest_ns) / 1000.0,
            static_cast<double>(s1.digest_calls - s0.digest_calls)));

  add("transport.frames_per_op",
      ratio(static_cast<double>(b.frames - a.frames), ops));
  add("transport.bytes_per_op",
      ratio(static_cast<double>(b.bytes - a.bytes), ops));
  add("client.retransmissions_per_kop",
      ratio(static_cast<double>(b.retransmissions - a.retransmissions),
            kops));
  return m;
}

// ---------------------------------------------------------------------------
// one cluster: set up, measured, quiesced and checked

struct Outcome {
  double setup_s = 0;
  bool ok = true;               ///< every check passed
  std::uint64_t attempted = 0;  ///< operations issued
  std::uint64_t failed = 0;     ///< issued but unfinished at a deadline
  std::uint64_t view_changes = 0;
  std::uint64_t ops = 0;       ///< completed in the window = latency samples
  Metrics e2e, layers;
  std::string registry_start, registry_end;
};

bool wait_until(double deadline, const std::function<bool()>& done) {
  while (!done()) {
    if (mono_s() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

void report_stall(Cluster& cluster, const char* phase) {
  std::fprintf(stderr, "perfbench: deadline passed during %s\n", phase);
  for (std::uint32_t r = 0; r < kReplicas; ++r) {
    const core::ReplicaStats s = cluster.replica(r).stats();
    std::fprintf(
        stderr,
        "  replica %u: executed %llu, last_seq %llu, instances %llu, "
        "view changes %llu/%llu, checkpoints stable %llu, gap fills %llu, "
        "state installs %llu\n",
        r, static_cast<unsigned long long>(s.exec.requests_executed),
        static_cast<unsigned long long>(s.exec.last_executed_seq),
        static_cast<unsigned long long>(s.core.instances_delivered),
        static_cast<unsigned long long>(s.core.view_changes_started),
        static_cast<unsigned long long>(s.core.view_changes_completed),
        static_cast<unsigned long long>(s.core.checkpoints_stable),
        static_cast<unsigned long long>(s.exec.gap_fills_requested),
        static_cast<unsigned long long>(s.exec.state_installs));
  }
}

bool check(bool cond, const char* what) {
  if (!cond) std::fprintf(stderr, "perfbench: check failed: %s\n", what);
  return cond;
}

Outcome run_cluster(const Args& args) {
  const Workload& w = *args.workload;
  Outcome out;
  const double t0 = mono_s();
  const double setup_deadline = t0 + kSetupDeadlineS;
  // Replica ports lie below the ephemeral range (32768-60999); the base
  // follows the process id, and a port in use moves on to the next base.
  std::unique_ptr<Cluster> cluster;
  for (int attempt = 0; attempt < 20; ++attempt) {
    const auto base = static_cast<std::uint16_t>(
        20000 + ((::getpid() * 7 + attempt) % 2000) * 5);
    cluster = std::make_unique<Cluster>(w, args.trace, base);
    if (cluster->ok()) break;
  }
  if (!cluster->ok()) {
    std::fprintf(stderr, "perfbench: no free replica ports\n");
    out.ok = false;
    return out;
  }

  // Fault 1 of the README: a pillar whose first loop iteration handles a
  // frame, before any idle tick, starts a view change at once; now and
  // then that wedges the whole cluster. Load therefore waits until every
  // pillar has parked on its queue twice, i.e. finished one idle poll.
  wait_until(mono_s() + 1.0, [] {
    const std::vector<std::uint64_t> parked = voluntary_switches("pillar");
    return parked.size() == kReplicas * kPillars &&
           std::all_of(parked.begin(), parked.end(),
                       [](std::uint64_t n) { return n >= 2; });
  });

  Load load(*cluster, w, args.seed * 16 + args.cluster);
  bool live = true;
  if (w.kv_tcp) {
    load.start(Load::Phase::kPreload);
    live = wait_until(setup_deadline, [&] { return load.outstanding() == 0; });
    if (!live) report_stall(*cluster, "preload");
  } else {
    load.start(Load::Phase::kMixed);
    live = wait_until(setup_deadline,
                      [&] { return load.every_client_completed(); });
    if (!live) report_stall(*cluster, "first replies");
  }
  out.setup_s = mono_s() - t0;
  if (live && w.kv_tcp) load.start(Load::Phase::kMixed);

  if (live) {
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupS));
    Snapshot a = take_snapshot(*cluster, args.trace);
    load.open_window();
    std::this_thread::sleep_for(std::chrono::duration<double>(args.seconds));
    load.close_window();
    Snapshot b = take_snapshot(*cluster, args.trace);

    std::vector<std::uint32_t> lat;
    load.stop();
    live = wait_until(mono_s() + kDrainDeadlineS,
                      [&] { return load.outstanding() == 0; });
    if (live) {
      for (const ClientTally& t : load.tallies())
        lat.insert(lat.end(), t.window_latency_us.begin(),
                   t.window_latency_us.end());
    }
    std::sort(lat.begin(), lat.end());
    const std::uint64_t ops = lat.size();
    const double window_s = b.t - a.t;
    const double throughput = static_cast<double>(ops) / window_s;
    double mean_lat_us = 0;
    for (std::uint32_t l : lat) mean_lat_us += l;
    mean_lat_us = ratio(mean_lat_us, static_cast<double>(lat.size()));
    const auto pct = [&lat](double q) {
      if (lat.empty()) return 0.0;
      const auto i = static_cast<std::size_t>(q * static_cast<double>(lat.size() - 1));
      return static_cast<double>(lat[i]);
    };
    if (!live) report_stall(*cluster, "drain");
    out.ops = ops;
    out.e2e = {{"throughput_ops", throughput},
               {"latency_p50_us", pct(0.50)},
               {"latency_p99_us", pct(0.99)},
               {"cpu_us_per_op",
                ratio((b.cpu_s - a.cpu_s) * 1e6, static_cast<double>(ops))},
               {"rss_peak_mb", peak_rss_mb()},
               {"setup_s", out.setup_s}};
    if (args.trace) {
      out.layers = layer_metrics(a, b, static_cast<double>(ops));
      out.registry_start = a.registry;
      out.registry_end = b.registry;
    }
    const double outstanding = kClients * w.outstanding;
    out.ok &= check(live && littles_law_holds(outstanding, throughput,
                                              mean_lat_us / 1e6,
                                              kLittleTolerance),
                    "Little's law: outstanding vs throughput x mean latency");
    if (ops < 10'000)
      std::fprintf(stderr, "perfbench: only %llu latency samples\n",
                   static_cast<unsigned long long>(ops));
  }

  // Quiescence: every replica stands at the same sequence number. (A
  // replica may have caught up by state transfer, so the checks below read
  // the replicated state, not the runtime's executed-request counters.)
  if (live) {
    std::vector<std::uint64_t> prev;
    const bool quiet = wait_until(
        mono_s() + kQuiesceDeadlineS, [&] {
          std::vector<std::uint64_t> seqs;
          for (std::uint32_t r = 0; r < kReplicas; ++r)
            seqs.push_back(cluster->replica(r).stats().exec.last_executed_seq);
          const bool settled =
              seqs == prev && std::all_of(seqs.begin(), seqs.end(),
                                          [&](std::uint64_t q) {
                                            return q == seqs.front();
                                          });
          prev = std::move(seqs);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return settled;
        });
    if (!quiet) report_stall(*cluster, "quiescence");
  }
  if (!live) load.abort();
  cluster->stop();

  const std::uint64_t issued = load.issued();
  out.attempted = issued;
  out.failed = issued - std::min(issued, load.completed());
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    out.view_changes += cluster->replica(r).stats().core.view_changes_started;

  out.ok &= check(load.wrong() == 0, "a reply differed from the model");
  std::vector<crypto::Digest> digests;
  for (std::uint32_t r = 0; r < kReplicas; ++r)
    digests.push_back(cluster->replica(r).service().state_digest());
  out.ok &= check(digests_agree(digests), "replica state digests differ");
  if (!w.kv_tcp) {
    std::vector<std::uint64_t> executed;
    for (std::uint32_t r = 0; r < kReplicas; ++r)
      executed.push_back(cluster->null_service(r)->executed());
    out.ok &= check(executed_exactly_once(executed, issued),
                    "replicas did not each execute every request exactly once");
  } else {
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      const app::KvStore* store = cluster->kv_store(r);
      out.ok &= check(load.model().state_matches([store](const std::string& k) {
                        return store->lookup(k);
                      }),
                      "a replica's store differs from the model");
    }
  }
  return out;
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      for (const Workload& w : kWorkloads)
        if (value == w.name) args.workload = &w;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--cluster") {
      args.cluster = static_cast<std::uint32_t>(std::stoul(value));
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return false;
    }
  }
  return args.workload != nullptr && args.seconds > 0;
}

int run(const Args& args) {
  const Outcome o = run_cluster(args);
  JsonObject result;
  result.add_raw("workload", std::string("\"") + args.workload->name + "\"");
  result.add_raw("correct", o.ok && o.failed == 0 ? "true" : "false");
  result.add("attempted", static_cast<double>(o.attempted));
  result.add("failed", static_cast<double>(o.failed));
  result.add("view_changes_started", static_cast<double>(o.view_changes));
  result.add("samples", static_cast<double>(o.ops));
  result.add("e2e", o.e2e);
  if (args.trace) {
    result.add("layers", o.layers);
    result.add_raw("registry_start",
                   o.registry_start.empty() ? "{}" : o.registry_start);
    result.add_raw("registry_end",
                   o.registry_end.empty() ? "{}" : o.registry_end);
  }
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
    const bool ok = perfbench::run_selftest();
    std::printf("selftest %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: copbench --workload <null-batched|null-unbatched|"
                 "kv-tcp> --seed <n> --cluster <i> --seconds <s> "
                 "--trace <0|1>\n"
                 "       copbench --selftest\n");
    return 2;
  }
  return perfbench::run(args);
}
