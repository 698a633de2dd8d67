#include "probes.hpp"

#include <dirent.h>

#include <fstream>
#include <sstream>

namespace perfbench {

crypto::Digest TracedCrypto::digest(ByteSpan data) const {
  const std::uint64_t t0 = now_ns();
  crypto::Digest d = inner_.digest(data);
  digest_ns_.add(now_ns() - t0);
  digest_calls_.add();
  digest_bytes_.add(data.size());
  return d;
}

crypto::Mac TracedCrypto::mac(crypto::KeyNodeId sender,
                              crypto::KeyNodeId receiver,
                              ByteSpan data) const {
  const std::uint64_t t0 = now_ns();
  crypto::Mac m = inner_.mac(sender, receiver, data);
  mac_ns_.add(now_ns() - t0);
  mac_calls_.add();
  return m;
}

bool TracedCrypto::verify_mac(crypto::KeyNodeId sender,
                              crypto::KeyNodeId receiver, ByteSpan data,
                              const crypto::Mac& candidate) const {
  const std::uint64_t t0 = now_ns();
  bool ok = inner_.verify_mac(sender, receiver, data, candidate);
  verify_ns_.add(now_ns() - t0);
  verify_calls_.add();
  return ok;
}

CryptoCounts TracedCrypto::counts() const {
  return {mac_calls_.value(),    mac_ns_.value(),       verify_calls_.value(),
          verify_ns_.value(),    digest_calls_.value(), digest_bytes_.value(),
          digest_ns_.value()};
}

Bytes TracedService::execute(const protocol::Request& request) {
  const std::uint64_t t0 = now_ns();
  Bytes out = inner_->execute(request);
  execute_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  execute_calls_.fetch_add(1, std::memory_order_relaxed);
  return out;
}

crypto::Digest TracedService::state_digest() const {
  const std::uint64_t t0 = now_ns();
  crypto::Digest d = inner_->state_digest();
  digest_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  digest_calls_.fetch_add(1, std::memory_order_relaxed);
  return d;
}

Bytes TracedService::snapshot() const {
  const std::uint64_t t0 = now_ns();
  Bytes out = inner_->snapshot();
  snapshot_ns_.fetch_add(now_ns() - t0, std::memory_order_relaxed);
  snapshot_calls_.fetch_add(1, std::memory_order_relaxed);
  snapshot_bytes_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

ServiceCounts TracedService::counts() const {
  return {execute_calls_.load(), execute_ns_.load(), snapshot_calls_.load(),
          snapshot_ns_.load(),   snapshot_bytes_.load(), digest_calls_.load(),
          digest_ns_.load()};
}

std::string stage_of(const std::string& thread_name) {
  const auto starts = [&thread_name](const char* prefix) {
    return thread_name.rfind(prefix, 0) == 0;
  };
  if (starts("pillar-")) return "pillar";
  if (thread_name == "exec") return "exec";
  if (thread_name == "statex") return "statex";
  if (starts("client-")) return "client";
  if (starts("tcp-lane")) return "transport";
  return "other";
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Calls fn(stage, cpu_ns, voluntary switches) for every live thread.
template <typename Fn>
void for_each_thread(Fn fn) {
  DIR* dir = ::opendir("/proc/self/task");
  if (!dir) return;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    const std::string task = std::string("/proc/self/task/") + entry->d_name;
    std::string name = read_file(task + "/comm");
    while (!name.empty() && name.back() == '\n') name.pop_back();
    // schedstat: <ns on cpu> <ns waiting on a runqueue> <timeslices>
    std::istringstream sched(read_file(task + "/schedstat"));
    std::uint64_t cpu_ns = 0;
    if (!(sched >> cpu_ns)) continue;  // the thread exited meanwhile
    std::uint64_t voluntary = 0;
    std::istringstream status(read_file(task + "/status"));
    for (std::string line; std::getline(status, line);) {
      static const std::string kKey = "voluntary_ctxt_switches:";
      if (line.rfind(kKey, 0) == 0) {
        voluntary = std::stoull(line.substr(kKey.size()));
        break;
      }
    }
    fn(stage_of(name), cpu_ns, voluntary);
  }
  ::closedir(dir);
}

}  // namespace

std::map<std::string, StageUsage> sample_stages() {
  std::map<std::string, StageUsage> out;
  for_each_thread([&out](const std::string& stage, std::uint64_t cpu_ns,
                         std::uint64_t voluntary) {
    StageUsage& usage = out[stage];
    ++usage.threads;
    usage.cpu_ns += cpu_ns;
    usage.voluntary_switches += voluntary;
  });
  return out;
}

std::vector<std::uint64_t> voluntary_switches(const std::string& stage) {
  std::vector<std::uint64_t> out;
  for_each_thread([&](const std::string& s, std::uint64_t, std::uint64_t v) {
    if (s == stage) out.push_back(v);
  });
  return out;
}

}  // namespace perfbench
