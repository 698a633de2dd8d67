#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <map>

namespace perfbench {

bool null_reply_ok(ByteSpan reply, std::size_t size) {
  if (reply.size() != size) return false;
  for (Byte b : reply)
    if (b != 0xab) return false;
  return true;
}

bool digests_agree(const std::vector<copbft::crypto::Digest>& digests) {
  for (const auto& d : digests)
    if (d != digests.front()) return false;
  return !digests.empty();
}

bool executed_exactly_once(const std::vector<std::uint64_t>& executed,
                           std::uint64_t issued) {
  for (std::uint64_t n : executed)
    if (n != issued) return false;
  return !executed.empty();
}

bool littles_law_holds(double outstanding, double throughput_per_s,
                       double mean_latency_s, double tolerance) {
  if (outstanding <= 0) return false;
  const double in_flight = throughput_per_s * mean_latency_s;
  return std::fabs(in_flight - outstanding) <= tolerance * outstanding;
}

KvModel::KvModel(std::uint32_t slots, std::uint32_t keys_per_slot)
    : slots_(slots),
      keys_per_slot_(keys_per_slot),
      next_tag_(slots, 1),
      current_(std::size_t{slots} * keys_per_slot, 0) {}

std::string KvModel::key(std::uint32_t slot, std::uint32_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof buf, "key%08u", slot * keys_per_slot_ + index);
  return buf;
}

Bytes KvModel::value_for(std::uint64_t tag) {
  // splitmix64 stream seeded by the tag; the tag itself leads the value.
  Bytes out(kValueSize);
  std::uint64_t x = tag;
  for (std::size_t i = 0; i < kValueSize; i += 8) {
    std::uint64_t word = tag;
    if (i != 0) {
      x += 0x9e3779b97f4a7c15ULL;
      word = x;
      word = (word ^ (word >> 30)) * 0xbf58476d1ce4e5b9ULL;
      word = (word ^ (word >> 27)) * 0x94d049bb133111ebULL;
      word ^= word >> 31;
    }
    for (std::size_t b = 0; b < 8; ++b)
      out[i + b] = static_cast<Byte>(word >> (8 * b));
  }
  return out;
}

std::uint64_t KvModel::next_tag(std::uint32_t slot) {
  return (std::uint64_t{slot + 1} << 40) | next_tag_[slot]++;
}

void KvModel::note_put(std::uint32_t slot, std::uint32_t index,
                       std::uint64_t tag) {
  current_[std::size_t{slot} * keys_per_slot_ + index] = tag;
}

namespace {

Bytes encode_result(Byte status, ByteSpan value) {
  Bytes out{status};
  const auto n = static_cast<std::uint32_t>(value.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<Byte>(n >> (8 * i)));
  out.insert(out.end(), value.begin(), value.end());
  return out;
}

constexpr Byte kOk = 0;
constexpr Byte kNotFound = 1;

}  // namespace

Bytes KvModel::expected_get(std::uint32_t slot, std::uint32_t index) const {
  const std::uint64_t tag = current_[std::size_t{slot} * keys_per_slot_ + index];
  if (tag == 0) return encode_result(kNotFound, {});
  return encode_result(kOk, value_for(tag));
}

Bytes KvModel::expected_put() { return encode_result(kOk, {}); }

bool KvModel::state_matches(
    const std::function<const Bytes*(const std::string&)>& lookup) const {
  for (std::uint32_t s = 0; s < slots_; ++s) {
    for (std::uint32_t i = 0; i < keys_per_slot_; ++i) {
      const std::uint64_t tag = current_[std::size_t{s} * keys_per_slot_ + i];
      const Bytes* held = lookup(key(s, i));
      if (tag == 0) {
        if (held) return false;
      } else if (!held || *held != value_for(tag)) {
        return false;
      }
    }
  }
  return true;
}

bool run_selftest() {
  bool ok = true;
  const auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "selftest: %s\n", what);
      ok = false;
    }
  };

  // NullService replies.
  Bytes reply(8, 0xab);
  expect(null_reply_ok(reply, 8), "good null reply rejected");
  Bytes bad = reply;
  bad[5] ^= 0x01;
  expect(!null_reply_ok(bad, 8), "null reply with a wrong byte accepted");
  expect(!null_reply_ok(Bytes(7, 0xab), 8), "short null reply accepted");

  // State digests.
  copbft::crypto::Digest d;
  d.bytes.fill(0x11);
  std::vector<copbft::crypto::Digest> digests(4, d);
  expect(digests_agree(digests), "equal digests rejected");
  digests[2].bytes[31] ^= 0x80;
  expect(!digests_agree(digests), "one diverged replica digest accepted");

  // Exactly-once execution counts.
  expect(executed_exactly_once({100, 100, 100, 100}, 100),
         "exact executed counts rejected");
  expect(!executed_exactly_once({100, 101, 100, 100}, 100),
         "executed count one too high accepted");
  expect(!executed_exactly_once({100, 100, 100, 99}, 100),
         "executed count one too low accepted");

  // Key-value model: reads, writes and the final state.
  KvModel model(2, 3);
  expect(model.expected_get(0, 1) == Bytes({1, 0, 0, 0, 0}),
         "get of an unwritten key not predicted as not-found");
  const std::uint64_t first = model.next_tag(0);
  model.note_put(0, 1, first);
  const Bytes stale = model.expected_get(0, 1);
  const std::uint64_t second = model.next_tag(0);
  expect(first != second && model.next_tag(1) != second,
         "put tags are not unique");
  model.note_put(0, 1, second);
  Bytes fresh{0, 0, 4, 0, 0};
  const Bytes v = KvModel::value_for(second);
  fresh.insert(fresh.end(), v.begin(), v.end());
  expect(model.expected_get(0, 1) == fresh, "fresh read not predicted");
  expect(stale != model.expected_get(0, 1), "stale KV read accepted");
  expect(KvModel::expected_put() == Bytes({0, 0, 0, 0, 0}),
         "put reply not predicted");
  std::map<std::string, Bytes> store{{model.key(0, 1), v}};
  const auto lookup = [&store](const std::string& key) -> const Bytes* {
    auto it = store.find(key);
    return it == store.end() ? nullptr : &it->second;
  };
  expect(model.state_matches(lookup), "matching replica state rejected");
  store[model.key(0, 1)] = KvModel::value_for(first);
  expect(!model.state_matches(lookup), "replica holding a stale value accepted");
  store[model.key(0, 1)] = v;
  store[model.key(1, 2)] = v;
  expect(!model.state_matches(lookup), "replica holding an extra key accepted");

  // Little's law.
  expect(littles_law_holds(64, 20000, 0.0032, 0.1), "Little's law rejected");
  expect(!littles_law_holds(64, 20000, 0.0064, 0.1),
         "closed loop off by 2x accepted");
  return ok;
}

}  // namespace perfbench
