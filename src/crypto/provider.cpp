#include "crypto/provider.hpp"

#include <atomic>
#include <utility>

#include "crypto/sha256.hpp"

namespace copbft::crypto {
namespace {

// FNV-1a 64-bit, widened to fill the digest; NOT cryptographic, used only by
// NullCrypto where adversarial inputs are out of scope.
std::uint64_t fnv1a(ByteSpan data, std::uint64_t seed) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ seed;
  for (Byte b : data) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::atomic<std::uint64_t> next_instance{1};

// Per-thread direct-mapped cache of pair keys, shared by every RealCrypto
// the thread uses. An entry is the pair's HMAC midstates tagged with the
// provider instance and the ordered pair; instance 0 marks an empty slot.
// 32 entries x 80 B = 2.5 KB per thread, however many client ids exist.
struct PairKeySlot {
  std::uint64_t instance = 0;
  KeyNodeId lo = 0;
  KeyNodeId hi = 0;
  HmacKey key;
};

constexpr std::size_t kPairKeySlots = 32;
thread_local PairKeySlot t_pair_keys[kPairKeySlots];

}  // namespace

RealCrypto::RealCrypto(KeyStore keys)
    : keys_(std::move(keys)),
      instance_(next_instance.fetch_add(1, std::memory_order_relaxed)) {}

const HmacKey& RealCrypto::pair_key(KeyNodeId a, KeyNodeId b) const {
  if (a > b) std::swap(a, b);
  // A thread's pairs mostly share one member (its replica or client id),
  // and x -> x ^ self is injective, so they land in distinct slots. The
  // instance term spreads providers that share a thread apart.
  auto salt = static_cast<KeyNodeId>(instance_ * 0x9e3779b97f4a7c15ULL >> 32);
  PairKeySlot& slot = t_pair_keys[(a ^ b ^ salt) % kPairKeySlots];
  if (slot.instance != instance_ || slot.lo != a || slot.hi != b) {
    slot.key = HmacKey(keys_.key_for(a, b));
    slot.instance = instance_;
    slot.lo = a;
    slot.hi = b;
  }
  return slot.key;
}

Digest RealCrypto::digest(ByteSpan data) const { return Sha256::hash(data); }

Mac RealCrypto::mac(KeyNodeId sender, KeyNodeId receiver,
                    ByteSpan data) const {
  return pair_key(sender, receiver).mac(data);
}

Digest NullCrypto::digest(ByteSpan data) const {
  std::uint64_t h0 = fnv1a(data, 0);
  Digest out;
  for (int w = 0; w < 4; ++w) {
    std::uint64_t h = mix(h0 + static_cast<std::uint64_t>(w));
    for (int i = 0; i < 8; ++i)
      out.bytes[static_cast<std::size_t>(8 * w + i)] =
          static_cast<Byte>(h >> (8 * i));
  }
  return out;
}

Mac NullCrypto::mac(KeyNodeId sender, KeyNodeId receiver,
                    ByteSpan data) const {
  std::uint64_t pair = (std::uint64_t{sender} << 32) | receiver;
  std::uint64_t h0 = mix(fnv1a(data, pair));
  std::uint64_t h1 = mix(h0);
  Mac out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[static_cast<std::size_t>(i)] = static_cast<Byte>(h0 >> (8 * i));
    out.bytes[static_cast<std::size_t>(8 + i)] =
        static_cast<Byte>(h1 >> (8 * i));
  }
  return out;
}

std::unique_ptr<CryptoProvider> make_real_crypto(std::uint64_t seed) {
  return std::make_unique<RealCrypto>(KeyStore(master_key_from_seed(seed)));
}

std::unique_ptr<CryptoProvider> make_null_crypto() {
  return std::make_unique<NullCrypto>();
}

}  // namespace copbft::crypto
