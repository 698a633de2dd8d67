// CryptoProvider — the seam between protocol logic and cryptography.
//
// Two implementations:
//  * RealCrypto  — SHA-256 / HMAC-SHA256 over the cluster KeyStore; used by
//    the threaded runtime, integration tests and examples.
//  * NullCrypto  — cheap non-cryptographic stand-ins with identical
//    semantics (equal inputs -> equal digests/MACs, unequal inputs almost
//    surely differ); used by the simulator, where CPU cost is accounted by
//    the cost model instead of burned for real, and by fast unit tests.
#pragma once

#include <memory>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/key_store.hpp"

namespace copbft::crypto {

class CryptoProvider {
 public:
  virtual ~CryptoProvider() = default;

  /// Content digest used for request/batch/state identity.
  virtual Digest digest(ByteSpan data) const = 0;

  /// MAC over `data` for the directed pair sender -> receiver.
  virtual Mac mac(KeyNodeId sender, KeyNodeId receiver,
                  ByteSpan data) const = 0;

  virtual bool verify_mac(KeyNodeId sender, KeyNodeId receiver, ByteSpan data,
                          const Mac& candidate) const {
    return mac_equal(mac(sender, receiver, data), candidate);
  }
};

/// MACs come from pair keys cached as HMAC midstates in a small per-thread
/// table (see provider.cpp), so a MAC on a known pair costs the message's
/// blocks plus one, with no lock and no shared write.
class RealCrypto final : public CryptoProvider {
 public:
  explicit RealCrypto(KeyStore keys);

  Digest digest(ByteSpan data) const override;
  Mac mac(KeyNodeId sender, KeyNodeId receiver, ByteSpan data) const override;

 private:
  const HmacKey& pair_key(KeyNodeId a, KeyNodeId b) const;

  KeyStore keys_;
  /// Process-unique and never reused: tags this provider's cache entries,
  /// so a provider created at a recycled address cannot hit stale ones.
  std::uint64_t instance_;
};

class NullCrypto final : public CryptoProvider {
 public:
  Digest digest(ByteSpan data) const override;
  Mac mac(KeyNodeId sender, KeyNodeId receiver, ByteSpan data) const override;
};

/// RealCrypto over a key store seeded from `seed`.
std::unique_ptr<CryptoProvider> make_real_crypto(std::uint64_t seed);
std::unique_ptr<CryptoProvider> make_null_crypto();

}  // namespace copbft::crypto
