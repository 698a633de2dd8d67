// HMAC-SHA256 (RFC 2104), built on our SHA-256.
#pragma once

#include "common/bytes.hpp"
#include "crypto/digest.hpp"
#include "crypto/sha256.hpp"

namespace copbft::crypto {

/// Symmetric key used for pairwise message authentication.
struct SymmetricKey {
  std::array<Byte, 32> bytes{};

  bool operator==(const SymmetricKey&) const = default;
  ByteSpan span() const { return {bytes.data(), bytes.size()}; }
};

/// An HMAC-SHA256 key with its ipad and opad blocks already absorbed: the
/// SHA-256 midstates after one block each. A MAC over a short message then
/// costs the message's own blocks plus one outer block, instead of also
/// re-hashing both pads.
class HmacKey {
 public:
  HmacKey() = default;
  explicit HmacKey(const SymmetricKey& key);

  /// HMAC-SHA256 of `data`.
  Digest sha256(ByteSpan data) const;

  /// HMAC truncated to a 128-bit MAC.
  Mac mac(ByteSpan data) const;

 private:
  Sha256::State inner_{};
  Sha256::State outer_{};
};

/// One-shot HMAC-SHA256 of `data` under `key`.
Digest hmac_sha256(const SymmetricKey& key, ByteSpan data);

/// HMAC truncated to a 128-bit MAC (the form carried in authenticators).
Mac hmac_mac(const SymmetricKey& key, ByteSpan data);

/// Constant-time MAC comparison.
bool mac_equal(const Mac& a, const Mac& b);

}  // namespace copbft::crypto
