#include "crypto/hmac.hpp"

namespace copbft::crypto {

HmacKey::HmacKey(const SymmetricKey& key) {
  // Key is exactly 32 bytes (< 64-byte block), so no pre-hash is needed.
  Byte ipad[64];
  Byte opad[64];
  for (std::size_t i = 0; i < 64; ++i) {
    Byte k = i < key.bytes.size() ? key.bytes[i] : 0;
    ipad[i] = static_cast<Byte>(k ^ 0x36);
    opad[i] = static_cast<Byte>(k ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ByteSpan{ipad, sizeof ipad});
  inner_ = inner.midstate();

  Sha256 outer;
  outer.update(ByteSpan{opad, sizeof opad});
  outer_ = outer.midstate();
}

Digest HmacKey::sha256(ByteSpan data) const {
  Sha256 inner = Sha256::resume(inner_, 1);
  inner.update(data);
  Digest inner_digest = inner.finish();

  Sha256 outer = Sha256::resume(outer_, 1);
  outer.update(inner_digest.span());
  return outer.finish();
}

Mac HmacKey::mac(ByteSpan data) const {
  Digest full = sha256(data);
  Mac mac;
  std::copy_n(full.bytes.begin(), mac.bytes.size(), mac.bytes.begin());
  return mac;
}

Digest hmac_sha256(const SymmetricKey& key, ByteSpan data) {
  return HmacKey(key).sha256(data);
}

Mac hmac_mac(const SymmetricKey& key, ByteSpan data) {
  return HmacKey(key).mac(data);
}

bool mac_equal(const Mac& a, const Mac& b) {
  Byte diff = 0;
  for (std::size_t i = 0; i < a.bytes.size(); ++i)
    diff |= static_cast<Byte>(a.bytes[i] ^ b.bytes[i]);
  return diff == 0;
}

}  // namespace copbft::crypto
