#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/hex.hpp"
#include "common/rng.hpp"
#include "crypto/authenticator.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key_store.hpp"
#include "crypto/provider.hpp"
#include "crypto/sha256.hpp"

namespace copbft::crypto {
namespace {

// ---- SHA-256 (FIPS 180-4 / NIST CAVS vectors) -----------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::hash({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::hash(to_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::hash(to_bytes(
                       "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  Bytes chunk(1000, Byte{'a'});
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(ctx.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte input exercises the padding-into-second-block path.
  Bytes input(64, Byte{'x'});
  Digest once = Sha256::hash(input);
  Sha256 ctx;
  ctx.update(ByteSpan{input.data(), 31});
  ctx.update(ByteSpan{input.data() + 31, 33});
  EXPECT_EQ(ctx.finish(), once);
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<Byte>(i * 7));
  for (std::size_t split : {0UL, 1UL, 63UL, 64UL, 65UL, 999UL}) {
    Sha256 ctx;
    ctx.update(ByteSpan{data.data(), split});
    ctx.update(ByteSpan{data.data() + split, data.size() - split});
    EXPECT_EQ(ctx.finish(), Sha256::hash(data)) << "split=" << split;
  }
}

TEST(Sha256, LengthExtension55To57) {
  // Lengths around the 56-byte padding threshold.
  for (std::size_t len = 50; len <= 70; ++len) {
    Bytes a(len, Byte{0x41});
    Bytes b(len, Byte{0x41});
    EXPECT_EQ(Sha256::hash(a), Sha256::hash(b));
    b.back() = 0x42;
    EXPECT_NE(Sha256::hash(a), Sha256::hash(b));
  }
}

// ---- compression functions --------------------------------------------

// Whole-message SHA-256 on the portable compression alone, with its own
// padding: the reference for the selected compression and Sha256's
// buffering and padding.
Digest scalar_reference_hash(const Bytes& data) {
  Bytes msg = data;
  const std::uint64_t bit_len = 8 * static_cast<std::uint64_t>(data.size());
  msg.push_back(0x80);
  while (msg.size() % 64 != 56) msg.push_back(0);
  for (int i = 7; i >= 0; --i)
    msg.push_back(static_cast<Byte>(bit_len >> (8 * i)));
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  sha256_compress_scalar(state, msg.data(), msg.size() / 64);
  Digest out;
  for (int i = 0; i < 8; ++i)
    for (int b = 0; b < 4; ++b)
      out.bytes[static_cast<std::size_t>(4 * i + b)] =
          static_cast<Byte>(state[i] >> (24 - 8 * b));
  return out;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (Byte& b : out) b = static_cast<Byte>(rng());
  return out;
}

TEST(Sha256Compress, ShaNiMatchesScalarOnRandomBlocks) {
  Sha256CompressFn shani = sha256_compress_shani();
  if (shani == nullptr) GTEST_SKIP() << "CPU has no SHA extensions";
  Rng rng(13);
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t nblocks = 1 + rng.below(4);
    Bytes blocks = random_bytes(rng, 64 * nblocks);
    std::uint32_t a[8], b[8];
    for (int i = 0; i < 8; ++i) a[i] = b[i] = static_cast<std::uint32_t>(rng());
    sha256_compress_scalar(a, blocks.data(), nblocks);
    shani(b, blocks.data(), nblocks);
    ASSERT_EQ(std::memcmp(a, b, sizeof a), 0) << "trial " << trial;
  }
}

TEST(Sha256Compress, SelectedIsShaNiWhenAvailable) {
  Sha256CompressFn shani = sha256_compress_shani();
  EXPECT_EQ(sha256_compress_selected(),
            shani != nullptr ? shani : &sha256_compress_scalar);
}

TEST(Sha256Compress, HashMatchesScalarReferenceForLengths0To1100) {
  Rng rng(17);
  Bytes data = random_bytes(rng, 1100);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    Bytes prefix(data.begin(),
                 data.begin() + static_cast<std::ptrdiff_t>(len));
    ASSERT_EQ(Sha256::hash(prefix), scalar_reference_hash(prefix))
        << "len " << len;
  }
}

// ---- HMAC-SHA256 (RFC 4231 vectors) ----------------------------------

SymmetricKey key_of(const Bytes& raw) {
  SymmetricKey key{};
  std::copy_n(raw.begin(), std::min(raw.size(), key.bytes.size()),
              key.bytes.begin());
  return key;
}

TEST(Hmac, Rfc4231Case1Truncated) {
  // Key = 20 x 0x0b (zero-padded to 32 bytes differs from RFC's exact key
  // handling only if key > block size, which does not apply), data "Hi
  // There". We verify against a reference computed for the padded key via
  // the definition itself (inner/outer), i.e. self-consistency plus the
  // independent property tests below.
  SymmetricKey key = key_of(Bytes(20, Byte{0x0b}));
  Digest mac = hmac_sha256(key, to_bytes("Hi There"));
  // HMAC with the 32-byte zero-padded key equals HMAC with the 20-byte key
  // because HMAC zero-pads keys shorter than the block size.
  EXPECT_EQ(mac.hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  SymmetricKey key = key_of(to_bytes("Jefe"));
  Digest mac = hmac_sha256(key, to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(mac.hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  SymmetricKey key = key_of(Bytes(20, Byte{0xaa}));
  Digest mac = hmac_sha256(key, Bytes(50, Byte{0xdd}));
  EXPECT_EQ(mac.hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, KeySensitivity) {
  SymmetricKey k1 = key_of(to_bytes("one"));
  SymmetricKey k2 = key_of(to_bytes("two"));
  Bytes data = to_bytes("payload");
  EXPECT_NE(hmac_sha256(k1, data), hmac_sha256(k2, data));
}

TEST(Hmac, TruncatedMacEquality) {
  SymmetricKey key = key_of(to_bytes("k"));
  Mac a = hmac_mac(key, to_bytes("m"));
  Mac b = hmac_mac(key, to_bytes("m"));
  EXPECT_TRUE(mac_equal(a, b));
  Mac c = hmac_mac(key, to_bytes("n"));
  EXPECT_FALSE(mac_equal(a, c));
}

TEST(Hmac, MidstateKeyMatchesTheDefinition) {
  // HMAC(K, m) = H((K ^ opad) || H((K ^ ipad) || m)), spelled out.
  SymmetricKey key = master_key_from_seed(3);
  Rng rng(5);
  for (std::size_t len : {0UL, 1UL, 55UL, 56UL, 64UL, 100UL, 1024UL}) {
    Bytes data = random_bytes(rng, len);
    Bytes inner, outer;
    for (std::size_t i = 0; i < 64; ++i) {
      Byte k = i < key.bytes.size() ? key.bytes[i] : 0;
      inner.push_back(static_cast<Byte>(k ^ 0x36));
      outer.push_back(static_cast<Byte>(k ^ 0x5c));
    }
    inner.insert(inner.end(), data.begin(), data.end());
    Digest inner_digest = Sha256::hash(inner);
    outer.insert(outer.end(), inner_digest.bytes.begin(),
                 inner_digest.bytes.end());
    const HmacKey midstates(key);
    EXPECT_EQ(midstates.sha256(data), Sha256::hash(outer)) << "len " << len;
    EXPECT_EQ(midstates.mac(data), hmac_mac(key, data)) << "len " << len;
  }
}

// ---- key store -------------------------------------------------------

TEST(KeyStore, PairwiseSymmetry) {
  KeyStore ks(master_key_from_seed(42));
  EXPECT_EQ(ks.key_for(1, 2), ks.key_for(2, 1));
  EXPECT_EQ(ks.key_for(0, 1000), ks.key_for(1000, 0));
}

TEST(KeyStore, DistinctPairsDistinctKeys) {
  KeyStore ks(master_key_from_seed(42));
  EXPECT_NE(ks.key_for(1, 2), ks.key_for(1, 3));
  EXPECT_NE(ks.key_for(1, 2), ks.key_for(2, 3));
}

TEST(KeyStore, DifferentMastersDiffer) {
  KeyStore a(master_key_from_seed(1));
  KeyStore b(master_key_from_seed(2));
  EXPECT_NE(a.key_for(0, 1), b.key_for(0, 1));
}

// ---- providers -------------------------------------------------------

TEST(Providers, RealCryptoMacRoundTrip) {
  auto crypto = make_real_crypto(7);
  Bytes data = to_bytes("hello world");
  Mac mac = crypto->mac(0, 1, data);
  EXPECT_TRUE(crypto->verify_mac(0, 1, data, mac));
  EXPECT_TRUE(crypto->verify_mac(1, 0, data, mac)) << "pairwise symmetric";
  EXPECT_FALSE(crypto->verify_mac(0, 2, data, mac));
  data.push_back('!');
  EXPECT_FALSE(crypto->verify_mac(0, 1, data, mac));
}

// The reference MAC: derive the pair key afresh, no cache involved.
Mac reference_mac(std::uint64_t seed, KeyNodeId a, KeyNodeId b,
                  ByteSpan data) {
  return hmac_mac(KeyStore(master_key_from_seed(seed)).key_for(a, b), data);
}

TEST(Providers, RealCryptoMacMatchesReferenceBeyondCacheSize) {
  // Far more distinct pairs than the per-thread cache holds, each MACed in
  // both directions and revisited after the others evicted it.
  auto crypto = make_real_crypto(7);
  Bytes data = to_bytes("a frame of about the size the runtime MACs");
  for (int pass = 0; pass < 2; ++pass) {
    for (KeyNodeId a = 0; a < 4; ++a) {
      for (KeyNodeId b = 0; b < 60; ++b) {
        const KeyNodeId peer = b < 4 ? b : 1000 + b;
        const Mac expected = reference_mac(7, a, peer, data);
        ASSERT_EQ(crypto->mac(a, peer, data), expected)
            << a << "->" << peer << " pass " << pass;
        ASSERT_EQ(crypto->mac(peer, a, data), expected)
            << peer << "->" << a << " pass " << pass;
      }
    }
  }
}

TEST(Providers, InterleavedProvidersKeepTheirOwnKeys) {
  auto one = make_real_crypto(1);
  auto two = make_real_crypto(2);
  Bytes data = to_bytes("interleaved");
  for (int round = 0; round < 3; ++round) {
    for (KeyNodeId peer : {1u, 2u, 1001u}) {
      EXPECT_EQ(one->mac(0, peer, data), reference_mac(1, 0, peer, data));
      EXPECT_EQ(two->mac(0, peer, data), reference_mac(2, 0, peer, data));
      EXPECT_NE(one->mac(0, peer, data), two->mac(0, peer, data));
    }
  }
}

TEST(Providers, RecreatedProviderNeverSeesStaleKeys) {
  // A provider destroyed and re-created, quite possibly at the same
  // address, must not hit entries its predecessor left in the cache.
  Bytes data = to_bytes("recreated");
  for (std::uint64_t seed = 10; seed < 20; ++seed) {
    auto crypto = make_real_crypto(seed);
    for (KeyNodeId peer : {1u, 2u, 3u, 1000u})
      ASSERT_EQ(crypto->mac(0, peer, data), reference_mac(seed, 0, peer, data))
          << "seed " << seed << " peer " << peer;
  }
}

TEST(Providers, ConcurrentThreadsMacRandomPairs) {
  auto crypto = make_real_crypto(7);
  const KeyStore keys(master_key_from_seed(7));
  constexpr int kThreads = 8;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 2000; ++i) {
        const auto a = static_cast<KeyNodeId>(rng.below(8));
        const auto b = static_cast<KeyNodeId>(
            rng.below(2) == 0 ? rng.below(8) : 1000 + rng.below(64));
        Bytes data = random_bytes(rng, rng.below(300));
        if (crypto->mac(a, b, data) != hmac_mac(keys.key_for(a, b), data))
          ++mismatches[static_cast<std::size_t>(t)];
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
}

TEST(Providers, NullCryptoSemantics) {
  auto crypto = make_null_crypto();
  EXPECT_EQ(crypto->digest(to_bytes("a")), crypto->digest(to_bytes("a")));
  EXPECT_NE(crypto->digest(to_bytes("a")), crypto->digest(to_bytes("b")));
  Mac mac = crypto->mac(3, 4, to_bytes("x"));
  EXPECT_TRUE(crypto->verify_mac(3, 4, to_bytes("x"), mac));
  EXPECT_FALSE(crypto->verify_mac(3, 5, to_bytes("x"), mac));
  EXPECT_FALSE(crypto->verify_mac(3, 4, to_bytes("y"), mac));
}

// ---- authenticators ----------------------------------------------------

TEST(Authenticator, BuildAndVerifyPerRecipient) {
  auto crypto = make_real_crypto(9);
  Bytes data = to_bytes("message body");
  auto auth = Authenticator::build(*crypto, 0, {1, 2, 3}, data);
  ASSERT_EQ(auth.entries.size(), 3u);
  for (KeyNodeId r : {1u, 2u, 3u})
    EXPECT_TRUE(auth.verify(*crypto, 0, r, data));
  EXPECT_FALSE(auth.verify(*crypto, 0, 4, data)) << "not addressed";
  EXPECT_FALSE(auth.verify(*crypto, 1, 2, data)) << "wrong claimed sender";
}

TEST(Authenticator, TamperedBodyFails) {
  auto crypto = make_real_crypto(9);
  Bytes data = to_bytes("message body");
  auto auth = Authenticator::build(*crypto, 0, {1}, data);
  data[0] ^= 1;
  EXPECT_FALSE(auth.verify(*crypto, 0, 1, data));
}

TEST(Authenticator, WireSizeFormula) {
  auto crypto = make_null_crypto();
  auto auth = Authenticator::build(*crypto, 0, {1, 2, 3}, to_bytes("x"));
  EXPECT_EQ(auth.wire_size(), 2 + 3 * (4 + 16));
}

}  // namespace
}  // namespace copbft::crypto
