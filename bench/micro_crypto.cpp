// Microbenchmarks of the cryptographic substrate on the build host.
//
// The layer-by-layer cost of a MAC: one SHA-256 compression (portable and
// the cpuid-selected one), a one-shot HMAC that hashes both pads, and a
// MAC through RealCrypto, whose per-thread pair-key cache holds the pad
// midstates. These timings once seeded the simulator's cost model; they no
// longer feed it (sim/cost_model.hpp stays pinned to the paper's anchors,
// see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include "crypto/authenticator.hpp"
#include "crypto/provider.hpp"
#include "crypto/sha256.hpp"
#include "protocol/messages.hpp"

namespace {

using namespace copbft;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096)->Arg(65536);

// One 64-byte compression: the portable code, and the one Sha256 uses on
// this CPU (SHA-NI where cpuid reports it).
void BM_Sha256Compress(benchmark::State& state,
                       crypto::Sha256CompressFn compress) {
  std::uint32_t chain[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  Byte block[64] = {0x5a};
  for (auto _ : state) {
    compress(chain, block, 1);
    benchmark::DoNotOptimize(chain);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK_CAPTURE(BM_Sha256Compress, scalar, crypto::sha256_compress_scalar);
BENCHMARK_CAPTURE(BM_Sha256Compress, selected,
                  crypto::sha256_compress_selected());

void BM_HmacMac(benchmark::State& state) {
  crypto::SymmetricKey key = crypto::master_key_from_seed(7);
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_mac(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacMac)->Arg(64)->Arg(100)->Arg(256)->Arg(1024)->Arg(4096);

// A MAC as the runtime makes it: through the provider, pair-key lookup
// included, alternating between two pairs.
void BM_RealCryptoMac(benchmark::State& state) {
  auto crypto = crypto::make_real_crypto(7);
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  crypto::KeyNodeId peer = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto->mac(0, peer, data));
    peer ^= 3;  // 1, 2, 1, 2, ...
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RealCryptoMac)->Arg(100)->Arg(1024);

void BM_AuthenticatorBuild3(benchmark::State& state) {
  auto crypto = crypto::make_real_crypto(7);
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::Authenticator::build(*crypto, 0, {1, 2, 3}, data));
  }
}
BENCHMARK(BM_AuthenticatorBuild3)->Arg(100)->Arg(1024);

void BM_AuthenticatorVerify(benchmark::State& state) {
  auto crypto = crypto::make_real_crypto(7);
  Bytes data(static_cast<std::size_t>(state.range(0)), Byte{0x5a});
  auto auth = crypto::Authenticator::build(*crypto, 0, {1, 2, 3}, data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth.verify(*crypto, 0, 2, data));
  }
}
BENCHMARK(BM_AuthenticatorVerify)->Arg(100)->Arg(1024);

void BM_KeyStoreDerivation(benchmark::State& state) {
  crypto::KeyStore ks(crypto::master_key_from_seed(7));
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ks.key_for(0, 1000 + (i++ % 1024)));
  }
}
BENCHMARK(BM_KeyStoreDerivation);

void BM_BatchDigest(benchmark::State& state) {
  auto crypto = crypto::make_real_crypto(7);
  std::vector<protocol::Request> batch;
  for (int i = 0; i < state.range(0); ++i) {
    protocol::Request req;
    req.client = 1000 + static_cast<protocol::ClientId>(i % 16);
    req.id = static_cast<protocol::RequestId>(i);
    req.payload = Bytes(64, Byte{0x11});
    batch.push_back(std::move(req));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol::batch_digest(*crypto, batch));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BatchDigest)->Arg(1)->Arg(20)->Arg(200);

void BM_NullCryptoDigest(benchmark::State& state) {
  auto crypto = crypto::make_null_crypto();
  Bytes data(256, Byte{0x5a});
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto->digest(data));
  }
}
BENCHMARK(BM_NullCryptoDigest);

}  // namespace

BENCHMARK_MAIN();
