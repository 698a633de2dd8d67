// SHA-256 (FIPS 180-4), implemented from scratch; incremental interface.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace copbft::crypto {

/// Compression function: absorbs `nblocks` consecutive 64-byte blocks into
/// the chaining state `state`.
using Sha256CompressFn = void (*)(std::uint32_t state[8], const Byte* blocks,
                                  std::size_t nblocks);

/// Portable compression; the fallback on every CPU and the test reference.
void sha256_compress_scalar(std::uint32_t state[8], const Byte* blocks,
                            std::size_t nblocks);

/// The x86 SHA extensions (SHA-NI) compression, or nullptr when this CPU or
/// build target lacks them.
Sha256CompressFn sha256_compress_shani();

/// The compression every Sha256 context uses: SHA-NI when cpuid reports it,
/// the scalar one otherwise. Chosen once, at static initialisation.
Sha256CompressFn sha256_compress_selected();

/// Incremental SHA-256 context.
///
///   Sha256 ctx;
///   ctx.update(a); ctx.update(b);
///   Digest d = ctx.finish();
///
/// finish() may be called once; reset() re-initializes for reuse.
class Sha256 {
 public:
  /// Chaining state between whole blocks (for example an HMAC pad midstate).
  using State = std::array<std::uint32_t, 8>;

  Sha256() { reset(); }

  /// Context that continues from `state` after `blocks` absorbed blocks.
  static Sha256 resume(const State& state, std::uint64_t blocks);

  void reset();
  void update(ByteSpan data);
  Digest finish();

  /// Chaining state; only meaningful after a whole number of blocks.
  State midstate() const { return state_; }

  /// One-shot convenience.
  static Digest hash(ByteSpan data) {
    Sha256 ctx;
    ctx.update(data);
    return ctx.finish();
  }

 private:
  State state_;
  std::uint64_t total_bytes_;
  Byte buffer_[64];
  std::size_t buffered_;
};

}  // namespace copbft::crypto
