// Correctness checks of the benchmark, computed apart from the program:
// expected replies and values are built here from the benchmark's own
// inputs, never read back from the runtime's codecs or state. Each
// checker is pure so run_selftest() can feed it corrupted inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/digest.hpp"

namespace perfbench {

using copbft::Byte;
using copbft::Bytes;
using copbft::ByteSpan;

/// NullService(size) answers every request with `size` bytes of 0xab.
bool null_reply_ok(ByteSpan reply, std::size_t size);

/// All replicas hold one state.
bool digests_agree(const std::vector<copbft::crypto::Digest>& digests);

/// Every replica executed each of the `issued` distinct requests once.
bool executed_exactly_once(const std::vector<std::uint64_t>& executed,
                           std::uint64_t issued);

/// Little's law for a closed loop: `outstanding` requests always in
/// flight means throughput x mean latency == outstanding. True when the
/// relative gap is within `tolerance`.
bool littles_law_holds(double outstanding, double throughput_per_s,
                       double mean_latency_s, double tolerance);

/// Model of the key-value workload. Every (client, slot) pair owns a
/// disjoint range of `keys_per_slot` keys and runs its operations one at
/// a time, so the model knows the value every get must return. Each put
/// writes a value derived from a tag unique to that operation.
class KvModel {
 public:
  static constexpr std::size_t kValueSize = 1024;

  KvModel(std::uint32_t slots, std::uint32_t keys_per_slot);

  std::uint32_t keys_per_slot() const { return keys_per_slot_; }
  std::string key(std::uint32_t slot, std::uint32_t index) const;
  /// The value written by the put carrying `tag`.
  static Bytes value_for(std::uint64_t tag);
  /// A tag no other put of the run carries.
  std::uint64_t next_tag(std::uint32_t slot);

  /// Records that the put of `tag` to (slot, index) completed.
  void note_put(std::uint32_t slot, std::uint32_t index, std::uint64_t tag);
  /// Reply bytes KvStore must return for a get of (slot, index) / a put:
  /// [status u8 | u32 little-endian length | value].
  Bytes expected_get(std::uint32_t slot, std::uint32_t index) const;
  static Bytes expected_put();

  /// Compares every key of the model with one replica's store.
  bool state_matches(
      const std::function<const Bytes*(const std::string&)>& lookup) const;

 private:
  std::uint32_t slots_;
  std::uint32_t keys_per_slot_;
  std::vector<std::uint64_t> next_tag_;  ///< per slot
  std::vector<std::uint64_t> current_;   ///< per key: tag of the last put, 0 = none
};

/// Feeds every checker one good and at least one corrupted input; returns
/// false (after printing which case failed) if a corruption went unseen
/// or a good input was rejected.
bool run_selftest();

}  // namespace perfbench
