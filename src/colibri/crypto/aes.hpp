// AES-128 block cipher, encryption only: CBC-MAC, CMAC, CTR and EAX
// (paper §4.5-4.6) never run the inverse cipher.
//
// Two backends: a portable table-free byte-oriented implementation and an
// AES-NI path (compiled in a separate -maes translation unit, selected at
// runtime via CPUID). The data plane computes 1-2 AES-CMACs per packet
// and expands one σ_i schedule per packet-hop (Eq. 6), so single-block
// latency and key expansion dominate the forwarding benchmarks (Figs. 5-6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace colibri::crypto {

class Aes128 {
 public:
  static constexpr size_t kBlockSize = 16;
  static constexpr size_t kKeySize = 16;
  static constexpr int kRounds = 10;

  // Leaves the schedule unset, so a stack array of lanes costs no clear
  // per call; set_key must run before the first encryption.
  Aes128() = default;
  explicit Aes128(const std::uint8_t key[kKeySize]) { set_key(key); }

  // AESKEYGENASSIST expansion when AES-NI is in use, portable otherwise;
  // both produce the same round keys.
  void set_key(const std::uint8_t key[kKeySize]);

  // Single-block ECB encryption. in and out may alias.
  void encrypt_block(const std::uint8_t in[kBlockSize],
                     std::uint8_t out[kBlockSize]) const;

  // Same-key multi-block ECB over `n` independent blocks. On AES-NI the
  // blocks are interleaved four wide so the pipelined aesenc latency is
  // amortized across lanes (the batched data-plane pipeline's workhorse).
  // in and out may alias element-wise.
  void encrypt_blocks(const std::uint8_t* in, std::uint8_t* out,
                      std::size_t n_blocks) const;

  // Expanded encryption round keys, 11 x 16 bytes, little-endian order.
  const std::uint8_t* round_keys() const { return rk_; }

  // True if the AES-NI fast path is compiled in and supported by the CPU.
  static bool has_aesni();

  // Force the portable path, key expansion included (for tests and the
  // crypto ablation bench).
  static void set_force_portable(bool force);

 private:
  alignas(16) std::uint8_t rk_[16 * (kRounds + 1)];
};

static_assert(std::is_trivially_default_constructible_v<Aes128>,
              "multi-lane AES keeps Aes128 arrays on the stack per batch");

// Portable reference primitives operating on a raw round-key schedule.
// Aes128 and the multi-lane batch helpers (cmac_multi.hpp) fall back to
// them when AES-NI is unavailable.
namespace portable {
void expand_key(const std::uint8_t key[16], std::uint8_t rk[176]);
void encrypt_block(const std::uint8_t rk[176], const std::uint8_t in[16],
                   std::uint8_t out[16]);
}  // namespace portable

// AES-NI backend hooks (defined in aesni.cpp when compiled in).
namespace aesni {
bool runtime_supported();
void expand_key(const std::uint8_t key[16], std::uint8_t rk[176]);
void encrypt_block(const std::uint8_t rk[176], const std::uint8_t in[16],
                   std::uint8_t out[16]);
// Same key, n blocks, interleaved 4-wide.
void encrypt_blocks(const std::uint8_t rk[176], const std::uint8_t* in,
                    std::uint8_t* out, std::size_t n);
// n independent (round-key schedule, block) lanes, interleaved 4-wide.
void encrypt_each(const std::uint8_t* const* rks, const std::uint8_t* in,
                  std::uint8_t* out, std::size_t n);
}  // namespace aesni

}  // namespace colibri::crypto
