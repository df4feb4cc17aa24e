#include "colibri/crypto/cmac_multi.hpp"

#include <cstring>

namespace colibri::crypto {

void aes128_encrypt_each(const Aes128* ciphers, std::size_t n,
                         const std::uint8_t* in, std::uint8_t* out) {
#if defined(COLIBRI_HAVE_AESNI)
  if (Aes128::has_aesni()) {
    // encrypt_each wants per-lane schedule pointers; build them in chunks
    // so the pointer array stays on the stack regardless of n.
    constexpr std::size_t kChunk = 64;
    const std::uint8_t* rks[kChunk];
    for (std::size_t base = 0; base < n; base += kChunk) {
      const std::size_t m = (n - base < kChunk) ? n - base : kChunk;
      for (std::size_t i = 0; i < m; ++i) {
        rks[i] = ciphers[base + i].round_keys();
      }
      aesni::encrypt_each(rks, in + 16 * base, out + 16 * base, m);
    }
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    portable::encrypt_block(ciphers[i].round_keys(), in + 16 * i,
                            out + 16 * i);
  }
}

void cbcmac_fixed_multi(const Aes128& aes, const std::uint8_t* msgs,
                        std::size_t msg_len, std::size_t stride, std::size_t n,
                        std::uint8_t* macs) {
  std::memset(macs, 0, 16 * n);
  std::size_t off = 0;
  while (off < msg_len) {
    const std::size_t blk = (msg_len - off < 16) ? msg_len - off : 16;
    for (std::size_t l = 0; l < n; ++l) {
      const std::uint8_t* m = msgs + l * stride + off;
      std::uint8_t* x = macs + 16 * l;
      for (std::size_t i = 0; i < blk; ++i) x[i] ^= m[i];
    }
    aes.encrypt_blocks(macs, macs, n);
    off += blk;
  }
}

}  // namespace colibri::crypto
