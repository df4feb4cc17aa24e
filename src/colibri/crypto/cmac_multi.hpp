// Multi-lane AES/CBC-MAC primitives for the batched data-plane pipeline.
//
// The single-MAC helpers (hvf.hpp) compute one CBC-MAC at a time, which on
// AES-NI hardware leaves the aesenc pipeline mostly idle: a single chain
// is latency-bound. These helpers keep many independent MAC states in
// flight — same-key lanes ride Aes128::encrypt_blocks (4-wide interleave),
// per-lane-key batches go through aes128_encrypt_each — so the batched
// pipeline (and its batch of one) amortizes the cipher latency.
//
// Verdict parity matters more than speed here: every function is defined
// to produce byte-identical output to its scalar counterpart in hvf.hpp
// (asserted by the crypto tests and the differential harness).
#pragma once

#include <cstddef>
#include <cstdint>

#include "colibri/crypto/aes.hpp"

namespace colibri::crypto {

// Encrypt n independent (cipher, block) pairs: out[i] = E_{ciphers[i]}(in[i]).
// Blocks are 16 bytes each, packed contiguously. Interleaved 4-wide on
// AES-NI. The batched router and gateway key one lane per σ_i (Eq. 6).
void aes128_encrypt_each(const Aes128* ciphers, std::size_t n,
                         const std::uint8_t* in, std::uint8_t* out);

// CBC-MAC over n fixed-length messages under ONE key (zero-padded to whole
// blocks, no length prefix — same construction as hvf.hpp cbcmac_fixed).
// Message lane l starts at msgs + l*stride; all lanes share msg_len.
// Writes 16 bytes of MAC per lane into macs (16*n bytes total).
//
// Parity contract: for every lane, the output equals
// cbcmac_fixed(aes, msgs + l*stride, msg_len, macs + 16*l).
void cbcmac_fixed_multi(const Aes128& aes, const std::uint8_t* msgs,
                        std::size_t msg_len, std::size_t stride, std::size_t n,
                        std::uint8_t* macs);

}  // namespace colibri::crypto
