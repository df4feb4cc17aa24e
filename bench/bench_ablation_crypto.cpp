// Ablation: crypto primitive choices behind the data-plane numbers.
//
// (a) AES-NI vs. portable AES — quantifies how much of the Mpps headroom
//     comes from hardware AES (the paper's "native hardware-accelerated
//     instructions", §7.1);
// (b) fixed-length CBC-MAC (paper's choice) vs. CMAC (subkey masking) on
//     the actual HVF input sizes;
// (c) the full per-packet crypto budgets of the gateway (Eq. 6 only,
//     h = 4 hops) and the border router (Eq. 4 + Eq. 6).
#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include "colibri/common/rand.hpp"
#include "colibri/crypto/cmac.hpp"
#include "colibri/dataplane/hvf.hpp"

namespace {

using namespace colibri;
using crypto::Aes128;

void BM_AesBlock(benchmark::State& state) {
  const bool portable = state.range(0) != 0;
  Aes128::set_force_portable(portable);
  std::uint8_t key[16], block[16];
  Rng rng(1);
  rng.fill(key, 16);
  rng.fill(block, 16);
  Aes128 aes(key);
  for (auto _ : state) {
    aes.encrypt_block(block, block);
    benchmark::DoNotOptimize(block[0]);
  }
  Aes128::set_force_portable(false);
  state.SetLabel(portable ? "portable" : "aesni-if-available");
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_AesBlock)->Arg(0)->Arg(1);

void BM_AesKeyExpansion(benchmark::State& state) {
  // The router/gateway expand σ_i's schedule per packet per hop:
  // AESKEYGENASSIST vs. the portable expansion.
  const bool portable = state.range(0) != 0;
  Aes128::set_force_portable(portable);
  std::uint8_t key[16];
  Rng rng(2);
  rng.fill(key, 16);
  Aes128 aes;
  for (auto _ : state) {
    aes.set_key(key);
    benchmark::DoNotOptimize(aes.round_keys()[0]);
    ++key[0];
  }
  Aes128::set_force_portable(false);
  state.SetLabel(portable ? "portable" : "aesni-if-available");
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_AesKeyExpansion)->Arg(0)->Arg(1);

template <size_t N>
void mac_input(Rng& rng, std::uint8_t (&buf)[N]) {
  rng.fill(buf, N);
}

void BM_CbcmacFixedHopAuthInput(benchmark::State& state) {
  // Eq. 4 input: 57 bytes -> 4 CBC blocks. The router's main cost.
  std::uint8_t key[16];
  Rng rng(3);
  rng.fill(key, 16);
  Aes128 aes(key);
  std::uint8_t msg[proto::kHopAuthInputLen];
  mac_input(rng, msg);
  std::uint8_t out[16];
  for (auto _ : state) {
    dataplane::cbcmac_fixed(aes, msg, sizeof(msg), out);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CbcmacFixedHopAuthInput);

void BM_CmacHopAuthInput(benchmark::State& state) {
  std::uint8_t key[16];
  Rng rng(4);
  rng.fill(key, 16);
  crypto::Cmac cmac(key);
  std::uint8_t msg[proto::kHopAuthInputLen];
  mac_input(rng, msg);
  std::uint8_t out[16];
  for (auto _ : state) {
    cmac.compute(msg, sizeof(msg), out);
    benchmark::DoNotOptimize(out[0]);
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_CmacHopAuthInput);

// Gateway per-packet crypto with h stored hop authenticators: h x
// (key schedule + 1 AES block), Eq. 6.
void BM_GatewayCryptoBudget(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  Rng rng(6);
  std::vector<dataplane::HopAuth> sigmas(static_cast<size_t>(hops));
  for (auto& s : sigmas) rng.fill(s.data(), s.size());
  std::uint32_t ts = 1;
  for (auto _ : state) {
    for (const auto& sigma : sigmas) {
      auto v = dataplane::compute_data_hvf(sigma, ts, 1000);
      benchmark::DoNotOptimize(v);
    }
    ++ts;
  }
  state.counters["hops"] = hops;
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_GatewayCryptoBudget)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Router per-packet crypto: recreate σ_i (Eq. 4, 4 CBC blocks) + derive
// the per-packet HVF (Eq. 6, key schedule + 1 block).
void BM_RouterCryptoBudget(benchmark::State& state) {
  Rng rng(7);
  std::uint8_t key[16];
  rng.fill(key, 16);
  Aes128 hop_cipher(key);
  proto::ResInfo ri;
  ri.src_as = AsId{1, 1};
  ri.res_id = 1;
  proto::EerInfo ei;
  std::uint32_t ts = 1;
  for (auto _ : state) {
    const auto sigma = dataplane::compute_hopauth(hop_cipher, ri, ei, 1, 2);
    auto v = dataplane::compute_data_hvf(sigma, ts, 1000);
    benchmark::DoNotOptimize(v);
    ++ts;
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(BM_RouterCryptoBudget);

}  // namespace

COLIBRI_BENCH_MAIN(bench_ablation_crypto);
