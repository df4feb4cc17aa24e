// Direct unit tests for control-plane building blocks: request limiters,
// the SegR registry/whitelists, and the message bus.
#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "colibri/cserv/bus.hpp"
#include "colibri/cserv/ratelimit.hpp"
#include "colibri/cserv/registry.hpp"

namespace colibri::cserv {
namespace {

TEST(RequestLimiterTest, AllowsBurstThenThrottles) {
  RequestLimiter limiter(/*rate=*/10.0, /*burst=*/5.0);
  int allowed = 0;
  for (int i = 0; i < 20; ++i) allowed += limiter.allow(1, 0);
  EXPECT_EQ(allowed, 5);  // burst only, no time passed
}

TEST(RequestLimiterTest, RefillsOverTime) {
  RequestLimiter limiter(10.0, 5.0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(limiter.allow(1, 0));
  ASSERT_FALSE(limiter.allow(1, 0));
  // 0.5 s -> 5 tokens.
  EXPECT_TRUE(limiter.allow(1, kNsPerSec / 2));
}

TEST(RequestLimiterTest, KeysAreIndependent) {
  RequestLimiter limiter(1.0, 1.0);
  EXPECT_TRUE(limiter.allow(1, 0));
  EXPECT_FALSE(limiter.allow(1, 0));
  EXPECT_TRUE(limiter.allow(2, 0));  // other key unaffected
}

TEST(RequestLimiterTest, ExpireDropsIdleEntries) {
  RequestLimiter limiter(1.0, 1.0);
  limiter.allow(1, 0);
  limiter.allow(2, 5 * kNsPerSec);
  EXPECT_EQ(limiter.tracked(), 2u);
  limiter.expire(6 * kNsPerSec, 2 * kNsPerSec);
  EXPECT_EQ(limiter.tracked(), 1u);  // key 1 idle > 2 s
}

TEST(ControlRateLimiterTest, SeparatesRequestAndRenewalBudgets) {
  RateLimitConfig cfg;
  cfg.per_as_requests_per_sec = 100;
  cfg.per_as_burst = 2;
  cfg.renewals_per_reservation_per_sec = 1;
  cfg.renewal_burst = 1;
  ControlRateLimiter limiter(cfg);
  const AsId as{1, 5};
  const ResKey key{as, 7};
  EXPECT_TRUE(limiter.allow_request(as, 0));
  EXPECT_TRUE(limiter.allow_renewal(key, 0));
  EXPECT_FALSE(limiter.allow_renewal(key, 0));  // renewal budget spent
  EXPECT_TRUE(limiter.allow_request(as, 0));    // request budget separate
}

TEST(ControlRateLimiterTest, ExpirySweepChangesNoVerdict) {
  // Twin limiters see one seeded stream; only one is swept. The key
  // space drifts over time, so old sources and reservations go idle and
  // the sweep has entries to drop.
  RateLimitConfig cfg;
  cfg.per_as_requests_per_sec = 5;
  cfg.per_as_burst = 3;
  cfg.renewals_per_reservation_per_sec = 1;
  cfg.renewal_burst = 2;
  ControlRateLimiter swept(cfg);
  ControlRateLimiter kept(cfg);
  std::mt19937 rng(11);
  TimeNs now = 0;
  size_t allowed = 0, refused = 0;
  for (std::uint32_t i = 0; i < 20'000; ++i) {
    now += static_cast<TimeNs>(rng() % 50) * kNsPerSec / 1000;
    const AsId as{1, 1 + i / 2'000 + rng() % 4};
    const ResKey key{as, static_cast<ResId>(1 + rng() % 4)};
    bool a, b;
    if (rng() % 2 == 0) {
      a = swept.allow_request(as, now);
      b = kept.allow_request(as, now);
    } else {
      a = swept.allow_renewal(key, now);
      b = kept.allow_renewal(key, now);
    }
    ASSERT_EQ(a, b) << "request " << i;
    (a ? allowed : refused) += 1;
    if (i % 7 == 0) swept.expire(now);
  }
  // Both verdicts occurred, and the sweep kept the maps smaller.
  EXPECT_GT(allowed, 0u);
  EXPECT_GT(refused, 0u);
  EXPECT_LT(swept.tracked(), kept.tracked());

  // After an idle period every budget has refilled: nothing is tracked.
  now += 10 * kNsPerSec;
  swept.expire(now);
  EXPECT_EQ(swept.tracked(), 0u);
}

TEST(RequestLimiterTest, ExpireKeepsEntriesShortOfAFullBurst) {
  RequestLimiter limiter(/*rate_per_sec=*/1.0, /*burst=*/3.0);
  EXPECT_EQ(limiter.refill_ns(), 3 * kNsPerSec);
  ASSERT_TRUE(limiter.allow(1, 0));
  ASSERT_TRUE(limiter.allow(1, 0));
  ASSERT_TRUE(limiter.allow(1, 0));
  // Idle past the 1 s threshold but refilled to only 2 of 3 tokens.
  limiter.expire(2 * kNsPerSec, kNsPerSec);
  EXPECT_EQ(limiter.tracked(), 1u);
  limiter.expire(3 * kNsPerSec + 1, limiter.refill_ns());
  EXPECT_EQ(limiter.tracked(), 0u);
  EXPECT_EQ(RequestLimiter(0.0, 1.0).refill_ns(),
            std::numeric_limits<TimeNs>::max());
}

SegrAdvert advert(AsId first, AsId last, ResId id, UnixSec exp = 1000,
                  std::vector<AsId> whitelist = {}) {
  SegrAdvert a;
  a.key = ResKey{first, id};
  a.seg_type = topology::SegType::kUp;
  a.hops = {topology::Hop{first, kNoInterface, 1},
            topology::Hop{last, 2, kNoInterface}};
  a.bw_kbps = 1000;
  a.exp_time = exp;
  a.whitelist = std::move(whitelist);
  return a;
}

TEST(RegistryTest, QueryByEndpoints) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2}, c{1, 3};
  reg.register_segr(advert(a, b, 1));
  reg.register_segr(advert(a, c, 2));
  EXPECT_EQ(reg.query(a, a, b, 0).size(), 1u);
  EXPECT_EQ(reg.query_from(a, a, 0).size(), 2u);
  EXPECT_EQ(reg.query_to(a, c, 0).size(), 1u);
  EXPECT_TRUE(reg.query(a, b, a, 0).empty());
}

TEST(RegistryTest, ExpiredAdvertsFiltered) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2};
  reg.register_segr(advert(a, b, 1, /*exp=*/100));
  EXPECT_EQ(reg.query(a, a, b, 99).size(), 1u);
  EXPECT_TRUE(reg.query(a, a, b, 100).empty());
  EXPECT_EQ(reg.expire(100), 1u);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(RegistryTest, WhitelistFiltersQueries) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2}, friend_as{1, 5}, stranger{1, 6};
  reg.register_segr(advert(a, b, 1, 1000, {friend_as}));
  EXPECT_EQ(reg.query(friend_as, a, b, 0).size(), 1u);
  EXPECT_TRUE(reg.query(stranger, a, b, 0).empty());
  // The initiator itself always passes.
  EXPECT_EQ(reg.query(a, a, b, 0).size(), 1u);
}

TEST(RegistryTest, InvalidateRemovesCachedAdvert) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2};
  reg.cache_remote(advert(a, b, 1));
  ASSERT_TRUE(reg.find(ResKey{a, 1}).has_value());
  reg.invalidate(ResKey{a, 1});
  EXPECT_FALSE(reg.find(ResKey{a, 1}).has_value());
}

TEST(RegistryTest, ReRegistrationOverwrites) {
  SegrRegistry reg;
  const AsId a{1, 1}, b{1, 2};
  reg.register_segr(advert(a, b, 1, 100));
  auto updated = advert(a, b, 1, 900);
  updated.bw_kbps = 7777;
  reg.register_segr(updated);
  EXPECT_EQ(reg.size(), 1u);
  EXPECT_EQ(reg.find(ResKey{a, 1})->bw_kbps, 7777u);
}

TEST(MessageBusTest, RoutesToHandler) {
  MessageBus bus;
  const AsId a{1, 1};
  bus.attach(a, [](BytesView req) {
    Bytes resp(req.begin(), req.end());
    resp.push_back(0xFF);
    return resp;
  });
  ASSERT_TRUE(bus.reachable(a));
  const Bytes req = {1, 2, 3};
  const Bytes resp = bus.call(a, req);
  ASSERT_EQ(resp.size(), 4u);
  EXPECT_EQ(resp.back(), 0xFF);
  EXPECT_EQ(bus.snapshot().messages, 1u);
  EXPECT_EQ(bus.snapshot().bytes, 3u);
}

TEST(MessageBusTest, UnreachableReturnsEmpty) {
  MessageBus bus;
  EXPECT_FALSE(bus.reachable(AsId{9, 9}));
  EXPECT_TRUE(bus.call(AsId{9, 9}, Bytes{1}).empty());
  EXPECT_EQ(bus.snapshot().messages, 0u);
}

TEST(MessageBusTest, DetachStopsDelivery) {
  MessageBus bus;
  const AsId a{1, 1};
  bus.attach(a, [](BytesView) { return Bytes{1}; });
  bus.detach(a);
  EXPECT_FALSE(bus.reachable(a));
  EXPECT_TRUE(bus.call(a, {}).empty());
}

}  // namespace
}  // namespace colibri::cserv
