#include <gtest/gtest.h>

#include <cstdint>

#include "rim/svc/client.hpp"
#include "rim/svc/errors.hpp"
#include "rim/svc/service.hpp"
#include "rim/svc/token_bucket.hpp"
#include "rim/svc/transport.hpp"

// Per-tenant fair admission: the TokenBucket itself under a synthetic
// clock, and the service-level behavior — a tenant exceeding its rate is
// shed with an explicit "overloaded" envelope while other tenants'
// buckets (and throughput) are untouched.

namespace rim::svc {
namespace {

constexpr std::uint64_t kSecond = 1'000'000'000ull;

TEST(TokenBucket, BurstThenShedThenRefill) {
  TokenBucket bucket(/*rate_per_s=*/2.0, /*burst=*/3.0);
  ASSERT_TRUE(bucket.enabled());
  std::uint64_t now = 10 * kSecond;
  // The bucket starts full: the first `burst` acquisitions succeed.
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_FALSE(bucket.try_acquire(now));
  // Half a second at 2/s refills one token — exactly one more admit.
  now += kSecond / 2;
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_FALSE(bucket.try_acquire(now));
  // A long idle period refills to the cap, not beyond it.
  now += 1000 * kSecond;
  EXPECT_NEAR(bucket.tokens(now), 3.0, 1e-9);
}

TEST(TokenBucket, StaleClockRefillsNothing) {
  TokenBucket bucket(1.0, 1.0);
  EXPECT_TRUE(bucket.try_acquire(5 * kSecond));
  // Time moving backwards (cross-thread clock skew) must not mint tokens.
  EXPECT_FALSE(bucket.try_acquire(4 * kSecond));
  EXPECT_FALSE(bucket.try_acquire(5 * kSecond));
  EXPECT_TRUE(bucket.try_acquire(6 * kSecond + kSecond / 100));
}

TEST(TokenBucket, NonPositiveRateDisables) {
  TokenBucket bucket(0.0, 1.0);
  EXPECT_FALSE(bucket.enabled());
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_acquire(0));
}

TEST(TokenBucket, BurstClampsToAtLeastOne) {
  TokenBucket bucket(1.0, 0.0);
  EXPECT_EQ(bucket.burst(), 1.0);
  EXPECT_TRUE(bucket.try_acquire(kSecond));
  EXPECT_FALSE(bucket.try_acquire(kSecond));
}

TEST(SvcTenant, HogIsShedFairTenantIsNot) {
  ServiceConfig config;
  // A practically-zero refill rate makes the test deterministic: each
  // session gets exactly `burst` admissions, no wall-clock dependence.
  config.limits.tenant_rate_per_s = 1e-9;
  config.limits.tenant_burst = 3.0;
  Service service(config);
  LoopbackTransport transport(service);
  Client client(transport);

  const SvcResult<std::uint64_t> hog = client.try_create_session();
  const SvcResult<std::uint64_t> fair = client.try_create_session();
  ASSERT_TRUE(hog.has_value());
  ASSERT_TRUE(fair.has_value());

  // The hog burns its whole burst...
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(client.try_add_node(*hog, 0.1 * i, 0.0).has_value());
  }
  // ...then every further command is shed with the typed overloaded code.
  for (int i = 0; i < 5; ++i) {
    const SvcResult<NodeId> shed = client.try_add_node(*hog, 1.0, 1.0);
    ASSERT_FALSE(shed.has_value());
    EXPECT_EQ(shed.error().code, SvcErrorCode::kOverloaded);
    EXPECT_TRUE(shed.error().retryable());
  }
  // The fair tenant's bucket is untouched: its full burst still admits.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(client.try_add_node(*fair, 0.1 * i, 0.5).has_value());
  }

  EXPECT_EQ(service.counters().rejected_tenant.value(), 5u);
  // Global-gate sheds are counted separately from tenant sheds.
  EXPECT_EQ(service.frontend_counters().rejected_overloaded.value(), 0u);
}

TEST(SvcTenant, DisabledByDefault) {
  ServiceConfig config;
  Service service(config);
  LoopbackTransport transport(service);
  Client client(transport);
  const SvcResult<std::uint64_t> session = client.try_create_session();
  ASSERT_TRUE(session.has_value());
  // Way past any default burst: nothing is shed when the rate is unset.
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(client.try_add_node(*session, 0.01 * i, 0.0).has_value());
  }
  EXPECT_EQ(service.counters().rejected_tenant.value(), 0u);
}

}  // namespace
}  // namespace rim::svc
