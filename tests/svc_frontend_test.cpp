#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "rim/shard/router.hpp"
#include "rim/svc/frontend.hpp"
#include "rim/svc/service.hpp"

namespace rim {
namespace {

using MakeFrontend = std::function<std::unique_ptr<svc::Frontend>()>;

std::unique_ptr<svc::Frontend> make_service() {
  svc::ServiceConfig config;
  config.allow_shutdown = true;
  return std::make_unique<svc::Service>(std::move(config));
}

std::unique_ptr<svc::Frontend> make_router() {
  shard::RouterConfig config;
  config.allow_shutdown = true;
  return std::make_unique<shard::Router>(std::move(config));
}

/// A wire `shutdown` to a front end that allows it is acknowledged and
/// trips the flag.
void expect_wire_shutdown_accepted(const MakeFrontend& make) {
  const std::unique_ptr<svc::Frontend> frontend = make();
  EXPECT_FALSE(frontend->shutdown_requested());
  EXPECT_EQ(frontend->handle(R"({"cmd":"shutdown","id":3})"),
            R"({"id":3,"ok":true,"result":{"shutting_down":true}})");
  EXPECT_TRUE(frontend->shutdown_requested());
  EXPECT_EQ(frontend->frontend_counters().ok.value(), 1u);
  frontend->wait_shutdown();  // already tripped: returns at once
}

/// wait_shutdown() blocks until request_shutdown() on another thread.
void expect_waiter_woken(const MakeFrontend& make) {
  const std::unique_ptr<svc::Frontend> frontend = make();
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    frontend->wait_shutdown();
    returned.store(true);
  });
  std::this_thread::sleep_for(3 * svc::Frontend::kShutdownPollInterval);
  EXPECT_FALSE(returned.load()) << "wait_shutdown() returned unprompted";
  frontend->request_shutdown();
  waiter.join();
  EXPECT_TRUE(returned.load());
  EXPECT_TRUE(frontend->shutdown_requested());
}

TEST(FrontendShutdown, ServiceAcceptsWireShutdown) {
  expect_wire_shutdown_accepted(make_service);
}

TEST(FrontendShutdown, RouterAcceptsWireShutdown) {
  expect_wire_shutdown_accepted(make_router);
}

TEST(FrontendShutdown, ServiceWaiterWakesOnRequestFromAnotherThread) {
  expect_waiter_woken(make_service);
}

TEST(FrontendShutdown, RouterWaiterWakesOnRequestFromAnotherThread) {
  expect_waiter_woken(make_router);
}

}  // namespace
}  // namespace rim
