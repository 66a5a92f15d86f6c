// Multi-tenant broker tests: namespace carve-outs, quota enforcement and
// exact byte accounting under concurrent writers, the kQuotaExceeded wire
// round-trip, and the DRR admission scheduler's fair-share / no-starvation
// bounds. Tenancy default-off behaviour is pinned too, since the paper
// baselines run untenanted.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/srbfs.hpp"
#include "simnet/timescale.hpp"
#include "srb/client.hpp"
#include "srb/server.hpp"
#include "srb/tenant.hpp"

namespace remio::srb {
namespace {

class TenantTest : public ::testing::Test {
 protected:
  TenantTest() : scale_(2000.0) {
    simnet::HostSpec server_host;
    server_host.name = "orion";
    fabric_.add_host(server_host);
    simnet::HostSpec client_host;
    client_host.name = "node0";
    client_host.latency_to_core = 0.001;
    fabric_.add_host(client_host);
  }

  void start_server(TenantConfig tenants) {
    ServerConfig cfg;
    cfg.tenants = std::move(tenants);
    server_ = std::make_unique<SrbServer>(fabric_, std::move(cfg));
    server_->start();
  }

  std::unique_ptr<SrbClient> make_client(const std::string& tenant = "",
                                         const std::string& name = "t-client") {
    return std::make_unique<SrbClient>(fabric_, "node0", "orion", 5544,
                                       simnet::ConnectOptions{}, name, tenant);
  }

  static Bytes filled(std::size_t n, char c) { return Bytes(n, c); }

  simnet::ScopedTimeScale scale_;
  simnet::Fabric fabric_;
  std::unique_ptr<SrbServer> server_;
};

TEST_F(TenantTest, NamespaceIsolation) {
  TenantConfig tc;
  tc.enabled = true;
  start_server(tc);

  auto alpha = make_client("alpha");
  auto beta = make_client("beta");

  // Same client-visible path, distinct physical objects.
  const auto fa = alpha->open("/data/obj", kRead | kWrite | kCreate);
  const auto fb = beta->open("/data/obj", kRead | kWrite | kCreate);
  const Bytes da = filled(64, 'a');
  const Bytes db = filled(256, 'b');
  alpha->pwrite(fa, ByteSpan(da.data(), da.size()), 0);
  beta->pwrite(fb, ByteSpan(db.data(), db.size()), 0);

  EXPECT_EQ(alpha->stat("/data/obj")->size, 64u);
  EXPECT_EQ(beta->stat("/data/obj")->size, 256u);
  Bytes back(64);
  alpha->pread(fa, MutByteSpan(back.data(), back.size()), 0);
  EXPECT_EQ(back, da);

  // A tenant's listing is unmapped back to its own view of the tree.
  const auto ls = alpha->list("/data");
  ASSERT_EQ(ls.size(), 1u);
  EXPECT_EQ(ls[0], "/data/obj");

  // An untenanted session sees the physical carve-outs.
  auto admin = make_client();
  EXPECT_TRUE(admin->stat("/tenants/alpha/data/obj").has_value());
  EXPECT_EQ(admin->stat("/tenants/alpha/data/obj")->size, 64u);
  const auto roots = admin->list("/tenants");
  EXPECT_NE(std::find(roots.begin(), roots.end(), "/tenants/alpha"),
            roots.end());
  EXPECT_NE(std::find(roots.begin(), roots.end(), "/tenants/beta"),
            roots.end());

  // Unlink through the tenant view removes the physical object.
  alpha->unlink("/data/obj");
  EXPECT_FALSE(admin->stat("/tenants/alpha/data/obj").has_value());
  EXPECT_TRUE(admin->stat("/tenants/beta/data/obj").has_value());

  alpha->close(fa);
  beta->close(fb);
}

TEST_F(TenantTest, TenancyOffIgnoresTenantLogin) {
  start_server(TenantConfig{});  // enabled = false

  auto c = make_client("alpha");
  const auto fd = c->open("/obj", kWrite | kCreate);
  c->pwrite(fd, ByteSpan(filled(8, 'x').data(), 8), 0);
  c->close(fd);

  // No carve-out happened: the object lives at the root and no tenant
  // state was created.
  auto admin = make_client();
  EXPECT_TRUE(admin->stat("/obj").has_value());
  EXPECT_FALSE(admin->stat("/tenants/alpha/obj").has_value());
  EXPECT_TRUE(server_->tenants().names().empty());
}

TEST_F(TenantTest, SlashInTenantNameRejected) {
  TenantConfig tc;
  tc.enabled = true;
  start_server(tc);
  try {
    make_client("alpha/../../etc");
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kInvalid);
  }
}

TEST_F(TenantTest, ObjectQuotaRoundTrip) {
  TenantConfig tc;
  tc.enabled = true;
  tc.default_quota.max_objects = 2;
  start_server(tc);

  auto c = make_client("alpha");
  c->close(c->open("/a", kWrite | kCreate));
  c->close(c->open("/b", kWrite | kCreate));
  try {
    c->open("/c", kWrite | kCreate);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kQuotaExceeded);
  }
  EXPECT_EQ(server_->tenants().find("alpha")->objects(), 2u);

  // Reopening an existing object consumes no quota slot...
  c->close(c->open("/a", kRead));
  // ...and unlinking releases one.
  c->unlink("/b");
  c->close(c->open("/c", kWrite | kCreate));
  EXPECT_EQ(server_->tenants().find("alpha")->objects(), 2u);
}

TEST_F(TenantTest, ByteQuotaEnforcedAndReleasedOnTrunc) {
  TenantConfig tc;
  tc.enabled = true;
  tc.default_quota.max_bytes = 1024;
  start_server(tc);

  auto c = make_client("alpha");
  const auto fd = c->open("/obj", kRead | kWrite | kCreate);
  const Bytes big = filled(1024, 'x');
  EXPECT_EQ(c->pwrite(fd, ByteSpan(big.data(), big.size()), 0), 1024u);

  // Growth past the cap is rejected; in-place overwrite is free.
  try {
    c->pwrite(fd, ByteSpan(big.data(), 1), 1024);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kQuotaExceeded);
  }
  EXPECT_EQ(c->pwrite(fd, ByteSpan(big.data(), 512), 256), 512u);
  EXPECT_EQ(server_->tenants().find("alpha")->bytes(), 1024u);
  c->close(fd);

  // Truncating on reopen returns the footprint.
  c->close(c->open("/obj", kWrite | kTrunc));
  EXPECT_EQ(server_->tenants().find("alpha")->bytes(), 0u);
  const auto fd2 = c->open("/obj", kWrite);
  EXPECT_EQ(c->pwrite(fd2, ByteSpan(big.data(), big.size()), 0), 1024u);
  c->close(fd2);
}

TEST_F(TenantTest, ByteAccountingExactUnderConcurrentWriters) {
  TenantConfig tc;
  tc.enabled = true;  // unlimited default quota: accounting only
  start_server(tc);

  // 4 writers of one tenant hammer a shared object (racing extensions and
  // overwrites) plus a private object each. After quiescence the tenant's
  // byte counter must equal the exact sum of its objects' sizes.
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 48;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto c = make_client("acct", "writer-" + std::to_string(w));
      const auto shared = c->open("/shared", kWrite | kCreate);
      const auto mine =
          c->open("/own-" + std::to_string(w), kWrite | kCreate);
      std::uint64_t state = 0x9e3779b9u * (w + 1);
      const Bytes chunk = filled(512, static_cast<char>('a' + w));
      for (int i = 0; i < kOpsPerWriter; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t at = (state >> 33) % 8192;
        const std::size_t len = 64 + (state & 255);
        c->pwrite(i % 2 == 0 ? shared : mine, ByteSpan(chunk.data(), len), at);
      }
      c->close(shared);
      c->close(mine);
    });
  }
  for (auto& t : threads) t.join();

  auto c = make_client("acct");
  std::uint64_t expect = c->stat("/shared")->size;
  for (int w = 0; w < kWriters; ++w)
    expect += c->stat("/own-" + std::to_string(w))->size;
  const auto* tenant = server_->tenants().find("acct");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->bytes(), expect);
  EXPECT_EQ(tenant->objects(), static_cast<std::uint64_t>(kWriters + 1));
}

TEST_F(TenantTest, InflightCapUnit) {
  TenantConfig tc;
  tc.default_quota.max_inflight = 2;
  TenantRegistry reg(tc);
  auto& t = reg.login("x");
  EXPECT_TRUE(t.try_begin_op());
  EXPECT_TRUE(t.try_begin_op());
  EXPECT_FALSE(t.try_begin_op());
  t.end_op();
  EXPECT_TRUE(t.try_begin_op());
  EXPECT_EQ(t.inflight(), 2u);
  EXPECT_EQ(t.ops(), 3u);  // rejected attempts don't count as served ops
}

TEST_F(TenantTest, DrrFairShareAndNoStarvation) {
  TenantConfig tc;
  tc.enabled = true;
  tc.service_slots = 1;
  tc.drr_quantum = 1;
  TenantRegistry reg(tc);
  reg.set_quota("heavy", {0, 0, 0, /*weight=*/3});
  reg.set_quota("light", {0, 0, 0, /*weight=*/1});
  auto& heavy = *reg.find("heavy");
  auto& light = *reg.find("light");
  auto& holder = reg.login("holder");
  DrrScheduler sched(tc);

  // Hold the single slot so a known queue builds behind it.
  sched.acquire(holder);

  std::mutex order_mu;
  std::vector<char> order;  // 'H' / 'L' in grant order
  constexpr int kHeavyOps = 12;
  constexpr int kLightOps = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kHeavyOps; ++i) {
    threads.emplace_back([&] {
      sched.acquire(heavy);
      {
        std::lock_guard lk(order_mu);
        order.push_back('H');
      }
      sched.release();
    });
  }
  for (int i = 0; i < kLightOps; ++i) {
    threads.emplace_back([&] {
      sched.acquire(light);
      {
        std::lock_guard lk(order_mu);
        order.push_back('L');
      }
      sched.release();
    });
  }
  while (sched.waiting() < kHeavyOps + kLightOps)
    std::this_thread::yield();
  sched.release();  // open the floodgates
  for (auto& t : threads) t.join();

  ASSERT_EQ(order.size(), static_cast<std::size_t>(kHeavyOps + kLightOps));
  // Weighted fair share: every replenish round grants heavy 3 and light 1
  // (both queues stay non-empty through round 4), so each 4-grant window
  // holds exactly one light grant — the no-starvation bound: a light op is
  // admitted within one round regardless of the heavy backlog.
  for (int round = 0; round < 4; ++round) {
    const auto begin = order.begin() + round * 4;
    EXPECT_EQ(std::count(begin, begin + 4, 'L'), 1)
        << "round " << round << " violated the weighted share";
  }
  EXPECT_GE(sched.rounds(), 4u);
}

TEST_F(TenantTest, InflightCapRejectsOverWire) {
  TenantConfig tc;
  tc.enabled = true;
  tc.default_quota.max_inflight = 4;
  start_server(tc);

  // Saturate the cap from the registry side (as if 4 ops were parked on
  // slow disk), then verify the wire-level rejection a 5th op gets.
  auto c = make_client("alpha");
  const auto fd = c->open("/obj", kRead | kWrite | kCreate);
  auto& t = *server_->tenants().find("alpha");
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(t.try_begin_op());
  try {
    c->pwrite(fd, ByteSpan(filled(8, 'x').data(), 8), 0);
    FAIL() << "expected SrbError";
  } catch (const SrbError& e) {
    EXPECT_EQ(e.status(), Status::kQuotaExceeded);
  }
  for (int i = 0; i < 4; ++i) t.end_op();
  EXPECT_EQ(c->pwrite(fd, ByteSpan(filled(8, 'x').data(), 8), 0), 8u);
  c->close(fd);
}

TEST_F(TenantTest, DriverNamespaceOpsStayInsideTheCarveOut) {
  TenantConfig tc;
  tc.enabled = true;
  start_server(tc);

  semplar::Config cfg;
  cfg.client_host = "node0";
  cfg.tenant = "alpha";
  semplar::SrbfsDriver driver(fabric_, cfg);
  driver.open("/f", mpiio::kModeWrite | mpiio::kModeCreate).reset();
  EXPECT_TRUE(driver.exists("/f"));

  // A root object of the same name must be out of the tenant's reach.
  auto admin = make_client();
  admin->close(admin->open("/f", kWrite | kCreate));
  driver.remove("/f");
  EXPECT_FALSE(admin->stat("/tenants/alpha/f").has_value());
  EXPECT_TRUE(admin->stat("/f").has_value());
  EXPECT_FALSE(driver.exists("/f"));
}

}  // namespace
}  // namespace remio::srb
