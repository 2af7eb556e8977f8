// Unit tests for the client engine (client::ClientPool): one pool of N
// matches N pools of one member for member (the cohort-heap arrival
// batching is invisible), dense request-slot reuse and generation safety in
// the pool-wide request slab, pause semantics, and the
// zero-steady-state-allocation guarantee at 10^5 clients.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "client/client_pool.hpp"
#include "client/workload_client.hpp"
#include "core/auction_thinner.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

// Zero-allocation assertions use util::AllocGuard (the counting operator
// new lives in the speakup_counted_new object library): only the delta
// inside a measured region matters. SPEAKUP_TRAP_ALLOC=1 plus
// AllocGuard::set_trap aborts with a backtrace on the first allocation.
#include "util/alloc_guard.hpp"

namespace speakup::client {
namespace {

struct Rig {
  Rig() : net(loop) {
    sw = &net.add_switch("sw");
    thinner_host = &net.add_node<transport::Host>("thinner");
    net.connect(*thinner_host, *sw,
                net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(500), 4'000'000});
  }
  transport::Host& add_host(const std::string& name) {
    auto& h = net.add_node<transport::Host>(name);
    net.connect(h, *sw, net::LinkSpec{Bandwidth::mbps(2.0), Duration::micros(500), 48'000});
    return h;
  }
  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }
  sim::EventLoop loop;
  net::Network net;
  net::Switch* sw = nullptr;
  transport::Host* thinner_host = nullptr;
};

// Batching N members' arrivals into one cohort event must not change what
// any member does: N WorkloadClients (pools of one, one armed event each)
// and one pool of N on identical rigs with the same seeds match member for
// member, not just in aggregate.
TEST(ClientPool, PoolOfNMatchesNPoolsOfOneMemberForMember) {
  constexpr int kClients = 3;
  core::FrontEndConfig tc;
  tc.capacity_rps = 20.0;

  Rig obj_rig;
  core::AuctionThinner obj_thinner(*obj_rig.thinner_host, tc, util::RngStream(9, "srv"));
  std::vector<std::unique_ptr<WorkloadClient>> objs;
  for (int i = 0; i < kClients; ++i) {
    objs.push_back(std::make_unique<WorkloadClient>(
        obj_rig.add_host("c" + std::to_string(i)), obj_rig.thinner_host->id(),
        good_client_params(), static_cast<std::uint32_t>(i),
        util::RngStream(9, "client." + std::to_string(i))));
  }
  for (auto& c : objs) c->start();
  obj_rig.run_for(30.0);

  Rig pool_rig;
  core::AuctionThinner pool_thinner(*pool_rig.thinner_host, tc, util::RngStream(9, "srv"));
  ClientPool pool(pool_rig.loop, pool_rig.thinner_host->id(), good_client_params(), 0);
  for (int i = 0; i < kClients; ++i) {
    pool.add_member(pool_rig.add_host("c" + std::to_string(i)),
                    util::RngStream(9, "client." + std::to_string(i)));
  }
  pool.start_all();
  pool_rig.run_for(30.0);

  for (std::uint32_t i = 0; i < kClients; ++i) {
    const ClientStats& a = objs[i]->stats();
    const ClientStats& b = pool.stats(i);
    EXPECT_EQ(a.arrivals, b.arrivals) << "member " << i;
    EXPECT_EQ(a.started, b.started) << "member " << i;
    EXPECT_EQ(a.served, b.served) << "member " << i;
    EXPECT_EQ(a.denied, b.denied) << "member " << i;
    EXPECT_EQ(a.busy_rejected, b.busy_rejected) << "member " << i;
    EXPECT_EQ(a.payments_declined, b.payments_declined) << "member " << i;
    EXPECT_EQ(a.payment_bytes_acked, b.payment_bytes_acked) << "member " << i;
    EXPECT_EQ(a.response_time.count(), b.response_time.count()) << "member " << i;
    EXPECT_EQ(a.response_time.sum(), b.response_time.sum()) << "member " << i;
  }
}

// A thinner host with NO listener answers every SYN with RST, so each
// request runs the full arrival -> connect -> reset -> denial -> slot
// release cycle. The slab must recycle a handful of dense slots through
// thousands of requests, bumping generations, never leaking live records.
TEST(ClientPool, RequestSlabRecyclesDenseSlots) {
  Rig rig;  // nothing listening on the thinner host
  constexpr int kClients = 4;
  WorkloadParams p = good_client_params();
  p.lambda = 50.0;
  ClientPool pool(rig.loop, rig.thinner_host->id(), p, 0);
  for (int i = 0; i < kClients; ++i) {
    pool.add_member(rig.add_host("c" + std::to_string(i)),
                    util::RngStream(3, "client." + std::to_string(i)));
  }
  pool.start_all();
  rig.run_for(20.0);

  std::int64_t started = 0, denied = 0;
  for (std::uint32_t i = 0; i < kClients; ++i) {
    started += pool.stats(i).started;
    denied += pool.stats(i).denied;
  }
  ASSERT_GT(started, 1000);  // the slab really churned
  EXPECT_EQ(denied, started);  // every request RST -> denied, none lost

  // Dense reuse: the high-water slot count is the peak concurrency
  // (window=1 per member plus requests awaiting their deferred teardown
  // tick), not the request count.
  EXPECT_LE(pool.request_slots(), 4u * kClients);
  std::uint64_t generations = 0;
  for (std::uint32_t s = 0; s < pool.request_slots(); ++s) {
    generations += pool.request_generation(s);
  }
  // Every started request acquired exactly one slot incarnation.
  EXPECT_EQ(generations, static_cast<std::uint64_t>(started));
  EXPECT_EQ(pool.live_requests(), 0u);  // denial released every slot
}

TEST(ClientPool, PauseStopsNewArrivals) {
  Rig rig;
  core::FrontEndConfig tc;
  tc.capacity_rps = 100.0;
  core::AuctionThinner thinner(*rig.thinner_host, tc, util::RngStream(1, "srv"));
  ClientPool pool(rig.loop, rig.thinner_host->id(), good_client_params(), 0);
  pool.add_member(rig.add_host("c"), util::RngStream(1, "c"));
  pool.start_all();
  rig.run_for(5.0);
  const auto arrivals_at_pause = pool.stats(0).arrivals;
  EXPECT_GT(arrivals_at_pause, 0);
  pool.pause(0);
  rig.run_for(5.0);
  // At most one in-flight arrival event lands after pause().
  EXPECT_LE(pool.stats(0).arrivals, arrivals_at_pause + 1);
}

// A member costs two allocations: its strategy object and its backlog
// ring. The group's knobs are parsed into the strategy's own fields, and
// the outstanding list lives in the pool-wide request slab. One
// flash-crowd member with three knobs used to cost 7: two copies of the
// knob vector, each with the one knob name too long for the short-string
// buffer ("surge_duration_s"), the strategy, the backlog ring and a
// reserved outstanding-slot vector.
TEST(ClientPool, AddMemberAllocations) {
  Rig rig;
  WorkloadParams p = good_client_params();
  p.strategy = "flash-crowd";
  p.strategy_knobs = {
      {"surge_start_s", 1.0}, {"surge_duration_s", 2.0}, {"surge_factor", 5.0}};
  ClientPool pool(rig.loop, rig.thinner_host->id(), p, 0);
  pool.reserve(2);
  pool.add_member(rig.add_host("c0"), util::RngStream(5, "client.0"));
  transport::Host& host = rig.add_host("c1");
  util::RngStream rng(5, "client.1");
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  pool.add_member(host, std::move(rng));
  EXPECT_LE(guard.delta(), 2) << "allocations for one add_member";
  EXPECT_EQ(pool.size(), 2u);
}

// The million-client contract: once warm, the client engine's request
// cycle — arrival, slot acquire, connect, RST denial, stream retirement,
// slot release, next arrival draw — touches the allocator zero times, at
// 10^5 clients. (The RST-denial rig keeps the cycle client-side: the
// thinner host has no listener, so no server-side state grows.)
TEST(ClientPool, SteadyStateZeroAllocationsAt100kClients) {
  constexpr int kClients = 100'000;
  Rig rig;  // nothing listening: every request is denied by RST
  WorkloadParams p = good_client_params();  // lambda = 2.0
  ClientPool pool(rig.loop, rig.thinner_host->id(), p, 0);
  for (int i = 0; i < kClients; ++i) {
    pool.add_member(rig.add_host("c" + std::to_string(i)),
                    util::RngStream(5, "client." + std::to_string(i)));
  }
  pool.start_all();
  // Warm-up: every member's one-time state (host conn chunk + table, link
  // queue) is built on its first request; at lambda*T = 16 the expected
  // number of still-cold members is 1e5 * e^-16 ~ 0.01, and the run is
  // seed-deterministic.
  rig.run_for(8.0);

  const std::int64_t before_arr = [&] {
    std::int64_t a = 0;
    for (std::uint32_t i = 0; i < kClients; ++i) a += pool.stats(i).arrivals;
    return a;
  }();
#if SPEAKUP_AUDIT_ENABLED
  // Audit checkpoints may allocate scratch inside the measured region.
  GTEST_SKIP() << "zero-alloc guarantees are not measured in SPEAKUP_AUDIT builds";
#endif
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  const util::AllocGuard guard;
  util::AllocGuard::set_trap(true);
  rig.run_for(0.25);
  util::AllocGuard::set_trap(false);
  std::int64_t arrivals = 0;
  for (std::uint32_t i = 0; i < kClients; ++i) arrivals += pool.stats(i).arrivals;
  ASSERT_GT(arrivals - before_arr, 10'000);  // the measured window did real work
  EXPECT_EQ(guard.delta(), 0) << "steady-state request cycle allocated";
}

}  // namespace
}  // namespace speakup::client
