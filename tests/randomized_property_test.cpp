// Randomized property tests on the substrate invariants: the event loop
// never runs time backwards under arbitrary schedules; the timer-wheel/
// heap split fires in exactly global (time, insertion) order under random
// schedule/cancel/re-arm traces; the interval-vector out-of-order tracker
// matches a reference std::map implementation over random segment arrival
// orders; routing on random connected topologies delivers between all host
// pairs; payment accounting conserves bytes end to end under random client
// mixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/auction_thinner.hpp"
#include "exp/experiment.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "tests/callback_handler.hpp"
#include "transport/host.hpp"
#include "transport/ooo_tracker.hpp"
#include "util/rng.hpp"

namespace speakup {
namespace {

TEST(RandomizedProperty, EventLoopTimeIsMonotoneUnderRandomSchedules) {
  util::RngStream rng(101, "loop-fuzz");
  sim::EventLoop loop;
  SimTime last_seen;
  int fired = 0;
  std::vector<sim::EventId> cancellable;
  // Seed events that randomly schedule more events and randomly cancel.
  std::function<void()> chaos = [&] {
    EXPECT_GE(loop.now(), last_seen);  // time never goes backwards
    last_seen = loop.now();
    ++fired;
    if (fired > 5000) return;
    const int n = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < n; ++i) {
      sim::EventId id =
          loop.schedule(Duration::nanos(rng.uniform_int(0, 5'000'000)), chaos);
      if (rng.chance(0.2)) cancellable.push_back(id);
    }
    if (!cancellable.empty() && rng.chance(0.3)) {
      loop.cancel(cancellable.back());
      cancellable.pop_back();
    }
  };
  for (int i = 0; i < 20; ++i) {
    loop.schedule(Duration::nanos(rng.uniform_int(0, 1'000'000)), chaos);
  }
  loop.run();
  EXPECT_GT(fired, 20);
  EXPECT_EQ(loop.pending_events(), 0u);
}

TEST(RandomizedProperty, WheelAndHeapFireInGlobalTimeAndInsertionOrder) {
  // The EventLoop splits pending events between a hierarchical timer wheel
  // and a 4-ary heap purely by deadline distance. This trace — random
  // delays spanning every wheel level plus the overflow heap, random
  // cancellation, and random in-place re-arming — checks the split is
  // invisible: every firing must be the global minimum of (deadline,
  // insertion order) among live events, exactly as a single ordered queue
  // would fire, and re-arming must order as if freshly scheduled.
  util::RngStream rng(105, "wheel-fuzz");
  sim::EventLoop loop;

  struct Slot {
    std::int64_t when_ns = 0;   // absolute deadline
    std::uint64_t order = 0;    // (re)insertion counter: the tie-breaker
    bool live = false;          // scheduled, not yet fired/cancelled
    sim::EventId id;
  };
  std::vector<Slot> slots;
  std::uint64_t order_counter = 0;
  int fired = 0;
  int checked = 0;
  constexpr int kBudget = 4000;

  auto random_delay = [&rng]() -> Duration {
    switch (rng.uniform_int(0, 5)) {
      case 0: return Duration::nanos(rng.uniform_int(0, 2'000));         // sub-tick
      case 1: return Duration::micros(rng.uniform_int(1, 900));          // heap range
      case 2: return Duration::millis(rng.uniform_int(1, 60));           // wheel L1/L2
      case 3: return Duration::millis(rng.uniform_int(60, 4'000));       // wheel L2
      case 4: return Duration::seconds(static_cast<double>(rng.uniform_int(4, 250)));  // L3
      default: return Duration::seconds(static_cast<double>(rng.uniform_int(300, 600)));  // overflow
    }
  };

  std::function<void(std::size_t)> on_fire = [&](std::size_t me) {
    Slot& self = slots[me];
    // Property 1: the clock stands exactly at this event's deadline.
    EXPECT_EQ(loop.now().ns(), self.when_ns);
    // Property 2: nothing live fires late — this event is the minimum of
    // (when, order) among all still-live events.
    if (++checked <= 1500) {  // O(n) scan; cap to keep the test quick
      for (const Slot& other : slots) {
        if (!other.live || &other == &self) continue;
        EXPECT_TRUE(other.when_ns > self.when_ns ||
                    (other.when_ns == self.when_ns && other.order > self.order))
            << "event fired ahead of an earlier live event";
      }
    }
    self.live = false;
    ++fired;
    if (fired >= kBudget) return;
    // Keep the trace going: schedule new events, cancel and re-arm others.
    // (1–2 spawns per fire against a 0.3 cancel rate keeps the population
    // supercritical until the budget cuts it off.)
    const int spawn = static_cast<int>(rng.uniform_int(1, 2));
    for (int i = 0; i < spawn; ++i) {
      const std::size_t idx = slots.size();
      slots.push_back(Slot{});
      const Duration d = random_delay();
      Slot& s = slots[idx];
      s.when_ns = (loop.now() + d).ns();
      s.order = order_counter++;
      s.live = true;
      s.id = loop.schedule(d, [&on_fire, idx] { on_fire(idx); });
    }
    if (!slots.empty() && rng.chance(0.3)) {  // cancel a random live event
      const std::size_t idx =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1));
      if (slots[idx].live && slots[idx].id.pending()) {
        loop.cancel(slots[idx].id);
        slots[idx].live = false;
      }
    }
    if (!slots.empty() && rng.chance(0.3)) {  // re-arm a random live event
      const std::size_t idx =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1));
      if (slots[idx].live && slots[idx].id.pending()) {
        const Duration d = random_delay();
        slots[idx].id = loop.reschedule(slots[idx].id, d);
        slots[idx].when_ns = (loop.now() + d).ns();
        slots[idx].order = order_counter++;  // re-arm orders as if fresh
      }
    }
  };

  slots.reserve(static_cast<std::size_t>(kBudget) * 3);
  for (int i = 0; i < 50; ++i) {
    const std::size_t idx = slots.size();
    slots.push_back(Slot{});
    const Duration d = random_delay();
    Slot& s = slots[idx];
    s.when_ns = (SimTime::zero() + d).ns();
    s.order = order_counter++;
    s.live = true;
    s.id = loop.schedule(d, [&on_fire, idx] { on_fire(idx); });
  }
  loop.run();
  EXPECT_GE(fired, kBudget);
  EXPECT_EQ(loop.pending_events(), 0u);
  // Everything the model says is live must have fired or been cancelled.
  for (const Slot& s : slots) EXPECT_FALSE(s.live);
}

/// The pre-round-2 std::map out-of-order tracker, verbatim — the reference
/// the interval vector must match byte for byte.
struct MapOooReference {
  std::map<std::int64_t, std::int64_t> ooo;
  std::int64_t rcv_nxt = 0;

  void handle_data(std::int64_t seq, std::int64_t len) {
    std::int64_t begin = std::max(seq, rcv_nxt);
    const std::int64_t end = seq + len;
    if (begin < end) {
      auto it = ooo.lower_bound(begin);
      if (it != ooo.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= begin) {
          begin = prev->first;
          it = prev;
        }
      }
      std::int64_t merged_end = end;
      while (it != ooo.end() && it->first <= merged_end) {
        merged_end = std::max(merged_end, it->second);
        it = ooo.erase(it);
      }
      ooo[begin] = merged_end;
    }
    auto front = ooo.begin();
    if (front != ooo.end() && front->first <= rcv_nxt) {
      rcv_nxt = std::max(rcv_nxt, front->second);
      ooo.erase(front);
    }
  }
};

TEST(RandomizedProperty, OooTrackerMatchesMapReference) {
  // Random segment arrival orders — overlapping, touching, duplicated,
  // stale, and far-future — must leave the interval vector and the map
  // reference with identical delivered prefixes and identical hole sets.
  util::RngStream rng(106, "ooo-fuzz");
  for (int trial = 0; trial < 20; ++trial) {
    transport::OooTracker tracker;
    std::int64_t rcv_nxt = 0;
    MapOooReference ref;
    const int segments = 300 + static_cast<int>(rng.uniform_int(0, 300));
    std::int64_t frontier = 0;  // loosely tracks the "sender position"
    for (int i = 0; i < segments; ++i) {
      std::int64_t seq;
      const std::int64_t len = 1 + rng.uniform_int(0, 2999);
      if (rng.chance(0.5)) {
        // Near the frontier: in-order-ish with reordering and gaps.
        seq = std::max<std::int64_t>(0, frontier + rng.uniform_int(-4000, 8000));
        frontier = std::max(frontier, seq + len);
      } else if (rng.chance(0.3)) {
        seq = rcv_nxt + rng.uniform_int(0, 2000);  // straddles the cum-ack point
      } else {
        seq = rng.uniform_int(0, 200'000);  // anywhere: stale or far future
      }
      // Mirror TcpConnection::handle_data on both implementations.
      ref.handle_data(seq, len);
      const std::int64_t begin = std::max(seq, rcv_nxt);
      const std::int64_t end = seq + len;
      if (begin < end) tracker.insert(begin, end);
      rcv_nxt = tracker.pop_prefix(rcv_nxt);

      ASSERT_EQ(rcv_nxt, ref.rcv_nxt) << "trial " << trial << " segment " << i;
      ASSERT_EQ(tracker.size(), ref.ooo.size()) << "trial " << trial << " segment " << i;
      std::size_t k = 0;
      for (const auto& [b, e] : ref.ooo) {
        ASSERT_EQ(tracker.data()[k].begin, b) << "trial " << trial << " segment " << i;
        ASSERT_EQ(tracker.data()[k].end, e) << "trial " << trial << " segment " << i;
        ++k;
      }
    }
  }
}

TEST(RandomizedProperty, OooTrackerSpillsExactlyPastInlineCapacity) {
  // kInline disjoint holes stay inline; one more spills. Merges across the
  // spill — bridging holes that were inline and the one that spilled —
  // must then match the map reference interval for interval.
  constexpr auto kInline = static_cast<std::int64_t>(transport::OooTracker::kInline);
  transport::OooTracker tracker;
  std::int64_t rcv_nxt = 0;
  MapOooReference ref;
  const auto deliver = [&](std::int64_t seq, std::int64_t len) {
    ref.handle_data(seq, len);
    const std::int64_t begin = std::max(seq, rcv_nxt);
    if (begin < seq + len) tracker.insert(begin, seq + len);
    rcv_nxt = tracker.pop_prefix(rcv_nxt);
    ASSERT_EQ(rcv_nxt, ref.rcv_nxt);
    ASSERT_EQ(tracker.size(), ref.ooo.size());
    std::size_t k = 0;
    for (const auto& [b, e] : ref.ooo) {
      ASSERT_EQ(tracker.data()[k].begin, b) << "interval " << k;
      ASSERT_EQ(tracker.data()[k].end, e) << "interval " << k;
      ++k;
    }
  };
  // Holes at [1000, 1100), [2000, 2100), ...; [0, 1000) arrives last.
  for (std::int64_t i = 1; i <= kInline; ++i) deliver(i * 1000, 100);
  EXPECT_EQ(tracker.size(), static_cast<std::size_t>(kInline));
  EXPECT_FALSE(tracker.spilled());
  deliver((kInline + 1) * 1000, 100);
  EXPECT_EQ(tracker.size(), static_cast<std::size_t>(kInline + 1));
  EXPECT_TRUE(tracker.spilled());
  // Bridge the last inline hole to the spilled one, then touch the first.
  deliver(kInline * 1000 + 100, 900);
  deliver(1100, 900);
  EXPECT_EQ(tracker.size(), ref.ooo.size());
  // The missing head arrives: everything drains in one pop.
  deliver(0, 1000);
  EXPECT_TRUE(tracker.empty());
  EXPECT_EQ(rcv_nxt, (kInline + 1) * 1000 + 100);
  EXPECT_TRUE(tracker.spilled());  // the buffer is kept for reuse
}

TEST(RandomizedProperty, OooTrackerSpillsAndRecoversBeyondInlineCapacity) {
  // Dozens of disjoint holes force the inline array to spill; filling the
  // gaps must then drain everything through a single merged pop.
  transport::OooTracker tracker;
  constexpr int kHoles = 40;
  for (int i = 0; i < kHoles; ++i) {
    // [1000, 1100), [3000, 3100), ... — disjoint, inserted back to front.
    const std::int64_t b = (kHoles - i) * 2000 + 1000;
    tracker.insert(b, b + 100);
  }
  EXPECT_EQ(tracker.size(), static_cast<std::size_t>(kHoles));
  EXPECT_TRUE(tracker.spilled());
  EXPECT_EQ(tracker.pop_prefix(0), 0);  // nothing contiguous yet
  // Fill everything below the last hole: one insert merges the lot.
  tracker.insert(0, kHoles * 2000 + 1000);
  EXPECT_EQ(tracker.pop_prefix(0), kHoles * 2000 + 1100);
  EXPECT_TRUE(tracker.empty());
}

TEST(RandomizedProperty, RandomConnectedTopologiesRouteAllPairs) {
  util::RngStream rng(102, "topo-fuzz");
  for (int trial = 0; trial < 5; ++trial) {
    transport::CallbackHandler server_handler;
    sim::EventLoop loop;
    net::Network net(loop);
    const int hosts = 4;
    const int switches = 3 + static_cast<int>(rng.uniform_int(0, 3));
    std::vector<net::Switch*> sw;
    for (int i = 0; i < switches; ++i) {
      sw.push_back(&net.add_switch("sw" + std::to_string(i)));
      if (i > 0) {
        // Spanning chain keeps the graph connected...
        net.connect(*sw[static_cast<std::size_t>(i)], *sw[static_cast<std::size_t>(i - 1)],
                    net::LinkSpec{Bandwidth::mbps(100.0), Duration::micros(100), 500'000});
      }
    }
    // ...plus random extra links.
    for (int e = 0; e < 2; ++e) {
      const auto a = static_cast<std::size_t>(rng.uniform_int(0, switches - 1));
      const auto b = static_cast<std::size_t>(rng.uniform_int(0, switches - 1));
      if (a != b && net.link_between(sw[a]->id(), sw[b]->id()) == nullptr) {
        net.connect(*sw[a], *sw[b],
                    net::LinkSpec{Bandwidth::mbps(100.0), Duration::micros(100), 500'000});
      }
    }
    std::vector<transport::Host*> hs;
    for (int i = 0; i < hosts; ++i) {
      auto& h = net.add_node<transport::Host>("h" + std::to_string(i));
      const auto at = static_cast<std::size_t>(rng.uniform_int(0, switches - 1));
      net.connect(h, *sw[at],
                  net::LinkSpec{Bandwidth::mbps(10.0), Duration::micros(500), 96'000});
      hs.push_back(&h);
    }
    net.build_routes();
    // Every ordered host pair completes a small transfer.
    int completed = 0;
    server_handler.data = [&completed](Bytes n) {
      if (n > 0) ++completed;
    };
    for (auto* server : hs) {
      server->listen(80, [&](transport::TcpConnection& c) { c.set_handler(&server_handler); });
    }
    int expected = 0;
    for (auto* a : hs) {
      for (auto* b : hs) {
        if (a == b) continue;
        a->connect(b->id(), 80).write(500);
        ++expected;
      }
    }
    loop.run_until(SimTime::zero() + Duration::seconds(10.0));
    EXPECT_EQ(completed, expected) << "trial " << trial;
  }
}

TEST(RandomizedProperty, ThinnerByteAccountingConserves) {
  // Across random mixes, the thinner's books must balance: every credited
  // byte is either attributed to a served request's price, wasted in an
  // expired channel, or still outstanding with a live contender.
  util::RngStream rng(103, "mix-fuzz");
  for (int trial = 0; trial < 3; ++trial) {
    const int good = 2 + static_cast<int>(rng.uniform_int(0, 4));
    const int bad = 2 + static_cast<int>(rng.uniform_int(0, 4));
    const double c = 5.0 + 10.0 * rng.uniform();
    exp::ScenarioConfig cfg = exp::lan_scenario(good, bad, c, "auction",
                                                200 + static_cast<std::uint64_t>(trial));
    cfg.duration = Duration::seconds(15.0);
    exp::Experiment e(cfg);
    const exp::ExperimentResult r = e.run();
    const core::ThinnerStats& t = r.thinner;
    const double priced = t.price_good.sum() + t.price_bad.sum();
    const auto wasted = static_cast<double>(t.payment_bytes_wasted);
    const auto total = static_cast<double>(t.payment_bytes_total);
    // priced + wasted <= total credited (the remainder is held by live
    // contenders at the end of the run).
    EXPECT_LE(priced + wasted, total * 1.0001) << "trial " << trial;
    // And the books roughly balance: live contenders are bounded, so most
    // bytes are accounted for.
    EXPECT_GT(priced + wasted, total * 0.3) << "trial " << trial;
    // The time series agrees with the scalar total.
    EXPECT_NEAR(t.payment_rate.total(), total, 1.0) << "trial " << trial;
  }
}

TEST(RandomizedProperty, ServedCountsMatchBetweenThinnerAndClients) {
  // Thinner-side and client-side served counts agree modulo responses in
  // flight at the end of the run.
  util::RngStream rng(104, "count-fuzz");
  for (int trial = 0; trial < 3; ++trial) {
    exp::ScenarioConfig cfg =
        exp::lan_scenario(3 + static_cast<int>(rng.uniform_int(0, 3)),
                          3 + static_cast<int>(rng.uniform_int(0, 3)), 20.0,
                          "auction", 300 + static_cast<std::uint64_t>(trial));
    cfg.duration = Duration::seconds(15.0);
    const exp::ExperimentResult r = exp::run_scenario(cfg);
    std::int64_t client_served = 0;
    for (const auto& g : r.groups) client_served += g.totals.served;
    EXPECT_LE(client_served, r.served_total);
    EXPECT_GE(client_served, r.served_total - 5);
  }
}

}  // namespace
}  // namespace speakup
