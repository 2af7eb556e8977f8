// Tests for the Reno-style TCP model: handshake, bulk transfer throughput,
// slow start, loss recovery, RTO behaviour, fairness, and the
// parallel-connection advantage the paper's §3.4/§4.2 discussion relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "tests/callback_handler.hpp"
#include "transport/host.hpp"
#include "util/alloc_guard.hpp"

namespace speakup::transport {
namespace {

struct TwoHostNet {
  explicit TwoHostNet(const net::LinkSpec& spec) : net(loop) {
    a = &net.add_node<Host>("a");
    b = &net.add_node<Host>("b");
    net.connect(*a, *b, spec);
    net.build_routes();
  }
  sim::EventLoop loop;
  net::Network net;
  Host* a = nullptr;
  Host* b = nullptr;
};

constexpr net::LinkSpec kLan{Bandwidth::mbps(2.0), Duration::millis(1), 96'000};

TEST(Tcp, HandshakeEstablishesBothEnds) {
  CallbackHandler client;
  TwoHostNet t(kLan);
  TcpConnection* accepted = nullptr;
  t.b->listen(80, [&](TcpConnection& c) { accepted = &c; });
  bool established = false;
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  client.established = [&] { established = true; };
  c.set_handler(&client);
  t.loop.run_until(SimTime::zero() + Duration::seconds(1.0));
  EXPECT_TRUE(established);
  ASSERT_NE(accepted, nullptr);
  EXPECT_TRUE(c.established());
  EXPECT_TRUE(accepted->established());
  EXPECT_EQ(c.peer(), accepted);
  EXPECT_EQ(accepted->peer(), &c);
}

TEST(Tcp, HandshakeTakesOneRtt) {
  CallbackHandler client;
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  SimTime established_at;
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  client.established = [&] { established_at = t.loop.now(); };
  c.set_handler(&client);
  t.loop.run_until(SimTime::zero() + Duration::seconds(1.0));
  // SYN + SYN-ACK, each 1 ms propagation + tiny serialization.
  EXPECT_GE(established_at.ns(), Duration::millis(2).ns());
  EXPECT_LE(established_at.ns(), Duration::millis(3).ns());
}

TEST(Tcp, ConnectionToNonListeningPortResets) {
  CallbackHandler client;
  TwoHostNet t(kLan);
  bool reset = false;
  TcpConnection& c = t.a->connect(t.b->id(), 4242);
  client.reset = [&] { reset = true; };
  c.set_handler(&client);
  t.loop.run_until(SimTime::zero() + Duration::seconds(1.0));
  EXPECT_TRUE(reset);
}

/// Transfers `n` bytes a->b and returns the completion time (seconds).
double transfer_time(const net::LinkSpec& spec, Bytes n) {
  CallbackHandler sink;
  TwoHostNet t(spec);
  Bytes delivered = 0;
  SimTime done_at;
  sink.data = [&, n](Bytes newly) {
    delivered += newly;
    if (delivered >= n) done_at = t.net.loop().now();
  };
  t.b->listen(80, [&](TcpConnection& c) { c.set_handler(&sink); });
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(n);
  t.loop.run_until(SimTime::zero() + Duration::seconds(120.0));
  EXPECT_EQ(delivered, n);
  return done_at.sec();
}

TEST(Tcp, BulkTransferApproachesLinkRate) {
  // 2 Mbit/s link, 1 MByte payload: ideal goodput-limited time is
  // 1e6*8/2e6 = 4 s; headers add ~3%; slow start adds a little.
  const double sec = transfer_time(kLan, megabytes(1));
  EXPECT_GT(sec, 4.0);
  EXPECT_LT(sec, 5.0);
}

TEST(Tcp, ThroughputScalesWithBandwidth) {
  const double slow = transfer_time(kLan, kilobytes(500));
  const double fast =
      transfer_time(net::LinkSpec{Bandwidth::mbps(8.0), Duration::millis(1), 96'000},
                    kilobytes(500));
  EXPECT_GT(slow / fast, 3.0);  // 4x bandwidth -> ~4x faster (minus slow start)
}

TEST(Tcp, SlowStartDoublesPerRtt) {
  // With a 100 ms RTT and an initial window of 2 MSS, delivered bytes
  // should roughly double each RTT during slow start.
  CallbackHandler sink;
  TwoHostNet t(net::LinkSpec{Bandwidth::mbps(100.0), Duration::millis(50), 1'000'000});
  Bytes delivered = 0;
  sink.data = [&](Bytes newly) { delivered += newly; };
  t.b->listen(80, [&](TcpConnection& c) { c.set_handler(&sink); });
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(megabytes(4));
  // Handshake completes at ~100 ms and the first flight lands at ~150 ms;
  // sample mid-round (175 ms, 275 ms, ...) and compare per-round deltas.
  std::vector<Bytes> deltas;
  Bytes prev = 0;
  for (int i = 0; i < 4; ++i) {
    t.loop.run_until(SimTime::zero() + Duration::millis(175 + 100 * i));
    deltas.push_back(delivered - prev);
    prev = delivered;
  }
  ASSERT_GT(deltas[0], 0);
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    ASSERT_GT(deltas[i - 1], 0);
    const double ratio =
        static_cast<double>(deltas[i]) / static_cast<double>(deltas[i - 1]);
    EXPECT_GT(ratio, 1.5) << "slow-start round " << i << " did not ~double";
    EXPECT_LT(ratio, 3.0) << "slow-start round " << i << " grew implausibly fast";
  }
}

TEST(Tcp, SmallMessageNeedsNoFullMss) {
  // 200 bytes should arrive as a single sub-MSS segment quickly.
  CallbackHandler sink;
  TwoHostNet t(kLan);
  Bytes delivered = 0;
  sink.data = [&](Bytes newly) { delivered += newly; };
  t.b->listen(80, [&](TcpConnection& c) { c.set_handler(&sink); });
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(200);
  t.loop.run_until(SimTime::zero() + Duration::millis(10));
  EXPECT_EQ(delivered, 200);
}

TEST(Tcp, OnAckedReportsProgress) {
  CallbackHandler client;
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  Bytes acked = 0;
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  client.acked = [&](Bytes total) { acked = total; };
  c.set_handler(&client);
  c.write(10'000);
  t.loop.run_until(SimTime::zero() + Duration::seconds(2.0));
  EXPECT_EQ(acked, 10'000);
  EXPECT_EQ(c.bytes_acked(), 10'000);
}

TEST(Tcp, RecoversFromLossThroughTightQueue) {
  // A queue of only 3 packets forces drops during slow start; the transfer
  // must still complete (fast retransmit / RTO).
  const double sec =
      transfer_time(net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(10), 3 * 1500},
                    kilobytes(300));
  EXPECT_GT(sec, 1.2);   // 300 KB at 2 Mbit/s is at least 1.2 s
  EXPECT_LT(sec, 30.0);  // and loss must not stall it forever
}

TEST(Tcp, RetransmitsAreCounted) {
  TwoHostNet t(net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(10), 3 * 1500});
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(kilobytes(300));
  t.loop.run_until(SimTime::zero() + Duration::seconds(60.0));
  EXPECT_GT(c.retransmits(), 0);
  EXPECT_EQ(c.bytes_acked(), kilobytes(300));
}

TEST(Tcp, SrttApproximatesPathRtt) {
  TwoHostNet t(net::LinkSpec{Bandwidth::mbps(10.0), Duration::millis(40), 1'000'000});
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  c.write(kilobytes(100));
  t.loop.run_until(SimTime::zero() + Duration::seconds(5.0));
  // Path RTT is 80 ms + serialization; SRTT should land nearby.
  EXPECT_GT(c.srtt().ms(), 60.0);
  EXPECT_LT(c.srtt().ms(), 160.0);
}

TEST(Tcp, AbortSendsRstToPeer) {
  CallbackHandler server;
  TwoHostNet t(kLan);
  TcpConnection* accepted = nullptr;
  t.b->listen(80, [&](TcpConnection& c) { accepted = &c; });
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  t.loop.run_until(SimTime::zero() + Duration::millis(100));
  ASSERT_NE(accepted, nullptr);
  bool peer_reset = false;
  server.reset = [&] { peer_reset = true; };
  accepted->set_handler(&server);
  c.abort();
  EXPECT_TRUE(c.closed());
  t.loop.run_until(SimTime::zero() + Duration::millis(200));
  EXPECT_TRUE(peer_reset);
  EXPECT_EQ(c.peer(), nullptr);
}

TEST(Tcp, WriteAfterAbortIsIgnored) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  t.loop.run_until(SimTime::zero() + Duration::millis(100));
  c.abort();
  c.write(1000);  // must not crash or send
  t.loop.run_until(SimTime::zero() + Duration::millis(200));
  EXPECT_EQ(c.bytes_acked(), 0);
}

TEST(Tcp, SynLossRecoversViaRto) {
  // Drop the first SYN by using a zero-capacity... not possible; instead use
  // a queue fitting nothing beyond the in-flight packet and pre-fill the
  // link with a dummy transfer so the SYN is dropped.
  CallbackHandler client;
  TwoHostNet t(net::LinkSpec{Bandwidth::kbps(64), Duration::millis(1), 100});
  t.b->listen(80, [](TcpConnection&) {});
  // Saturate the a->b direction so some control packets drop.
  TcpConnection& filler = t.a->connect(t.b->id(), 80);
  filler.write(kilobytes(50));
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  bool established = false;
  client.established = [&] { established = true; };
  c.set_handler(&client);
  t.loop.run_until(SimTime::zero() + Duration::seconds(60.0));
  EXPECT_TRUE(established);  // SYN retries eventually get through
}

TEST(Tcp, TwoFlowsShareBottleneckFairly) {
  // Two hosts behind a shared 2 Mbit/s bottleneck send to the same sink;
  // long-run throughputs should be within 2x of each other.
  CallbackHandler from_h1;
  CallbackHandler from_h2;
  sim::EventLoop loop;
  net::Network net(loop);
  auto& h1 = net.add_node<Host>("h1");
  auto& h2 = net.add_node<Host>("h2");
  auto& sw = net.add_switch("sw");
  auto& sink = net.add_node<Host>("sink");
  const net::LinkSpec access{Bandwidth::mbps(10.0), Duration::millis(1), 96'000};
  net.connect(h1, sw, access);
  net.connect(h2, sw, access);
  net.connect(sw, sink, net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(5), 30'000});
  net.build_routes();
  Bytes d1 = 0;
  Bytes d2 = 0;
  from_h1.data = [&](Bytes n) { d1 += n; };
  from_h2.data = [&](Bytes n) { d2 += n; };
  sink.listen(80, [&](TcpConnection& c) {
    c.set_handler(c.remote_node() == h1.id() ? &from_h1 : &from_h2);
  });
  h1.connect(sink.id(), 80).write(megabytes(100));
  h2.connect(sink.id(), 80).write(megabytes(100));
  loop.run_until(SimTime::zero() + Duration::seconds(60.0));
  ASSERT_GT(d1, 0);
  ASSERT_GT(d2, 0);
  const double ratio = static_cast<double>(d1) / static_cast<double>(d2);
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  // Combined goodput should be near link rate: >= 70% of 2 Mbit/s over 60 s.
  EXPECT_GT(d1 + d2, static_cast<Bytes>(0.7 * 2e6 / 8 * 60));
}

TEST(Tcp, ParallelConnectionsGrabLargerShare) {
  // One host opens 5 connections, the other 1, across a shared bottleneck:
  // the 5-connection host should get roughly 5x the bandwidth (§4.2's
  // n/(n+1) argument). Accept anything clearly above 2x.
  CallbackHandler from_greedy;
  CallbackHandler from_meek;
  sim::EventLoop loop;
  net::Network net(loop);
  auto& greedy = net.add_node<Host>("greedy");
  auto& meek = net.add_node<Host>("meek");
  auto& sw = net.add_switch("sw");
  auto& sink = net.add_node<Host>("sink");
  const net::LinkSpec access{Bandwidth::mbps(10.0), Duration::millis(1), 96'000};
  net.connect(greedy, sw, access);
  net.connect(meek, sw, access);
  net.connect(sw, sink, net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(5), 30'000});
  net.build_routes();
  Bytes dg = 0;
  Bytes dm = 0;
  from_greedy.data = [&](Bytes n) { dg += n; };
  from_meek.data = [&](Bytes n) { dm += n; };
  sink.listen(80, [&](TcpConnection& c) {
    c.set_handler(c.remote_node() == greedy.id() ? &from_greedy : &from_meek);
  });
  for (int i = 0; i < 5; ++i) greedy.connect(sink.id(), 80).write(megabytes(100));
  meek.connect(sink.id(), 80).write(megabytes(100));
  loop.run_until(SimTime::zero() + Duration::seconds(60.0));
  ASSERT_GT(dm, 0);
  EXPECT_GT(static_cast<double>(dg) / static_cast<double>(dm), 2.0);
}

// A connection reports to its one handler through a single pointer. Every
// client host keeps two connection slots, so a callback member added back
// (a std::function is 32 B) would cost each of 10^5 client hosts 64 B.
// 488 B is the measured size on x86-64 with libstdc++.
TEST(Tcp, ConnectionHoldsNoCallbackObjects) {
  EXPECT_LE(sizeof(TcpConnection), 488u);
}

TEST(Host, PortAllocationIsUnique) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c1 = t.a->connect(t.b->id(), 80);
  TcpConnection& c2 = t.a->connect(t.b->id(), 80);
  EXPECT_NE(c1.local_port(), c2.local_port());
}

TEST(Host, ConnectionsAreReapedAfterClose) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  TcpConnection& c = t.a->connect(t.b->id(), 80);
  t.loop.run_until(SimTime::zero() + Duration::millis(100));
  EXPECT_GE(t.a->live_connections(), 1u);
  c.abort();
  t.loop.run_until(SimTime::zero() + Duration::millis(300));
  EXPECT_EQ(t.a->live_connections(), 0u);
  EXPECT_EQ(t.b->live_connections(), 0u);
}

TEST(Host, ConnectionsCreatedCounter) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  t.a->connect(t.b->id(), 80);
  t.a->connect(t.b->id(), 80);
  t.loop.run_until(SimTime::zero() + Duration::millis(50));
  EXPECT_EQ(t.a->connections_created(), 2);
  EXPECT_EQ(t.b->connections_created(), 2);  // two accepted
}

// The connection slab grows in doubling chunks of 2, 4, 8, ... slots, so 33
// concurrent connections fill four chunks and open a fifth — and no
// connection may move when a chunk is added: the message layer holds
// TcpConnection& for a connection's whole life.
TEST(Host, SlabGrowthKeepsConnectionsInPlace) {
  constexpr int kConns = 33;
  TwoHostNet t(kLan);
  std::vector<TcpConnection*> conns;
  for (int i = 0; i < kConns; ++i) {
    conns.push_back(&t.a->connect(t.b->id(), 80));
    for (TcpConnection* c : conns) {
      ASSERT_EQ(t.a->find_connection(c->local_port(), t.b->id(), 80), c) << "after connect " << i;
    }
  }
  EXPECT_EQ(t.a->live_connections(), static_cast<std::size_t>(kConns));

  // Released in order, the slots go onto the free list 0, 1, ..., 32, so
  // reconnecting pops them last-in first-out: the first reconnect lands in
  // the last connection's storage. Every slot, table entry and metadata
  // byte already exists, so the reconnect phase must not allocate.
  for (TcpConnection* c : conns) c->abort();
  t.loop.run_until(SimTime::zero() + Duration::millis(100));
  ASSERT_EQ(t.a->live_connections(), 0u);
  std::vector<TcpConnection*> again(kConns);
  const util::AllocGuard guard;
  for (TcpConnection*& c : again) c = &t.a->connect(t.b->id(), 80);
  const std::int64_t allocations = guard.delta();
  for (int i = 0; i < kConns; ++i) EXPECT_EQ(again[i], conns[kConns - 1 - i]) << "reconnect " << i;
#if !SPEAKUP_AUDIT_ENABLED  // audit checkpoints may allocate scratch
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  EXPECT_EQ(allocations, 0) << "reconnecting into freed slots allocated";
#endif
}

TEST(Host, DuplicateListenerRejected) {
  TwoHostNet t(kLan);
  t.b->listen(80, [](TcpConnection&) {});
  EXPECT_THROW(t.b->listen(80, [](TcpConnection&) {}), std::invalid_argument);
}

}  // namespace
}  // namespace speakup::transport
