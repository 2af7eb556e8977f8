// Tests for the workload clients (Poisson arrivals, windowing, backlog,
// timeouts), the payment-channel client (POST churn) and the file-transfer
// pair.
#include <gtest/gtest.h>

#include "client/file_transfer.hpp"
#include "client/payment_channel.hpp"
#include "client/workload_client.hpp"
#include "core/auction_thinner.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::client {
namespace {

struct Rig {
  Rig() : net(loop) {
    sw = &net.add_switch("sw");
    thinner_host = &net.add_node<transport::Host>("thinner");
    net.connect(*thinner_host, *sw,
                net::LinkSpec{Bandwidth::gbps(1.0), Duration::micros(500), 4'000'000});
  }

  transport::Host& add_client_host(const std::string& name,
                                   Bandwidth bw = Bandwidth::mbps(2.0)) {
    auto& h = net.add_node<transport::Host>(name);
    net.connect(h, *sw, net::LinkSpec{bw, Duration::micros(500), 96'000});
    return h;
  }

  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }

  sim::EventLoop loop;
  net::Network net;
  net::Switch* sw = nullptr;
  transport::Host* thinner_host = nullptr;
};

// One ClientStats exists per client (10^5 in the largest runs): counters
// plus one streaming summary, no stored samples.
TEST(ClientStats, RecordStaysSmall) { EXPECT_LE(sizeof(ClientStats), 120u); }

TEST(WorkloadClient, ParamFactoriesMatchPaper) {
  const WorkloadParams g = good_client_params();
  EXPECT_DOUBLE_EQ(g.lambda, 2.0);
  EXPECT_EQ(g.window, 1);
  EXPECT_EQ(g.cls, http::ClientClass::kGood);
  const WorkloadParams b = bad_client_params();
  EXPECT_DOUBLE_EQ(b.lambda, 40.0);
  EXPECT_EQ(b.window, 20);
  EXPECT_EQ(b.cls, http::ClientClass::kBad);
}

TEST(WorkloadClient, RejectsBadParameters) {
  Rig rig;
  auto& h = rig.add_client_host("c");
  WorkloadParams p = good_client_params();
  p.lambda = 0.0;
  EXPECT_THROW(WorkloadClient(h, rig.thinner_host->id(), p, 0, util::RngStream(1, "c")),
               std::invalid_argument);
  p = good_client_params();
  p.window = 0;
  EXPECT_THROW(WorkloadClient(h, rig.thinner_host->id(), p, 0, util::RngStream(1, "c")),
               std::invalid_argument);
}

TEST(WorkloadClient, ServedByIdleServer) {
  Rig rig;
  core::FrontEndConfig cfg;
  cfg.capacity_rps = 100.0;
  core::AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_client_host("c");
  WorkloadClient c(h, rig.thinner_host->id(), good_client_params(), 0,
                   util::RngStream(1, "c"));
  c.start();
  rig.run_for(10.0);
  // lambda=2 for 10 s: ~20 arrivals, nearly all served, none denied.
  EXPECT_GT(c.stats().served, 10);
  EXPECT_EQ(c.stats().denied, 0);
  EXPECT_DOUBLE_EQ(c.stats().fraction_served(), 1.0);
  // Response times on an idle server: connection setup + ~10 ms service.
  EXPECT_LT(c.stats().response_time.mean(), 0.1);
}

TEST(WorkloadClient, ArrivalRateMatchesLambda) {
  Rig rig;
  core::FrontEndConfig cfg;
  cfg.capacity_rps = 1000.0;
  core::AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h = rig.add_client_host("c");
  WorkloadParams p = good_client_params();
  p.lambda = 5.0;
  WorkloadClient c(h, rig.thinner_host->id(), p, 0, util::RngStream(1, "c"));
  c.start();
  rig.run_for(60.0);
  EXPECT_NEAR(static_cast<double>(c.stats().arrivals), 300.0, 60.0);  // ~4 sigma
}

TEST(WorkloadClient, WindowLimitsOutstanding) {
  Rig rig;
  // A thinner that never answers: requests pile up to the window limit.
  rig.thinner_host->listen(80, [](transport::TcpConnection&) {});
  auto& h = rig.add_client_host("c");
  WorkloadParams p = bad_client_params();  // lambda 40, window 20
  WorkloadClient c(h, rig.thinner_host->id(), p, 0, util::RngStream(1, "c"));
  c.start();
  rig.run_for(2.0);
  EXPECT_LE(c.outstanding(), 20u);
  EXPECT_GT(c.backlog(), 0u);  // excess arrivals queue up
}

TEST(WorkloadClient, UnansweredRequestsTimeOutAsDenials) {
  Rig rig;
  rig.thinner_host->listen(80, [](transport::TcpConnection&) {});  // silent
  auto& h = rig.add_client_host("c");
  WorkloadClient c(h, rig.thinner_host->id(), good_client_params(), 0,
                   util::RngStream(1, "c"));
  c.start();
  rig.run_for(25.0);
  // Every started request dies at the 10 s timeout.
  EXPECT_GT(c.stats().denied, 0);
  EXPECT_EQ(c.stats().served, 0);
  EXPECT_DOUBLE_EQ(c.stats().fraction_served(), 0.0);
}

TEST(WorkloadClient, BacklogEntriesExpireAfterTenSeconds) {
  Rig rig;
  rig.thinner_host->listen(80, [](transport::TcpConnection&) {});  // silent
  auto& h = rig.add_client_host("c");
  WorkloadParams p = good_client_params();  // window 1
  p.lambda = 10.0;                          // arrivals far outpace service
  WorkloadClient c(h, rig.thinner_host->id(), p, 0, util::RngStream(1, "c"));
  c.start();
  rig.run_for(30.0);
  // Arrivals ~300; at most ~3 can be in flight at a time; backlog churns
  // through 10 s expiries.
  EXPECT_GT(c.stats().denied, 100);
}

TEST(WorkloadClient, ConnectionResetCountsAsDenial) {
  Rig rig;
  // No listener at all: connect attempts are RST'd immediately.
  auto& h = rig.add_client_host("c");
  WorkloadClient c(h, rig.thinner_host->id(), good_client_params(), 0,
                   util::RngStream(1, "c"));
  c.start();
  rig.run_for(5.0);
  EXPECT_GT(c.stats().denied, 0);
  EXPECT_EQ(c.stats().served, 0);
}

TEST(WorkloadClient, DistinctClientsUseDistinctRequestIds) {
  // Request ids are namespaced by client index; two clients never collide.
  const std::uint64_t base0 = (static_cast<std::uint64_t>(0 + 1) << 32);
  const std::uint64_t base1 = (static_cast<std::uint64_t>(1 + 1) << 32);
  EXPECT_NE(base0, base1);
  EXPECT_EQ(base0 >> 32, 1u);
  EXPECT_EQ(base1 >> 32, 2u);
}

TEST(PaymentChannel, PostsChurnWhenPriceExceedsPostSize) {
  // Small POSTs force kPostContinue churn: the client must reopen channels.
  Rig rig;
  core::FrontEndConfig cfg;
  cfg.capacity_rps = 0.25;  // ~4 s service: contenders must pay a while
  core::AuctionThinner thinner(*rig.thinner_host, cfg, util::RngStream(1, "srv"));
  auto& h1 = rig.add_client_host("c1", Bandwidth::mbps(10.0));
  auto& h2 = rig.add_client_host("c2", Bandwidth::mbps(10.0));
  WorkloadParams p = good_client_params();
  p.post_size = kilobytes(50);  // tiny POSTs -> many per payment
  WorkloadClient c1(h1, rig.thinner_host->id(), p, 0, util::RngStream(1, "c1"));
  WorkloadClient c2(h2, rig.thinner_host->id(), p, 1, util::RngStream(1, "c2"));
  c1.start();
  c2.start();
  rig.run_for(20.0);
  // Both clients contend; at least one had to send multiple POSTs.
  EXPECT_GT(thinner.stats().payment_bytes_total, kilobytes(100));
  EXPECT_GT(c1.stats().served + c2.stats().served, 2);
  EXPECT_GT(c1.stats().payment_bytes_acked + c2.stats().payment_bytes_acked,
            kilobytes(100));
}

TEST(FileTransfer, DownloadsCompleteAndAreTimed) {
  Rig rig;
  auto& server_host = rig.add_client_host("web", Bandwidth::mbps(100.0));
  StaticFileServer server(server_host);
  auto& h = rig.add_client_host("dl", Bandwidth::mbps(2.0));
  FileTransferClient::Config cfg;
  cfg.server = server_host.id();
  cfg.file_size = kilobytes(64);
  cfg.count = 10;
  FileTransferClient dl(h, cfg);
  bool done = false;
  dl.set_on_done([&] { done = true; });
  dl.start();
  rig.run_for(60.0);
  EXPECT_TRUE(done);
  EXPECT_EQ(dl.completed(), 10);
  EXPECT_EQ(dl.failures(), 0);
  ASSERT_EQ(dl.latencies().count(), 10u);
  // 64 KB at 2 Mbit/s: >= 0.26 s each.
  EXPECT_GT(dl.latencies().mean(), 0.25);
  EXPECT_LT(dl.latencies().mean(), 2.0);
  EXPECT_EQ(server.requests(), 10);
}

TEST(FileTransfer, LatencyGrowsWithFileSize) {
  Rig rig;
  auto& server_host = rig.add_client_host("web", Bandwidth::mbps(100.0));
  StaticFileServer server(server_host);
  auto& h = rig.add_client_host("dl", Bandwidth::mbps(2.0));
  double means[2] = {0, 0};
  int i = 0;
  for (const Bytes size : {kilobytes(4), kilobytes(64)}) {
    FileTransferClient::Config cfg;
    cfg.server = server_host.id();
    cfg.file_size = size;
    cfg.count = 5;
    FileTransferClient dl(h, cfg);
    dl.start();
    rig.run_for(30.0);
    means[i++] = dl.latencies().mean();
  }
  EXPECT_GT(means[1], means[0] * 2);
}

}  // namespace
}  // namespace speakup::client
