// Tests for core::AuctionBook, the contender book both auction thinners
// run: the §3.3 winner rule (most bytes paid; ties to the earliest
// `created`, then to the lowest id), the payment-window eviction, and the
// payment/request channel wiring over a real network.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/auction_book.hpp"
#include "http/session_pool.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"

namespace speakup::core {
namespace {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

struct BookRig {
  BookRig() : net(loop) {
    sw = &net.add_switch("sw");
    thinner = &net.add_node<transport::Host>("thinner");
    client = &net.add_node<transport::Host>("client");
    const net::LinkSpec link{Bandwidth::mbps(10.0), Duration::micros(500), 200'000};
    net.connect(*thinner, *sw, link);
    net.connect(*client, *sw, link);
    book = std::make_unique<AuctionBook>(*thinner, cfg, stats);
  }

  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }

  /// A contender whose request has arrived, with `paid` bytes bid.
  AuctionBook::RequestState& contender(std::uint64_t id, Bytes paid) {
    AuctionBook::RequestState& st = book->get_or_create(id, ClientClass::kGood);
    st.has_request = true;
    st.expiry->cancel();
    st.paid = paid;
    return st;
  }

  [[nodiscard]] std::uint64_t winner() {
    const AuctionBook::RequestState* w = book->top();
    return w == nullptr ? 0 : w->id;
  }

  /// Client side: opens a stream to `port` that sends `msgs` once
  /// established and records every reply.
  MessageStream& open(std::uint32_t port, std::vector<Message> msgs) {
    MessageStream& s = client_pool.adopt(client->connect(thinner->id(), port));
    MessageStream::Callbacks cbs;
    cbs.on_established = [&s, msgs] {
      for (const Message& m : msgs) s.send(m);
    };
    cbs.on_message = [this](const Message& m) { replies.push_back(m.type); };
    s.set_callbacks(std::move(cbs));
    return s;
  }

  sim::EventLoop loop;
  net::Network net;
  net::Switch* sw = nullptr;
  transport::Host* thinner = nullptr;
  transport::Host* client = nullptr;
  FrontEndConfig cfg;
  ThinnerStats stats;
  std::unique_ptr<AuctionBook> book;
  http::SessionPool client_pool{loop};
  std::vector<MessageType> replies;
};

// --- the winner rule -------------------------------------------------------

TEST(AuctionBook, EmptyBookHasNoWinner) {
  BookRig rig;
  EXPECT_EQ(rig.book->top(), nullptr);
  EXPECT_EQ(rig.book->size(), 0u);
}

TEST(AuctionBook, MostBytesPaidWins) {
  BookRig rig;
  rig.contender(1, 100);
  rig.contender(2, 300);
  rig.contender(3, 200);
  EXPECT_EQ(rig.winner(), 2u);
}

TEST(AuctionBook, TieGoesToEarliestCreated) {
  BookRig rig;
  rig.contender(7, 100);
  rig.run_for(1.0);
  rig.contender(3, 100);  // same bid, created later, lower id
  EXPECT_EQ(rig.winner(), 7u);
}

TEST(AuctionBook, TieOnPaidAndCreatedGoesToLowestId) {
  BookRig rig;
  for (const std::uint64_t id : {9u, 12u, 4u, 31u, 6u}) rig.contender(id, 100);
  EXPECT_EQ(rig.winner(), 4u);
  rig.book->destroy(4, /*abort_sessions=*/false);
  EXPECT_EQ(rig.winner(), 6u);
}

TEST(AuctionBook, ZeroBidsStillAuction) {
  // Contenders that have paid nothing can still win (direct admissions at
  // light load); the earliest created wins.
  BookRig rig;
  rig.contender(5, 0);
  rig.run_for(0.5);
  rig.contender(2, 0);
  EXPECT_EQ(rig.winner(), 5u);
}

TEST(AuctionBook, ContenderWithoutRequestCannotWin) {
  BookRig rig;
  rig.book->get_or_create(1, ClientClass::kBad).paid = 500;  // paid, request not here
  rig.contender(2, 10);
  EXPECT_EQ(rig.winner(), 2u);
  rig.contender(1, 500);  // the request shows up
  EXPECT_EQ(rig.winner(), 1u);
}

TEST(AuctionBook, OnlyRequestlessContendersMeansNoWinner) {
  BookRig rig;
  rig.book->get_or_create(1, ClientClass::kBad).paid = 500;
  EXPECT_EQ(rig.book->top(), nullptr);
}

TEST(AuctionBook, HolderOfTheServerDoesNotBidButSuspendedDoes) {
  BookRig rig;
  rig.contender(1, 300).serving = true;
  rig.contender(2, 100);
  EXPECT_EQ(rig.winner(), 2u);
  // §5: a suspended request is a contender again.
  AuctionBook::RequestState& one = *rig.book->find(1);
  one.serving = false;
  one.suspended = true;
  EXPECT_EQ(rig.winner(), 1u);
}

TEST(AuctionBook, DestroyDropsContender) {
  BookRig rig;
  rig.contender(1, 300);
  rig.contender(2, 100);
  rig.book->destroy(1, /*abort_sessions=*/false);
  EXPECT_EQ(rig.book->find(1), nullptr);
  EXPECT_EQ(rig.book->size(), 1u);
  EXPECT_EQ(rig.winner(), 2u);
}

TEST(AuctionBook, GetOrCreateIsIdempotent) {
  BookRig rig;
  rig.contender(1, 50);
  const SimTime created = rig.book->find(1)->created;
  rig.run_for(1.0);
  AuctionBook::RequestState& again = rig.book->get_or_create(1, ClientClass::kBad);
  EXPECT_EQ(again.paid, 50);
  EXPECT_EQ(again.created, created);
  EXPECT_EQ(again.cls, ClientClass::kGood);
  EXPECT_EQ(rig.book->size(), 1u);
}

// --- payment window ---------------------------------------------------------

TEST(AuctionBook, PaymentWindowEvictsRequestlessContender) {
  BookRig rig;
  rig.book->get_or_create(1, ClientClass::kBad).paid = 500;
  rig.contender(2, 0);  // request present: the window is disarmed
  rig.run_for(rig.cfg.payment_window.sec() + 1.0);
  EXPECT_EQ(rig.book->find(1), nullptr);
  EXPECT_NE(rig.book->find(2), nullptr);
  EXPECT_EQ(rig.stats.channels_expired, 1);
  EXPECT_EQ(rig.stats.payment_bytes_wasted, 500);
}

// --- channel wiring -----------------------------------------------------------

TEST(AuctionBook, PaymentChannelCreditsEveryDeliveredByte) {
  BookRig rig;
  rig.open(rig.cfg.payment_port,
           {Message{.type = MessageType::kPayOpen, .request_id = 8},
            Message{.type = MessageType::kPostData, .request_id = 8, .body = 30'000},
            Message{.type = MessageType::kPostData, .request_id = 8, .body = 20'000}});
  rig.run_for(1.0);
  const AuctionBook::RequestState* st = rig.book->find(8);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->paid, 50'000);
  EXPECT_TRUE(st->started_paying);
  EXPECT_FALSE(st->has_request);
  EXPECT_EQ(rig.stats.payment_bytes_total, 50'000);
  EXPECT_EQ(rig.replies,
            (std::vector<MessageType>{MessageType::kPostContinue, MessageType::kPostContinue}));
}

TEST(AuctionBook, RequestChannelHandsBackFirstArrivalAndReset) {
  BookRig rig;
  std::vector<std::uint64_t> arrivals;
  std::vector<std::uint64_t> abandoned;
  rig.thinner->listen(rig.cfg.request_port, [&](transport::TcpConnection& conn) {
    MessageStream& s = rig.book->adopt(conn);
    MessageStream::Callbacks cbs;
    cbs.on_message = [&, ps = &s](const Message& m) {
      if (auto* st = rig.book->on_request(*ps, m)) arrivals.push_back(st->id);
    };
    cbs.on_reset = [&, ps = &s] {
      if (auto* st = rig.book->on_reset(*ps)) abandoned.push_back(st->id);
    };
    s.set_callbacks(std::move(cbs));
  });
  const Message req{.type = MessageType::kRequest, .request_id = 3, .cls = ClientClass::kBad};
  MessageStream& s = rig.open(rig.cfg.request_port, {req, req});  // second is a duplicate
  rig.run_for(1.0);
  EXPECT_EQ(arrivals, std::vector<std::uint64_t>{3});
  EXPECT_EQ(rig.stats.requests_received, 2);
  AuctionBook::RequestState* st = rig.book->find(3);
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(st->has_request);
  EXPECT_EQ(st->cls, ClientClass::kBad);
  // The request is present, so the payment window no longer applies.
  rig.run_for(rig.cfg.payment_window.sec() + 1.0);
  EXPECT_EQ(rig.stats.channels_expired, 0);
  // The client walks away: the book hands the request back to its owner.
  s.abort();
  rig.run_for(1.0);
  EXPECT_EQ(abandoned, std::vector<std::uint64_t>{3});
  ASSERT_NE(rig.book->find(3), nullptr);
  EXPECT_EQ(rig.book->find(3)->request_session, nullptr);
}

}  // namespace
}  // namespace speakup::core
