// Edge cases for message framing: tiny/huge bodies, interleaving, abort
// mid-message, send-after-death, and a randomized framing property test.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "tests/callback_handler.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::http {
namespace {

struct Wire {
  explicit Wire(const net::LinkSpec& spec = {Bandwidth::mbps(10.0), Duration::millis(1),
                                             96'000})
      : net(loop), pool(loop) {
    a = &net.add_node<transport::Host>("a");
    b = &net.add_node<transport::Host>("b");
    net.connect(*a, *b, spec);
    net.build_routes();
  }

  MessageStream& open(MessageStream::Callbacks server_cbs) {
    b->listen(80, [this, server_cbs](transport::TcpConnection& c) {
      MessageStream& s = pool.adopt(c);
      s.set_callbacks(server_cbs);
      server = &s;
    });
    transport::TcpConnection& c = a->connect(b->id(), 80);
    client = &pool.adopt(c);
    return *client;
  }

  void run_for(double sec) { loop.run_until(loop.now() + Duration::seconds(sec)); }

  sim::EventLoop loop;
  net::Network net;
  SessionPool pool;
  transport::Host* a = nullptr;
  transport::Host* b = nullptr;
  MessageStream* client = nullptr;
  MessageStream* server = nullptr;
};

TEST(HttpEdge, HeaderOnlyMessagesBackToBack) {
  Wire w;
  std::vector<MessageType> got;
  MessageStream::Callbacks cbs;
  cbs.on_message = [&](const Message& m) { got.push_back(m.type); };
  MessageStream& c = w.open(cbs);
  for (int i = 0; i < 50; ++i) {
    c.send(Message{.type = i % 2 == 0 ? MessageType::kRetry : MessageType::kBusy});
  }
  w.run_for(3.0);
  ASSERT_EQ(got.size(), 50u);
  EXPECT_EQ(got[0], MessageType::kRetry);
  EXPECT_EQ(got[1], MessageType::kBusy);
}

TEST(HttpEdge, SmallMessageAfterHugeBodyPreservesFraming) {
  Wire w;
  std::vector<Message> got;
  Bytes body_bytes = 0;
  MessageStream::Callbacks cbs;
  cbs.on_message = [&](const Message& m) { got.push_back(m); };
  cbs.on_body_progress = [&](const Message&, Bytes n) { body_bytes += n; };
  MessageStream& c = w.open(cbs);
  c.send(Message{.type = MessageType::kPostData, .request_id = 1, .body = megabytes(2)});
  c.send(Message{.type = MessageType::kRequest, .request_id = 2});
  w.run_for(10.0);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, MessageType::kPostData);
  EXPECT_EQ(got[1].type, MessageType::kRequest);
  EXPECT_EQ(got[1].request_id, 2u);
  EXPECT_EQ(body_bytes, megabytes(2));
}

TEST(HttpEdge, AbortMidBodyStopsDelivery) {
  Wire w(net::LinkSpec{Bandwidth::mbps(1.0), Duration::millis(1), 96'000});
  Bytes body_bytes = 0;
  bool complete = false;
  bool reset = false;
  MessageStream::Callbacks cbs;
  cbs.on_body_progress = [&](const Message&, Bytes n) { body_bytes += n; };
  cbs.on_message = [&](const Message&) { complete = true; };
  cbs.on_reset = [&] { reset = true; };
  MessageStream& c = w.open(cbs);
  c.send(Message{.type = MessageType::kPostData, .request_id = 1, .body = megabytes(1)});
  w.run_for(1.0);  // ~125 KB delivered of 1 MB
  c.abort();
  w.run_for(5.0);
  EXPECT_FALSE(complete);
  EXPECT_TRUE(reset);
  EXPECT_GT(body_bytes, kilobytes(50));
  EXPECT_LT(body_bytes, kilobytes(400));
}

TEST(HttpEdge, SendAfterAbortIsSilentlyDropped) {
  Wire w;
  MessageStream& c = w.open({});
  w.run_for(0.5);
  c.abort();
  c.send(Message{.type = MessageType::kRequest, .request_id = 1});  // no crash
  w.run_for(0.5);
  EXPECT_FALSE(c.alive());
}

TEST(HttpEdge, DestroyedStreamDetachesWhileItsPeerKeepsSending) {
  // A stream destroyed without an abort leaves its connection open with no
  // handler: the peer keeps sending and the connection keeps receiving, but
  // nothing calls into the dead stream (an ASan build reports any such call
  // as a use-after-free).
  Wire w(net::LinkSpec{Bandwidth::mbps(1.0), Duration::millis(1), 96'000});
  std::unique_ptr<MessageStream> server;
  Bytes body_bytes = 0;
  w.b->listen(80, [&](transport::TcpConnection& c) {
    server = std::make_unique<MessageStream>(c);
    MessageStream::Callbacks cbs;
    cbs.on_body_progress = [&](const Message&, Bytes n) { body_bytes += n; };
    server->set_callbacks(std::move(cbs));
  });
  MessageStream& client = w.pool.adopt(w.a->connect(w.b->id(), 80));
  client.send(Message{.type = MessageType::kPostData, .request_id = 1, .body = megabytes(1)});
  w.run_for(1.0);  // ~125 KB delivered of 1 MB
  ASSERT_NE(server, nullptr);
  ASSERT_GT(body_bytes, 0);
  transport::TcpConnection* conn = server->connection();
  server.reset();
  EXPECT_EQ(conn->handler(), nullptr);
  const Bytes delivered = conn->bytes_delivered();
  const Bytes counted = body_bytes;
  w.run_for(2.0);
  EXPECT_GT(conn->bytes_delivered(), delivered);  // the peer kept sending
  EXPECT_EQ(body_bytes, counted);
  EXPECT_TRUE(client.alive());
}

TEST(HttpEdge, BytesFromANonStreamPeerFrameNoMessage) {
  // A stream reads message descriptors from its peer's handler only when
  // that handler is a MessageStream: bytes a raw connection writes carry no
  // descriptors, so they frame nothing.
  transport::CallbackHandler raw;
  Wire w;
  transport::TcpConnection* server = nullptr;
  w.b->listen(80, [&](transport::TcpConnection& c) {
    c.set_handler(&raw);
    server = &c;
  });
  int messages = 0;
  Bytes body_bytes = 0;
  MessageStream::Callbacks cbs;
  cbs.on_message = [&](const Message&) { ++messages; };
  cbs.on_body_progress = [&](const Message&, Bytes n) { body_bytes += n; };
  MessageStream& client = w.pool.adopt(w.a->connect(w.b->id(), 80));
  client.set_callbacks(std::move(cbs));
  w.run_for(0.5);
  ASSERT_NE(server, nullptr);
  server->write(kilobytes(10));
  w.run_for(1.0);
  EXPECT_EQ(client.connection()->bytes_delivered(), kilobytes(10));
  EXPECT_EQ(messages, 0);
  EXPECT_EQ(body_bytes, 0);
}

TEST(HttpEdge, MetadataFieldsSurviveTransit) {
  Wire w;
  Message got;
  MessageStream::Callbacks cbs;
  cbs.on_message = [&](const Message& m) { got = m; };
  MessageStream& c = w.open(cbs);
  c.send(Message{.type = MessageType::kRequest,
                 .request_id = 0xDEADBEEFull,
                 .body = 123,
                 .cls = ClientClass::kBad,
                 .difficulty = 7,
                 .aux = 4242});
  w.run_for(1.0);
  EXPECT_EQ(got.request_id, 0xDEADBEEFull);
  EXPECT_EQ(got.body, 123);
  EXPECT_EQ(got.cls, ClientClass::kBad);
  EXPECT_EQ(got.difficulty, 7);
  EXPECT_EQ(got.aux, 4242);
}

TEST(HttpEdge, RandomizedMessageMixPreservesOrderAndSizes) {
  // Property test: any sequence of messages with random body sizes arrives
  // complete, in order, with exact body-byte totals.
  Wire w;
  util::RngStream rng(77, "http-fuzz");
  std::vector<Bytes> sent_bodies;
  std::vector<Bytes> got_bodies;
  Bytes progress_total = 0;
  MessageStream::Callbacks cbs;
  cbs.on_message = [&](const Message& m) { got_bodies.push_back(m.body); };
  cbs.on_body_progress = [&](const Message&, Bytes n) { progress_total += n; };
  MessageStream& c = w.open(cbs);
  Bytes total = 0;
  for (int i = 0; i < 60; ++i) {
    const Bytes body = rng.chance(0.3) ? 0 : rng.uniform_int(1, 20'000);
    sent_bodies.push_back(body);
    total += body;
    c.send(Message{.type = MessageType::kPostData,
                   .request_id = static_cast<std::uint64_t>(i),
                   .body = body});
  }
  w.run_for(10.0);
  ASSERT_EQ(got_bodies.size(), sent_bodies.size());
  EXPECT_EQ(got_bodies, sent_bodies);
  EXPECT_EQ(progress_total, total);
}

TEST(HttpEdge, BidirectionalSimultaneousTraffic) {
  Wire w;
  int server_got = 0;
  int client_got = 0;
  MessageStream::Callbacks scbs;
  scbs.on_message = [&](const Message&) { ++server_got; };
  MessageStream& c = w.open(scbs);
  MessageStream::Callbacks ccbs;
  ccbs.on_message = [&](const Message&) { ++client_got; };
  ccbs.on_established = [&] {
    for (int i = 0; i < 10; ++i) {
      c.send(Message{.type = MessageType::kRequest,
                     .request_id = static_cast<std::uint64_t>(i)});
    }
  };
  c.set_callbacks(std::move(ccbs));
  w.run_for(0.5);
  ASSERT_NE(w.server, nullptr);
  for (int i = 0; i < 10; ++i) {
    w.server->send(Message{.type = MessageType::kPleasePay,
                           .request_id = static_cast<std::uint64_t>(i)});
  }
  w.run_for(2.0);
  EXPECT_EQ(server_got, 10);
  EXPECT_EQ(client_got, 10);
}

}  // namespace
}  // namespace speakup::http
