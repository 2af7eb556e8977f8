// Tests for message framing over TCP: boundaries, incremental body
// progress, interleaving, churn and teardown.
#include <gtest/gtest.h>

#include <vector>

#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "net/network.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/alloc_guard.hpp"

namespace speakup::http {
namespace {

struct Harness {
  Harness() : net(loop), pool(loop) {
    a = &net.add_node<transport::Host>("a");
    b = &net.add_node<transport::Host>("b");
    net.connect(*a, *b,
                net::LinkSpec{Bandwidth::mbps(2.0), Duration::millis(1), 96'000});
    net.build_routes();
  }

  /// Opens a client stream to b:80 with a server-side stream configured by
  /// `server_cbs_factory` at accept time.
  MessageStream& connect(MessageStream::Callbacks client_cbs,
                         std::function<MessageStream::Callbacks(MessageStream&)> server_fn) {
    b->listen(80, [this, server_fn](transport::TcpConnection& c) {
      MessageStream& s = pool.adopt(c);
      s.set_callbacks(server_fn(s));
    });
    transport::TcpConnection& c = a->connect(b->id(), 80);
    MessageStream& s = pool.adopt(c);
    s.set_callbacks(std::move(client_cbs));
    return s;
  }

  void run(double sec = 30.0) { loop.run_until(SimTime::zero() + Duration::seconds(sec)); }

  sim::EventLoop loop;
  net::Network net;
  SessionPool pool;
  transport::Host* a = nullptr;
  transport::Host* b = nullptr;
};

TEST(Message, WireBytesIncludesHeader) {
  Message m{.type = MessageType::kRequest, .request_id = 7, .body = 500};
  EXPECT_EQ(m.wire_bytes(), kMessageHeaderBytes + 500);
  Message hdr_only{.type = MessageType::kRetry};
  EXPECT_EQ(hdr_only.wire_bytes(), kMessageHeaderBytes);
}

TEST(MessageStream, DeliversSingleMessage) {
  Harness h;
  std::vector<Message> got;
  MessageStream& client = h.connect(
      {},
      [&](MessageStream&) {
        MessageStream::Callbacks cbs;
        cbs.on_message = [&](const Message& m) { got.push_back(m); };
        return cbs;
      });
  MessageStream* cp = &client;
  MessageStream::Callbacks ccbs;
  ccbs.on_established = [cp] {
    cp->send(Message{.type = MessageType::kRequest, .request_id = 42, .cls = ClientClass::kGood});
  };
  client.set_callbacks(std::move(ccbs));
  h.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, MessageType::kRequest);
  EXPECT_EQ(got[0].request_id, 42u);
  EXPECT_EQ(got[0].cls, ClientClass::kGood);
}

TEST(MessageStream, PreservesOrderAcrossManyMessages) {
  Harness h;
  std::vector<std::uint64_t> ids;
  MessageStream& client = h.connect(
      {},
      [&](MessageStream&) {
        MessageStream::Callbacks cbs;
        cbs.on_message = [&](const Message& m) { ids.push_back(m.request_id); };
        return cbs;
      });
  MessageStream* cp = &client;
  MessageStream::Callbacks ccbs;
  ccbs.on_established = [cp] {
    for (std::uint64_t i = 0; i < 20; ++i) {
      cp->send(Message{.type = MessageType::kRequest, .request_id = i});
    }
  };
  client.set_callbacks(std::move(ccbs));
  h.run();
  ASSERT_EQ(ids.size(), 20u);
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(ids[i], i);
}

TEST(MessageStream, BodyProgressArrivesIncrementally) {
  Harness h;
  std::vector<Bytes> progress;
  Bytes total = 0;
  bool complete = false;
  MessageStream& client = h.connect(
      {},
      [&](MessageStream&) {
        MessageStream::Callbacks cbs;
        cbs.on_body_progress = [&](const Message& m, Bytes n) {
          EXPECT_EQ(m.type, MessageType::kPostData);
          progress.push_back(n);
          total += n;
        };
        cbs.on_message = [&](const Message&) { complete = true; };
        return cbs;
      });
  MessageStream* cp = &client;
  MessageStream::Callbacks ccbs;
  ccbs.on_established = [cp] {
    cp->send(Message{.type = MessageType::kPostData, .request_id = 1, .body = kilobytes(100)});
  };
  client.set_callbacks(std::move(ccbs));
  h.run();
  EXPECT_TRUE(complete);
  EXPECT_EQ(total, kilobytes(100));
  // 100 KB over a 2 Mbit/s link arrives in many MSS-sized chunks.
  EXPECT_GT(progress.size(), 10u);
}

TEST(MessageStream, PartialBodyCountsBeforeCompletion) {
  Harness h;
  Bytes total = 0;
  bool complete = false;
  MessageStream& client = h.connect(
      {},
      [&](MessageStream&) {
        MessageStream::Callbacks cbs;
        cbs.on_body_progress = [&](const Message&, Bytes n) { total += n; };
        cbs.on_message = [&](const Message&) { complete = true; };
        return cbs;
      });
  MessageStream* cp = &client;
  MessageStream::Callbacks ccbs;
  ccbs.on_established = [cp] {
    cp->send(Message{.type = MessageType::kPostData, .request_id = 1, .body = megabytes(1)});
  };
  client.set_callbacks(std::move(ccbs));
  // 1 MB needs ~4.2 s at 2 Mbit/s; run only 2 s.
  h.run(2.0);
  EXPECT_FALSE(complete);
  EXPECT_GT(total, kilobytes(200));  // a partial payment has been credited
  EXPECT_LT(total, megabytes(1));
}

TEST(MessageStream, BidirectionalExchange) {
  Harness h;
  bool server_got = false;
  bool client_got = false;
  MessageStream& client = h.connect(
      {},
      [&](MessageStream& server) {
        MessageStream::Callbacks cbs;
        cbs.on_message = [&, sp = &server](const Message& m) {
          server_got = true;
          sp->send(Message{.type = MessageType::kResponse, .request_id = m.request_id});
        };
        return cbs;
      });
  MessageStream* cp = &client;
  MessageStream::Callbacks ccbs;
  ccbs.on_established = [cp] {
    cp->send(Message{.type = MessageType::kRequest, .request_id = 5});
  };
  ccbs.on_message = [&](const Message& m) {
    EXPECT_EQ(m.type, MessageType::kResponse);
    EXPECT_EQ(m.request_id, 5u);
    client_got = true;
  };
  client.set_callbacks(std::move(ccbs));
  h.run();
  EXPECT_TRUE(server_got);
  EXPECT_TRUE(client_got);
}

TEST(MessageStream, AbortTriggersPeerReset) {
  Harness h;
  bool server_reset = false;
  MessageStream& client = h.connect(
      {},
      [&](MessageStream&) {
        MessageStream::Callbacks cbs;
        cbs.on_reset = [&] { server_reset = true; };
        return cbs;
      });
  MessageStream* cp = &client;
  MessageStream::Callbacks ccbs;
  ccbs.on_established = [cp] { cp->abort(); };
  client.set_callbacks(std::move(ccbs));
  h.run();
  EXPECT_TRUE(server_reset);
  EXPECT_FALSE(client.alive());
}

TEST(MessageStream, MessagesQueuedBeforeEstablishmentFlow) {
  Harness h;
  std::vector<Message> got;
  MessageStream& client = h.connect(
      {},
      [&](MessageStream&) {
        MessageStream::Callbacks cbs;
        cbs.on_message = [&](const Message& m) { got.push_back(m); };
        return cbs;
      });
  // Send immediately, before the handshake completes.
  client.send(Message{.type = MessageType::kRequest, .request_id = 9});
  h.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, 9u);
}

TEST(SessionPool, RetireIsIdempotentAndDeferred) {
  Harness h;
  MessageStream& client = h.connect({}, [&](MessageStream&) { return MessageStream::Callbacks{}; });
  h.run(1.0);
  EXPECT_EQ(h.pool.live(), 2u);  // client + server streams
  h.pool.retire(&client);
  h.pool.retire(&client);  // second retire: no-op
  h.run(2.0);
  // Only the client stream was retired; the server-side stream saw a reset
  // but stays owned until its owner retires it.
  EXPECT_EQ(h.pool.live(), 1u);
}

TEST(SessionPool, AdoptTracksLiveStreams) {
  Harness h;
  EXPECT_EQ(h.pool.live(), 0u);
  h.connect({}, [&](MessageStream&) { return MessageStream::Callbacks{}; });
  h.run(1.0);
  EXPECT_EQ(h.pool.live(), 2u);
}

// Slot metadata is reserved a whole 64-slot chunk at a time: once the first
// adopt has built a chunk, the next adopt to allocate is the 65th, which
// opens the second chunk.
TEST(SessionPool, OnlyChunkBoundariesAllocate) {
  constexpr int kStreams = 66;
  Harness h;
  std::vector<transport::TcpConnection*> conns;
  for (int i = 0; i < kStreams; ++i) conns.push_back(&h.a->connect(h.b->id(), 80));
  ASSERT_TRUE(util::AllocGuard::counting()) << "speakup_counted_new not linked";
  h.pool.adopt(*conns[0]);
  for (int i = 1; i < kStreams; ++i) {
    const util::AllocGuard guard;
    h.pool.adopt(*conns[i]);
    if (i + 1 == 65) {
      EXPECT_GT(guard.delta(), 0) << "adopt 65 opens a chunk";
    } else {
      EXPECT_EQ(guard.delta(), 0) << "adopt " << i + 1 << " allocated";
    }
  }
  EXPECT_EQ(h.pool.live(), static_cast<std::size_t>(kStreams));
}

}  // namespace
}  // namespace speakup::http
