// A test-only ConnectionHandler for tests that drive raw TcpConnections:
// each event goes to an optional std::function field. A connection keeps a
// plain pointer to its handler, so declare the handler before the network
// that owns the connections: it must outlive every connection it is set on.
#pragma once

#include <functional>

#include "transport/tcp_connection.hpp"

namespace speakup::transport {

struct CallbackHandler final : ConnectionHandler {
  std::function<void()> established;
  std::function<void(Bytes newly_delivered)> data;
  std::function<void(Bytes total_acked)> acked;
  std::function<void()> reset;

  void on_established() override {
    if (established) established();
  }
  void on_data(Bytes newly_delivered) override {
    if (data) data(newly_delivered);
  }
  void on_acked(Bytes total_acked) override {
    if (acked) acked(total_acked);
  }
  void on_reset() override {
    if (reset) reset();
  }
};

}  // namespace speakup::transport
