// The speak-up variant of §3.2: random drops and aggressive retries.
//
// The thinner admits a request when the server is free; otherwise it
// immediately replies kRetry — the synchronous "please retry now" signal.
// Clients react by streaming retries in a congestion-controlled stream
// (they pipeline without waiting for each kRetry; the TCP stream itself
// paces them). Because the thinner admits whichever retry arrives first
// at a free server, admissions are distributed in proportion to delivered
// retry rates — i.e., to bandwidth — which is the §3.2 allocation argument.
// The price (retries per admission, r = 1/p) emerges; it is recorded in
// ThinnerStats::retries_good/bad.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "server/emulated_server.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {

class RetryThinner : public FrontEnd {
 public:
  RetryThinner(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng);

  // --- FrontEnd ---
  [[nodiscard]] const ThinnerStats& stats() const override { return stats_; }
  [[nodiscard]] std::size_t contending() const override { return states_.size(); }
  [[nodiscard]] Duration server_busy_good() const override {
    return server_.good_busy_time();
  }
  [[nodiscard]] Duration server_busy_bad() const override {
    return server_.bad_busy_time();
  }
  [[nodiscard]] Duration server_busy_total() const override { return server_.busy_time(); }

  [[nodiscard]] const server::EmulatedServer& server() const { return server_; }
  [[nodiscard]] std::int64_t retries_received() const { return retries_received_; }

 private:
  struct RequestState {
    std::uint64_t id = 0;
    http::ClientClass cls = http::ClientClass::kNeutral;
    int difficulty = 1;
    std::int64_t retries = 0;
    bool serving = false;
    http::MessageStream* session = nullptr;
  };

  void on_accept(transport::TcpConnection& conn);
  void on_message(http::MessageStream& s, const http::Message& m);
  void on_reset(http::MessageStream& s);
  void on_server_complete(const server::ServiceRequest& done);
  void admit(RequestState& st);

  transport::Host* host_;
  FrontEndConfig cfg_;
  server::EmulatedServer server_;
  http::SessionPool pool_;
  ThinnerStats stats_;
  std::int64_t retries_received_ = 0;
  std::unordered_map<std::uint64_t, std::unique_ptr<RequestState>> states_;
  std::unordered_map<http::MessageStream*, std::uint64_t> by_stream_;
};

}  // namespace speakup::core
