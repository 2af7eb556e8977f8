// Heterogeneous-request thinner (§5): time is sliced into quanta of length
// tau and every quantum is auctioned.
//
// The thinner runs the paper's four-step procedure every tau seconds:
//   1. Let v be the currently-active request; let u be the contending
//      request that has paid the most.
//   2. If u has paid more than v: SUSPEND v, admit (or RESUME) u, and set
//      u's payment to zero.
//   3. If v has paid more than u: let v continue but set v's payment to
//      zero (v has not yet paid for the next quantum).
//   4. Time out and ABORT any request suspended longer than the limit
//      (30 s in the paper).
//
// Payment channels are NOT terminated on admission; clients keep paying
// until their response arrives, so a request of x chunks must win x
// auctions. The thinner never learns a request's difficulty — attackers
// sending deliberately hard requests pay for exactly the server time they
// consume, which is the point of the generalization.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "server/interruptible_server.hpp"
#include "sim/timer.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {

class QuantumAuctionThinner : public FrontEnd {
 public:
  QuantumAuctionThinner(transport::Host& host, const FrontEndConfig& cfg,
                        util::RngStream server_rng);

  // --- FrontEnd ---
  [[nodiscard]] const ThinnerStats& stats() const override { return stats_; }
  [[nodiscard]] std::size_t contending() const override { return states_.size(); }
  [[nodiscard]] Duration server_busy_good() const override {
    return server_.good_busy_time();
  }
  [[nodiscard]] Duration server_busy_bad() const override {
    return server_.bad_busy_time();
  }
  /// The interruptible server only charges classified work, so the total is
  /// the good + bad split (neutral traffic never reaches the §5 server).
  [[nodiscard]] Duration server_busy_total() const override {
    return server_.good_busy_time() + server_.bad_busy_time();
  }

  [[nodiscard]] const server::InterruptibleServer& server() const { return server_; }
  [[nodiscard]] std::int64_t suspensions() const {
    return stats_.counters.get("suspensions");
  }
  [[nodiscard]] std::int64_t aborts() const { return stats_.counters.get("aborts"); }

 private:
  struct RequestState {
    std::uint64_t id = 0;
    http::ClientClass cls = http::ClientClass::kNeutral;
    int difficulty = 1;
    bool has_request = false;
    bool active = false;      // currently holds the server
    bool suspended = false;   // SUSPENDed inside the server
    bool started = false;     // has been admitted at least once
    Bytes paid = 0;           // bid for the *next* quantum
    SimTime created;
    SimTime suspended_at;
    SimTime first_payment;
    bool started_paying = false;
    http::MessageStream* request_session = nullptr;
    http::MessageStream* payment_session = nullptr;
    std::unique_ptr<sim::Timer> expiry;  // payment window (armed while never admitted)
  };

  void on_request_accept(transport::TcpConnection& conn);
  void on_payment_accept(transport::TcpConnection& conn);
  void on_request_message(http::MessageStream& s, const http::Message& m);
  void on_payment_message(http::MessageStream& s, const http::Message& m);
  void on_payment_progress(http::MessageStream& s, const http::Message& m, Bytes newly);
  void on_stream_reset(http::MessageStream& s);
  void on_server_complete(const server::ServiceRequest& done);
  void quantum_tick();
  void give_server_to(RequestState& st);
  void abort_request(std::uint64_t id);
  void expire(std::uint64_t id);
  void destroy_state(std::uint64_t id, bool abort_sessions);
  RequestState& get_or_create(std::uint64_t id, http::ClientClass cls);
  RequestState* state_for(http::MessageStream& s);
  RequestState* active_state();
  RequestState* top_contender();

  transport::Host* host_;
  FrontEndConfig cfg_;
  Duration quantum_;
  server::InterruptibleServer server_;
  http::SessionPool pool_;
  ThinnerStats stats_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RequestState>> states_;
  std::unordered_map<http::MessageStream*, std::uint64_t> by_stream_;
  sim::Timer quantum_timer_;
};

}  // namespace speakup::core
