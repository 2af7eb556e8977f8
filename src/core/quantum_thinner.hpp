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

#include "core/auction_book.hpp"
#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
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
  [[nodiscard]] std::size_t contending() const override { return book_.size(); }
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
  using RequestState = AuctionBook::RequestState;

  void on_server_complete(const server::ServiceRequest& done);
  void quantum_tick();
  void give_server_to(RequestState& st);
  void abort_request(std::uint64_t id);

  transport::Host* host_;
  FrontEndConfig cfg_;
  Duration quantum_;
  server::InterruptibleServer server_;
  ThinnerStats stats_;
  AuctionBook book_;
  sim::Timer quantum_timer_;
};

}  // namespace speakup::core
