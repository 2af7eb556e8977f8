// The speak-up thinner with an explicit payment channel and virtual auction
// (§3.3 of the paper — the variant the authors implemented and evaluated).
//
// Protocol (client side is client/client_pool.hpp):
//   - A client sends its request (kRequest) on a "request channel".
//   - If the server is free and nobody is contending, the request is
//     admitted immediately (price zero).
//   - Otherwise the thinner replies kPleasePay, and the client opens a
//     payment channel (kPayOpen + a stream of 1-MByte kPostData POSTs, as
//     the paper's JavaScript does). The thinner credits every delivered
//     body byte to the request id.
//   - When the server finishes a request, the thinner holds a virtual
//     auction: among contenders whose request has actually arrived, the one
//     that has paid the most bytes wins, its channel is terminated (kWin)
//     and the request is admitted.
//   - A payment channel whose request has not arrived within the payment
//     window (10 s, §7.3) is evicted and its bytes are wasted.
//
// The thinner never identifies clients: all accounting is by request id and
// delivered bytes (spoofing/NAT make identity useless — §2.2, §3.2).
#pragma once

#include "core/auction_book.hpp"
#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
#include "server/emulated_server.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {

class AuctionThinner : public FrontEnd {
 public:
  AuctionThinner(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng);

  // --- FrontEnd ---
  [[nodiscard]] const ThinnerStats& stats() const override { return stats_; }
  /// Contenders currently being tracked (paying or waiting).
  [[nodiscard]] std::size_t contending() const override { return book_.size(); }
  [[nodiscard]] Duration server_busy_good() const override {
    return server_.good_busy_time();
  }
  [[nodiscard]] Duration server_busy_bad() const override {
    return server_.bad_busy_time();
  }
  [[nodiscard]] Duration server_busy_total() const override { return server_.busy_time(); }

  [[nodiscard]] const server::EmulatedServer& server() const { return server_; }

 private:
  using RequestState = AuctionBook::RequestState;

  void on_server_complete(const server::ServiceRequest& done);
  void admit(RequestState& st);
  void run_auction();

  transport::Host* host_;
  FrontEndConfig cfg_;
  server::EmulatedServer server_;
  ThinnerStats stats_;
  AuctionBook book_;
};

}  // namespace speakup::core
