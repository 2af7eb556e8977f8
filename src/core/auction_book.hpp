// The contender book of the §3.3 virtual auction, shared by both auction
// thinners: AuctionThinner (one auction per server completion) and
// QuantumAuctionThinner (§5: one auction per quantum tau).
//
// The book keeps one RequestState per request id and everything the two
// thinners do identically:
//   - the payment channel: it accepts on the payment port, binds kPayOpen
//     to its request, answers each consumed kPostData with kPostContinue,
//     and credits every delivered body byte to `paid` (and to
//     ThinnerStats::payment_bytes_total / payment_rate);
//   - the request channel's bookkeeping (binding, duplicate filtering);
//   - the §7.3 payment window: a contender whose request never arrives is
//     evicted after cfg.payment_window and its bytes count as wasted;
//   - teardown, and the §3.3 winner rule (top()).
//
// The thinner owns the decisions. on_request() hands back a request that
// just arrived (the thinner admits it or replies kPleasePay); on_reset()
// hands back a request whose client dropped its request channel (the
// thinner drops or aborts it). The book never calls back into its owner.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "sim/timer.hpp"
#include "transport/host.hpp"

namespace speakup::core {

class AuctionBook {
 public:
  struct RequestState {
    std::uint64_t id = 0;
    http::ClientClass cls = http::ClientClass::kNeutral;
    int difficulty = 1;
    bool has_request = false;     // kRequest arrived (payment may precede it)
    bool serving = false;         // holds the server right now
    bool suspended = false;       // §5: SUSPENDed inside the server
    bool started_paying = false;
    Bytes paid = 0;               // the current bid
    SimTime created;
    SimTime first_payment;
    SimTime suspended_at;
    http::MessageStream* request_session = nullptr;
    http::MessageStream* payment_session = nullptr;
    std::unique_ptr<sim::Timer> expiry;  // payment window, armed until the request arrives
  };

  /// Listens on cfg.payment_port of `host`; credits payments to `stats`.
  AuctionBook(transport::Host& host, const FrontEndConfig& cfg, ThinnerStats& stats);

  AuctionBook(const AuctionBook&) = delete;
  AuctionBook& operator=(const AuctionBook&) = delete;

  /// Wraps an accepted request-channel connection; the owner sets its
  /// callbacks and routes them to on_request() / on_reset().
  http::MessageStream& adopt(transport::TcpConnection& conn) { return pool_.adopt(conn); }

  /// Records a request-channel message. Returns the state when this is
  /// its request's first kRequest; nullptr for duplicates and other types.
  RequestState* on_request(http::MessageStream& s, const http::Message& m);

  /// Handles a reset of any channel the book adopted and retires the
  /// stream. Returns the state whose request channel it was (its
  /// request_session is now null); nullptr otherwise.
  RequestState* on_reset(http::MessageStream& s);

  /// The state for `id`, created (and its payment window armed) if absent.
  RequestState& get_or_create(std::uint64_t id, http::ClientClass cls);
  [[nodiscard]] RequestState* find(std::uint64_t id);

  /// The §3.3 winner rule: among contenders whose request has arrived and
  /// that do not hold the server, the most bytes paid wins; ties go to the
  /// earliest `created`, then to the lowest id. nullptr if none qualifies.
  [[nodiscard]] RequestState* top();

  /// Removes a state; `abort_sessions` also retires its bound streams.
  void destroy(std::uint64_t id, bool abort_sessions);

  /// Ids of the states satisfying `pred`, in map-iteration order. That
  /// order is observable (the §5 abort pass acts in it); see
  /// tools/lint_allowlist.txt.
  template <typename Pred>
  [[nodiscard]] std::vector<std::uint64_t> ids_where(Pred pred) const {
    std::vector<std::uint64_t> ids;
    for (const auto& [id, st] : states_) {
      if (pred(*st)) ids.push_back(id);
    }
    return ids;
  }

  [[nodiscard]] std::size_t size() const { return states_.size(); }

 private:
  void on_payment_message(http::MessageStream& s, const http::Message& m);
  void on_payment_progress(http::MessageStream& s, const http::Message& m, Bytes newly);
  void expire(std::uint64_t id);

  sim::EventLoop* loop_;
  Duration payment_window_;
  ThinnerStats* stats_;
  http::SessionPool pool_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RequestState>> states_;
  std::unordered_map<http::MessageStream*, std::uint64_t> by_stream_;
};

}  // namespace speakup::core
