// Proof-of-work currency, the classic alternative (Aura et al., Juels &
// Brainard) the paper's §8 contrasts speak-up's bandwidth currency against.
// While the server is busy, incoming requests are held (no reply — the
// client's request simply waits) and the client is charged compute: each
// request must "solve a puzzle" costing puzzle_cost seconds per unit of
// request difficulty, and a client solves its puzzles one at a time. When
// the server frees up, the held request whose solve finished earliest is
// admitted (ties broken by request id, so admission order is
// deterministic).
//
// The contrast with the auction is the resource being priced: a client's
// admission rate here is capped at 1/puzzle_cost by its (serial) CPU no
// matter how many requests or how much bandwidth it throws at the front
// end, whereas the payment channel prices bandwidth. An attacker with lots
// of bandwidth but one CPU per bot gains nothing by flooding — but neither
// can a good client with a fat pipe buy more than 1/puzzle_cost of the
// server.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/front_end.hpp"
#include "core/thinner_stats.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "server/emulated_server.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {

class PuzzleFrontEnd : public FrontEnd {
 public:
  PuzzleFrontEnd(transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng);

  // --- FrontEnd ---
  [[nodiscard]] const ThinnerStats& stats() const override { return stats_; }
  [[nodiscard]] std::size_t contending() const override { return requests_.size(); }
  [[nodiscard]] Duration server_busy_good() const override {
    return server_.good_busy_time();
  }
  [[nodiscard]] Duration server_busy_bad() const override {
    return server_.bad_busy_time();
  }
  [[nodiscard]] Duration server_busy_total() const override { return server_.busy_time(); }

  /// Held requests whose puzzle is solved but not yet admitted.
  [[nodiscard]] std::size_t ready() const { return ready_.size(); }
  [[nodiscard]] const server::EmulatedServer& server() const { return server_; }

 private:
  enum class State { kSolving, kReady, kServing };

  struct Tracked {
    std::uint64_t id = 0;
    http::ClientClass cls = http::ClientClass::kNeutral;
    int difficulty = 1;
    http::MessageStream* session = nullptr;
    State state = State::kSolving;
    SimTime arrived;
    SimTime solve_done;
  };

  void on_accept(transport::TcpConnection& conn);
  void on_message(http::MessageStream& s, const http::Message& m);
  void on_reset(http::MessageStream& s);
  void on_server_complete(const server::ServiceRequest& done);
  void on_solved(std::uint64_t id);
  void admit_next();

  transport::Host* host_;
  FrontEndConfig cfg_;
  server::EmulatedServer server_;
  http::SessionPool pool_;
  ThinnerStats stats_;
  std::unordered_map<std::uint64_t, Tracked> requests_;
  std::unordered_map<http::MessageStream*, std::uint64_t> by_stream_;
  /// Solved requests awaiting admission, ordered (solve completion, id).
  std::set<std::pair<std::int64_t, std::uint64_t>> ready_;
  /// When each client's (serial) CPU frees up; key is request_id >> 32.
  std::unordered_map<std::uint32_t, SimTime> client_cpu_free_;
};

}  // namespace speakup::core
