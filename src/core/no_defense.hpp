// The undefended baseline ("without speak-up" in Figures 2 and 3): when the
// server is overloaded, excess requests are simply dropped (the client gets
// an immediate kBusy, the moral equivalent of a refused connection or a 503).
// The server therefore serves whichever request happens to arrive when it is
// free — random drops — so its attention divides in proportion to *request
// rates*, which is exactly what lets high-rate attackers crowd good clients
// out (§3, Figure 1(a)).
//
// The same class is the "elastic" defense, Bohatei-style scale-out (Fayaz et
// al., USENIX Security 2015): the defense answers overload not by charging
// clients but by provisioning more server capacity. Admission is unchanged;
// a periodic monitor watches the server's busy fraction and doubles capacity
// — up to elastic_max_scale times the base rate — whenever an interval runs
// at or above elastic_threshold. The tournament uses it as the "scale out
// instead of charging" column: it restores good-client service under load
// but pays in provisioned capacity rather than attacker bandwidth, and it
// cannot distinguish good demand from bad.
//
// With elastic_max_scale == 1.0 the monitor is never armed, so the run is
// the undefended baseline event for event; the factory registers "none" that
// way (the differential test in adversarial_test.cpp holds this invariant).
#pragma once

#include <cstdint>
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

class NoDefenseFrontEnd : public FrontEnd {
 public:
  NoDefenseFrontEnd(transport::Host& host, const FrontEndConfig& cfg,
                    util::RngStream server_rng);

  // --- FrontEnd ---
  [[nodiscard]] const ThinnerStats& stats() const override { return stats_; }
  [[nodiscard]] std::size_t contending() const override { return serving_.size(); }
  [[nodiscard]] Duration server_busy_good() const override {
    return server_.good_busy_time();
  }
  [[nodiscard]] Duration server_busy_bad() const override {
    return server_.bad_busy_time();
  }
  [[nodiscard]] Duration server_busy_total() const override { return server_.busy_time(); }

  void on_run_start() override;

  /// Current capacity multiplier (1.0 until the monitor first scales up).
  [[nodiscard]] double scale() const { return scale_; }
  [[nodiscard]] const server::EmulatedServer& server() const { return server_; }

 private:
  void on_accept(transport::TcpConnection& conn);
  void on_message(http::MessageStream& s, const http::Message& m);
  void on_reset(http::MessageStream& s);
  void on_server_complete(const server::ServiceRequest& done);
  void on_monitor_tick();

  transport::Host* host_;
  FrontEndConfig cfg_;
  server::EmulatedServer server_;
  http::SessionPool pool_;
  ThinnerStats stats_;
  /// Request in service -> its session (null once the client reset).
  std::unordered_map<std::uint64_t, http::MessageStream*> serving_;
  std::unordered_map<http::MessageStream*, std::uint64_t> by_stream_;
  double scale_ = 1.0;
  Duration busy_at_tick_ = Duration::zero();
};

}  // namespace speakup::core
