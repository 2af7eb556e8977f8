// One endpoint of a simulated TCP connection.
//
// Implements the congestion-control behaviours the speak-up evaluation
// depends on: 3-way handshake (SYN loss costs a full RTO), slow start,
// AIMD congestion avoidance, fast retransmit/recovery (NewReno-style
// partial-ack handling), RTO with exponential backoff and Karn's rule,
// and RFC 6298 RTT estimation.
//
// Data is modeled as byte counts. Applications call write(n) to append n
// bytes to the stream; the receiving endpoint's handler hears of in-order
// arrival through on_data. peer() exposes the other endpoint — a simulation
// shortcut used by the message layer to pass typed message descriptors
// alongside the faithfully-simulated bytes.
#pragma once

#include <cstdint>

#include "net/packet.hpp"
#include "sim/timer.hpp"
#include "transport/ooo_tracker.hpp"
#include "transport/tcp_config.hpp"
#include "util/units.hpp"

namespace speakup::transport {

class Host;

/// The application layer's view of one connection (http::MessageStream in
/// the simulator). A connection holds a plain pointer to its handler, so the
/// handler must detach itself (set_handler(nullptr)) before it dies.
class ConnectionHandler {
 public:
  virtual void on_established() = 0;
  virtual void on_data(Bytes newly_delivered) = 0;  // receiver side, in-order bytes
  virtual void on_acked(Bytes total_acked) = 0;     // sender side, cumulative
  virtual void on_reset() = 0;                      // peer RST or local failure

 protected:
  ~ConnectionHandler() = default;
};

class TcpConnection {
 public:
  enum class State { kSynSent, kSynReceived, kEstablished, kClosed };

  TcpConnection(Host& host, std::uint32_t local_port, net::NodeId remote,
                std::uint32_t remote_port, const TcpConfig& cfg, bool initiator);

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;
  ~TcpConnection();

  /// The one receiver of this connection's events; nullptr detaches it.
  void set_handler(ConnectionHandler* h) { handler_ = h; }
  [[nodiscard]] ConnectionHandler* handler() const { return handler_; }

  /// Appends `n` bytes to the outgoing stream.
  void write(Bytes n);

  /// Sends RST and tears the local endpoint down immediately.
  void abort();

  /// Packet entry point (called by Host demux).
  void on_packet(const net::Packet& p);

  // --- identity & state ---
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == State::kEstablished; }
  [[nodiscard]] bool closed() const { return state_ == State::kClosed; }
  [[nodiscard]] std::uint32_t local_port() const { return local_port_; }
  [[nodiscard]] net::NodeId remote_node() const { return remote_; }
  [[nodiscard]] std::uint32_t remote_port() const { return remote_port_; }
  [[nodiscard]] Host& host() const { return *host_; }

  /// The opposite endpoint (simulation shortcut); nullptr before the
  /// handshake completes or after the peer closes.
  [[nodiscard]] TcpConnection* peer() const { return peer_; }

  // --- counters / introspection (used by tests and reports) ---
  /// Total bytes the application has submitted via write() — the
  /// app-side count, independent of how much has been transmitted yet
  /// (a window-limited connection reports the full amount immediately).
  /// For wire-side progress see bytes_sent() / bytes_acked().
  [[nodiscard]] Bytes bytes_written() const { return app_limit_; }
  /// Highest stream offset handed to the network so far (snd_nxt); always
  /// <= bytes_written(), and temporarily rewinds on a retransmission
  /// timeout (go-back-N restarts from the last cumulative ack).
  [[nodiscard]] Bytes bytes_sent() const { return snd_nxt_; }
  [[nodiscard]] Bytes bytes_acked() const { return snd_una_; }
  [[nodiscard]] Bytes bytes_delivered() const { return rcv_nxt_; }
  [[nodiscard]] double cwnd_bytes() const { return cwnd_; }
  [[nodiscard]] Duration srtt() const { return srtt_; }
  /// Current retransmission timeout, including any exponential backoff
  /// still in force (Karn's rule: backoff sticks until fresh data yields
  /// an RTT sample). Introspection for tests.
  [[nodiscard]] Duration rto() const { return rto_; }
  [[nodiscard]] std::int64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::int64_t timeouts() const { return timeouts_; }

 private:
  friend class Host;

  void start_handshake();
  void start_passive();
  void establish();
  void try_send();
  void send_segment(std::int64_t seq, Bytes len, bool retransmission);
  void send_ack();
  void handle_ack(std::int64_t ack);
  void handle_data(std::int64_t seq, Bytes len);
  void on_rto();
  void arm_rto();
  /// Karn-style exponential backoff: doubles the RTO (capped at
  /// cfg_.max_rto). Called exactly once per timer expiry — the single
  /// place backoff is applied, so no path can double-apply it.
  void backoff_rto();
  void take_rtt_sample(Duration sample);
  void enter_fast_recovery();
  void teardown(bool notify_app);
  void link_peer(TcpConnection* p) { peer_ = p; }

  [[nodiscard]] Bytes inflight() const { return snd_nxt_ - snd_una_; }

  Host* host_;
  TcpConfig cfg_;
  std::uint32_t local_port_;
  net::NodeId remote_;
  std::uint32_t remote_port_;
  State state_;
  TcpConnection* peer_ = nullptr;
  ConnectionHandler* handler_ = nullptr;

  // --- send side ---
  std::int64_t snd_una_ = 0;   // oldest unacked stream offset
  std::int64_t snd_nxt_ = 0;   // next offset to transmit
  std::int64_t app_limit_ = 0; // total bytes the app has written
  double cwnd_;
  double ssthresh_;
  int dupacks_ = 0;
  bool in_recovery_ = false;
  std::int64_t recover_ = 0;   // NewReno recovery point
  std::int64_t retransmits_ = 0;
  std::int64_t timeouts_ = 0;
  int syn_retries_ = 0;

  // --- RTT estimation (one timed segment at a time; Karn's rule) ---
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  bool have_rtt_ = false;
  Duration rto_;
  std::int64_t timed_seq_ = -1;  // -1: nothing being timed
  SimTime timed_sent_;
  SimTime syn_sent_at_;
  bool syn_retransmitted_ = false;

  sim::Timer rto_timer_;

  // --- receive side ---
  std::int64_t rcv_nxt_ = 0;
  OooTracker ooo_;  // out-of-order intervals past rcv_nxt_
};

}  // namespace speakup::transport
