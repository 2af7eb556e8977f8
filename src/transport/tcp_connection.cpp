#include "transport/tcp_connection.hpp"

#include <algorithm>

#include "obs/observer.hpp"
#include "transport/host.hpp"
#include "util/log.hpp"

namespace speakup::transport {

namespace {
constexpr std::int64_t kNoTimedSegment = -1;
}

TcpConnection::TcpConnection(Host& host, std::uint32_t local_port, net::NodeId remote,
                             std::uint32_t remote_port, bool initiator)
    : host_(&host),
      local_port_(local_port),
      remote_(remote),
      remote_port_(remote_port),
      state_(initiator ? State::kSynSent : State::kSynReceived),
      cwnd_(static_cast<double>(cfg().mss * cfg().initial_cwnd_segments)),
      ssthresh_(static_cast<double>(cfg().initial_ssthresh)),
      rto_(cfg().initial_rto),
      rto_timer_(host.loop(), [this] { on_rto(); }) {}

const TcpConfig& TcpConnection::cfg() const { return host_->tcp_config(); }

TcpConnection::~TcpConnection() {
  if (peer_ != nullptr) peer_->peer_ = nullptr;
}

void TcpConnection::start_handshake() {
  SPEAKUP_ASSERT(state_ == State::kSynSent);
  syn_sent_at_ = host_->loop().now();
  host_->send_packet(net::make_control_packet(host_->id(), local_port_, remote_, remote_port_,
                                              net::PacketKind::kSyn));
  rto_timer_.restart(rto_);
}

void TcpConnection::start_passive() {
  SPEAKUP_ASSERT(state_ == State::kSynReceived);
  host_->send_packet(net::make_control_packet(host_->id(), local_port_, remote_, remote_port_,
                                              net::PacketKind::kSynAck));
  rto_timer_.restart(rto_);
}

void TcpConnection::write(Bytes n) {
  SPEAKUP_ASSERT(n >= 0);
  if (state_ == State::kClosed) return;
  app_limit_ += n;
  try_send();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  host_->send_packet(net::make_control_packet(host_->id(), local_port_, remote_, remote_port_,
                                              net::PacketKind::kRst));
  teardown(/*notify_app=*/false);
}

void TcpConnection::on_packet(const net::Packet& p) {
  if (state_ == State::kClosed) return;
  switch (p.kind) {
    case net::PacketKind::kSyn:
      // Duplicate SYN: our SYN-ACK was lost. Resend it.
      if (state_ == State::kSynReceived || state_ == State::kEstablished) {
        host_->send_packet(net::make_control_packet(host_->id(), local_port_, remote_,
                                                    remote_port_, net::PacketKind::kSynAck));
      }
      break;
    case net::PacketKind::kSynAck:
      if (state_ == State::kSynSent) {
        if (!syn_retransmitted_) take_rtt_sample(host_->loop().now() - syn_sent_at_);
        rto_timer_.cancel();
        establish();
        // Completes the handshake so the passive side leaves kSynReceived.
        send_ack();
        try_send();
      }
      break;
    case net::PacketKind::kData:
      if (state_ == State::kSynReceived) {
        rto_timer_.cancel();
        establish();
      }
      handle_data(p.seq, p.payload);
      break;
    case net::PacketKind::kAck:
      if (state_ == State::kSynReceived) {
        rto_timer_.cancel();
        establish();
      }
      handle_ack(p.seq);
      break;
    case net::PacketKind::kRst:
      teardown(/*notify_app=*/true);
      break;
  }
}

void TcpConnection::establish() {
  state_ = State::kEstablished;
  if (handler_ != nullptr) handler_->on_established();
}

void TcpConnection::try_send() {
  if (state_ != State::kEstablished) return;
  const auto window = std::min<std::int64_t>(static_cast<std::int64_t>(cwnd_),
                                             cfg().max_inflight);
  while (snd_nxt_ < app_limit_ && inflight() < window) {
    const Bytes len = std::min<Bytes>(cfg().mss, app_limit_ - snd_nxt_);
    send_segment(snd_nxt_, len, /*retransmission=*/false);
    snd_nxt_ += len;
  }
}

void TcpConnection::send_segment(std::int64_t seq, Bytes len, bool retransmission) {
  SPEAKUP_ASSERT(len > 0);
  host_->send_packet(
      net::make_data_packet(host_->id(), local_port_, remote_, remote_port_, seq, len));
  if (retransmission) {
    ++retransmits_;
    if (auto* o = host_->loop().observer()) o->on_tcp_retransmit(cwnd_);
    // Karn's rule: a retransmitted range must not produce an RTT sample.
    if (timed_seq_ != kNoTimedSegment && timed_seq_ >= seq) timed_seq_ = kNoTimedSegment;
  } else if (timed_seq_ == kNoTimedSegment) {
    timed_seq_ = seq;
    timed_sent_ = host_->loop().now();
  }
  if (!rto_timer_.pending()) arm_rto();
}

void TcpConnection::send_ack() {
  host_->send_packet(net::make_control_packet(host_->id(), local_port_, remote_, remote_port_,
                                              net::PacketKind::kAck, rcv_nxt_));
}

void TcpConnection::handle_ack(std::int64_t ack) {
  if (ack > snd_una_) {
    const Bytes newly = ack - snd_una_;
    snd_una_ = ack;
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    dupacks_ = 0;
    // RTT sample (only if the timed segment was fully acked and never resent).
    if (timed_seq_ != kNoTimedSegment && ack > timed_seq_) {
      take_rtt_sample(host_->loop().now() - timed_sent_);
      timed_seq_ = kNoTimedSegment;
    }
    if (in_recovery_) {
      if (ack >= recover_) {
        in_recovery_ = false;
        cwnd_ = ssthresh_;  // deflate
      } else {
        // NewReno partial ack: the next hole is lost too; retransmit it and
        // keep the recovery window partially deflated.
        const Bytes len = std::min<Bytes>(cfg().mss, snd_nxt_ - snd_una_);
        if (len > 0) send_segment(snd_una_, len, /*retransmission=*/true);
        cwnd_ = std::max(cwnd_ - static_cast<double>(newly) + static_cast<double>(cfg().mss),
                         static_cast<double>(cfg().mss));
      }
    } else {
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(cfg().mss);  // slow start
      } else {
        cwnd_ += static_cast<double>(cfg().mss) * static_cast<double>(cfg().mss) / cwnd_;
      }
    }
    if (inflight() > 0) {
      arm_rto();
    } else {
      rto_timer_.cancel();
      rto_ = std::clamp(have_rtt_ ? srtt_ + 4 * rttvar_ : cfg().initial_rto, cfg().min_rto,
                        cfg().max_rto);
    }
    if (handler_ != nullptr) handler_->on_acked(snd_una_);
    try_send();
    return;
  }
  // Duplicate ACK (only meaningful while data is outstanding).
  if (ack == snd_una_ && inflight() > 0) {
    if (in_recovery_) {
      cwnd_ += static_cast<double>(cfg().mss);  // inflation
      try_send();
      return;
    }
    ++dupacks_;
    if (dupacks_ == cfg().dupack_threshold) enter_fast_recovery();
  }
}

void TcpConnection::enter_fast_recovery() {
  in_recovery_ = true;
  recover_ = snd_nxt_;
  ssthresh_ = std::max(static_cast<double>(inflight()) / 2.0,
                       2.0 * static_cast<double>(cfg().mss));
  cwnd_ = ssthresh_ + 3.0 * static_cast<double>(cfg().mss);
  const Bytes len = std::min<Bytes>(cfg().mss, snd_nxt_ - snd_una_);
  if (len > 0) send_segment(snd_una_, len, /*retransmission=*/true);
}

void TcpConnection::handle_data(std::int64_t seq, Bytes len) {
  SPEAKUP_ASSERT(len > 0);
  const std::int64_t old_rcv_nxt = rcv_nxt_;
  // Clip the already-delivered prefix; a wholly stale segment (a
  // retransmission of delivered data) still draws the duplicate ack below.
  const std::int64_t begin = std::max(seq, rcv_nxt_);
  const std::int64_t end = seq + len;
  if (begin < end) ooo_.insert(begin, end);
  // Advance rcv_nxt_ over any now-contiguous prefix. Because insert()
  // merges overlapping *and touching* ranges, the contiguous prefix is a
  // single interval — pop_prefix consumes it (and would consume any
  // stragglers a non-merging tracker left behind).
  rcv_nxt_ = ooo_.pop_prefix(rcv_nxt_);
  send_ack();
  if (rcv_nxt_ > old_rcv_nxt && handler_ != nullptr) handler_->on_data(rcv_nxt_ - old_rcv_nxt);
}

void TcpConnection::on_rto() {
  if (state_ == State::kClosed) return;
  ++timeouts_;
  // Every retransmitting path below backs the RTO off through backoff_rto()
  // — exactly once per expiry. Karn's rule keeps the backed-off value
  // sticky: a retransmitted range never produces an RTT sample (see
  // send_segment), so only an ack of fresh data can recompute the RTO from
  // the estimator. In particular a retransmitted SYN does not double-apply
  // backoff — the SYN-ACK handler skips the RTT sample (syn_retransmitted_)
  // and leaves rto_ at its single-backoff value. The two non-retransmitting
  // exits (handshake give-up, spurious expiry with nothing in flight) do
  // not back off: the first tears the connection down, and the second must
  // leave rto_ untouched for the next fresh flight.
  if (state_ == State::kSynSent) {
    if (++syn_retries_ > cfg().max_syn_retries) {
      teardown(/*notify_app=*/true);
      return;
    }
    syn_retransmitted_ = true;
    backoff_rto();
    host_->send_packet(net::make_control_packet(host_->id(), local_port_, remote_, remote_port_,
                                                net::PacketKind::kSyn));
    rto_timer_.restart(rto_);
    return;
  }
  if (state_ == State::kSynReceived) {
    backoff_rto();
    host_->send_packet(net::make_control_packet(host_->id(), local_port_, remote_, remote_port_,
                                                net::PacketKind::kSynAck));
    rto_timer_.restart(rto_);
    return;
  }
  if (inflight() <= 0) return;
  // Retransmission timeout: multiplicative backoff, window collapse,
  // go-back-N from the last cumulative ack.
  backoff_rto();
  ssthresh_ = std::max(static_cast<double>(inflight()) / 2.0,
                       2.0 * static_cast<double>(cfg().mss));
  cwnd_ = static_cast<double>(cfg().mss);
  snd_nxt_ = snd_una_;
  in_recovery_ = false;
  dupacks_ = 0;
  timed_seq_ = kNoTimedSegment;
  const Bytes len = std::min<Bytes>(cfg().mss, app_limit_ - snd_una_);
  if (len > 0) {
    send_segment(snd_una_, len, /*retransmission=*/true);
    snd_nxt_ = snd_una_ + len;
  }
  rto_timer_.restart(rto_);
}

void TcpConnection::arm_rto() { rto_timer_.restart(rto_); }

void TcpConnection::backoff_rto() {
  rto_ = std::min(rto_ * 2, cfg().max_rto);
  if (auto* o = host_->loop().observer()) o->on_tcp_rto_backoff(rto_);
}

void TcpConnection::take_rtt_sample(Duration sample) {
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_ = true;
  } else {
    // RFC 6298: rttvar = 3/4 rttvar + 1/4 |srtt - sample|; srtt = 7/8 srtt + 1/8 sample.
    const Duration err = srtt_ > sample ? srtt_ - sample : sample - srtt_;
    rttvar_ = Duration::nanos((3 * rttvar_.ns() + err.ns()) / 4);
    srtt_ = Duration::nanos((7 * srtt_.ns() + sample.ns()) / 8);
  }
  rto_ = std::clamp(srtt_ + 4 * rttvar_, cfg().min_rto, cfg().max_rto);
}

void TcpConnection::teardown(bool notify_app) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  rto_timer_.cancel();
  if (peer_ != nullptr) {
    peer_->peer_ = nullptr;
    peer_ = nullptr;
  }
  if (notify_app && handler_ != nullptr) handler_->on_reset();
  host_->release(this);
}

}  // namespace speakup::transport
