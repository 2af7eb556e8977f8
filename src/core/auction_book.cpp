#include "core/auction_book.hpp"

#include "util/assert.hpp"

namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

AuctionBook::AuctionBook(transport::Host& host, const FrontEndConfig& cfg, ThinnerStats& stats)
    : loop_(&host.loop()),
      payment_window_(cfg.payment_window),
      stats_(&stats),
      pool_(host.loop()) {
  host.listen(cfg.payment_port, [this](transport::TcpConnection& conn) {
    MessageStream& s = pool_.adopt(conn);
    MessageStream::Callbacks cbs;
    cbs.on_message = [this, &s](const Message& m) { on_payment_message(s, m); };
    cbs.on_body_progress = [this, &s](const Message& m, Bytes n) {
      on_payment_progress(s, m, n);
    };
    cbs.on_reset = [this, &s] { on_reset(s); };
    s.set_callbacks(std::move(cbs));
  });
}

AuctionBook::RequestState* AuctionBook::on_request(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return nullptr;  // ignore anything malformed
  ++stats_->requests_received;
  RequestState& st = get_or_create(m.request_id, m.cls);
  if (st.has_request) return nullptr;  // duplicate request
  st.cls = m.cls;
  st.difficulty = m.difficulty;
  st.has_request = true;
  st.request_session = &s;
  by_stream_[&s] = st.id;
  // The missing-request window no longer applies; from here the state lives
  // until it is served or the client abandons the request channel.
  st.expiry->cancel();
  return &st;
}

void AuctionBook::on_payment_message(MessageStream& s, const Message& m) {
  switch (m.type) {
    case MessageType::kPayOpen: {
      RequestState& st = get_or_create(m.request_id, m.cls);
      st.payment_session = &s;
      by_stream_[&s] = st.id;
      if (!st.started_paying) {
        st.started_paying = true;
        st.first_payment = loop_->now();
      }
      break;
    }
    case MessageType::kPostData:
      // A full POST was consumed; tell the client to send the next one
      // (paper: the thinner returns JavaScript causing another POST).
      s.send(Message{.type = MessageType::kPostContinue, .request_id = m.request_id});
      break;
    default:
      break;
  }
}

void AuctionBook::on_payment_progress(MessageStream& s, const Message& m, Bytes newly) {
  if (m.type != MessageType::kPostData) return;
  stats_->payment_bytes_total += newly;
  stats_->payment_rate.add(loop_->now(), static_cast<double>(newly));
  const auto it = by_stream_.find(&s);
  if (it == by_stream_.end()) return;
  if (RequestState* st = find(it->second)) st->paid += newly;
}

AuctionBook::RequestState* AuctionBook::on_reset(MessageStream& s) {
  RequestState* abandoned = nullptr;
  if (const auto it = by_stream_.find(&s); it != by_stream_.end()) {
    if (RequestState* st = find(it->second)) {
      if (st->request_session == &s) {
        st->request_session = nullptr;
        abandoned = st;
      } else if (st->payment_session == &s) {
        // Payment channels churn between POSTs; accounting persists.
        st->payment_session = nullptr;
      }
    }
    by_stream_.erase(it);
  }
  pool_.retire(&s);
  return abandoned;
}

AuctionBook::RequestState& AuctionBook::get_or_create(std::uint64_t id, ClientClass cls) {
  const auto it = states_.find(id);
  if (it != states_.end()) return *it->second;
  auto st = std::make_unique<RequestState>();
  st->id = id;
  st->cls = cls;
  st->created = loop_->now();
  st->expiry = std::make_unique<sim::Timer>(*loop_, [this, id] { expire(id); });
  st->expiry->restart(payment_window_);
  RequestState& ref = *st;
  states_[id] = std::move(st);
  return ref;
}

AuctionBook::RequestState* AuctionBook::find(std::uint64_t id) {
  const auto it = states_.find(id);
  return it == states_.end() ? nullptr : it->second.get();
}

AuctionBook::RequestState* AuctionBook::top() {
  RequestState* best = nullptr;
  for (auto& [id, st] : states_) {
    if (!st->has_request || st->serving) continue;
    if (best == nullptr || st->paid > best->paid ||
        (st->paid == best->paid &&
         (st->created < best->created ||
          (st->created == best->created && st->id < best->id)))) {
      best = st.get();
    }
  }
  return best;
}

void AuctionBook::expire(std::uint64_t id) {
  RequestState* st = find(id);
  if (st == nullptr) return;
  // The window is disarmed when the request arrives, so an expiring state
  // was never admitted.
  SPEAKUP_ASSERT(!st->has_request);
  ++stats_->channels_expired;
  stats_->payment_bytes_wasted += st->paid;
  if (auto* o = loop_->observer()) o->on_channel_expired(static_cast<double>(st->paid));
  destroy(id, /*abort_sessions=*/true);
}

void AuctionBook::destroy(std::uint64_t id, bool abort_sessions) {
  const auto it = states_.find(id);
  if (it == states_.end()) return;
  for (MessageStream* s : {it->second->request_session, it->second->payment_session}) {
    if (s == nullptr) continue;
    by_stream_.erase(s);
    if (abort_sessions) pool_.retire(s);
  }
  states_.erase(it);
}

}  // namespace speakup::core
