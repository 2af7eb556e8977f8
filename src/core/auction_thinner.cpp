#include "core/auction_thinner.hpp"

namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

AuctionThinner::AuctionThinner(transport::Host& host, const FrontEndConfig& cfg,
                               util::RngStream server_rng)
    : host_(&host),
      cfg_(cfg),
      server_(host.loop(), cfg.capacity_rps, std::move(server_rng)),
      book_(host, cfg, stats_) {
  server_.set_on_complete([this](const server::ServiceRequest& r) { on_server_complete(r); });
  host.listen(cfg_.request_port, [this](transport::TcpConnection& conn) {
    MessageStream& s = book_.adopt(conn);
    MessageStream::Callbacks cbs;
    cbs.on_message = [this, &s](const Message& m) {
      RequestState* st = book_.on_request(s, m);
      if (st == nullptr) return;
      if (!server_.busy()) {
        // Idle server: admit without payment. (If the state had been paying
        // ahead of its delayed request — the §7.3 overpayment case — its
        // paid bytes are recorded as its price.)
        admit(*st);
      } else {
        s.send(Message{.type = MessageType::kPleasePay, .request_id = st->id});
      }
    };
    cbs.on_reset = [this, &s] {
      // The client abandoned the request itself; without a request channel
      // the request can never be served, so drop the whole state.
      RequestState* st = book_.on_reset(s);
      if (st != nullptr && !st->serving) book_.destroy(st->id, /*abort_sessions=*/true);
    };
    s.set_callbacks(std::move(cbs));
  });
}

void AuctionThinner::admit(RequestState& st) {
  SPEAKUP_ASSERT(!server_.busy());
  SPEAKUP_ASSERT(st.has_request && !st.serving);
  st.serving = true;
  st.expiry->cancel();
  const double price = static_cast<double>(st.paid);
  const double pay_time =
      st.started_paying ? (host_->loop().now() - st.first_payment).sec() : 0.0;
  stats_.count_served(st.cls);
  if (st.cls == ClientClass::kGood) {
    stats_.price_good.add(price);
    stats_.payment_time_good.add(pay_time);
  } else if (st.cls == ClientClass::kBad) {
    stats_.price_bad.add(price);
    stats_.payment_time_bad.add(pay_time);
  }
  if (!st.started_paying) ++stats_.direct_admissions;
  if (auto* o = host_->loop().observer()) {
    o->on_admission(obs_cls(st.cls), price, /*direct=*/!st.started_paying);
  }
  if (st.payment_session != nullptr) {
    // Terminate the payment channel (§3.3): the client stops paying.
    st.payment_session->send(
        Message{.type = MessageType::kWin, .request_id = st.id, .cls = st.cls});
  }
  server_.submit(server::ServiceRequest{st.id, st.cls, st.difficulty});
}

void AuctionThinner::run_auction() {
  SPEAKUP_ASSERT(!server_.busy());
  if (RequestState* best = book_.top()) {
    ++stats_.auctions_held;
    if (auto* o = host_->loop().observer()) {
      o->on_auction_clear(static_cast<double>(best->paid));
    }
    admit(*best);
  }
}

void AuctionThinner::on_server_complete(const server::ServiceRequest& done) {
  if (RequestState* st = book_.find(done.request_id)) {
    if (st->request_session != nullptr) {
      st->request_session->send(Message{.type = MessageType::kResponse,
                                        .request_id = st->id,
                                        .body = cfg_.response_body,
                                        .cls = st->cls});
    }
    // Sessions stay open until the client closes them; the reset handler
    // retires streams that no longer map to a state.
    book_.destroy(done.request_id, /*abort_sessions=*/false);
  }
  run_auction();
}

}  // namespace speakup::core
