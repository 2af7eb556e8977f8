#include "core/quantum_thinner.hpp"

namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

QuantumAuctionThinner::QuantumAuctionThinner(transport::Host& host, const FrontEndConfig& cfg,
                                             util::RngStream server_rng)
    : host_(&host),
      cfg_(cfg),
      quantum_(cfg.quantum > Duration::zero() ? cfg.quantum
                                              : Duration::seconds(1.0 / cfg.capacity_rps)),
      server_(host.loop(), cfg.capacity_rps, std::move(server_rng)),
      book_(host, cfg, stats_),
      quantum_timer_(host.loop(), [this] { quantum_tick(); }) {
  server_.set_on_complete([this](const server::ServiceRequest& r) { on_server_complete(r); });
  host.listen(cfg_.request_port, [this](transport::TcpConnection& conn) {
    MessageStream& s = book_.adopt(conn);
    MessageStream::Callbacks cbs;
    cbs.on_message = [this, &s](const Message& m) {
      RequestState* st = book_.on_request(s, m);
      if (st == nullptr) return;
      // The request is present: only §5 step 4 can evict it now.
      if (!server_.busy()) {
        give_server_to(*st);
      } else {
        s.send(Message{.type = MessageType::kPleasePay, .request_id = st->id});
      }
    };
    cbs.on_reset = [this, &s] {
      // Request abandoned by the client: abort it wherever it is.
      if (RequestState* st = book_.on_reset(s)) abort_request(st->id);
    };
    s.set_callbacks(std::move(cbs));
  });
  quantum_timer_.restart(quantum_);
}

void QuantumAuctionThinner::give_server_to(RequestState& st) {
  SPEAKUP_ASSERT(!server_.busy());
  SPEAKUP_ASSERT(st.has_request && !st.serving);
  st.expiry->cancel();
  if (auto* o = host_->loop().observer()) {
    // A fresh grant is the admission (price = the bid being zeroed); a
    // resume after suspension is not a new admission.
    if (!st.suspended) {
      o->on_admission(obs_cls(st.cls), static_cast<double>(st.paid),
                      /*direct=*/!st.started_paying);
    }
    o->on_auction_clear(static_cast<double>(st.paid));
  }
  st.paid = 0;  // §5 step 2: "set u's payment to zero"
  st.serving = true;
  if (st.suspended) {
    st.suspended = false;
    server_.resume(st.id);
  } else {
    server_.submit(server::ServiceRequest{st.id, st.cls, st.difficulty});
  }
}

void QuantumAuctionThinner::quantum_tick() {
  quantum_timer_.restart(quantum_);
  ++stats_.auctions_held;
  const auto active = server_.active_request();
  RequestState* v = active.has_value() ? book_.find(*active) : nullptr;
  RequestState* u = book_.top();
  if (v == nullptr) {
    if (u != nullptr && !server_.busy()) give_server_to(*u);
  } else if (u != nullptr && u->paid > v->paid) {
    // §5 step 2: SUSPEND v, admit/RESUME u.
    server_.suspend();
    v->serving = false;
    v->suspended = true;
    v->suspended_at = host_->loop().now();
    stats_.counters.inc("suspensions");
    if (auto* o = host_->loop().observer()) o->on_quantum_suspension();
    give_server_to(*u);
  } else {
    // §5 step 3: v continues but has not yet paid for the next quantum.
    v->paid = 0;
  }
  // §5 step 4: ABORT requests suspended too long.
  const SimTime now = host_->loop().now();
  const auto overdue = book_.ids_where([&](const RequestState& st) {
    return st.suspended && now - st.suspended_at > cfg_.suspension_limit;
  });
  for (const std::uint64_t id : overdue) abort_request(id);
}

void QuantumAuctionThinner::on_server_complete(const server::ServiceRequest& done) {
  if (RequestState* st = book_.find(done.request_id)) {
    st->serving = false;
    if (st->payment_session != nullptr) {
      // Terminate the on-going payment: the client stops paying now.
      st->payment_session->send(Message{.type = MessageType::kWin, .request_id = st->id});
    }
    if (st->request_session != nullptr) {
      st->request_session->send(Message{.type = MessageType::kResponse,
                                        .request_id = st->id,
                                        .body = cfg_.response_body,
                                        .cls = st->cls});
    }
    const double pay_time =
        st->started_paying ? (host_->loop().now() - st->first_payment).sec() : 0.0;
    stats_.count_served(st->cls);
    if (st->cls == ClientClass::kGood) {
      stats_.payment_time_good.add(pay_time);
    } else if (st->cls == ClientClass::kBad) {
      stats_.payment_time_bad.add(pay_time);
    }
    book_.destroy(done.request_id, /*abort_sessions=*/false);
  }
  // Hand the free server to the best contender right away (the next
  // quantum tick would do it too; this avoids idling a full quantum).
  if (RequestState* u = book_.top()) give_server_to(*u);
}

void QuantumAuctionThinner::abort_request(std::uint64_t id) {
  RequestState* st = book_.find(id);
  if (st == nullptr) return;
  if (st->serving) {
    // Abandoned while holding the server: suspend then discard.
    server_.suspend();
    st->serving = false;
    st->suspended = true;
  }
  if (st->suspended) server_.abort_suspended(id);
  stats_.counters.inc("aborts");
  if (auto* o = host_->loop().observer()) o->on_abort();
  // If the client is still there, kAborted tells it to stop paying and it
  // closes both channels itself; aborting here would kill the unsent
  // notification. If the client already abandoned the request, force-close.
  const bool client_gone = st->request_session == nullptr;
  if (!client_gone) {
    st->request_session->send(Message{.type = MessageType::kAborted, .request_id = id});
  }
  book_.destroy(id, /*abort_sessions=*/client_gone);
  if (!server_.busy()) {
    if (RequestState* u = book_.top()) give_server_to(*u);
  }
}

}  // namespace speakup::core
