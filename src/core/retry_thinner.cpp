#include "core/retry_thinner.hpp"


namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

RetryThinner::RetryThinner(transport::Host& host, const FrontEndConfig& cfg,
                           util::RngStream server_rng)
    : host_(&host),
      cfg_(cfg),
      server_(host.loop(), cfg.capacity_rps, std::move(server_rng)),
      pool_(host.loop()) {
  server_.set_on_complete([this](const server::ServiceRequest& r) { on_server_complete(r); });
  host.listen(cfg_.request_port, [this](transport::TcpConnection& c) { on_accept(c); });
}

void RetryThinner::on_accept(transport::TcpConnection& conn) {
  MessageStream& s = pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  cbs.on_message = [this, &s](const Message& m) { on_message(s, m); };
  cbs.on_reset = [this, &s] { on_reset(s); };
  s.set_callbacks(std::move(cbs));
}

void RetryThinner::on_message(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;
  ++retries_received_;
  auto it = states_.find(m.request_id);
  if (it == states_.end()) {
    ++stats_.requests_received;
    auto st = std::make_unique<RequestState>();
    st->id = m.request_id;
    st->cls = m.cls;
    st->difficulty = m.difficulty;
    st->session = &s;
    by_stream_[&s] = st->id;
    it = states_.emplace(m.request_id, std::move(st)).first;
  }
  RequestState& st = *it->second;
  if (st.serving) return;  // stray retry for an admitted request
  ++st.retries;
  if (!server_.busy()) {
    admit(st);
  } else {
    if (auto* o = host_->loop().observer()) o->on_rejection();
    // The synchronous please-retry signal. Clients do not actually wait
    // for it (they pipeline), but it keeps the window full.
    s.send(Message{.type = MessageType::kRetry, .request_id = st.id});
  }
}

void RetryThinner::admit(RequestState& st) {
  st.serving = true;
  const auto price = static_cast<double>(st.retries);
  if (auto* o = host_->loop().observer()) {
    o->on_admission(obs_cls(st.cls), price, /*direct=*/st.retries <= 1);
  }
  stats_.count_served(st.cls);
  if (st.cls == ClientClass::kGood) {
    stats_.retries_good.add(price);
  } else if (st.cls == ClientClass::kBad) {
    stats_.retries_bad.add(price);
  }
  server_.submit(server::ServiceRequest{st.id, st.cls, st.difficulty});
}

void RetryThinner::on_server_complete(const server::ServiceRequest& done) {
  const auto it = states_.find(done.request_id);
  if (it != states_.end()) {
    RequestState& st = *it->second;
    if (st.session != nullptr) {
      st.session->send(Message{.type = MessageType::kResponse,
                               .request_id = st.id,
                               .body = cfg_.response_body,
                               .cls = st.cls});
      by_stream_.erase(st.session);
    }
    states_.erase(it);
  }
  // No auction: the next retry to arrive at the now-free server is admitted,
  // which realizes the random-drop proportional allocation of §3.2.
}

void RetryThinner::on_reset(MessageStream& s) {
  const auto it = by_stream_.find(&s);
  if (it != by_stream_.end()) {
    const auto sit = states_.find(it->second);
    if (sit != states_.end()) {
      sit->second->session = nullptr;  // stream is going away
      if (!sit->second->serving) states_.erase(sit);
    }
    by_stream_.erase(it);
  }
  pool_.retire(&s);
}

}  // namespace speakup::core
