#include "core/puzzle_front_end.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace speakup::core {

using http::ClientClass;
using http::Message;
using http::MessageStream;
using http::MessageType;

PuzzleFrontEnd::PuzzleFrontEnd(transport::Host& host, const FrontEndConfig& cfg,
                               util::RngStream server_rng)
    : host_(&host),
      cfg_(cfg),
      server_(host.loop(), cfg.capacity_rps, std::move(server_rng)),
      pool_(host.loop()) {
  util::require(cfg_.puzzle_cost > Duration::zero(), "puzzle cost must be positive");
  server_.set_on_complete([this](const server::ServiceRequest& r) { on_server_complete(r); });
  host.listen(cfg_.request_port, [this](transport::TcpConnection& c) { on_accept(c); });
}

void PuzzleFrontEnd::on_accept(transport::TcpConnection& conn) {
  MessageStream& s = pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  cbs.on_message = [this, &s](const Message& m) { on_message(s, m); };
  cbs.on_reset = [this, &s] { on_reset(s); };
  s.set_callbacks(std::move(cbs));
}

void PuzzleFrontEnd::on_message(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;
  ++stats_.requests_received;
  const SimTime now = host_->loop().now();
  if (!server_.busy() && ready_.empty()) {
    // Idle server, no solved work queued: admit at price 0, like the
    // auction's direct admissions.
    ++stats_.direct_admissions;
    if (auto* o = host_->loop().observer()) {
      o->on_admission(obs_cls(m.cls), 0.0, /*direct=*/true);
    }
    stats_.count_served(m.cls);
    requests_[m.request_id] =
        Tracked{m.request_id, m.cls, m.difficulty, &s, State::kServing, now, now};
    by_stream_[&s] = m.request_id;
    server_.submit(server::ServiceRequest{m.request_id, m.cls, m.difficulty});
    return;
  }
  // Hold the request and charge the client CPU time: puzzles solve one at a
  // time per client, so back-to-back requests queue behind each other.
  const std::uint32_t client = static_cast<std::uint32_t>(m.request_id >> 32);
  SimTime start = now;
  const auto it = client_cpu_free_.find(client);
  if (it != client_cpu_free_.end() && it->second > start) start = it->second;
  const Duration solve = cfg_.puzzle_cost * m.difficulty;
  const SimTime done = start + solve;
  client_cpu_free_[client] = done;
  requests_[m.request_id] =
      Tracked{m.request_id, m.cls, m.difficulty, &s, State::kSolving, now, done};
  by_stream_[&s] = m.request_id;
  const std::uint64_t id = m.request_id;
  host_->loop().schedule(done - now, [this, id] { on_solved(id); });
}

void PuzzleFrontEnd::on_solved(std::uint64_t id) {
  const auto it = requests_.find(id);
  if (it == requests_.end()) return;  // client reset and was dropped
  it->second.state = State::kReady;
  ready_.insert({it->second.solve_done.ns(), id});
  stats_.counters.inc("puzzle_solved");
  if (auto* o = host_->loop().observer()) o->on_puzzle_solved();
  if (!server_.busy()) admit_next();
}

void PuzzleFrontEnd::admit_next() {
  if (ready_.empty() || server_.busy()) return;
  const auto first = ready_.begin();
  const std::uint64_t id = first->second;
  ready_.erase(first);
  Tracked& t = requests_.at(id);
  t.state = State::kServing;
  stats_.counters.inc("puzzle_admitted");
  stats_.count_served(t.cls);
  // The "payment" here is compute: record the request's wait from arrival
  // to admission in the payment-time samples the other currencies use.
  const double waited = (host_->loop().now() - t.arrived).sec();
  if (auto* o = host_->loop().observer()) {
    // The puzzle "price" is compute time; record the wait as the price.
    o->on_admission(obs_cls(t.cls), waited, /*direct=*/false);
    o->on_puzzle_admitted(waited);
  }
  if (t.cls == ClientClass::kGood) {
    stats_.payment_time_good.add(waited);
  } else if (t.cls == ClientClass::kBad) {
    stats_.payment_time_bad.add(waited);
  }
  server_.submit(server::ServiceRequest{t.id, t.cls, t.difficulty});
}

void PuzzleFrontEnd::on_server_complete(const server::ServiceRequest& done) {
  const auto it = requests_.find(done.request_id);
  if (it != requests_.end()) {
    if (it->second.session != nullptr) {
      it->second.session->send(Message{.type = MessageType::kResponse,
                                       .request_id = done.request_id,
                                       .body = cfg_.response_body});
      by_stream_.erase(it->second.session);
    }
    requests_.erase(it);
  }
  admit_next();
}

void PuzzleFrontEnd::on_reset(MessageStream& s) {
  const auto it = by_stream_.find(&s);
  if (it != by_stream_.end()) {
    const auto rit = requests_.find(it->second);
    if (rit != requests_.end()) {
      // Keep solving/ready state (the admission queue stays deterministic);
      // only the response sink goes away.
      rit->second.session = nullptr;
    }
    by_stream_.erase(it);
  }
  pool_.retire(&s);
}

}  // namespace speakup::core
