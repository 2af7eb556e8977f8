#include "core/no_defense.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace speakup::core {

using http::Message;
using http::MessageStream;
using http::MessageType;

NoDefenseFrontEnd::NoDefenseFrontEnd(transport::Host& host, const FrontEndConfig& cfg,
                                     util::RngStream server_rng)
    : host_(&host),
      cfg_(cfg),
      server_(host.loop(), cfg.capacity_rps, std::move(server_rng)),
      pool_(host.loop()) {
  util::require(cfg_.elastic_max_scale >= 1.0, "elastic max_scale must be >= 1");
  util::require(cfg_.elastic_interval > Duration::zero(), "elastic interval must be positive");
  util::require(cfg_.elastic_threshold > 0.0 && cfg_.elastic_threshold <= 1.0,
                "elastic threshold must be in (0, 1]");
  server_.set_on_complete([this](const server::ServiceRequest& r) { on_server_complete(r); });
  host.listen(cfg_.request_port, [this](transport::TcpConnection& c) { on_accept(c); });
}

void NoDefenseFrontEnd::on_run_start() {
  // max_scale 1.0 means the monitor can never act; arming it anyway would
  // add events and break the "none" baseline.
  if (cfg_.elastic_max_scale <= 1.0) return;
  host_->loop().schedule(cfg_.elastic_interval, [this] { on_monitor_tick(); });
}

void NoDefenseFrontEnd::on_monitor_tick() {
  const double busy_fraction =
      (server_.busy_time() - busy_at_tick_).sec() / cfg_.elastic_interval.sec();
  busy_at_tick_ = server_.busy_time();
  if (busy_fraction >= cfg_.elastic_threshold && scale_ < cfg_.elastic_max_scale) {
    scale_ = std::min(scale_ * 2.0, cfg_.elastic_max_scale);
    server_.set_capacity_rps(cfg_.capacity_rps * scale_);
    stats_.counters.inc("elastic_scale_ups");
    if (auto* o = host_->loop().observer()) o->on_elastic_scale(scale_);
  }
  host_->loop().schedule(cfg_.elastic_interval, [this] { on_monitor_tick(); });
}

void NoDefenseFrontEnd::on_accept(transport::TcpConnection& conn) {
  MessageStream& s = pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  cbs.on_message = [this, &s](const Message& m) { on_message(s, m); };
  cbs.on_reset = [this, &s] { on_reset(s); };
  s.set_callbacks(std::move(cbs));
}

void NoDefenseFrontEnd::on_message(MessageStream& s, const Message& m) {
  if (m.type != MessageType::kRequest) return;
  ++stats_.requests_received;
  if (server_.busy()) {
    ++stats_.busy_rejections;
    if (auto* o = host_->loop().observer()) o->on_rejection();
    s.send(Message{.type = MessageType::kBusy, .request_id = m.request_id});
    return;
  }
  if (auto* o = host_->loop().observer()) {
    o->on_admission(obs_cls(m.cls), 0.0, /*direct=*/true);
  }
  stats_.count_served(m.cls);
  serving_[m.request_id] = &s;
  by_stream_[&s] = m.request_id;
  server_.submit(server::ServiceRequest{m.request_id, m.cls, m.difficulty});
}

void NoDefenseFrontEnd::on_server_complete(const server::ServiceRequest& done) {
  const auto it = serving_.find(done.request_id);
  if (it != serving_.end()) {
    if (it->second != nullptr) {
      it->second->send(Message{.type = MessageType::kResponse,
                               .request_id = done.request_id,
                               .body = cfg_.response_body});
      by_stream_.erase(it->second);
    }
    serving_.erase(it);
  }
}

void NoDefenseFrontEnd::on_reset(MessageStream& s) {
  const auto it = by_stream_.find(&s);
  if (it != by_stream_.end()) {
    const auto sit = serving_.find(it->second);
    if (sit != serving_.end()) sit->second = nullptr;
    by_stream_.erase(it);
  }
  pool_.retire(&s);
}

}  // namespace speakup::core
