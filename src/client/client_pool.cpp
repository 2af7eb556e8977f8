#include "client/client_pool.hpp"

#include <algorithm>

#include "obs/observer.hpp"
#include "util/log.hpp"

namespace speakup::client {

using http::Message;
using http::MessageStream;
using http::MessageType;

ClientPool::ClientPool(sim::EventLoop& loop, net::NodeId thinner,
                       const WorkloadParams& params, std::uint32_t base_index)
    : loop_(&loop),
      thinner_(thinner),
      params_(params),
      strategy_params_(strategy_params(params)),
      base_index_(base_index),
      session_pool_(loop) {
  util::require(params.lambda > 0, "client lambda must be positive");
  util::require(params.window >= 1, "client window must be >= 1");
  request_template_ = Message{.type = MessageType::kRequest,
                              .request_id = 0,
                              .cls = params_.cls,
                              .difficulty = params_.difficulty};
}

ClientPool::~ClientPool() {
  if (armed_ev_.pending()) loop_->cancel(armed_ev_);
  for (std::uint32_t slot = 0; slot < slot_live_.size(); ++slot) {
    if (slot_live_[slot]) request_at(slot)->~Request();
  }
}

void ClientPool::reserve(std::size_t n) {
  hosts_.reserve(n);
  rngs_.reserve(n);
  strategies_.reserve(n);
  stats_.reserve(n);
  next_seq_.reserve(n);
  paused_.reserve(n);
  backlogs_.reserve(n);
  outstanding_.reserve(n);
  arr_when_.reserve(n);
  arr_seq_.reserve(n);
  heap_.reserve(n);
  heap_pos_.reserve(n);
}

void ClientPool::add_member(transport::Host& host, util::RngStream rng) {
  hosts_.push_back(&host);
  rngs_.push_back(std::move(rng));
  strategies_.push_back(StrategyFactory::instance().create(params_.strategy, strategy_params_));
  stats_.emplace_back();
  next_seq_.push_back(0);
  paused_.push_back(0);
  // Preallocate the backlog ring (a member's FIRST backlog push can land
  // arbitrarily late in a run, and the steady-state request cycle must
  // never touch the allocator — tests/client_pool_test.cpp pins that with a
  // counted operator new). The outstanding list lives in the request slab.
  backlogs_.emplace_back();
  backlogs_.back().grow();  // ring capacity 8 up front
  outstanding_.emplace_back();
  arr_when_.emplace_back();
  arr_seq_.push_back(0);
  heap_pos_.push_back(kNpos);
}

StrategyView ClientPool::view(std::uint32_t m) const {
  StrategyView v;
  v.now = loop_->now();
  v.stats = &stats_[m];
  v.outstanding = outstanding_[m].count;
  v.backlog = backlogs_[m].count;
  return v;
}

int ClientPool::current_window(std::uint32_t m) {
  return std::max(1, strategies_[m]->window(view(m)));
}

void ClientPool::start_all() {
  for (std::uint32_t m = 0; m < hosts_.size(); ++m) draw_next_arrival(m);
  arm_next();
  SPEAKUP_AUDIT_ONLY(audit();)
}

#if SPEAKUP_AUDIT_ENABLED
void ClientPool::audit() const {
  const std::size_t n = hosts_.size();
  SPEAKUP_AUDIT_CHECK(rngs_.size() == n && strategies_.size() == n && stats_.size() == n &&
                          next_seq_.size() == n && paused_.size() == n &&
                          backlogs_.size() == n && outstanding_.size() == n &&
                          arr_when_.size() == n && arr_seq_.size() == n &&
                          heap_pos_.size() == n,
                      "ClientPool: per-member parallel arrays must stay aligned");
  // Cohort heap: binary min-heap over (arr_when_, arr_seq_), heap_pos_ the
  // exact inverse of heap_, members appearing at most once.
  SPEAKUP_AUDIT_CHECK(heap_.size() <= n, "ClientPool: heap larger than the member count");
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    const std::uint32_t m = heap_[i];
    SPEAKUP_AUDIT_CHECK(m < n, "ClientPool: heap member id out of range");
    SPEAKUP_AUDIT_CHECK(heap_pos_[m] == i, "ClientPool: heap_pos_ must invert heap_");
    if (i > 0) {
      SPEAKUP_AUDIT_CHECK(!heap_less(m, heap_[(i - 1) / 2]),
                          "ClientPool: cohort min-heap property violated");
    }
  }
  std::size_t heaped = 0;
  for (std::uint32_t m = 0; m < n; ++m) {
    if (heap_pos_[m] == kNpos) continue;
    ++heaped;
    SPEAKUP_AUDIT_CHECK(heap_pos_[m] < heap_.size() && heap_[heap_pos_[m]] == m,
                        "ClientPool: member's heap_pos_ must point at its heap entry");
  }
  SPEAKUP_AUDIT_CHECK(heaped == heap_.size(),
                      "ClientPool: every heap entry owned by exactly one member");
  // The armed cohort event exists iff an arrival is pending, and it is
  // filed under the heap minimum's reserved key.
  SPEAKUP_AUDIT_CHECK(armed_ev_.pending() == !heap_.empty(),
                      "ClientPool: armed event must track heap emptiness");
  // Request slab: live flags count live_requests_, free list covers exactly
  // the dead slots, and outstanding lists hold live slots of their member.
  std::size_t live = 0;
  for (const std::uint8_t l : slot_live_) live += l;
  SPEAKUP_AUDIT_CHECK(live == live_requests_,
                      "ClientPool: live_requests_ must count the live slots");
  std::vector<std::uint8_t> freed(slot_live_.size(), 0);
  for (const std::uint32_t slot : free_slots_) {
    SPEAKUP_AUDIT_CHECK(slot < slot_live_.size(), "ClientPool: free slot out of range");
    SPEAKUP_AUDIT_CHECK(!slot_live_[slot], "ClientPool: free-listed slot must be dead");
    SPEAKUP_AUDIT_CHECK(!freed[slot], "ClientPool: slot free-listed more than once");
    freed[slot] = 1;
  }
  SPEAKUP_AUDIT_CHECK(free_slots_.size() + live == slot_live_.size(),
                      "ClientPool: every slot is either live or free-listed");
  std::size_t outstanding_total = 0;
  for (std::uint32_t m = 0; m < n; ++m) {
    std::uint32_t listed = 0;
    std::uint32_t prev = kNpos;
    for (std::uint32_t slot = outstanding_[m].head; slot != kNpos;) {
      ++listed;
      SPEAKUP_AUDIT_CHECK(listed <= live_requests_,
                          "ClientPool: outstanding list must not cycle");
      SPEAKUP_AUDIT_CHECK(slot < slot_live_.size() && slot_live_[slot],
                          "ClientPool: outstanding entry must reference a live slot");
      // request_at is non-const only because of std::launder plumbing; the
      // audit only reads.
      const Request* r = const_cast<ClientPool*>(this)->request_at(slot);
      SPEAKUP_AUDIT_CHECK(r->member == m,
                          "ClientPool: outstanding slot must belong to its member");
      SPEAKUP_AUDIT_CHECK(r->out_prev == prev,
                          "ClientPool: outstanding list back link must mirror the forward link");
      prev = slot;
      slot = r->out_next;
    }
    SPEAKUP_AUDIT_CHECK(listed == outstanding_[m].count,
                        "ClientPool: outstanding count must match the member's list");
    outstanding_total += listed;
  }
  SPEAKUP_AUDIT_CHECK(outstanding_total == live_requests_,
                      "ClientPool: every live request is outstanding for exactly one member");
}

void ClientPool::corrupt_heap_for_test() {
  if (heap_.size() >= 2) std::swap(heap_pos_[heap_[0]], heap_pos_[heap_[1]]);
}
#endif

void ClientPool::draw_next_arrival(std::uint32_t m) {
  const Duration gap = strategies_[m]->next_arrival(rngs_[m], view(m));
  arr_when_[m] = loop_->now() + gap;
  arr_seq_[m] = loop_->reserve_seq();
  heap_insert(m);
}

void ClientPool::arm_next() {
  if (armed_ev_.pending()) loop_->cancel(armed_ev_);
  if (heap_.empty()) return;
  const std::uint32_t m = heap_[0];
  armed_ev_ = loop_->schedule_keyed(arr_when_[m], arr_seq_[m], [this] { fire(); });
}

void ClientPool::fire() {
  const std::uint32_t m = heap_[0];
  heap_pop_min();
  on_arrival(m);
  arm_next();
  SPEAKUP_AUDIT_ONLY(if (--audit_countdown_ == 0) {
    audit_countdown_ = kAuditPeriod;
    audit();
  })
}

void ClientPool::on_arrival(std::uint32_t m) {
  if (paused_[m]) return;  // the member's arrival chain stops here
  ++stats_[m].arrivals;
  purge_backlog(m);
  if (outstanding_[m].count < static_cast<std::uint32_t>(current_window(m))) {
    start_request(m);
  } else {
    backlogs_[m].push_back(loop_->now());
  }
  draw_next_arrival(m);
}

void ClientPool::start_request(std::uint32_t m) {
  const std::uint64_t id = id_base(m) | next_seq_[m]++;
  const std::uint32_t slot = acquire_request();
  Request& r = *request_at(slot);
  r.id = id;
  r.member = m;
  r.sent = loop_->now();
  r.timer.emplace(*loop_, [this, id] { finish(id, Disposition::kDenied); });
  r.timer->restart(params_.request_timeout);

  transport::TcpConnection& conn = hosts_[m]->connect(thinner_, params_.request_port);
  r.stream = &session_pool_.adopt(conn);
  MessageStream::Callbacks cbs;
  // [this, slot] captures stay inside std::function's inline buffer; they
  // are safe because a retired stream never fires callbacks again, so a
  // recycled slot is unreachable from the old stream.
  cbs.on_established = [this, slot] {
    Request& req = *request_at(slot);
    if (req.stream == nullptr) return;
    Message msg = request_template_;
    msg.request_id = req.id;
    req.stream->send(msg);
    ++req.retries_sent;
  };
  cbs.on_message = [this, slot](const Message& msg) { on_message(*request_at(slot), msg); };
  cbs.on_reset = [this, id](/*thinner evicted us or network failure*/) {
    finish(id, Disposition::kDenied);
  };
  cbs.on_acked = [this, slot](Bytes) {
    Request& req = *request_at(slot);
    if (req.retry_pumping) pump_retries(req);
  };
  r.stream->set_callbacks(std::move(cbs));
  link_outstanding(slot);
  ++stats_[m].started;
}

void ClientPool::on_message(Request& r, const Message& m) {
  const std::uint32_t mem = r.member;
  switch (m.type) {
    case MessageType::kPleasePay: {
      if (r.payment.has_value()) break;  // already paying (or defected)
      if (!strategies_[mem]->pay(rngs_[mem], view(mem))) {
        ++stats_[mem].payments_declined;
        if (auto* o = loop_->observer()) o->on_payment_declined(global_index(mem));
        break;  // sit out the auction; the request rides on its timeout
      }
      r.paying = true;
      r.pay_started = loop_->now();
      if (auto* o = loop_->observer()) o->on_payment_started(global_index(mem));
      PaymentChannelClient::Config pc;
      pc.thinner = thinner_;
      pc.payment_port = params_.payment_port;
      pc.post_size = params_.post_size;
      r.payment.emplace(*hosts_[mem], session_pool_, pc, r.id, params_.cls);
      r.payment->start();
      if (const auto patience = strategies_[mem]->payment_patience(rngs_[mem], view(mem))) {
        const std::uint64_t id = r.id;
        r.defect_timer.emplace(*loop_, [this, id] { abandon_payment(id); });
        r.defect_timer->restart(*patience);
      }
      break;
    }
    case MessageType::kRetry:
      // §3.2: stream retries without waiting for individual signals.
      if (!r.retry_pumping) {
        r.retry_pumping = true;
        pump_retries(r);
      }
      break;
    case MessageType::kResponse: {
      ++stats_[mem].served;
      stats_[mem].response_time.add((loop_->now() - r.sent).sec());
      finish(r.id, Disposition::kServed);
      break;
    }
    case MessageType::kBusy:
      finish(r.id, Disposition::kBusyRejected);
      break;
    case MessageType::kAborted:
      finish(r.id, Disposition::kDenied);
      break;
    default:
      break;
  }
}

void ClientPool::abandon_payment(std::uint64_t id) {
  std::uint32_t slot = 0;
  Request* r = find_request(id, &slot);
  if (r == nullptr) return;
  if (!r->payment.has_value() || r->payment->stopped()) return;
  r->payment->stop();  // §7.4 defection: the bid freezes mid-window
  ++stats_[r->member].payments_abandoned;
  if (auto* o = loop_->observer()) o->on_payment_abandoned(global_index(r->member));
}

void ClientPool::pump_retries(Request& r) {
  if (r.stream == nullptr || r.stream->connection() == nullptr) return;
  const transport::TcpConnection& conn = *r.stream->connection();
  const Bytes per_msg = Message{.type = MessageType::kRequest}.wire_bytes();
  const auto acked_msgs = conn.bytes_acked() / per_msg;
  const int pipeline = strategies_[r.member]->retry_pipeline(view(r.member));
  while (r.retries_sent - acked_msgs < pipeline) {
    Message msg = request_template_;
    msg.request_id = r.id;
    r.stream->send(msg);
    ++r.retries_sent;
    ++stats_[r.member].retries_sent;
  }
}

void ClientPool::finish(std::uint64_t id, Disposition d) {
  std::uint32_t slot = 0;
  Request* rp = find_request(id, &slot);
  if (rp == nullptr) return;
  Request& r = *rp;
  const std::uint32_t mem = r.member;
  int disposition = 0;
  switch (d) {
    case Disposition::kServed:
      break;  // counted by the caller
    case Disposition::kDenied:
      ++stats_[mem].denied;
      disposition = 1;
      break;
    case Disposition::kBusyRejected:
      ++stats_[mem].busy_rejected;
      disposition = 2;
      break;
  }
  if (auto* o = loop_->observer()) {
    o->on_request_finish(global_index(mem), r.sent, disposition, r.paying, r.pay_started);
  }
  if (r.payment.has_value()) {
    stats_[mem].payment_bytes_acked += r.payment->bytes_acked();
    r.payment->stop();
  }
  if (r.stream != nullptr) {
    MessageStream* s = r.stream;
    r.stream = nullptr;
    session_pool_.retire(s);
  }
  unlink_outstanding(slot);
  release_request(slot);
  drain_backlog(mem);
}

void ClientPool::purge_backlog(std::uint32_t m) {
  const SimTime now = loop_->now();
  BacklogRing& bl = backlogs_[m];
  while (bl.count > 0 && now - bl.front() > params_.backlog_timeout) {
    bl.pop_front();
    ++stats_[m].denied;  // §7.1: queued longer than 10 s -> service denial
  }
}

void ClientPool::drain_backlog(std::uint32_t m) {
  purge_backlog(m);
  while (backlogs_[m].count > 0 &&
         outstanding_[m].count < static_cast<std::uint32_t>(current_window(m))) {
    backlogs_[m].pop_front();
    start_request(m);
  }
}

std::uint32_t ClientPool::acquire_request() {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_live_.size());
    if (slot % kChunk == 0) chunks_.push_back(std::make_unique<RawSlot[]>(kChunk));
    slot_live_.push_back(0);
    slot_gen_.push_back(0);
  }
  ::new (static_cast<void*>(chunks_[slot / kChunk][slot % kChunk].bytes)) Request();
  slot_live_[slot] = 1;
  ++live_requests_;
  return slot;
}

void ClientPool::release_request(std::uint32_t slot) {
  request_at(slot)->~Request();  // timer dtors cancel; payment dtor is a no-op
  slot_live_[slot] = 0;
  ++slot_gen_[slot];
  free_slots_.push_back(slot);
  --live_requests_;
}

void ClientPool::link_outstanding(std::uint32_t slot) {
  Request& r = *request_at(slot);
  OutstandingList& list = outstanding_[r.member];
  r.out_prev = kNpos;
  r.out_next = list.head;
  if (list.head != kNpos) request_at(list.head)->out_prev = slot;
  list.head = slot;
  ++list.count;
}

void ClientPool::unlink_outstanding(std::uint32_t slot) {
  Request& r = *request_at(slot);
  OutstandingList& list = outstanding_[r.member];
  if (r.out_prev != kNpos) {
    request_at(r.out_prev)->out_next = r.out_next;
  } else {
    list.head = r.out_next;
  }
  if (r.out_next != kNpos) request_at(r.out_next)->out_prev = r.out_prev;
  --list.count;
}

ClientPool::Request* ClientPool::find_request(std::uint64_t id, std::uint32_t* out_slot) {
  const auto global = static_cast<std::uint32_t>((id >> 32) - 1);
  if (global < base_index_ || global - base_index_ >= outstanding_.size()) return nullptr;
  for (std::uint32_t slot = outstanding_[global - base_index_].head; slot != kNpos;) {
    Request* r = request_at(slot);
    if (r->id == id) {
      *out_slot = slot;
      return r;
    }
    slot = r->out_next;
  }
  return nullptr;
}

void ClientPool::heap_insert(std::uint32_t m) {
  heap_pos_[m] = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(m);
  heap_sift_up(heap_.size() - 1);
}

void ClientPool::heap_pop_min() {
  heap_pos_[heap_[0]] = kNpos;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_pos_[heap_[0]] = 0;
    heap_sift_down(0);
  }
}

void ClientPool::heap_sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    heap_pos_[heap_[parent]] = static_cast<std::uint32_t>(parent);
    i = parent;
  }
}

void ClientPool::heap_sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && heap_less(heap_[l], heap_[best])) best = l;
    if (r < n && heap_less(heap_[r], heap_[best])) best = r;
    if (best == i) return;
    std::swap(heap_[i], heap_[best]);
    heap_pos_[heap_[i]] = static_cast<std::uint32_t>(i);
    heap_pos_[heap_[best]] = static_cast<std::uint32_t>(best);
    i = best;
  }
}

}  // namespace speakup::client
