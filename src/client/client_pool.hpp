// The request-generating client of §7.1 — the one client engine, used for
// every population:
//
//   - requests arrive by the workload strategy's arrival process (the
//     default "poisson" strategy is §7.1's Poisson process of rate lambda);
//   - at most `window` requests are outstanding (the strategy may vary the
//     window over time); excess arrivals wait in a backlog queue and become
//     service denials after 10 s;
//   - an outstanding request that gets no response within request_timeout
//     is a denial.
//
// Good clients run lambda = 2, window = 1; bad clients lambda = 40,
// window = 20 (requests sent concurrently) — §7.1. The client is purely
// reactive to the thinner: kPleasePay consults the strategy and (normally)
// starts a payment channel (§3.3 mode), kRetry starts an aggressive
// congestion-controlled retry stream (§3.2 mode), kBusy is an immediate
// failure (no-defense baseline). Hence the same client code runs under
// every defense mode, like the paper's single custom client — and every
// behavioral decision (arrival timing, window, paying, defecting) is
// delegated to a pluggable client::Strategy from the adversary library
// (strategy.hpp), so new attacker behaviors need no client edits.
//
// One ClientPool runs an entire client group (one WorkloadParams, N
// members); a lone client is a pool of one (client::WorkloadClient). The
// per-member state — stats, strategy, RNG stream, request-id counter,
// backlog ring — lives in dense parallel arrays indexed by member id.
// Outstanding requests live in a pool-wide chunked slab (stable addresses,
// generation-counted slots), each member's threaded through it as an
// intrusive list, and all members share one http::SessionPool.
//
// Arrival batching is the interesting part. One pending event-loop entry
// per member would mean 10^5+ live slab records just for arrival timers at
// 10^5 clients. The pool keeps ONE armed event per cohort and an indexed
// min-heap of per-member (when, seq) keys. The reserve_seq /
// schedule_keyed split in sim::EventLoop makes the batching invisible:
//
//   - wherever a member's next arrival is drawn, the pool calls
//     loop.reserve_seq() — consuming the SAME sequence number a per-member
//     loop.schedule() would have consumed at that point in execution — and
//     parks (when, seq) in the cohort heap;
//   - the cohort's single armed event is filed with schedule_keyed() under
//     the heap minimum's reserved key, so it occupies exactly the slot in
//     the (when, seq) total order that a per-member event would have;
//   - each fire handles exactly one member's arrival (one executed event,
//     as a per-member event would) and re-arms at the new minimum.
//
// So one pool of N replays the identical event sequence of N pools of one
// (tests/client_pool_test.cpp): how many pools a population is split into
// never changes what the simulation does.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "client/client_stats.hpp"
#include "client/payment_channel.hpp"
#include "client/strategy.hpp"
#include "http/message.hpp"
#include "http/message_stream.hpp"
#include "http/session_pool.hpp"
#include "sim/event_loop.hpp"
#include "sim/timer.hpp"
#include "transport/host.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace speakup::client {

struct WorkloadParams {
  double lambda = 2.0;
  int window = 1;
  http::ClientClass cls = http::ClientClass::kGood;
  int difficulty = 1;
  Bytes post_size = megabytes(1);
  /// Outstanding requests wait a long time (like a browser); the paper's
  /// 10 s denial rule (§7.1) applies to the *backlog queue* below.
  Duration request_timeout = Duration::seconds(300);
  Duration backlog_timeout = Duration::seconds(10);
  /// §3.2 mode: target number of unacked retry messages kept in flight.
  int retry_pipeline = 64;
  std::uint32_t request_port = 80;
  std::uint32_t payment_port = 81;
  /// Behavior strategy: a client::StrategyFactory registry key. The default
  /// "poisson" reproduces the pre-strategy client bit for bit.
  std::string strategy = "poisson";
  /// Named per-strategy knobs (scenario files: the `strategy_params` block).
  std::vector<std::pair<std::string, double>> strategy_knobs;
};

/// The strategy-construction view of a WorkloadParams: base knobs every
/// strategy shares, plus the free-form named knobs.
[[nodiscard]] inline StrategyParams strategy_params(const WorkloadParams& p) {
  StrategyParams sp;
  sp.lambda = p.lambda;
  sp.window = p.window;
  sp.retry_pipeline = p.retry_pipeline;
  sp.knobs = p.strategy_knobs;
  return sp;
}

/// Paper defaults (§7.1).
[[nodiscard]] inline WorkloadParams good_client_params() {
  WorkloadParams p;
  p.lambda = 2.0;
  p.window = 1;
  p.cls = http::ClientClass::kGood;
  return p;
}

[[nodiscard]] inline WorkloadParams bad_client_params() {
  WorkloadParams p;
  p.lambda = 40.0;
  p.window = 20;
  p.cls = http::ClientClass::kBad;
  return p;
}

class ClientPool {
 public:
  /// `base_index` is the global client index of member 0; members are
  /// globally indexed base_index, base_index+1, ... (trace track ids and
  /// request-id namespaces).
  ClientPool(sim::EventLoop& loop, net::NodeId thinner, const WorkloadParams& params,
             std::uint32_t base_index);

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;
  ~ClientPool();

  /// Sizes the per-member arrays for `n` members, so the add_member calls
  /// that follow never reallocate (and move every member's state again).
  void reserve(std::size_t n);

  /// Adds one member: callers add hosts in global client order, each with
  /// its own seeded RNG stream.
  void add_member(transport::Host& host, util::RngStream rng);

  /// Starts every member's arrival process, in member order, so the seq
  /// reservations follow global client order.
  void start_all();

  /// Stops issuing new requests for one member (outstanding ones keep
  /// running).
  void pause(std::uint32_t member) { paused_[member] = 1; }

  [[nodiscard]] std::size_t size() const { return hosts_.size(); }
  [[nodiscard]] const ClientStats& stats(std::uint32_t member) const {
    return stats_[member];
  }
  [[nodiscard]] std::size_t outstanding(std::uint32_t member) const {
    return outstanding_[member].count;
  }
  [[nodiscard]] std::size_t backlog(std::uint32_t member) const {
    return backlogs_[member].count;
  }

  // --- request-slab introspection (dense-id reuse / generation tests) ----
  /// Total request slots ever created (high-water mark of concurrency).
  [[nodiscard]] std::uint32_t request_slots() const {
    return static_cast<std::uint32_t>(slot_live_.size());
  }
  /// Times the slot has been recycled.
  [[nodiscard]] std::uint32_t request_generation(std::uint32_t slot) const {
    return slot_gen_[slot];
  }
  [[nodiscard]] std::size_t live_requests() const { return live_requests_; }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only): parallel member arrays
  /// aligned, cohort min-heap property + heap_pos_ inverse mapping, armed
  /// event agreement with the heap minimum, request-slab accounting, and
  /// outstanding lists holding exactly the live slots of their member.
  /// Runs every kAuditPeriod cohort fires (plus at start_all).
  void audit() const;
  /// Deliberate corruption for tests/audit_test.cpp: desyncs the heap_pos_
  /// inverse map — the signature of a missed swap during sift.
  void corrupt_heap_for_test();
#endif

 private:
  static constexpr std::uint32_t kNpos = UINT32_MAX;

  struct Request {
    std::uint64_t id = 0;  // (global_index + 1) << 32 | per-client seq
    std::uint32_t member = 0;
    // Neighbours in the member's outstanding list (slots, or kNpos).
    std::uint32_t out_prev = kNpos;
    std::uint32_t out_next = kNpos;
    SimTime sent;
    http::MessageStream* stream = nullptr;
    std::optional<PaymentChannelClient> payment;
    std::optional<sim::Timer> timer;
    std::optional<sim::Timer> defect_timer;
    bool paying = false;
    SimTime pay_started;
    bool retry_pumping = false;
    std::int64_t retries_sent = 0;
  };

  enum class Disposition { kServed, kDenied, kBusyRejected };

  /// A member's outstanding requests: a doubly-linked list threaded through
  /// the request slab, so a member costs 8 bytes here instead of a vector
  /// header plus a heap buffer.
  struct OutstandingList {
    std::uint32_t head = kNpos;
    std::uint32_t count = 0;
  };

  /// Growable FIFO ring of backlogged arrival timestamps (a
  /// std::deque<SimTime> minus the deque's chunk allocator).
  struct BacklogRing {
    std::vector<SimTime> buf;
    std::size_t head = 0;
    std::size_t count = 0;

    [[nodiscard]] const SimTime& front() const { return buf[head]; }
    void push_back(SimTime t) {
      if (count == buf.size()) grow();
      buf[(head + count) % buf.size()] = t;
      ++count;
    }
    void pop_front() {
      head = (head + 1) % buf.size();
      --count;
    }
    void grow() {
      const std::size_t old_cap = buf.size();
      std::vector<SimTime> bigger(old_cap == 0 ? 8 : old_cap * 2);
      for (std::size_t i = 0; i < count; ++i) bigger[i] = buf[(head + i) % old_cap];
      buf.swap(bigger);
      head = 0;
    }
  };

  static constexpr std::size_t kChunk = 64;

  struct alignas(Request) RawSlot {
    std::byte bytes[sizeof(Request)];
  };

  // --- client state machine (one member at a time) ----------------------
  [[nodiscard]] StrategyView view(std::uint32_t m) const;
  [[nodiscard]] int current_window(std::uint32_t m);
  void on_arrival(std::uint32_t m);
  void start_request(std::uint32_t m);
  void on_message(Request& r, const http::Message& m);
  void abandon_payment(std::uint64_t id);
  void pump_retries(Request& r);
  void finish(std::uint64_t id, Disposition d);
  void purge_backlog(std::uint32_t m);
  void drain_backlog(std::uint32_t m);

  [[nodiscard]] std::uint32_t global_index(std::uint32_t m) const {
    return base_index_ + m;
  }
  [[nodiscard]] std::uint64_t id_base(std::uint32_t m) const {
    return static_cast<std::uint64_t>(global_index(m) + 1) << 32;
  }

  // --- request slab ------------------------------------------------------
  [[nodiscard]] Request* request_at(std::uint32_t slot) {
    return std::launder(
        reinterpret_cast<Request*>(chunks_[slot / kChunk][slot % kChunk].bytes));
  }
  std::uint32_t acquire_request();
  void release_request(std::uint32_t slot);
  /// Pushes the slot onto / removes it from its member's outstanding list.
  void link_outstanding(std::uint32_t slot);
  void unlink_outstanding(std::uint32_t slot);
  /// The live request with this full id, or nullptr (finish() idempotence:
  /// the full 64-bit id doubles as a generation check).
  [[nodiscard]] Request* find_request(std::uint64_t id, std::uint32_t* out_slot);

  // --- cohort arrival heap ------------------------------------------------
  /// Draws the member's next arrival gap, reserves the seq a per-member
  /// schedule() would have consumed, and inserts into the heap.
  void draw_next_arrival(std::uint32_t m);
  void heap_insert(std::uint32_t m);
  void heap_pop_min();
  void heap_sift_up(std::size_t i);
  void heap_sift_down(std::size_t i);
  [[nodiscard]] bool heap_less(std::uint32_t a, std::uint32_t b) const {
    return arr_when_[a] < arr_when_[b] ||
           (arr_when_[a] == arr_when_[b] && arr_seq_[a] < arr_seq_[b]);
  }
  void arm_next();
  void fire();

  sim::EventLoop* loop_;
  net::NodeId thinner_;
  WorkloadParams params_;
  StrategyParams strategy_params_;  // built once; each member's strategy is built from it
  std::uint32_t base_index_;
  http::Message request_template_;  // interned kRequest header; id set per send
  http::SessionPool session_pool_;

  // Per-member parallel arrays (index = member id).
  std::vector<transport::Host*> hosts_;
  std::vector<util::RngStream> rngs_;
  std::vector<std::unique_ptr<Strategy>> strategies_;
  std::vector<ClientStats> stats_;
  std::vector<std::uint32_t> next_seq_;
  std::vector<std::uint8_t> paused_;
  std::vector<BacklogRing> backlogs_;
  std::vector<OutstandingList> outstanding_;

  // Pending-arrival keys + indexed min-heap over members.
  std::vector<SimTime> arr_when_;
  std::vector<std::uint64_t> arr_seq_;
  std::vector<std::uint32_t> heap_;      // member ids, heap-ordered
  std::vector<std::uint32_t> heap_pos_;  // member -> index in heap_, or kNpos
  sim::EventId armed_ev_;

  // Request slab.
  std::vector<std::unique_ptr<RawSlot[]>> chunks_;
  std::vector<std::uint8_t> slot_live_;
  std::vector<std::uint32_t> slot_gen_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_requests_ = 0;

#if SPEAKUP_AUDIT_ENABLED
  static constexpr std::uint64_t kAuditPeriod = 256;
  std::uint64_t audit_countdown_ = kAuditPeriod;
#endif
};

}  // namespace speakup::client
