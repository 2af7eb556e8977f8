// Owns MessageStreams and destroys them safely.
//
// A MessageStream must not be torn down while one of its callbacks is on
// the stack: a callback that retires it runs inside the stream's own handler
// call from its TcpConnection. The pool therefore defers retirement to the
// next event-loop tick. Both the thinner and the clients use a pool for
// every stream they create or accept.
//
// Storage is a chunked slab of in-place streams with stable addresses:
// adopt() rebinds a parked stream from the free list (keeping its outbox
// ring capacity) instead of heap-allocating, and retire() parks the slot on
// the deferred tick instead of destroying it. After warm-up, stream churn —
// the dominant per-request cost at 10^5-client scale — touches the
// allocator not at all.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "http/message_stream.hpp"
#include "sim/event_loop.hpp"

namespace speakup::http {

class SessionPool {
 public:
  explicit SessionPool(sim::EventLoop& loop) : loop_(&loop) {}

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  ~SessionPool() {
    for (std::uint32_t id = 0; id < states_.size(); ++id) {
      // A park event left pending would fire into a dead pool.
      if (states_[id] == State::kRetiring) loop_->cancel(park_ev_[id]);
      if (states_[id] != State::kEmpty) stream_at(id)->~MessageStream();
    }
  }

  /// Wraps `conn` in a MessageStream owned by this pool. The reference is
  /// stable until retire().
  MessageStream& adopt(transport::TcpConnection& conn) {
    if (!free_.empty()) {
      const std::uint32_t id = free_.back();
      free_.pop_back();
      states_[id] = State::kLive;
      ++live_;
      MessageStream* s = stream_at(id);
      s->rebind(conn);
      return *s;
    }
    const std::uint32_t id = static_cast<std::uint32_t>(states_.size());
    if (id % kChunk == 0) add_chunk();
    states_.push_back(State::kLive);
    park_ev_.emplace_back();
    ++live_;
    return *::new (static_cast<void*>(stream_at(id))) MessageStream(conn);
  }

  /// Aborts the stream's connection (if alive) and parks the slot for reuse
  /// on the next tick (the caller may be inside one of s's callbacks).
  void retire(MessageStream* s) {
    if (s == nullptr) return;
    const std::uint32_t id = slot_of(s);
    if (id == kNoSlot || states_[id] != State::kLive) return;  // already retired
    s->abort();
    states_[id] = State::kRetiring;
    --live_;
    park_ev_[id] = loop_->schedule(Duration::zero(), [this, id] {
      states_[id] = State::kParked;
      free_.push_back(id);
    });
  }

  [[nodiscard]] std::size_t live() const { return live_; }

 private:
  enum class State : std::uint8_t { kEmpty, kLive, kRetiring, kParked };

  static constexpr std::size_t kChunk = 64;
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  struct alignas(MessageStream) RawSlot {
    std::byte bytes[sizeof(MessageStream)];
  };

  [[nodiscard]] MessageStream* stream_at(std::uint32_t id) {
    return std::launder(reinterpret_cast<MessageStream*>(
        &chunks_[id / kChunk][id % kChunk]));
  }

  void add_chunk() {
    // Raw storage for placement-new: nothing to zero.
    chunks_.push_back(std::make_unique_for_overwrite<RawSlot[]>(kChunk));
    // Reserve the chunk's slot metadata now, so only a chunk boundary
    // touches the allocator — never a mid-chunk rise in the slot
    // high-water mark.
    const std::size_t capacity = chunks_.size() * kChunk;
    states_.reserve(capacity);
    park_ev_.reserve(capacity);
    free_.reserve(capacity);
    const auto idx = static_cast<std::uint32_t>(chunks_.size() - 1);
    const RawSlot* base = chunks_.back().get();
    const auto at = std::upper_bound(
        bases_.begin(), bases_.end(), base,
        [](const RawSlot* b, const auto& e) { return b < e.first; });
    bases_.insert(at, {base, idx});
  }

  /// Maps a stream pointer back to its slot id (kNoSlot for foreign
  /// pointers): binary search over the sorted chunk base addresses.
  [[nodiscard]] std::uint32_t slot_of(const MessageStream* s) const {
    const auto* p = reinterpret_cast<const RawSlot*>(s);
    auto it = std::upper_bound(bases_.begin(), bases_.end(), p,
                               [](const RawSlot* b, const auto& e) { return b < e.first; });
    if (it == bases_.begin()) return kNoSlot;
    --it;
    const std::ptrdiff_t off = p - it->first;
    if (off < 0 || off >= static_cast<std::ptrdiff_t>(kChunk)) return kNoSlot;
    return it->second * static_cast<std::uint32_t>(kChunk) +
           static_cast<std::uint32_t>(off);
  }

  sim::EventLoop* loop_;
  std::vector<std::unique_ptr<RawSlot[]>> chunks_;
  std::vector<std::pair<const RawSlot*, std::uint32_t>> bases_;  // sorted by address
  std::vector<State> states_;       // indexed by slot id
  std::vector<sim::EventId> park_ev_;  // pending park event per retiring slot
  std::vector<std::uint32_t> free_;
  std::size_t live_ = 0;
};

}  // namespace speakup::http
