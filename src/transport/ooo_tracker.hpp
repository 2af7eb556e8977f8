// Out-of-order interval tracker for the TCP receive path.
//
// Replaces the std::map<int64, int64> that previously tracked out-of-order
// byte ranges: a red-black tree pays a node allocation on every hole a
// dropped segment opens, and loss-heavy scenarios (shared bottlenecks,
// §7.6/§7.7) open holes continuously. This tracker keeps the intervals in
// a small sorted array instead: the first kInline intervals live inline in
// the connection object, and a connection that exceeds them spills into a
// heap buffer once and keeps that buffer for its lifetime, so the steady
// state allocates nothing either way. kInline is 2: every connection pays
// for the inline array (two per client host at 10^5 clients), while even
// the loss-heavy scenario files spill on only a small fraction of their
// connections (docs/performance.md, "Lean per-client records").
//
// Semantics are exactly the map-based merge logic (pinned against a
// reference implementation by randomized_property_test): intervals are
// half-open [begin, end), disjoint, sorted, and *touching intervals merge*
// — inserting [5,10) into {[10,20)} yields {[5,20)}.
//
// speakup-lint: hot-path (allocation-free steady state; growth sites must
// be amortized and allowlisted in tools/lint_allowlist.txt)
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/assert.hpp"
#include "util/audit.hpp"

namespace speakup::transport {

class OooTracker {
 public:
  struct Interval {
    std::int64_t begin;
    std::int64_t end;
  };

  /// Intervals held without a heap buffer.
  static constexpr std::uint32_t kInline = 2;

  OooTracker() = default;
  // The tracker hands out interior pointers (data_), so it pins itself.
  OooTracker(const OooTracker&) = delete;
  OooTracker& operator=(const OooTracker&) = delete;

  /// Records [begin, end), merging with any overlapping or touching
  /// intervals. Precondition: begin < end.
  void insert(std::int64_t begin, std::int64_t end) {
    SPEAKUP_ASSERT(begin < end);
    // Find the first interval that starts after `begin` (upper bound).
    std::uint32_t idx = 0;
    while (idx < size_ && data_[idx].begin <= begin) ++idx;
    // The predecessor absorbs us when it reaches (or touches) our begin.
    std::uint32_t first = idx;
    if (idx > 0 && data_[idx - 1].end >= begin) {
      first = idx - 1;
      begin = data_[first].begin;
    }
    // Swallow every following interval our end reaches (or touches).
    std::int64_t merged_end = end;
    std::uint32_t last = first;  // one past the last swallowed interval
    while (last < size_ && data_[last].begin <= merged_end) {
      if (data_[last].end > merged_end) merged_end = data_[last].end;
      ++last;
    }
    if (first == last) {  // no overlap: make room at `first`
      grow_if_full();
      std::memmove(data_ + first + 1, data_ + first,
                   (size_ - first) * sizeof(Interval));
      ++size_;
    } else if (last > first + 1) {  // swallowed several: close the gap
      std::memmove(data_ + first + 1, data_ + last,
                   (size_ - last) * sizeof(Interval));
      size_ -= last - first - 1;
    }
    data_[first] = Interval{begin, merged_end};
    SPEAKUP_AUDIT_ONLY(audit();)
  }

  /// Advances `floor` over the contiguous prefix: while the lowest interval
  /// begins at or below `floor`, removes it and raises `floor` to at least
  /// its end. Returns the new floor (== the old one when the lowest
  /// interval still leaves a gap).
  [[nodiscard]] std::int64_t pop_prefix(std::int64_t floor) {
    std::uint32_t drop = 0;
    while (drop < size_ && data_[drop].begin <= floor) {
      if (data_[drop].end > floor) floor = data_[drop].end;
      ++drop;
    }
    if (drop > 0) {
      std::memmove(data_, data_ + drop, (size_ - drop) * sizeof(Interval));
      size_ -= drop;
    }
    SPEAKUP_AUDIT_ONLY(audit();)
    return floor;
  }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Sorted, disjoint view (tests / introspection).
  [[nodiscard]] const Interval* data() const { return data_; }
  /// Whether the tracker has ever spilled out of its inline storage.
  [[nodiscard]] bool spilled() const { return data_ != inline_; }

#if SPEAKUP_AUDIT_ENABLED
  /// Structural audit (SPEAKUP_AUDIT builds only; re-run after every insert
  /// and pop_prefix — the arrays are tiny): intervals well-formed, sorted,
  /// strictly disjoint and non-touching (touching intervals must have
  /// merged), and the storage pointer/capacity bookkeeping consistent.
  void audit() const {
    SPEAKUP_AUDIT_CHECK(size_ <= cap_, "OooTracker: size must not exceed capacity");
    SPEAKUP_AUDIT_CHECK(spilled() ? (data_ == spill_.data() && cap_ == spill_.size())
                                  : cap_ == kInline,
                        "OooTracker: storage pointer/capacity bookkeeping broken");
    for (std::uint32_t i = 0; i < size_; ++i) {
      SPEAKUP_AUDIT_CHECK(data_[i].begin < data_[i].end,
                          "OooTracker: interval must be non-empty");
      if (i > 0) {
        SPEAKUP_AUDIT_CHECK(data_[i - 1].end < data_[i].begin,
                            "OooTracker: intervals must be sorted, disjoint, non-touching");
      }
    }
  }
#endif

 private:
  void grow_if_full() {
    if (size_ < cap_) return;
    // First spill moves inline -> heap; later spills double the buffer.
    // The buffer is never given back: a connection that reordered once
    // will likely reorder again, and reuse is what keeps the steady state
    // allocation-free.
    const std::uint32_t new_cap = cap_ * 2;
    std::vector<Interval> bigger(new_cap);
    std::memcpy(bigger.data(), data_, size_ * sizeof(Interval));
    spill_.swap(bigger);
    data_ = spill_.data();
    cap_ = new_cap;
  }

  Interval inline_[kInline];
  std::vector<Interval> spill_;
  Interval* data_ = inline_;
  std::uint32_t size_ = 0;
  std::uint32_t cap_ = kInline;
};

}  // namespace speakup::transport
