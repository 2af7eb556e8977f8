// Per-client accounting, aggregated per group by the experiment harness.
// One exists per client (10^5 in the largest runs), so it keeps summaries,
// not samples: the results read only count, sum, min, max and mean.
#pragma once

#include <cstdint>

#include "stats/online_stats.hpp"
#include "util/units.hpp"

namespace speakup::client {

struct ClientStats {
  std::int64_t arrivals = 0;       // Poisson process fires
  std::int64_t started = 0;        // requests actually sent to the thinner
  std::int64_t served = 0;
  std::int64_t denied = 0;         // 10 s timeout, backlog expiry, eviction, abort
  std::int64_t busy_rejected = 0;  // kBusy fast failures (no-defense baseline)
  std::int64_t retries_sent = 0;   // §3.2 mode
  std::int64_t payments_declined = 0;   // strategy refused a kPleasePay
  std::int64_t payments_abandoned = 0;  // strategy defected mid-payment
  Bytes payment_bytes_acked = 0;   // dummy bytes delivered (client view)
  stats::OnlineStats response_time;  // request sent -> response (s), served only

  /// Requests that reached a disposition.
  [[nodiscard]] std::int64_t resolved() const { return served + denied + busy_rejected; }

  /// The paper's "fraction of good requests served" metric (Figure 3).
  [[nodiscard]] double fraction_served() const {
    const std::int64_t r = resolved();
    return r == 0 ? 0.0 : static_cast<double>(served) / static_cast<double>(r);
  }

  void merge(const ClientStats& o) {
    arrivals += o.arrivals;
    started += o.started;
    served += o.served;
    denied += o.denied;
    busy_rejected += o.busy_rejected;
    retries_sent += o.retries_sent;
    payments_declined += o.payments_declined;
    payments_abandoned += o.payments_abandoned;
    payment_bytes_acked += o.payment_bytes_acked;
    response_time.merge(o.response_time);
  }
};

}  // namespace speakup::client
