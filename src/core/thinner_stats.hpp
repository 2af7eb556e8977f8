// Statistics every thinner variant exposes. The experiment harness copies
// these into ExperimentResult at the end of a run.
#pragma once

#include <cstdint>

#include "http/message.hpp"
#include "stats/counter_set.hpp"
#include "stats/sample_set.hpp"
#include "stats/time_series.hpp"
#include "util/units.hpp"

namespace speakup::core {

struct ThinnerStats {
  std::int64_t requests_received = 0;
  std::int64_t served_good = 0;
  std::int64_t served_bad = 0;
  std::int64_t served_other = 0;  // ClientClass::kNeutral (e.g. probes)
  std::int64_t direct_admissions = 0;  // admitted at price 0 while the server was idle
  std::int64_t auctions_held = 0;
  std::int64_t channels_expired = 0;   // evicted after the payment window
  std::int64_t busy_rejections = 0;    // no-defense baseline drops
  Bytes payment_bytes_total = 0;       // all payment bytes sunk
  Bytes payment_bytes_wasted = 0;      // bytes in expired channels
  stats::SampleSet price_good;         // bytes paid per *served* request
  stats::SampleSet price_bad;
  stats::SampleSet payment_time_good;  // seconds from first payment to win
  stats::SampleSet payment_time_bad;
  stats::SampleSet retries_good;       // §3.2 variant: retries per served request
  stats::SampleSet retries_bad;
  /// Payment bytes sunk per 5-second interval (§7.1's reporting unit).
  stats::TimeSeries payment_rate{Duration::seconds(5)};
  stats::CounterSet counters;

  /// Counts one admitted request under its client class.
  void count_served(http::ClientClass cls) {
    if (cls == http::ClientClass::kGood) {
      ++served_good;
    } else if (cls == http::ClientClass::kBad) {
      ++served_bad;
    } else {
      ++served_other;
    }
  }

  [[nodiscard]] std::int64_t served_total() const {
    return served_good + served_bad + served_other;
  }
  [[nodiscard]] double allocation_good() const {
    const auto t = served_total();
    return t == 0 ? 0.0 : static_cast<double>(served_good) / static_cast<double>(t);
  }
  [[nodiscard]] double allocation_bad() const {
    const auto t = served_total();
    return t == 0 ? 0.0 : static_cast<double>(served_bad) / static_cast<double>(t);
  }
};

}  // namespace speakup::core
