// The adversary library: pluggable client behavior strategies.
//
// A Strategy is to the client (client::ClientPool) what a core::FrontEnd is
// to the thinner host: a polymorphic behavior behind a name-keyed registry,
// so new attacker (or flash-crowd) behaviors plug in without touching the
// harness. The client delegates every behavioral decision to its strategy —
//
//   - next_arrival(): when the next request arrives (the Poisson process,
//     an on-off pulse, a flash-crowd surge, ...);
//   - window(): how many requests may be outstanding right now;
//   - pay(): whether to answer kPleasePay with a payment channel;
//   - payment_patience(): how long to keep paying before defecting;
//   - retry_pipeline(): §3.2 retry aggressiveness.
//
// Strategies are per-client and may keep state, but all randomness MUST
// come from the RngStream passed into each hook (the client's own seeded
// stream): that is what keeps parallel and sharded sweeps bit-identical to
// serial runs. Phase schedules (on-off periods, surge windows) are derived
// from StrategyView::now instead of wall timers for the same reason.
//
// Built-ins (registered in StrategyFactory's constructor, strategy.cpp):
//   "poisson"         §7.1 baseline: Poisson(lambda) arrivals, fixed
//                     window, always pays. The default; byte-identical to
//                     the pre-strategy client.
//   "onoff"           shrew-style pulsing: Poisson arrivals only during the
//                     on-phase of a duty cycle.
//   "defector"        §7.4 gaming: pays until admitted, then stops paying.
//   "adaptive-window" ramps concurrency with the observed denial rate.
//   "flash-crowd"     a correlated surge of legitimate demand (no malice).
//   "recon"           coupon-collector reconnaissance: probes without paying
//                     before committing bandwidth (probes=0 == "poisson").
//   "switcher"        pays until the admission rate signals detection, then
//                     defects to free-riding.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "client/client_stats.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace speakup::client {

/// What a strategy may observe when deciding: the simulation clock, the
/// client's own accounting, and its current load. Everything here is
/// deterministic per (scenario, seed).
struct StrategyView {
  SimTime now;
  const ClientStats* stats = nullptr;
  std::size_t outstanding = 0;
  std::size_t backlog = 0;
};

/// Construction-time parameters: the base workload knobs every strategy
/// shares (from client::WorkloadParams), plus free-form named knobs from
/// the scenario file's `strategy_params` block. Each strategy validates its
/// own knob names at construction (unknown knobs throw, listing the known
/// ones), so a scenario-file typo fails at load, not silently mid-run.
struct StrategyParams {
  double lambda = 2.0;
  int window = 1;
  int retry_pipeline = 64;
  /// Named per-strategy knobs, in file order.
  std::vector<std::pair<std::string, double>> knobs;

  [[nodiscard]] double knob(std::string_view key, double fallback) const;
  /// Throws std::invalid_argument if any knob name is not in `known`,
  /// listing the known names ("strategy 'onoff': unknown parameter ...").
  void require_knobs(std::string_view strategy,
                     std::initializer_list<std::string_view> known) const;
};

class Strategy {
 public:
  /// Keeps only the base knobs. A strategy parses its named knobs into its
  /// own fields in its constructor, so it holds nothing of `params` — one
  /// strategy exists per client, 10^5 of them in the largest runs.
  explicit Strategy(const StrategyParams& params)
      : lambda_(params.lambda), window_(params.window), retry_pipeline_(params.retry_pipeline) {}
  virtual ~Strategy() = default;

  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  /// The registry key this strategy was created under.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Gap until the next request arrival. Called once at start() and again
  /// after every arrival.
  [[nodiscard]] virtual Duration next_arrival(util::RngStream& rng,
                                              const StrategyView& v) = 0;

  /// Maximum outstanding requests at this instant (clamped to >= 1 by the
  /// client). Default: the fixed base window.
  [[nodiscard]] virtual int window(const StrategyView& v) {
    (void)v;
    return window_;
  }

  /// Whether to answer kPleasePay by opening a payment channel. Returning
  /// false leaves the request waiting without a bid (it will be denied
  /// unless the thinner admits it anyway). Default: always pay.
  [[nodiscard]] virtual bool pay(util::RngStream& rng, const StrategyView& v) {
    (void)rng;
    (void)v;
    return true;
  }

  /// Called when a payment channel opens. A value means "abandon the
  /// channel after this long if still unserved" — §7.4-style defection
  /// mid-window. Default: pay until the auction resolves.
  [[nodiscard]] virtual std::optional<Duration> payment_patience(util::RngStream& rng,
                                                                 const StrategyView& v) {
    (void)rng;
    (void)v;
    return std::nullopt;
  }

  /// §3.2 retry mode: target number of unacked retries kept in flight.
  [[nodiscard]] virtual int retry_pipeline(const StrategyView& v) {
    (void)v;
    return retry_pipeline_;
  }

 protected:
  const double lambda_;
  const int window_;
  const int retry_pipeline_;
};

/// Name-keyed registry of client strategies, mirroring core::FrontEndFactory:
/// adding a strategy touches no harness code — register it (statically via
/// SPEAKUP_REGISTER_STRATEGY or imperatively from a test) and every scenario
/// file can name it in a `workload.strategy` key.
class StrategyFactory {
 public:
  using Builder = std::function<std::unique_ptr<Strategy>(const StrategyParams&)>;

  /// The process-wide registry, with the built-in strategies pre-registered.
  static StrategyFactory& instance();

  /// Registers a strategy; throws std::invalid_argument on a duplicate name.
  void register_strategy(const std::string& name, Builder builder);

  /// Removes a registration (used by tests to clean up after themselves).
  void unregister_strategy(const std::string& name);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Constructs the named strategy; throws std::invalid_argument for an
  /// unknown name (listing the registry) or an unknown knob. Thread-safe:
  /// Runner workers build clients concurrently.
  [[nodiscard]] std::unique_ptr<Strategy> create(std::string_view name,
                                                 const StrategyParams& params) const;

 private:
  StrategyFactory();

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Builder>> builders_;
};

/// Static self-registration helper: at namespace scope,
///   SPEAKUP_REGISTER_STRATEGY(my_strategy, "mystrategy",
///       [](const StrategyParams& p) {
///         return std::make_unique<MyStrategy>(p);
///       });
/// Beware the archive-member caveat noted in front_end_factory.hpp: a
/// translation unit nothing references gets dropped by the linker.
struct StrategyRegistrar {
  StrategyRegistrar(const std::string& name, StrategyFactory::Builder builder) {
    StrategyFactory::instance().register_strategy(name, std::move(builder));
  }
};

#define SPEAKUP_REGISTER_STRATEGY(tag, name, ...) \
  static const ::speakup::client::StrategyRegistrar speakup_strategy_registrar_##tag{ \
      name, __VA_ARGS__}

}  // namespace speakup::client
