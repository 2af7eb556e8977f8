// Name-keyed registry of defense front ends.
//
// Every defense registers a builder under its canonical name — the one name
// scenarios, results and the CLI use for it; the experiment harness
// constructs whatever the scenario asks for by name. Adding a new
// defense therefore touches no harness code: register it — statically via
// SPEAKUP_REGISTER_FRONT_END or imperatively from a test — and every
// scenario, bench, and sweep can run it.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/front_end.hpp"
#include "transport/host.hpp"
#include "util/rng.hpp"

namespace speakup::core {

class FrontEndFactory {
 public:
  /// Builds a defense on `host` (the thinner host). `server_rng` seeds the
  /// emulated server's service-time draws.
  using Builder = std::function<std::unique_ptr<FrontEnd>(
      transport::Host& host, const FrontEndConfig& cfg, util::RngStream server_rng)>;

  /// The process-wide registry, with the built-in defenses pre-registered.
  static FrontEndFactory& instance();

  /// Registers a defense; throws std::invalid_argument on a duplicate name.
  void register_defense(const std::string& name, Builder builder);

  /// Removes a registration (used by tests to clean up after themselves).
  void unregister_defense(const std::string& name);

  [[nodiscard]] bool contains(std::string_view name) const;

  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Constructs the named defense; throws std::invalid_argument for an
  /// unknown name. Thread-safe: Runner workers build concurrently.
  [[nodiscard]] std::unique_ptr<FrontEnd> create(std::string_view name,
                                                 transport::Host& host,
                                                 const FrontEndConfig& cfg,
                                                 util::RngStream server_rng) const;

 private:
  FrontEndFactory();

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Builder>> builders_;
};

/// Static self-registration helper: at namespace scope,
///   SPEAKUP_REGISTER_FRONT_END(my_defense, "mydefense",
///       [](transport::Host& h, const FrontEndConfig& c, util::RngStream r) {
///         return std::make_unique<MyDefense>(h, c, std::move(r));
///       });
struct FrontEndRegistrar {
  FrontEndRegistrar(const std::string& name, FrontEndFactory::Builder builder) {
    FrontEndFactory::instance().register_defense(name, std::move(builder));
  }
};

#define SPEAKUP_REGISTER_FRONT_END(tag, name, ...) \
  static const ::speakup::core::FrontEndRegistrar speakup_front_end_registrar_##tag{ \
      name, __VA_ARGS__}

}  // namespace speakup::core
