#include "core/front_end_factory.hpp"

#include <algorithm>
#include <sstream>

#include "core/auction_thinner.hpp"
#include "core/no_defense.hpp"
#include "core/puzzle_front_end.hpp"
#include "core/quantum_thinner.hpp"
#include "core/retry_thinner.hpp"
#include "util/assert.hpp"

namespace speakup::core {

FrontEndFactory& FrontEndFactory::instance() {
  static FrontEndFactory factory;
  return factory;
}

namespace {
template <class Defense>
std::unique_ptr<FrontEnd> make(transport::Host& host, const FrontEndConfig& cfg,
                               util::RngStream rng) {
  return std::make_unique<Defense>(host, cfg, std::move(rng));
}
}  // namespace

// The built-ins register here, not via SPEAKUP_REGISTER_FRONT_END: static
// registrars in a library archive are dropped by the linker when nothing
// else references their translation unit, and nothing outside the factory
// names the concrete thinners.
FrontEndFactory::FrontEndFactory() {
  builders_.emplace_back("auction", make<AuctionThinner>);
  builders_.emplace_back("retry", make<RetryThinner>);
  builders_.emplace_back(
      "none", [](transport::Host& host, const FrontEndConfig& cfg,
                 util::RngStream rng) -> std::unique_ptr<FrontEnd> {
        // The undefended baseline is the elastic front end with its monitor
        // off, whatever the scenario's elastic_* knobs say.
        FrontEndConfig baseline = cfg;
        baseline.elastic_max_scale = 1.0;
        return std::make_unique<NoDefenseFrontEnd>(host, baseline, std::move(rng));
      });
  builders_.emplace_back("quantum", make<QuantumAuctionThinner>);
  builders_.emplace_back("elastic", make<NoDefenseFrontEnd>);
  builders_.emplace_back("puzzle", make<PuzzleFrontEnd>);
}

void FrontEndFactory::register_defense(const std::string& name, Builder builder) {
  util::require(!name.empty(), "front-end name must be non-empty");
  util::require(builder != nullptr, "front-end builder must be callable");
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [existing, unused] : builders_) {
    (void)unused;
    util::require(existing != name, "front end '" + name + "' is already registered");
  }
  builders_.emplace_back(name, std::move(builder));
}

void FrontEndFactory::unregister_defense(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(builders_, [&](const auto& entry) { return entry.first == name; });
}

bool FrontEndFactory::contains(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(builders_.begin(), builders_.end(),
                     [&](const auto& entry) { return entry.first == name; });
}

std::vector<std::string> FrontEndFactory::names() const {
  std::vector<std::string> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.reserve(builders_.size());
    for (const auto& [name, unused] : builders_) {
      (void)unused;
      out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::unique_ptr<FrontEnd> FrontEndFactory::create(std::string_view name,
                                                  transport::Host& host,
                                                  const FrontEndConfig& cfg,
                                                  util::RngStream server_rng) const {
  Builder builder;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(builders_.begin(), builders_.end(),
                                 [&](const auto& entry) { return entry.first == name; });
    if (it == builders_.end()) {
      std::ostringstream os;
      os << "unknown front end '" << name << "' (registered:";
      for (const auto& [n, unused] : builders_) {
        (void)unused;
        os << " " << n;
      }
      os << ")";
      throw std::invalid_argument(os.str());
    }
    builder = it->second;
  }
  return builder(host, cfg, std::move(server_rng));
}

}  // namespace speakup::core
