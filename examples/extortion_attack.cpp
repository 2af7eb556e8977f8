// Example: an extortionist's botnet vs a travel-search site.
//
// The paper's motivating attacks (§1) are extortionist application-level
// floods: bots issue expensive searches that look legitimate. This example
// walks a site operator through the question that matters: "how big a
// botnet can my clientele survive once I deploy speak-up?"
//
// We model a site whose ~40 real customers (Poisson 2 req/s each, 2 Mbit/s
// uplinks) face growing botnets, and report who gets served, with the
// §3.1 capacity planning rule printed alongside. The 3 botnet sizes x 2
// defenses = 6 scenarios run in parallel on the exp::Runner pool.
#include <cstdio>
#include <string>

#include "core/theory.hpp"
#include "exp/runner.hpp"

int main() {
  using namespace speakup;

  const int kCustomers = 40;
  const double kCapacity = 160.0;  // 2x the legitimate demand of 80 req/s
  const int kBotnets[] = {10, 40, 120};
  const std::string kDefenses[] = {"none", "auction"};

  std::printf("travel-search site: %d customers, server capacity %.0f req/s\n",
              kCustomers, kCapacity);
  std::printf("legitimate demand: %.0f req/s -> spare capacity %.0f%%\n\n",
              kCustomers * 2.0, (1 - kCustomers * 2.0 / kCapacity) * 100);

  exp::Runner runner;
  for (const int bots : kBotnets) {
    for (const std::string& defense : kDefenses) {
      exp::ScenarioConfig cfg =
          exp::lan_scenario(kCustomers, bots, kCapacity, defense, /*seed=*/5);
      cfg.duration = Duration::seconds(60.0);
      runner.add(cfg, defense + "/bots" + std::to_string(bots));
    }
  }
  runner.run_all();

  std::printf("%-12s %-10s %-22s %-22s\n", "botnet", "defense", "customers served",
              "customer experience");
  for (const int bots : kBotnets) {
    for (const std::string& defense : kDefenses) {
      const exp::ExperimentResult& r =
          runner.result(defense + "/bots" + std::to_string(bots));
      const double f = r.fraction_good_served;
      std::printf("%-12d %-10s %-22.2f %-22s\n", bots, defense.c_str(), f,
                  f > 0.95   ? "unharmed"
                  : f > 0.5  ? "degraded"
                  : f > 0.1  ? "mostly denied"
                             : "site effectively down");
    }
  }

  // The §3.1 planning rule: to leave customers unharmed, provision
  // c >= g * (1 + B/G).
  std::printf("\ncapacity planning (c_id = g * (1 + B/G), §3.1):\n");
  for (const int bots : {10, 40, 120, 400}) {
    const double cid = core::theory::ideal_provisioning(
        kCustomers * 2.0, kCustomers * 2.0, bots * 2.0);
    std::printf("  %4d bots: need c >= %5.0f req/s%s\n", bots, cid,
                cid <= kCapacity ? "  (current capacity suffices)" : "");
  }
  std::printf("\n(the paper's rule of thumb: equal aggregate bandwidth -> 2x "
              "over-provisioning keeps good clients unharmed)\n");
  return 0;
}
