// Example: curing "bandwidth envy" with a payment proxy (§9).
//
// Speak-up divides an attacked server in proportion to bandwidth, so
// customers on thin DSL lines fare worse than cable customers. §9 proposes
// that ISPs run high-bandwidth proxies that pay the thinner on their
// customers' behalf. This example measures a mixed population — 10 DSL
// customers (0.5 Mbit/s) and 10 cable customers (2 Mbit/s) — under attack,
// with and without a 20 Mbit/s ISP proxy fronting the DSL group.
#include <cstdio>

#include "exp/runner.hpp"

namespace {

speakup::exp::ScenarioConfig scenario(bool with_proxy) {
  using namespace speakup;
  exp::ScenarioConfig cfg;
  cfg.defense = "auction";
  cfg.capacity_rps = 40.0;
  cfg.seed = 12;
  cfg.duration = Duration::seconds(60.0);

  exp::ClientGroupSpec dsl;
  dsl.label = "dsl";
  dsl.count = 10;
  dsl.workload = client::good_client_params();
  dsl.access_bw = Bandwidth::mbps(0.5);
  dsl.via_proxy = with_proxy;
  cfg.groups.push_back(dsl);

  exp::ClientGroupSpec cable;
  cable.label = "cable";
  cable.count = 10;
  cable.workload = client::good_client_params();
  cable.access_bw = Bandwidth::mbps(2.0);
  cfg.groups.push_back(cable);

  exp::ClientGroupSpec bots;
  bots.label = "bots";
  bots.count = 10;
  bots.workload = client::bad_client_params();
  cfg.groups.push_back(bots);

  if (with_proxy) cfg.proxy = exp::ProxySpec{Bandwidth::mbps(20.0)};
  return cfg;
}

}  // namespace

int main() {
  using namespace speakup;
  std::printf("bandwidth envy (§9): 10 DSL (0.5 Mbit/s) + 10 cable (2 Mbit/s)\n"
              "customers vs 10 bots (2 Mbit/s), c = 40 req/s\n\n");
  exp::Runner runner;
  runner.add(scenario(false), "no-proxy").add(scenario(true), "proxy");
  runner.run_all();

  for (const bool with_proxy : {false, true}) {
    const exp::ExperimentResult& r = runner.result(with_proxy ? "proxy" : "no-proxy");
    std::printf("%s:\n", with_proxy ? "with a 20 Mbit/s ISP payment proxy for DSL"
                                    : "no proxy (DSL customers pay for themselves)");
    for (const auto& g : r.groups) {
      std::printf("  %-6s allocation=%.2f  fraction-served=%.2f\n", g.label.c_str(),
                  g.allocation, g.totals.fraction_served());
    }
    if (with_proxy) {
      std::printf("  proxy: relayed %lld requests, paid for %lld\n",
                  static_cast<long long>(r.proxy_relayed_requests),
                  static_cast<long long>(r.proxy_payments_started));
    }
    std::printf("\n");
  }
  std::printf("the proxy pays from its fat uplink, so the DSL group's share no\n"
              "longer depends on its own thin access links.\n");
  return 0;
}
