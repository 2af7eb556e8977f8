// Example: defending a database front-end against deliberately hard queries
// with the §5 quantum auction.
//
// The threat model (§2.2) assumes attackers can send difficult requests on
// purpose — e.g. pathological search queries that take 10x the server time.
// A flat per-request price under-charges them. The §5 thinner auctions
// every quantum of server attention instead, using the server's
// SUSPEND/RESUME/ABORT interface.
#include <cstdio>

#include "exp/runner.hpp"

int main() {
  using namespace speakup;

  std::printf("database front-end: 10 good clients (easy queries) vs 10 attackers\n"
              "sending only 10x-hard queries, all with equal bandwidth.\n\n");

  const std::string kDefenses[] = {"auction", "quantum"};
  exp::Runner runner;
  for (const std::string& defense : kDefenses) {
    exp::ScenarioConfig cfg = exp::lan_scenario(10, 10, 20.0, defense, /*seed=*/6);
    cfg.duration = Duration::seconds(60.0);
    cfg.groups[1].workload.difficulty = 10;  // attackers send hard queries
    cfg.groups[1].workload.window = 1;       // and concentrate their bandwidth
    cfg.groups[1].workload.lambda = 10.0;
    runner.add(cfg, defense);
  }
  runner.run_all();

  for (const std::string& defense : kDefenses) {
    const exp::ExperimentResult& r = runner.result(defense);
    std::printf("%s thinner:\n", defense == "auction" ? "flat-auction (§3.3)"
                                                     : "quantum-auction (§5) ");
    std::printf("  server time to good clients: %4.0f%%   to attackers: %4.0f%%\n",
                r.server_time_good * 100, r.server_time_bad * 100);
    std::printf("  good requests served: %lld   denied: %lld\n",
                static_cast<long long>(r.groups[0].totals.served),
                static_cast<long long>(r.groups[0].totals.denied));
    if (defense == "quantum") {
      std::printf("  quantum mechanics: %lld suspensions, %lld aborts\n",
                  static_cast<long long>(r.thinner.counters.get("suspensions")),
                  static_cast<long long>(r.thinner.counters.get("aborts")));
    }
    std::printf("\n");
  }

  std::printf("with the flat price, one hard request costs the attacker the same\n"
              "as an easy one but consumes 10x the server; the quantum auction\n"
              "makes every quantum cost a fresh bid, so server *time* reverts to\n"
              "bandwidth-proportional.\n");
  return 0;
}
