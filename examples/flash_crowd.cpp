// Example: speak-up during a flash crowd (§9).
//
// Speak-up cannot tell a flash crowd — overload from good clients alone —
// from an attack: either way the thinner makes clients bid. §9 argues this
// is acceptable for sites in speak-up's applicability regime. This example
// quantifies the experience: an all-good overload with and without the
// thinner, showing that under speak-up everyone still gets a fair share and
// what the bidding costs them.
#include <algorithm>
#include <cstdio>

#include "exp/runner.hpp"

int main() {
  using namespace speakup;
  std::printf("flash crowd: 40 good clients (Poisson 2 req/s each) hit a server\n"
              "with capacity 40 req/s — overload with no attacker in sight.\n\n");

  const std::string kDefenses[] = {"none", "auction"};
  exp::Runner runner;
  for (const std::string& defense : kDefenses) {
    exp::ScenarioConfig cfg = exp::lan_scenario(/*good=*/40, /*bad=*/0,
                                                /*capacity=*/40.0, defense, /*seed=*/13);
    cfg.duration = Duration::seconds(60.0);
    runner.add(cfg, defense);
  }
  runner.run_all();

  for (const std::string& defense : kDefenses) {
    const exp::ExperimentResult& r = runner.result(defense);
    std::printf("%s:\n", defense == "none" ? "without speak-up" : "with speak-up");
    std::printf("  fraction of requests served: %.2f\n", r.fraction_good_served);
    std::printf("  mean response time of served requests: %.2f s\n",
                r.groups[0].totals.response_time.mean());
    if (defense == "auction") {
      std::printf("  mean price paid: %.0f KB (bandwidth spent bidding)\n",
                  r.thinner.price_good.mean() / 1000.0);
      std::printf("  mean time spent uploading dummy bytes: %.2f s\n",
                  r.thinner.payment_time_good.mean());
    }
    // Fairness across the crowd: spread of per-client service.
    const auto& per_client = r.groups[0].served_per_client;
    std::int64_t lo = per_client.empty() ? 0 : per_client.front();
    std::int64_t hi = lo;
    for (const auto s : per_client) {
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    std::printf("  per-client served requests: min %lld, max %lld\n\n",
                static_cast<long long>(lo), static_cast<long long>(hi));
  }

  std::printf("speak-up serves the crowd evenly (equal bandwidth -> equal share);\n"
              "the cost is the bidding overhead, which is why §9 recommends it only\n"
              "for sites that meet the applicability conditions of §2.\n");
  return 0;
}
