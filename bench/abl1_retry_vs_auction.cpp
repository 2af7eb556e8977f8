// Ablation A1: the two encouragement mechanisms side by side.
//
// §3.2 (random drops + aggressive retries, payment in-band) and §3.3
// (explicit payment channel + virtual auction) should both meet the §3.1
// design goal: allocation in proportion to bandwidth. The paper implements
// and evaluates only §3.3; this harness checks that §3.2 earns its keep as
// an alternative, and shows the emergent price in each currency unit.
//
// The grid lives in scenarios/abl1.json (defense x capacity, labeled
// "defense/cN"); `speakup run` on that file reproduces these numbers
// exactly.
#include <iostream>
#include <string>

#include "bench/bench_common.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "stats/table.hpp"

int main() {
  using namespace speakup;
  bench::print_banner("Ablation A1", "random-drops/retries (§3.2) vs virtual auction (§3.3)");
  bench::print_paper_note(
      "both mechanisms should allocate the overloaded server roughly in "
      "proportion to bandwidth (ideal 0.5 here); prices emerge in retries "
      "per request (§3.2) and bytes per request (§3.3)");

  const double kCapacities[] = {50.0, 100.0, 200.0};
  const std::string kDefenses[] = {"retry", "auction"};

  exp::ScenarioFile file = bench::load_scenarios("abl1.json");
  bench::apply_full_duration(file);
  exp::Runner runner;
  file.queue_on(runner);
  bench::run_all(runner);

  stats::Table table({"capacity", "mechanism", "alloc(good)", "price-good", "price-bad",
                      "price-unit"});
  for (const double c : kCapacities) {
    for (const std::string& defense : kDefenses) {
      const exp::ExperimentResult& r =
          runner.result(defense + "/c" + std::to_string(int(c)));
      const bool retry = defense == "retry";
      table.row()
          .add(static_cast<std::int64_t>(c))
          .add(retry ? "retries (3.2)" : "auction (3.3)")
          .add(r.allocation_good, 3)
          .add(retry ? r.thinner.retries_good.mean() : r.thinner.price_good.mean() / 1000.0,
               1)
          .add(retry ? r.thinner.retries_bad.mean() : r.thinner.price_bad.mean() / 1000.0,
               1)
          .add(retry ? "retries/req" : "KB/req");
    }
  }
  table.print(std::cout);
  return 0;
}
