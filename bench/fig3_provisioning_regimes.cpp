// Figure 3: server allocation to good and bad clients, and the fraction of
// good requests served, without ("OFF") and with ("ON") speak-up, for
// c = 50, 100, 200 requests/s. G = B = 50 Mbit/s (25 good + 25 bad clients,
// 2 Mbit/s each); c_id = 100.
//
// The grid lives in scenarios/fig3.json — the same file `speakup run`
// executes — so the bench and the CLI reproduce identical numbers.
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/theory.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "stats/table.hpp"

int main() {
  using namespace speakup;
  bench::print_banner("Figure 3",
                      "allocation and fraction of good requests served vs capacity");
  bench::print_paper_note(
      "for c = 50 and 100 the ON allocation is roughly proportional to aggregate "
      "bandwidths (~0.5/0.5); for c = 200 all good requests are served");

  const char* kDefenses[] = {"none", "auction"};

  exp::ScenarioFile file = bench::load_scenarios("fig3.json");
  bench::apply_full_duration(file);

  // The capacity axis comes from the file (one value per "none" scenario),
  // so editing the JSON grid never leaves this report stale.
  std::vector<int> capacities;
  for (const exp::LabeledScenario& s : file.scenarios) {
    if (s.config.defense == "none") {
      capacities.push_back(static_cast<int>(s.config.capacity_rps));
    }
  }

  exp::Runner runner;
  file.queue_on(runner);
  bench::run_all(runner);

  stats::Table table({"capacity", "defense", "alloc(good)", "alloc(bad)",
                      "frac-good-served", "ideal-alloc(good)"});
  for (const int c : capacities) {
    for (const char* defense : kDefenses) {
      const exp::ExperimentResult& r =
          runner.result(std::string(defense) + "/c" + std::to_string(c));
      table.row()
          .add(static_cast<std::int64_t>(c))
          .add(std::string(defense) == "none" ? "OFF" : "ON")
          .add(r.allocation_good, 3)
          .add(r.allocation_bad, 3)
          .add(r.fraction_good_served, 3)
          .add(core::theory::ideal_good_allocation(1.0, 1.0), 3);
    }
  }
  table.print(std::cout);
  return 0;
}
