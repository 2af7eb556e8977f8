// Figure 2: server allocation to good clients as a function of their
// fraction f of the total client bandwidth. 50 clients x 2 Mbit/s on a LAN,
// c = 100 requests/s. Series: with speak-up, without speak-up, ideal (f).
//
// The grid lives in scenarios/fig2.json — the same file `speakup run`
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
  bench::print_banner("Figure 2", "server allocation vs good clients' bandwidth fraction");
  bench::print_paper_note(
      "the speak-up series hugs the ideal line (good clients capture ~f of the "
      "server); without speak-up, bad clients at lambda=40, w=20 capture far more");

  exp::ScenarioFile file = bench::load_scenarios("fig2.json");
  bench::apply_full_duration(file);

  // The x-axis comes from the file itself (one point per "none" scenario),
  // so editing the JSON grid never leaves this report stale.
  std::vector<int> goods;
  int total_clients = 0;
  for (const exp::LabeledScenario& s : file.scenarios) {
    if (s.config.defense != "none") continue;
    total_clients = 0;
    for (const exp::ClientGroupSpec& g : s.config.groups) {
      total_clients += g.count;
      if (g.label == "good") goods.push_back(g.count);
    }
  }

  exp::Runner runner;
  file.queue_on(runner);
  bench::run_all(runner);

  stats::Table table({"f=G/(G+B)", "without-speakup", "with-speakup", "ideal"});
  for (const int good : goods) {
    const double f = static_cast<double>(good) / total_clients;
    const std::string g = "/g" + std::to_string(good);
    table.row()
        .add(f, 2)
        .add(runner.result("none" + g).allocation_good, 3)
        .add(runner.result("auction" + g).allocation_good, 3)
        .add(core::theory::ideal_good_allocation(f, 1.0 - f), 3);
  }
  table.print(std::cout);
  return 0;
}
