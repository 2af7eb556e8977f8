// End-to-end simulator benchmark program (see perfbench/README.md).
//
// Runs one workload — a batch of simulated experiments generated from a
// workload seed — through the public exp API on one thread: expand the
// scenario text (exp::parse_scenario_file), construct each exp::Experiment,
// run it, check its result, and write its CSV row through
// exp::ResultWriter. The batch repeats until the time budget is spent;
// end-to-end times are means over the batches, set-up and per-layer times
// medians.
//
// Untraced (--trace 0) the output is the end-to-end metrics. Traced
// (--trace 1) the run alternates untraced and traced batches: traced
// batches attach an obs::Observer to each row's loop and record spans
// around the benchmark's own calls into each layer; set-up probes rebuild
// the workload's shape layer by layer. The output is the per-layer ledger.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "client/client_pool.hpp"
#include "client/workload_client.hpp"
#include "core/theory.hpp"
#include "exp/experiment.hpp"
#include "exp/result_writer.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "net/network.hpp"
#include "obs/observer.hpp"
#include "sim/event_loop.hpp"
#include "transport/host.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace speakup;
namespace json = util::json;

// ---------------------------------------------------------------------------
// Host-side probes: wall clock, process CPU, heap in use, peak RSS.
// ---------------------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

/// Bytes the allocator has handed out and not taken back (arena + mmap).
double heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

constexpr double kMB = 1024.0 * 1024.0;

/// Returns freed heap to the kernel and restarts the kernel's peak-RSS
/// record, so the next peak_rss_mb() covers only what follows. Without it a
/// batch's peak would include heap an earlier batch left resident.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set since the last reset_peak_rss() (VmHWM), or since
/// process start where /proc does not offer it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  double kib = 0.0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kib) return kib / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads. Each is scenario-file text generated from the workload seed;
// the seed reaches the simulator only through the per-row "seed" keys.
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::string scenario_json;
};

/// The §7.2 LAN (25 good + 25 bad clients at 2 Mbit/s) under `defense`,
/// one row per capacity, each with its own seed drawn from the workload seed.
std::string lan_json(const std::string& name, const std::string& defense, double duration_s,
                     std::uint64_t workload_seed) {
  util::RngStream seeds(workload_seed, "perfbench." + name);
  std::string s = "{\"description\": \"perfbench " + name + "\", \"defaults\": {\"defense\": \"" +
                  defense + "\", \"duration_s\": " + num(duration_s) +
                  ", \"lan\": {\"good\": 25, \"bad\": 25}}, \"scenarios\": [";
  const int capacities[] = {50, 100, 200};
  for (std::size_t i = 0; i < std::size(capacities); ++i) {
    const std::int64_t seed = seeds.uniform_int(1, 2'000'000'000);
    if (i > 0) s += ", ";
    s += "{\"label\": \"" + defense + "/c" + std::to_string(capacities[i]) +
         "\", \"capacity_rps\": " + std::to_string(capacities[i]) +
         ", \"seed\": " + std::to_string(seed) + "}";
  }
  return s + "]}";
}

/// scenarios/million_clients.json's shape: 70k flash-crowd + 30k botnet
/// clients on the pooled engine, no defense.
std::string crowd_json(std::uint64_t workload_seed) {
  util::RngStream seeds(workload_seed, "perfbench.crowd_1e5");
  const std::int64_t seed = seeds.uniform_int(1, 2'000'000'000);
  return R"({"description": "perfbench crowd_1e5", "defaults": {)"
         R"("capacity_rps": 200, "duration_s": 2, "defense": "none", "groups": [)"
         R"({"label": "crowd", "count": 70000, "engine": "pooled", "workload": )"
         R"({"preset": "good", "lambda": 0.2, "strategy": "flash-crowd", "strategy_params": )"
         R"({"surge_start_s": 0.5, "surge_duration_s": 1, "surge_factor": 10}}}, )"
         R"({"label": "botnet", "count": 30000, "engine": "pooled", "workload": )"
         R"({"preset": "bad", "lambda": 0.5, "window": 4}}]}, )"
         R"("scenarios": [{"label": "crowd/none", "seed": )" +
         std::to_string(seed) + "}]}";
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "auction_lan") return {name, lan_json(name, "auction", 60.0, seed)};
  if (name == "retry_lan") return {name, lan_json(name, "retry", 15.0, seed)};
  if (name == "crowd_1e5") return {name, crowd_json(seed)};
  throw std::invalid_argument("unknown workload '" + name +
                              "' (expected auction_lan, retry_lan or crowd_1e5)");
}

// ---------------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------------

/// auction_lan's band, the one tests/integration_test.cpp asserts: at or
/// below the ideal provisioning c_id the good clients' share of the server
/// stays within [0.30, 0.60] around the bandwidth-proportional ideal
/// G/(G+B) = 0.5; above c_id nearly every good request is served.
constexpr double kBandLow = 0.30;
constexpr double kBandHigh = 0.60;
constexpr double kOverprovisionedServed = 0.95;

/// Every identity a row must satisfy, plus its reference fingerprint when
/// one is stored. Returns the first violation, or "" when the row passes.
std::string check_row(const std::string& workload, const exp::ScenarioConfig& cfg,
                      const exp::ExperimentResult& r, const std::string* ref_fp) {
  if (ref_fp != nullptr && *ref_fp != hex64(r.fingerprint())) {
    return "fingerprint " + hex64(r.fingerprint()) + " != reference " + *ref_fp;
  }
  if (r.events_executed == 0 || r.served_total <= 0) return "no events or nothing served";
  if (r.served_good + r.served_bad != r.served_total) {
    return "served_good + served_bad != served_total";
  }
  if (std::abs(r.allocation_good + r.allocation_bad - 1.0) > 1e-9) {
    return "allocation_good + allocation_bad != 1";
  }
  if (workload == "auction_lan") {
    double good_rps = 0.0, good_bw = 0.0, bad_bw = 0.0;
    for (const exp::ClientGroupSpec& g : cfg.groups) {
      const double bw = g.access_bw.bits_per_sec() * g.count;
      if (g.workload.cls == http::ClientClass::kGood) {
        good_rps += g.workload.lambda * g.count;
        good_bw += bw;
      } else {
        bad_bw += bw;
      }
    }
    const double c_id = core::theory::ideal_provisioning(good_rps, good_bw, bad_bw);
    const double ideal = core::theory::ideal_good_allocation(good_bw, bad_bw);
    if (cfg.capacity_rps <= c_id) {
      if (r.allocation_good < kBandLow || r.allocation_good > kBandHigh) {
        return "allocation_good " + num(r.allocation_good) + " outside [" + num(kBandLow) +
               ", " + num(kBandHigh) + "] around ideal " + num(ideal);
      }
    } else if (r.fraction_good_served < kOverprovisionedServed) {
      return "fraction_good_served " + num(r.fraction_good_served) + " < " +
             num(kOverprovisionedServed) + " above c_id";
    }
  }
  return "";
}

/// Reference fingerprints: {"<seed>": {"<workload>": {"<label>": "<hex>"}}}.
class Reference {
 public:
  Reference(const std::string& path, const std::string& workload, std::uint64_t seed,
            bool corrupt) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read reference file " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    const json::Value doc = json::parse(ss.str());
    const json::Value* by_seed = doc.find(std::to_string(seed));
    const json::Value* rows = by_seed != nullptr ? by_seed->find(workload) : nullptr;
    if (rows == nullptr) return;
    for (const auto& [label, fp] : rows->as_object()) {
      std::string hex = fp.as_string();
      if (corrupt) hex.back() = hex.back() == '0' ? '1' : '0';
      fps_[label] = hex;
    }
  }

  [[nodiscard]] const std::string* find(const std::string& label) const {
    const auto it = fps_.find(label);
    return it == fps_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] bool empty() const { return fps_.empty(); }

 private:
  std::map<std::string, std::string> fps_;
};

// ---------------------------------------------------------------------------
// One batch: expand, then construct / run / check / write each row.
// ---------------------------------------------------------------------------

/// Per-layer figures harvested from one traced batch. Counts sum over rows,
/// maxima take the largest row.
struct Ledger {
  std::map<std::string, double> counters;  // obs counter name -> Σ over rows
  double heap_max = 0.0, wheel_max = 0.0, queue_bytes_max = 0.0;
  double price_sum = 0.0, price_count = 0.0;
  double connections = 0.0;
};

struct Batch {
  double wall_s = 0.0, cpu_s = 0.0;
  double expand_s = 0.0, build_s = 0.0, run_s = 0.0, write_s = 0.0;
  double build_heap_mb = 0.0, run_heap_mb = 0.0, peak_rss_mb = 0.0;
  std::uint64_t events = 0;
  int rows = 0, failed = 0;
  std::vector<std::string> csv_rows;      // one per row, in order
  std::vector<std::string> fingerprints;  // hex, "" for a row that threw
  Ledger ledger;

  [[nodiscard]] double setup_s() const { return expand_s + build_s; }
};

constexpr Duration kSampleInterval = Duration::millis(100);

/// Largest sampled value of each gauge in `names`, from the observer's
/// timeseries ("<metric>,<time_s>,<value>" rows).
std::map<std::string, double> gauge_max(const obs::Observer& o,
                                        const std::vector<std::string>& names) {
  std::string csv;
  o.metrics().append_timeseries_csv(csv, "");
  std::map<std::string, double> out;
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t a = line.find(',');
    const std::size_t b = line.rfind(',');
    if (a == std::string::npos || a == b) continue;
    const std::string metric = line.substr(0, a);
    if (std::find(names.begin(), names.end(), metric) == names.end()) continue;
    const double v = std::strtod(line.c_str() + b + 1, nullptr);
    auto [it, fresh] = out.emplace(metric, v);
    if (!fresh) it->second = std::max(it->second, v);
  }
  return out;
}

void harvest(exp::Experiment& e, obs::Observer& o, Ledger& l) {
  const json::Value summary = o.metrics().summary_json();
  for (const auto& [name, m] : summary.as_object()) {
    const json::Value* type = m.find("type");
    if (type != nullptr && type->as_string() == "counter") {
      l.counters[name] += m.find("value")->as_number();
    }
  }
  if (const json::Value* price = summary.find("core.admission_price")) {
    l.price_sum += price->find("sum")->as_number();
    l.price_count += price->find("count")->as_number();
  }
  const auto g = gauge_max(o, {"sim.heap_size", "sim.wheel_size", "net.link_queue_bytes"});
  const auto get = [&g](const char* k) {
    const auto it = g.find(k);
    return it == g.end() ? 0.0 : it->second;
  };
  l.heap_max = std::max(l.heap_max, get("sim.heap_size"));
  l.wheel_max = std::max(l.wheel_max, get("sim.wheel_size"));
  l.queue_bytes_max = std::max(l.queue_bytes_max, get("net.link_queue_bytes"));
  for (std::size_t i = 0; i < e.network().node_count(); ++i) {
    if (auto* h = dynamic_cast<transport::Host*>(&e.network().node(static_cast<net::NodeId>(i)))) {
      l.connections += static_cast<double>(h->connections_created());
    }
  }
}

Batch run_batch(const Workload& w, const Reference& ref, bool traced, const std::string& csv_path,
                std::vector<std::string>& errors) {
  Batch b;
  reset_peak_rss();
  const double t0 = now_s();
  const double c0 = cpu_s();

  double t = now_s();
  const exp::ScenarioFile file = exp::parse_scenario_file(w.scenario_json);
  b.expand_s = now_s() - t;

  std::ofstream csv(csv_path, std::ios::trunc);
  csv << exp::ResultWriter::csv_header() << '\n';
  for (const exp::LabeledScenario& row : file.scenarios) {
    ++b.rows;
    exp::RunOutcome out;
    std::string fp;
    out.label = row.label;
    out.config = row.config;
    try {
      const double h0 = heap_bytes();
      t = now_s();
      exp::Experiment e(row.config);
      b.build_s += now_s() - t;
      b.build_heap_mb = std::max(b.build_heap_mb, (heap_bytes() - h0) / kMB);

      std::unique_ptr<obs::Observer> observer;
      if (traced) {
        obs::Observer::Options opts;
        opts.metrics = true;
        opts.sample_interval = kSampleInterval;
        opts.trace_capacity = 1;  // metrics only; no flight-recorder ring
        observer = std::make_unique<obs::Observer>(e.loop(), opts);
      }
      const double h1 = heap_bytes();
      t = now_s();
      out.result = e.run();
      b.run_s += now_s() - t;
      b.run_heap_mb = std::max(b.run_heap_mb, (heap_bytes() - h1) / kMB);
      b.events += out.result.events_executed;
      fp = hex64(out.result.fingerprint());
      if (observer) {
        observer->finish();
        harvest(e, *observer, b.ledger);
      }
      const std::string why = check_row(w.name, row.config, out.result, ref.find(row.label));
      if (!why.empty()) throw std::runtime_error("output check failed: " + why);
    } catch (const std::exception& ex) {
      out.error = ex.what();
      ++b.failed;
      errors.push_back(row.label + ": " + ex.what());
    }
    t = now_s();
    std::string line = exp::ResultWriter::csv_row(row.index, out);
    csv << line << '\n';
    b.write_s += now_s() - t;
    b.csv_rows.push_back(std::move(line));
    b.fingerprints.push_back(std::move(fp));
  }
  csv.close();
  b.wall_s = now_s() - t0;
  b.cpu_s = cpu_s() - c0;
  b.peak_rss_mb = peak_rss_mb();
  return b;
}

/// Expansion plus every Experiment construction, nothing run: extra set-up
/// samples for workloads whose set-up is too short to time from batches.
double setup_only(const Workload& w) {
  malloc_trim(0);  // start from the same returned heap as a batch does
  const double t0 = now_s();
  const exp::ScenarioFile file = exp::parse_scenario_file(w.scenario_json);
  double s = now_s() - t0;
  for (const exp::LabeledScenario& row : file.scenarios) {
    const double t = now_s();
    auto e = std::make_unique<exp::Experiment>(row.config);
    s += now_s() - t;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Set-up probes: the workload's shape rebuilt one layer at a time through
// each layer's public constructors, in exp::Experiment::build()'s order.
// ---------------------------------------------------------------------------

struct Probe {
  double topology_s = 0, topology_mb = 0, routes_s = 0, rng_s = 0, rng_mb = 0;
  double members_s = 0, members_mb = 0, host_mb = 0;
};

Probe probe_setup(const exp::ScenarioConfig& cfg) {
  Probe p;
  sim::EventLoop loop;
  net::Network net(loop);
  // Declared after the network so they are destroyed first: they hold
  // references to its hosts.
  std::vector<std::unique_ptr<client::WorkloadClient>> clients;
  std::vector<std::unique_ptr<client::ClientPool>> pools;

  // net: hosts and their access links (Host objects included).
  double h = heap_bytes();
  double t = now_s();
  net::Switch& core = net.add_switch("core");
  auto& thinner = net.add_node<transport::Host>("thinner");
  net.connect(thinner, core, net::LinkSpec{cfg.thinner_bw, cfg.thinner_delay, cfg.thinner_queue});
  std::vector<transport::Host*> hosts;
  for (const exp::ClientGroupSpec& g : cfg.groups) {
    for (int i = 0; i < g.count; ++i) {
      auto& host = net.add_node<transport::Host>(g.label + "-" + std::to_string(i));
      net.connect(host, core, net::LinkSpec{g.access_bw, g.access_delay, g.access_queue});
      hosts.push_back(&host);
    }
  }
  p.topology_s = now_s() - t;
  p.topology_mb = (heap_bytes() - h) / kMB;

  t = now_s();
  net.build_routes();
  p.routes_s = now_s() - t;

  // util: one RNG stream per client, seeded as the experiment seeds them.
  h = heap_bytes();
  t = now_s();
  std::vector<util::RngStream> rngs;
  rngs.reserve(hosts.size());
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    rngs.emplace_back(cfg.seed, "client." + std::to_string(i));
  }
  p.rng_s = now_s() - t;
  p.rng_mb = (heap_bytes() - h) / kMB;

  // client: the group's engine takes each host and (a copy of) its stream.
  // The streams' own bytes move to the engine, so members_mb is measured
  // after the staging vector is freed: it is what the engine adds beyond
  // util.rng_mb.
  h = heap_bytes();
  t = now_s();
  std::uint32_t index = 0;
  for (const exp::ClientGroupSpec& g : cfg.groups) {
    client::ClientPool* pool = nullptr;
    if (g.engine == "pooled") {
      pools.push_back(std::make_unique<client::ClientPool>(loop, thinner.id(), g.workload, index));
      pool = pools.back().get();
    }
    for (int i = 0; i < g.count; ++i, ++index) {
      if (pool != nullptr) {
        pool->add_member(*hosts[index], std::move(rngs[index]));
      } else {
        clients.push_back(std::make_unique<client::WorkloadClient>(
            *hosts[index], thinner.id(), g.workload, index, std::move(rngs[index])));
      }
    }
  }
  p.members_s = now_s() - t;
  std::vector<util::RngStream>().swap(rngs);
  p.members_mb = (heap_bytes() - h) / kMB;

  // transport: each client's first connection allocates its slot chunk.
  h = heap_bytes();
  for (transport::Host* host : hosts) host->connect(thinner.id(), 80);
  p.host_mb = (heap_bytes() - h) / kMB;
  return p;
}

// ---------------------------------------------------------------------------
// Command line and the measurement loop.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 55.0;
  bool trace = false;
  std::string reference;
  std::string out_dir = ".";
  bool corrupt_reference = false;
  bool print_fingerprints = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--reference") a.reference = val();
    else if (k == "--out-dir") a.out_dir = val();
    else if (k == "--corrupt-reference") a.corrupt_reference = true;
    else if (k == "--print-fingerprints") a.print_fingerprints = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.reference.empty()) {
    throw std::invalid_argument("--workload and --reference are required");
  }
  return a;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-24s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", s.c_str());
}

/// The checker must reject what it exists to reject: a row whose reference
/// fingerprint differs, and a row whose served counts do not add up.
bool checker_rejects_corruption(const std::string& workload, const exp::ScenarioConfig& cfg) {
  exp::ExperimentResult r;
  r.events_executed = 1;
  r.served_total = r.served_good = 1;
  r.allocation_good = 1.0;
  const std::string wrong = hex64(r.fingerprint() ^ 1);
  exp::ExperimentResult unbalanced = r;
  unbalanced.served_total = 2;
  return !check_row(workload, cfg, r, &wrong).empty() &&
         !check_row(workload, cfg, unbalanced, nullptr).empty();
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  const Reference ref(a.reference, w.name, a.seed, a.corrupt_reference);
  const std::string csv_base = a.out_dir + "/" + w.name + "-seed" + std::to_string(a.seed);
  std::vector<std::string> errors;
  bool correct = true;

  // Every row of a workload has the same shape; the first stands for all.
  const exp::ScenarioFile file = exp::parse_scenario_file(w.scenario_json);
  const exp::ScenarioConfig& shape = file.scenarios.front().config;

  const double start = now_s();
  const auto elapsed = [start] { return now_s() - start; };
  std::vector<Batch> plain, traced;
  Probe probe;
  if (a.trace) probe = probe_setup(shape);

  // Set-up-only passes first, within a tenth of the budget: the LAN
  // workloads set up in under a millisecond, too short to time from batches
  // alone.
  std::vector<double> setups;
  while (!a.trace && setups.size() < 100 && elapsed() < 0.1 * a.seconds) {
    setups.push_back(setup_only(w));
  }

  // Batches until the budget is spent (at least one). Traced runs alternate
  // untraced and traced batches so both sides see the same machine state.
  const auto log_batch = [](const char* kind, std::size_t n, const Batch& b) {
    std::fprintf(stderr,
                 "perfbench: %s batch %zu: wall %.4f s, cpu %.4f s, setup %.4f s, run %.4f s, "
                 "peak rss %.1f MB\n",
                 kind, n, b.wall_s, b.cpu_s, b.setup_s(), b.run_s, b.peak_rss_mb);
  };
  const double batches_start = elapsed();
  double batch_s = 0.0;
  do {
    plain.push_back(run_batch(w, ref, false, csv_base + ".csv", errors));
    log_batch("untraced", plain.size(), plain.back());
    if (a.trace) {
      traced.push_back(run_batch(w, ref, true, csv_base + "-traced.csv", errors));
      log_batch("traced", traced.size(), traced.back());
    }
    batch_s = (elapsed() - batches_start) / static_cast<double>(plain.size());
  } while (elapsed() + batch_s <= a.seconds);

  // Determinism: every batch (traced or not) writes the first batch's rows.
  for (const auto* set : {&plain, &traced}) {
    for (const Batch& b : *set) {
      if (b.csv_rows != plain.front().csv_rows) {
        correct = false;
        errors.push_back(std::string(set == &traced ? "traced" : "untraced") +
                         " batch rows differ from the first untraced batch");
      }
    }
  }
  if (!checker_rejects_corruption(w.name, shape)) {
    correct = false;
    errors.push_back("self-check: the output checker accepted a corrupted row");
  }

  int attempted = 0, failed = 0;
  for (const auto* set : {&plain, &traced}) {
    for (const Batch& b : *set) {
      attempted += b.rows;
      failed += b.failed;
    }
  }
  if (failed > 0) correct = false;
  for (const std::string& e : errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());

  if (a.print_fingerprints) {
    std::printf("fingerprints %s %llu", w.name.c_str(), static_cast<unsigned long long>(a.seed));
    for (std::size_t i = 0; i < file.scenarios.size(); ++i) {
      std::printf(" %s=%s", file.scenarios[i].label.c_str(),
                  plain.front().fingerprints[i].c_str());
    }
    std::printf("\n");
  }

  const auto med = [](const std::vector<Batch>& v, const std::function<double(const Batch&)>& f) {
    std::vector<double> xs;
    for (const Batch& b : v) xs.push_back(f(b));
    return median(xs);
  };
  // End-to-end times are means over the run's batches: the host's speed
  // shifts between a few levels for tens of seconds at a time, and a median
  // jumps between those levels from run to run where a mean moves smoothly.
  const auto sum = [](const std::vector<Batch>& v, const std::function<double(const Batch&)>& f) {
    double total = 0.0;
    for (const Batch& b : v) total += f(b);
    return total;
  };
  const auto n_plain = static_cast<double>(plain.size());
  std::printf("perfbench %s seed=%llu trace=%d batches=%zu rows/batch=%d ref=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(a.seed), a.trace ? 1 : 0,
              plain.size(), plain.front().rows, ref.empty() ? "none" : "checked");

  std::vector<Metric> m;
  if (!a.trace) {
    for (const Batch& b : plain) setups.push_back(b.setup_s());
    std::fprintf(stderr, "perfbench: %zu set-up samples: min %.6f s, median %.6f s, max %.6f s\n",
                 setups.size(), *std::min_element(setups.begin(), setups.end()), median(setups),
                 *std::max_element(setups.begin(), setups.end()));
    m = {
        {"wall_s", sum(plain, [](const Batch& b) { return b.wall_s; }) / n_plain, "s"},
        {"cpu_s", sum(plain, [](const Batch& b) { return b.cpu_s; }) / n_plain, "s"},
        {"setup_s", median(setups), "s"},
        {"events_per_s",
         sum(plain, [](const Batch& b) { return static_cast<double>(b.events); }) /
             sum(plain, [](const Batch& b) { return b.run_s; }),
         "events/s"},
        {"peak_rss_mb", med(plain, [](const Batch& b) { return b.peak_rss_mb; }), "MB"},
    };
    std::printf("  %-24s %16.6g %s\n", "failed_frac",
                static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
  } else {
    const Batch& t0 = traced.front();
    for (const Batch& b : traced) {
      if (b.ledger.counters != t0.ledger.counters) {
        correct = false;
        std::fprintf(stderr, "perfbench: traced counters differ between batches\n");
      }
    }
    const auto c = [&t0](const char* k) {
      const auto it = t0.ledger.counters.find(k);
      return it == t0.ledger.counters.end() ? 0.0 : it->second;
    };
    const auto frac = [](double n, double d) { return d > 0 ? n / d : 0.0; };
    const double admitted = c("core.admitted_good") + c("core.admitted_bad") +
                            c("core.admitted_other");
    const double resolved = c("client.requests_served") + c("client.requests_denied") +
                            c("client.requests_busy_rejected");
    const bool auction = w.name == "auction_lan";
    m = {
        {"exp.expand_s", med(traced, [](const Batch& b) { return b.expand_s; }), "s"},
        {"exp.build_s", med(traced, [](const Batch& b) { return b.build_s; }), "s"},
        {"exp.run_s", med(traced, [](const Batch& b) { return b.run_s; }), "s"},
        {"exp.write_s", med(traced, [](const Batch& b) { return b.write_s; }), "s"},
        {"exp.build_heap_mb", med(traced, [](const Batch& b) { return b.build_heap_mb; }), "MB"},
        {"exp.run_heap_mb", med(traced, [](const Batch& b) { return b.run_heap_mb; }), "MB"},
        {"sim.events", static_cast<double>(t0.events), "count"},
        {"sim.ns_per_event",
         med(traced, [](const Batch& b) { return b.run_s * 1e9 / static_cast<double>(b.events); }),
         "ns"},
        {"sim.heap_size.max", t0.ledger.heap_max, "count"},
        {"sim.wheel_size.max", t0.ledger.wheel_max, "count"},
        {"net.link_enqueues", c("net.link_enqueues"), "count"},
        {"net.link_drops", c("net.link_drops"), "count"},
        {"net.drop_frac", frac(c("net.link_drops"), c("net.link_drops") + c("net.link_enqueues")),
         "ratio"},
        {"net.queue_bytes.max", t0.ledger.queue_bytes_max, "bytes"},
        {"net.topology_s", probe.topology_s, "s"},
        {"net.topology_mb", probe.topology_mb, "MB"},
        {"net.routes_s", probe.routes_s, "s"},
        {"tcp.retransmits", c("tcp.retransmits"), "count"},
        {"tcp.rto_backoffs", c("tcp.rto_backoffs"), "count"},
        {"transport.connections", t0.ledger.connections, "count"},
        {"transport.host_mb", probe.host_mb, "MB"},
        {"core.admitted", admitted, "count"},
        {"core.rejections", c("core.rejections"), "count"},
        {"core.admit_frac",
         frac(admitted, admitted + c("core.rejections") + c("core.channels_expired")), "ratio"},
        {"core.auctions", c("core.auctions"), "count"},
        {"core.price_mean_bytes",
         auction ? frac(t0.ledger.price_sum, t0.ledger.price_count) : 0.0, "bytes"},
        {"core.channels_expired", c("core.channels_expired"), "count"},
        {"client.requests_served", c("client.requests_served"), "count"},
        {"client.requests_denied", c("client.requests_denied"), "count"},
        {"client.busy_rejected", c("client.requests_busy_rejected"), "count"},
        {"client.served_frac", frac(c("client.requests_served"), resolved), "ratio"},
        {"client.payments_started", c("client.payments_started"), "count"},
        {"client.members_s", probe.members_s, "s"},
        {"client.members_mb", probe.members_mb, "MB"},
        {"util.rng_s", probe.rng_s, "s"},
        {"util.rng_mb", probe.rng_mb, "MB"},
        {"obs.overhead_frac",  // traced and untraced batches come in pairs
         sum(traced, [](const Batch& b) { return b.wall_s; }) /
                 sum(plain, [](const Batch& b) { return b.wall_s; }) -
             1.0,
         "ratio"},
    };
  }
  emit(correct, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
