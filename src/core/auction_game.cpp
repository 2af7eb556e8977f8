#include "core/auction_game.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/json.hpp"

namespace speakup::core {

namespace {

struct NamedAdversary {
  std::string name;
  AdversaryFn fn;
};

/// The strategy set from ablation A5: a saver, a splitter, the proof's
/// reactive worst case, and a burster. Registration order is display order.
const std::vector<NamedAdversary>& registry() {
  static const std::vector<NamedAdversary> all = {
      {"single-saver",
       [](int, AdversaryBids& b, double, double budget) { b[0] += budget; }},
      {"10-way-split",
       [](int, AdversaryBids& b, double, double budget) {
         for (int i = 0; i < 10; ++i) b[i] += budget / 10;
       }},
      {"reactive-outbidder",
       [](int, AdversaryBids& b, double victim, double budget) {
         b[1] += budget;  // bank
         const double need = victim - b[0];
         if (need > 0 && b[1] >= need) {
           b[0] += need;
           b[1] -= need;
         }
       }},
      {"bursty-hoard",
       [](int t, AdversaryBids& b, double, double budget) {
         b[1] += budget;
         if (t % 50 == 0) {  // dump the hoard into the active bid
           b[0] += b[1];
           b[1] = 0;
         }
       }},
  };
  return all;
}

[[noreturn]] void spec_error(const std::string& path, const std::string& what) {
  throw std::invalid_argument(path + ": " + what);
}

double number_field(const std::string& path, const util::json::Value& doc,
                    const char* key) {
  const util::json::Value* v = doc.find(key);
  if (v == nullptr || !v->is_number()) {
    spec_error(path, std::string("auction_game spec needs a numeric \"") + key + "\"");
  }
  return v->as_number();
}

}  // namespace

const std::vector<std::string>& adversary_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const NamedAdversary& a : registry()) out.push_back(a.name);
    return out;
  }();
  return names;
}

const AdversaryFn& adversary_fn(const std::string& name) {
  for (const NamedAdversary& a : registry()) {
    if (a.name == name) return a.fn;
  }
  std::string known;
  for (const std::string& n : adversary_names()) {
    known += known.empty() ? n : ", " + n;
  }
  throw std::invalid_argument("unknown auction-game adversary '" + name +
                              "' (known: " + known + ")");
}

AuctionGameSpec load_auction_game_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) spec_error(path, "cannot open file");
  std::ostringstream buf;
  buf << in.rdbuf();
  util::json::Value doc;
  try {
    doc = util::json::parse(buf.str());
  } catch (const std::exception& e) {
    spec_error(path, e.what());
  }
  if (!doc.is_object()) spec_error(path, "top level must be a JSON object");
  const util::json::Value* kind = doc.find("kind");
  if (kind == nullptr || !kind->is_string() || kind->as_string() != "auction_game") {
    spec_error(path, "auction_game spec needs \"kind\": \"auction_game\"");
  }

  AuctionGameSpec spec;
  if (const util::json::Value* d = doc.find("description")) {
    spec.description = d->as_string();
  }
  spec.seed = static_cast<std::uint64_t>(number_field(path, doc, "seed"));
  const util::json::Value* stream = doc.find("stream");
  if (stream == nullptr || !stream->is_string()) {
    spec_error(path, "auction_game spec needs a string \"stream\" (RNG label)");
  }
  spec.stream = stream->as_string();
  spec.ticks = static_cast<int>(number_field(path, doc, "ticks"));
  if (spec.ticks <= 0) spec_error(path, "\"ticks\" must be positive");

  const util::json::Value* grid = doc.find("grid");
  if (grid == nullptr || !grid->is_object()) {
    spec_error(path, "auction_game spec needs a \"grid\" object");
  }
  const auto number_axis = [&](const char* key, std::vector<double>& out) {
    const util::json::Value* axis = grid->find(key);
    if (axis == nullptr || !axis->is_array() || axis->as_array().empty()) {
      spec_error(path, std::string("grid needs a non-empty \"") + key + "\" array");
    }
    for (const util::json::Value& v : axis->as_array()) out.push_back(v.as_number());
  };
  number_axis("eps", spec.eps);
  number_axis("delta", spec.delta);
  for (const double e : spec.eps) {
    if (e <= 0.0 || e >= 1.0) spec_error(path, "eps values must lie in (0, 1)");
  }

  const util::json::Value* adv = grid->find("adversary");
  if (adv == nullptr || !adv->is_array() || adv->as_array().empty()) {
    spec_error(path, "grid needs a non-empty \"adversary\" array");
  }
  for (const util::json::Value& v : adv->as_array()) {
    static_cast<void>(adversary_fn(v.as_string()));  // throws on unknown names
    spec.adversaries.push_back(v.as_string());
  }
  return spec;
}

double run_auction_game(double eps, double delta, int ticks, util::RngStream& rng,
                        const AdversaryFn& adversary) {
  double victim_bid = 0.0;
  AdversaryBids adversary_bids;
  int victim_wins = 0;
  for (int t = 0; t < ticks; ++t) {
    const double interval = delta > 0 ? rng.uniform(1.0 - delta, 1.0 + delta) : 1.0;
    victim_bid += eps * interval;
    adversary(t, adversary_bids, victim_bid, (1.0 - eps) * interval);
    double best = 0.0;
    int best_id = -1;
    for (const auto& [id, bid] : adversary_bids) {
      if (bid > best) {
        best = bid;
        best_id = id;
      }
    }
    if (victim_bid > best) {
      ++victim_wins;
      victim_bid = 0.0;
    } else if (best_id >= 0) {
      adversary_bids[best_id] = 0.0;
    }
  }
  return static_cast<double>(victim_wins) / ticks;
}

}  // namespace speakup::core
