// The abstract auction game behind Theorem 3.1, plus its adversary-strategy
// registry and grid-spec loader.
//
// The game: one auction per service interval. A victim client continuously
// delivers an eps fraction of the thinner's inbound bandwidth; an adversary
// spends the remaining (1-eps) fraction across any number of sub-bidders
// with any timing. Theorem 3.1 says the victim still wins at least
// eps/(2-eps) of the auctions. tests/theory_test.cpp plays every cell of
// the grid in scenarios/abl5.json over the registered adversary strategies
// and checks the measured fraction against the §3.4 jitter bound.
//
// Adversary strategies are C++ functions; the JSON grid refers to them BY
// NAME (`speakup validate` rejects names missing from the registry). Keep
// the timing logic here and the swept parameters in the scenario file.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace speakup::core {

/// Adversary bid state: sub-bidder id -> bytes banked toward that bid.
using AdversaryBids = std::map<int, double>;

/// Called once per tick: spend `budget` ((1-eps) x interval) across the
/// bids, optionally reacting to the victim's visible `victim_bid`.
using AdversaryFn =
    std::function<void(int tick, AdversaryBids& bids, double victim_bid, double budget)>;

/// Registered adversary names, in registration (= display) order.
[[nodiscard]] const std::vector<std::string>& adversary_names();

/// Looks up a registered adversary; throws std::invalid_argument with the
/// known names when absent.
[[nodiscard]] const AdversaryFn& adversary_fn(const std::string& name);

/// Parsed scenarios/abl5.json (kind "auction_game").
struct AuctionGameSpec {
  std::string description;
  std::uint64_t seed = 0;
  std::string stream;      // RngStream label
  int ticks = 0;           // auctions played per grid cell
  std::vector<double> eps;
  std::vector<double> delta;            // service-interval jitter half-widths
  std::vector<std::string> adversaries; // registry names, swept in order
};

/// Loads and validates an auction-game grid file: checks `kind`, field
/// types, non-empty grids, and that every adversary name is registered.
[[nodiscard]] AuctionGameSpec load_auction_game_file(const std::string& path);

/// Plays `ticks` auctions and returns the fraction the victim won. `delta`
/// perturbs each interval's budget by U[1-delta, 1+delta] (service-time
/// fluctuation: a longer interval lets everyone pay more before the next
/// auction).
[[nodiscard]] double run_auction_game(double eps, double delta, int ticks,
                                      util::RngStream& rng, const AdversaryFn& adversary);

}  // namespace speakup::core
