// Paper claims as data. A scenario file's top-level "claims" array states
// what the paper says about its rows ("with speak-up, good clients get
// about their bandwidth share"), and check_claims() tests each claim
// against the results of that same file's rows. The schema is in
// docs/scenario_format.md ("Claims"); the measured values and the paper's
// are listed in docs/correctness.md ("Paper claims").
//
// A claim names rows (a label or a '*' glob), a named metric (see
// exp::named_metrics), and a band [lo, hi] that either the metric itself
// or its ratio over a reference must fall in. The reference is one of:
//   - a core::theory function (ideal_good_allocation,
//     ideal_good_service_rate, average_price_bytes,
//     no_defense_good_allocation), its arguments taken from the row's own
//     ScenarioConfig;
//   - "row:<pattern>": the same metric on another row, each '*' bound to
//     the text the same-position '*' of `rows` matched;
//   - "metric:<name>": another metric of the same row.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace speakup::exp {

struct LabeledScenario;
struct RunOutcome;
struct ScenarioFile;

struct Claim {
  std::string paper;   // the sentence of the paper this checks
  std::string rows;    // row label, or a glob where '*' matches any text
  std::string metric;  // a named metric
  /// Empty: [lo, hi] bands the metric itself. Otherwise the reference the
  /// metric is divided by: a theory name, "row:<pattern>" or "metric:<name>".
  std::string over;
  double lo = 0.0;
  double hi = 0.0;
};

/// Glob match where '*' matches any run of characters (including '/').
/// On a match, appends the text each '*' matched, in pattern order, to
/// `captures` when it is non-null. Linear in |pattern| x |text|.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view text,
                              std::vector<std::string>* captures = nullptr);

/// Throws ScenarioError located under `ctx` ("claims[2].over: ...") when
/// `claim` matches no row of `rows` (a file's expansion), or names a
/// metric, reference row, reference metric or theory function that a
/// matched row lacks.
void validate_claim(const Claim& claim, const std::vector<LabeledScenario>& rows,
                    const std::string& ctx);

struct ClaimReport {
  /// One line per claim: verdict, rows checked, the range of the checked
  /// quantity and its band.
  std::vector<std::string> summary;
  /// One line per failing (claim, row): the file, the claim, the row, the
  /// measured value, the reference and the band.
  std::vector<std::string> failures;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Checks every claim of `file` against `outcomes`, the results of all of
/// its rows in expansion order (outcomes[i] is file.scenarios[i]).
/// `file_name` prefixes each failure line.
[[nodiscard]] ClaimReport check_claims(std::string_view file_name, const ScenarioFile& file,
                                       std::span<const RunOutcome> outcomes);

}  // namespace speakup::exp
