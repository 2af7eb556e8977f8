#include "exp/claims.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "core/theory.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "util/assert.hpp"

namespace speakup::exp {

namespace {

/// The arguments of a core::theory function, read off one row's config.
/// G and B are Σ count x access_bw (bytes/s) and g and b are Σ count x
/// lambda (requests/s) over the good-class and bad-class groups; for a
/// group.<label>.* metric the group is "good" and every other group "bad".
struct TheoryArgs {
  double G = 0.0, B = 0.0, g = 0.0, b = 0.0, c = 0.0;
};

TheoryArgs theory_args(const ScenarioConfig& cfg, std::string_view metric) {
  std::string_view group;
  if (metric.starts_with("group.")) group = metric.substr(6, metric.rfind('.') - 6);
  TheoryArgs a;
  a.c = cfg.capacity_rps;
  for (const ClientGroupSpec& s : cfg.groups) {
    const double bw = s.count * s.access_bw.bytes_per_sec();
    const double rate = s.count * s.workload.lambda;
    const bool good = group.empty() ? s.workload.cls == http::ClientClass::kGood
                                    : s.label == group;
    const bool bad = group.empty() ? s.workload.cls == http::ClientClass::kBad : !good;
    if (good) {
      a.G += bw;
      a.g += rate;
    } else if (bad) {
      a.B += bw;
      a.b += rate;
    }
  }
  return a;
}

struct Theory {
  const char* name;
  double (*fn)(const TheoryArgs&);
};

constexpr Theory kTheories[] = {
    {"ideal_good_allocation",
     [](const TheoryArgs& a) { return core::theory::ideal_good_allocation(a.G, a.B); }},
    {"ideal_good_service_rate",
     [](const TheoryArgs& a) {
       return core::theory::ideal_good_service_rate(a.g, a.G, a.B, a.c);
     }},
    {"average_price_bytes",
     [](const TheoryArgs& a) { return core::theory::average_price_bytes(a.G, a.B, a.c); }},
    {"no_defense_good_allocation",
     [](const TheoryArgs& a) { return core::theory::no_defense_good_allocation(a.g, a.b); }},
};

const Theory* find_theory(std::string_view name) {
  for (const Theory& t : kTheories) {
    if (name == t.name) return &t;
  }
  return nullptr;
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) out += (out.empty() ? "" : ", ") + n;
  return out;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

/// The label `pattern`'s '*'s stand for when bound to `captures` in order;
/// empty when the pattern has more '*' than there are captures.
std::string bind_stars(std::string_view pattern, const std::vector<std::string>& captures) {
  std::string out;
  std::size_t k = 0;
  for (const char ch : pattern) {
    if (ch != '*') {
      out += ch;
    } else if (k < captures.size()) {
      out += captures[k++];
    } else {
      return {};
    }
  }
  return out;
}

const LabeledScenario* find_row(const std::vector<LabeledScenario>& rows,
                                std::string_view label) {
  for (const LabeledScenario& r : rows) {
    if (r.label == label) return &r;
  }
  return nullptr;
}

/// The reference row of a "row:" claim for `row`, or nullptr.
const LabeledScenario* reference_row(const Claim& claim, const LabeledScenario& row,
                                     const std::vector<LabeledScenario>& rows,
                                     std::string* looked_for) {
  std::vector<std::string> captures;
  (void)glob_match(claim.rows, row.label, &captures);
  *looked_for = bind_stars(std::string_view(claim.over).substr(4), captures);
  return looked_for->empty() ? nullptr : find_row(rows, *looked_for);
}

}  // namespace

bool glob_match(std::string_view pattern, std::string_view text,
                std::vector<std::string>* captures) {
  // Greedy two-pointer wildcard match: on a mismatch only the latest '*'
  // grows, which is complete for '*'-only globs and keeps each earlier
  // '*' at its shortest match.
  constexpr std::size_t kNone = std::string_view::npos;
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // text [begin, end) per '*'
  std::size_t p = 0, t = 0, star = kNone;
  while (t < text.size()) {
    if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      spans.emplace_back(t, t);
    } else if (p < pattern.size() && pattern[p] == text[t]) {
      ++p;
      ++t;
    } else if (star != kNone) {
      p = star + 1;
      t = ++spans.back().second;
    } else {
      return false;
    }
  }
  for (; p < pattern.size() && pattern[p] == '*'; ++p) spans.emplace_back(t, t);
  if (p != pattern.size()) return false;
  if (captures != nullptr) {
    for (const auto& [begin, end] : spans) captures->emplace_back(text.substr(begin, end - begin));
  }
  return true;
}

void validate_claim(const Claim& claim, const std::vector<LabeledScenario>& rows,
                    const std::string& ctx) {
  const auto fail = [&](const std::string& field, const std::string& what) {
    throw ScenarioError(ctx + "." + field + ": " + what);
  };
  const std::string_view over = claim.over;
  const bool is_theory = !over.empty() && !over.starts_with("row:") && !over.starts_with("metric:");
  if (is_theory && find_theory(over) == nullptr) {
    std::string known;
    for (const Theory& t : kTheories) known += std::string(t.name) + ", ";
    fail("over", "unknown theory function \"" + claim.over + "\"; known: " + known +
                     "or \"row:<pattern>\" / \"metric:<name>\"");
  }
  bool matched = false;
  for (const LabeledScenario& row : rows) {
    if (!glob_match(claim.rows, row.label)) continue;
    matched = true;
    const std::vector<std::string> metrics = metric_names(row.config);
    const auto check_metric = [&](std::string_view m, const char* field) {
      if (std::find(metrics.begin(), metrics.end(), m) != metrics.end()) return;
      fail(field, "unknown metric \"" + std::string(m) + "\" for row '" + row.label +
                      "'; known: " + joined(metrics));
    };
    check_metric(claim.metric, "metric");
    if (over.starts_with("metric:")) check_metric(over.substr(7), "over");
    std::string looked_for;
    if (over.starts_with("row:") && reference_row(claim, row, rows, &looked_for) == nullptr) {
      fail("over", "\"" + claim.over + "\" names no row for '" + row.label + "'" +
                       (looked_for.empty() ? " (more '*' than in \"rows\")"
                                           : " (no row '" + looked_for + "')"));
    }
  }
  if (!matched) fail("rows", "\"" + claim.rows + "\" matches no scenario row");
}

ClaimReport check_claims(std::string_view file_name, const ScenarioFile& file,
                         std::span<const RunOutcome> outcomes) {
  util::require(outcomes.size() == file.scenarios.size(),
                "check_claims needs one outcome per scenario row");
  const auto outcome_of = [&](const LabeledScenario* row) -> const RunOutcome& {
    return outcomes[static_cast<std::size_t>(row - file.scenarios.data())];
  };
  ClaimReport report;
  for (std::size_t ci = 0; ci < file.claims.size(); ++ci) {
    const Claim& claim = file.claims[ci];
    const std::string name = "claims[" + std::to_string(ci) + "]";
    const std::string band = "[" + num(claim.lo) + ", " + num(claim.hi) + "]";
    std::size_t checked = 0, failed = 0;
    double low = std::numeric_limits<double>::infinity(), high = -low;
    for (const LabeledScenario& row : file.scenarios) {
      if (!glob_match(claim.rows, row.label)) continue;
      ++checked;
      const std::string where = std::string(file_name) + " " + name + " \"" + claim.paper +
                                "\": row '" + row.label + "': ";
      const auto fail = [&](const std::string& what) {
        ++failed;
        report.failures.push_back(where + what);
      };
      const RunOutcome& o = outcome_of(&row);
      if (!o.ok()) {
        fail("the row failed to run: " + o.error);
        continue;
      }
      const double value = named_metric(o.result, claim.metric).value_or(NAN);
      std::string measured = claim.metric + " = " + num(value);
      double checked_value = value;
      if (!claim.over.empty()) {
        double reference = NAN;
        const std::string_view over = claim.over;
        if (over.starts_with("row:")) {
          std::string label;
          const LabeledScenario* ref = reference_row(claim, row, file.scenarios, &label);
          if (ref == nullptr || !outcome_of(ref).ok()) {
            fail("reference row '" + label + "' is missing or failed to run");
            continue;
          }
          reference = named_metric(outcome_of(ref).result, claim.metric).value_or(NAN);
          measured += ", reference " + claim.metric + " of '" + label + "' = " + num(reference);
        } else if (over.starts_with("metric:")) {
          reference = named_metric(o.result, over.substr(7)).value_or(NAN);
          measured += ", reference " + std::string(over.substr(7)) + " = " + num(reference);
        } else {
          const Theory* theory = find_theory(over);
          if (theory != nullptr) reference = theory->fn(theory_args(row.config, claim.metric));
          measured += ", reference " + claim.over + " = " + num(reference);
        }
        checked_value = value / reference;
        measured += ", ratio " + num(checked_value);
      }
      // NaN (a 0/0 ratio) fails both comparisons.
      if (!(checked_value >= claim.lo && checked_value <= claim.hi)) {
        fail(measured + " outside " + band);
        continue;
      }
      low = std::min(low, checked_value);
      high = std::max(high, checked_value);
    }
    const std::string quantity =
        claim.over.empty() ? claim.metric : claim.metric + " / " + claim.over;
    std::string line = std::string(failed == 0 ? "PASS " : "FAIL ") + name + " " +
                       claim.paper + " — " + quantity + " on " + std::to_string(checked) +
                       " row(s)";
    if (failed > 0) {
      line += ", " + std::to_string(failed) + " outside " + band;
    } else {
      line += ": " + num(low) + (low == high ? "" : ".." + num(high)) + " in " + band;
    }
    report.summary.push_back(std::move(line));
  }
  return report;
}

}  // namespace speakup::exp
