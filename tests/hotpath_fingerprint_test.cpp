// Pins the ExperimentResult fingerprint of every row of every run-kind
// scenario file to scenarios/fingerprints.tsv, and checks each file's
// paper claims (exp/claims.hpp) on the same results.
//
// The refactor contract is behavior-invisibility: rewriting the event
// representation, the timer store, the TCP out-of-order tracker, the Link
// packet pipeline, the queue storage or the client engine must not change a
// single simulated outcome. fingerprint() hashes every counter in the
// result INCLUDING events_executed, so even an extra or re-ordered event
// trips this test. The pins were captured from the code *before* the
// refactor they guard; if a future change legitimately alters simulation
// behavior, re-pin them in the same commit that explains why.
//
// Each scenario file is one test (ScenarioFiles/PinnedScenarioFile.Matches/
// <file stem>), so a gtest filter can select a few files; the rows of every
// selected file run together on one exp::Runner, which keeps every core
// busy even for files with a single row.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/claims.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "exp/scenario_io.hpp"
#include "util/json.hpp"

namespace speakup::exp {
namespace {

const std::string kScenarioDir = SPEAKUP_SCENARIO_DIR;

std::string hex(std::uint64_t fp) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(fp));
  return buf;
}

struct Pin {
  std::string file;
  std::string label;
  std::string fingerprint;
};

/// scenarios/fingerprints.tsv: "file<TAB>label<TAB>fingerprint" lines,
/// '#' comments. Empty if the file is missing (the coverage test fails).
std::vector<Pin> load_pins() {
  std::vector<Pin> pins;
  std::ifstream in(kScenarioDir + "/fingerprints.tsv");
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    Pin p;
    std::getline(fields, p.file, '\t');
    std::getline(fields, p.label, '\t');
    std::getline(fields, p.fingerprint, '\t');
    pins.push_back(std::move(p));
  }
  return pins;
}

/// The pinned files, in pins-file order.
std::vector<std::string> pinned_files() {
  std::vector<std::string> files;
  for (const Pin& p : load_pins()) {
    if (files.empty() || files.back() != p.file) files.push_back(p.file);
  }
  return files;
}

std::string stem(const std::string& file) { return file.substr(0, file.rfind('.')); }

class PinnedScenarioFile : public ::testing::TestWithParam<std::string> {
 protected:
  /// Runs the rows of every file this process will test, all on one Runner.
  static void SetUpTestSuite() {
    std::set<std::string> selected;  // file stems, from the test names
    const ::testing::TestSuite* suite =
        ::testing::UnitTest::GetInstance()->current_test_suite();
    for (int i = 0; i < suite->total_test_count(); ++i) {
      const ::testing::TestInfo* t = suite->GetTestInfo(i);
      const std::string name = t->name();
      if (t->should_run()) selected.insert(name.substr(name.rfind('/') + 1));
    }
    Runner runner;
    std::vector<std::string> files;  // the file of each job
    for (const std::string& file : pinned_files()) {
      if (selected.count(stem(file)) == 0) continue;
      for (const LabeledScenario& s : load_scenario_file(kScenarioDir + "/" + file).scenarios) {
        runner.add(s.config, file + ":" + s.label);  // Runner labels are unique
        files.push_back(file);
      }
    }
    const std::vector<RunOutcome>& outcomes = runner.run_all();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      outcomes_[files[i]].push_back(outcomes[i]);
    }
  }

  static inline std::map<std::string, std::vector<RunOutcome>> outcomes_;  // file -> rows
};

// Each file's rows must match their pins, and then the paper claims the
// file states (its "claims" array) must hold on those same results.
TEST_P(PinnedScenarioFile, Matches) {
  const std::string& file = GetParam();
  std::vector<Pin> pins;
  for (Pin& p : load_pins()) {
    if (p.file == file) pins.push_back(std::move(p));
  }
  const std::vector<RunOutcome>& rows = outcomes_[file];
  ASSERT_EQ(rows.size(), pins.size()) << file << ": row count changed; re-check pins";
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const RunOutcome& o = rows[i];
    ASSERT_EQ(o.label, file + ":" + pins[i].label)
        << file << ": scenario order changed; re-check pins";
    EXPECT_EQ(o.ok() ? hex(o.result.fingerprint()) : "error: " + o.error, pins[i].fingerprint)
        << "behavior drift in " << file << " '" << pins[i].label
        << "' (events_executed=" << o.result.events_executed << ")";
  }
  const ScenarioFile parsed = load_scenario_file(kScenarioDir + "/" + file);
  for (const std::string& failure : check_claims(file, parsed, rows).failures) {
    ADD_FAILURE() << failure;
  }
}

INSTANTIATE_TEST_SUITE_P(ScenarioFiles, PinnedScenarioFile, ::testing::ValuesIn(pinned_files()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return stem(info.param);
                         });

// Every run-kind scenario file is pinned, so a new one cannot skip the
// check. Grid-spec files ("kind") and tournament specs ("base") are not
// `speakup run` input.
TEST(HotPathFingerprint, EveryRunKindScenarioFileIsPinned) {
  std::vector<std::string> run_kind;
  for (const auto& entry : std::filesystem::directory_iterator(kScenarioDir)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    const util::json::Value doc = util::json::parse(text.str());
    if (doc.find("kind") != nullptr || doc.find("base") != nullptr) continue;
    run_kind.push_back(entry.path().filename().string());
  }
  std::sort(run_kind.begin(), run_kind.end());
  std::vector<std::string> pinned = pinned_files();
  std::sort(pinned.begin(), pinned.end());
  EXPECT_EQ(run_kind, pinned);
}

// The oldest pins, kept verbatim from the refactors they first guarded:
// the smoke sweep from before the slab event loop, and the loss-heavy
// sweeps (fig8 shared bottleneck, fig9 lossy) from before the timer wheel,
// 4-ary heap and interval-vector round. The pins file must still agree.
TEST(HotPathFingerprint, PinsFileKeepsTheHistoricPins) {
  const std::vector<Pin> historic = {
      {"smoke.json", "smoke/none", "5926ff42af7d304f"},
      {"smoke.json", "smoke/retry", "6f503a28a37defd5"},
      {"smoke.json", "smoke/auction", "058ae2081de114a0"},
      {"smoke.json", "smoke/quantum", "785972ef788a9750"},
      {"smoke.json", "smoke/auction-seeds/seed7", "058ae2081de114a0"},
      {"smoke.json", "smoke/auction-seeds/seed8", "9bf42045de308896"},
      {"shared_bottleneck.json", "25/5", "ec056f4cfaef3dc3"},
      {"shared_bottleneck.json", "15/15", "b8da20a64b334756"},
      {"shared_bottleneck.json", "5/25", "159992d06766ed25"},
      {"lossy.json", "off/1KB", "a1aa978c57d87c4c"},
      {"lossy.json", "on/1KB", "3fa7ce9c1dee200e"},
      {"lossy.json", "off/2KB", "adb477255f4ffb88"},
      {"lossy.json", "on/2KB", "33a431b0afaface3"},
      {"lossy.json", "off/4KB", "7f93c0fd13ebd5a0"},
      {"lossy.json", "on/4KB", "82c44c174f4cb1a3"},
      {"lossy.json", "off/8KB", "5aaaff106ab83ead"},
      {"lossy.json", "on/8KB", "51d944df0f228e04"},
      {"lossy.json", "off/16KB", "864e879c8fed0f43"},
      {"lossy.json", "on/16KB", "8d5589d1d0d275bd"},
      {"lossy.json", "off/32KB", "17063f2284721d39"},
      {"lossy.json", "on/32KB", "072a4170164804a5"},
      {"lossy.json", "off/64KB", "f4b2720bc8af781b"},
      {"lossy.json", "on/64KB", "8d33a45b8935aaa1"},
      {"lossy.json", "off/100KB", "78c4b8f38eaabe4b"},
      {"lossy.json", "on/100KB", "6364491cbbfafbec"},
  };
  const std::vector<Pin> pins = load_pins();
  for (const Pin& h : historic) {
    const auto it = std::find_if(pins.begin(), pins.end(), [&](const Pin& p) {
      return p.file == h.file && p.label == h.label;
    });
    ASSERT_NE(it, pins.end()) << h.file << " '" << h.label << "' is no longer pinned";
    EXPECT_EQ(it->fingerprint, h.fingerprint) << h.file << " '" << h.label << "'";
  }
}

}  // namespace
}  // namespace speakup::exp
