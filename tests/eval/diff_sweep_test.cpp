// Differential-sweep tests: JSON round-trip, drift detection, grid
// fingerprinting, crash-resume through the state file, and its removal
// once the sweep completes.
#include "eval/diff_sweep.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/error.h"

namespace mapit::eval {
namespace {

DiffSweepReport tiny_report() {
  DiffSweepReport report;
  DiffSweepCell a;
  a.rate = 0.0;
  a.seed = 7;
  a.mapit = Metrics{48, 0, 15};
  a.simple = Metrics{45, 69, 18};
  a.convention = Metrics{18, 135, 45};
  a.converged = true;
  a.iterations = 3;
  a.inferences = 601;
  DiffSweepCell b;
  b.rate = 0.5;
  b.seed = 9;
  b.mapit = Metrics{55, 0, 5};
  b.simple = Metrics{43, 76, 17};
  b.convention = Metrics{24, 108, 36};
  b.converged = true;
  b.iterations = 2;
  b.inferences = 598;
  report.cells = {a, b};
  return report;
}

TEST(DiffSweepJson, RoundTripsExactly) {
  const DiffSweepReport report = tiny_report();
  std::istringstream in(format_diff_sweep_json(report));
  const DiffSweepReport parsed = parse_diff_sweep_json(in, "test");
  EXPECT_EQ(parsed.cells, report.cells);
}

TEST(DiffSweepJson, RejectsMalformedCellLines) {
  std::istringstream in(
      "{\n  \"cells\": [\n    {\"rate\": oops}\n  ]\n}\n");
  EXPECT_THROW(
      { (void)parse_diff_sweep_json(in, "bad.json"); }, mapit::Error);
}

TEST(DiffSweepDrift, ExactMatchIsEmpty) {
  const DiffSweepReport report = tiny_report();
  EXPECT_TRUE(diff_sweep_drift(report, report).empty());
}

TEST(DiffSweepDrift, FlagsChangedMissingAndExtraCells) {
  const DiffSweepReport baseline = tiny_report();

  DiffSweepReport changed = baseline;
  changed.cells[0].mapit.tp += 1;
  const auto drift = diff_sweep_drift(baseline, changed);
  ASSERT_EQ(drift.size(), 1u);
  EXPECT_NE(drift[0].find("rate=0"), std::string::npos);

  DiffSweepReport missing = baseline;
  missing.cells.pop_back();
  EXPECT_FALSE(diff_sweep_drift(baseline, missing).empty());
  EXPECT_FALSE(diff_sweep_drift(missing, baseline).empty());
}

TEST(DiffSweepGrid, FingerprintPinsRatesAndSeeds) {
  DiffSweepOptions a;
  a.rates = {0.0, 1.0};
  a.seeds = {7};
  DiffSweepOptions b = a;
  const std::uint64_t fp = grid_fingerprint(a);
  EXPECT_EQ(fp, grid_fingerprint(b));
  b.rates = {0.0, 0.5};
  EXPECT_NE(fp, grid_fingerprint(b));
  b = a;
  b.seeds = {9};
  EXPECT_NE(fp, grid_fingerprint(b));
}

TEST(DiffSweepGrid, RejectsEmptyAndOutOfRangeGrids) {
  DiffSweepOptions empty;
  empty.rates.clear();
  EXPECT_THROW({ (void)run_diff_sweep(empty); }, mapit::Error);
  DiffSweepOptions bad;
  bad.rates = {1.5};
  bad.seeds = {7};
  EXPECT_THROW({ (void)run_diff_sweep(bad); }, mapit::Error);
}

class DiffSweepStateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    state_path_ = (std::filesystem::temp_directory_path() /
                   ("mapit_diff_sweep_state_" +
                    std::to_string(::testing::UnitTest::GetInstance()
                                       ->random_seed()) +
                    "_" + std::to_string(counter_++)))
                      .string();
    std::filesystem::remove(state_path_);
  }
  void TearDown() override { std::filesystem::remove(state_path_); }

  static int counter_;
  std::string state_path_;
};

int DiffSweepStateTest::counter_ = 0;

/// Writes a state file for the grid with `fingerprint` holding `cells`, in
/// the format run_diff_sweep rewrites after every cell.
void write_state(const std::string& path, std::uint64_t fingerprint,
                 const std::vector<DiffSweepCell>& cells) {
  std::ofstream out(path);
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  out << "mapit-diff-sweep-state-v1 " << hex << '\n';
  for (const DiffSweepCell& c : cells) {
    out << c.rate << ' ' << c.seed << ' ' << c.mapit.tp << ' ' << c.mapit.fp
        << ' ' << c.mapit.fn << ' ' << c.simple.tp << ' ' << c.simple.fp
        << ' ' << c.simple.fn << ' ' << c.convention.tp << ' '
        << c.convention.fp << ' ' << c.convention.fn << ' '
        << (c.converged ? 1 : 0) << ' ' << c.iterations << ' '
        << c.inferences << '\n';
  }
}

TEST_F(DiffSweepStateTest, ResumeReproducesFreshRun) {
  DiffSweepOptions options;
  options.rates = {0.0};
  options.seeds = {7, 9};
  const DiffSweepReport fresh = run_diff_sweep(options);
  ASSERT_EQ(fresh.cells.size(), 2u);

  // A sweep killed after its first cell: the state holds that cell only.
  // The resume must take it from the state, compute the other one, and
  // reproduce the fresh run's integers exactly.
  write_state(state_path_, grid_fingerprint(options), {fresh.cells[0]});
  std::ostringstream progress;
  options.progress = &progress;
  options.state_path = state_path_;
  const DiffSweepReport resumed = run_diff_sweep(options);
  EXPECT_EQ(resumed.cells, fresh.cells);
  EXPECT_NE(progress.str().find("cell 1/2 rate=0 seed=7: resumed from state"),
            std::string::npos);
  EXPECT_EQ(progress.str().find("cell 2/2 rate=0 seed=9: resumed from state"),
            std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(state_path_));
}

TEST_F(DiffSweepStateTest, CompletedSweepLeavesNoState) {
  DiffSweepOptions options;
  options.rates = {0.0};
  options.seeds = {7};
  options.state_path = state_path_;
  const DiffSweepReport first = run_diff_sweep(options);
  EXPECT_FALSE(std::filesystem::exists(state_path_));

  // The fingerprint pins the grid, not the code, so a second run must
  // recompute every cell rather than resume a finished sweep.
  std::ostringstream progress;
  options.progress = &progress;
  const DiffSweepReport second = run_diff_sweep(options);
  EXPECT_EQ(second.cells, first.cells);
  EXPECT_EQ(progress.str().find("resumed from state"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(state_path_));
}

TEST_F(DiffSweepStateTest, StateHoldingEveryCellIsNotResumed) {
  DiffSweepOptions options;
  options.rates = {0.0};
  options.seeds = {7};
  options.state_path = state_path_;

  // A complete state for this very grid, as an older build left behind
  // after finishing: resuming it would run no engine at all.
  DiffSweepCell bogus;
  bogus.rate = 0.0;
  bogus.seed = 7;
  bogus.inferences = 1;
  write_state(state_path_, grid_fingerprint(options), {bogus});

  std::ostringstream progress;
  options.progress = &progress;
  const DiffSweepReport report = run_diff_sweep(options);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_NE(report.cells[0], bogus);
  EXPECT_EQ(progress.str().find("resumed from state"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(state_path_));
}

TEST_F(DiffSweepStateTest, StaleGridStateIsDiscarded) {
  DiffSweepOptions options;
  options.rates = {0.0};
  options.seeds = {9};
  options.state_path = state_path_;

  // State from a different grid ({0} x {7}) that even names this grid's
  // cell, with integers no engine run produces: it must not be reused.
  DiffSweepOptions stale = options;
  stale.seeds = {7};
  DiffSweepCell bogus;
  bogus.rate = 0.0;
  bogus.seed = 9;
  bogus.inferences = 1;
  write_state(state_path_, grid_fingerprint(stale), {bogus});

  std::ostringstream progress;
  options.progress = &progress;
  const DiffSweepReport report = run_diff_sweep(options);
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].seed, 9u);
  EXPECT_NE(report.cells[0], bogus);
  EXPECT_EQ(progress.str().find("resumed from state"), std::string::npos);
}

TEST_F(DiffSweepStateTest, DamagedStateFileThrows) {
  {
    std::ofstream out(state_path_);
    out << "not a sweep state file\n";
  }
  DiffSweepOptions options;
  options.rates = {0.0};
  options.seeds = {7};
  options.state_path = state_path_;
  EXPECT_THROW({ (void)run_diff_sweep(options); }, mapit::Error);
}

}  // namespace
}  // namespace mapit::eval
