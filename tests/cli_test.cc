#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/cli/commands.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"
#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/la/simd.h"

namespace smfl::cli {
namespace {

using data::Mask;
using la::Index;
using la::Matrix;

Flags MakeFlags(std::vector<std::string> args) {
  std::vector<const char*> argv = {"smfl"};
  for (const auto& a : args) argv.push_back(a.c_str());
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data());
  SMFL_CHECK(flags.ok());
  return std::move(flags).value();
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// Writes a Lake-like CSV with holes; returns ground truth and hole mask.
struct Fixture {
  std::string path;
  Matrix truth;
  Mask observed;
};

Fixture WriteIncompleteCsv(const std::string& name, Index rows,
                           double missing_rate, uint64_t seed) {
  auto dataset = data::MakeLakeLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  data::MissingInjectionOptions inject;
  inject.missing_rate = missing_rate;
  inject.preserve_complete_rows = 5;  // small fixtures: protect few rows
  inject.seed = seed + 9;
  auto injection = data::InjectMissing(dataset->table, inject);
  SMFL_CHECK(injection.ok());
  SMFL_CHECK(injection->observed.Complement().Count() > 0);
  Fixture f;
  f.path = TempPath(name);
  f.truth = dataset->table.values();
  f.observed = injection->observed;
  SMFL_CHECK(data::WriteCsv(f.path, dataset->table, f.observed).ok());
  return f;
}

TEST(CliTest, UsageOnMissingOrUnknownCommand) {
  std::string output;
  Status status = ::smfl::cli::Run(MakeFlags({}), &output);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("usage:"), std::string::npos);
  status = ::smfl::cli::Run(MakeFlags({"teleport"}), &output);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown command"), std::string::npos);
}

TEST(CliTest, StatsCommand) {
  Fixture f = WriteIncompleteCsv("smfl_cli_stats.csv", 80, 0.1, 3);
  std::string output;
  Status status =
      ::smfl::cli::Run(MakeFlags({"stats", "--in=" + f.path, "--spatial=2"}), &output);
  std::remove(f.path.c_str());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(output.find("80 rows x 7 columns"), std::string::npos);
  EXPECT_NE(output.find("latitude"), std::string::npos);
}

TEST(CliTest, ImputeCommandFillsEveryHole) {
  Fixture f = WriteIncompleteCsv("smfl_cli_impute.csv", 150, 0.15, 5);
  const std::string out_path = TempPath("smfl_cli_imputed.csv");
  std::string output;
  Status status = ::smfl::cli::Run(MakeFlags({"impute", "--in=" + f.path,
                                 "--out=" + out_path, "--method=SMFL",
                                 "--rank=6"}),
                      &output);
  std::remove(f.path.c_str());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(output.find("imputed"), std::string::npos);

  data::CsvReadOptions read_options;
  read_options.spatial_cols = 2;
  auto completed = data::ReadCsv(out_path, read_options);
  std::remove(out_path.c_str());
  ASSERT_TRUE(completed.ok());
  // Every cell present, observed values preserved exactly.
  EXPECT_EQ(completed->observed.Count(),
            completed->table.NumRows() * completed->table.NumCols());
  for (Index i = 0; i < f.truth.rows(); ++i) {
    for (Index j = 0; j < f.truth.cols(); ++j) {
      if (f.observed.Contains(i, j)) {
        EXPECT_NEAR(completed->table.values()(i, j), f.truth(i, j), 1e-9);
      }
    }
  }
}

TEST(CliTest, ImputeWithBaselineMethod) {
  Fixture f = WriteIncompleteCsv("smfl_cli_knn.csv", 100, 0.1, 7);
  const std::string out_path = TempPath("smfl_cli_knn_out.csv");
  std::string output;
  Status status = ::smfl::cli::Run(MakeFlags({"impute", "--in=" + f.path,
                                 "--out=" + out_path, "--method=kNN"}),
                      &output);
  std::remove(f.path.c_str());
  std::remove(out_path.c_str());
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(output.find("kNN"), std::string::npos);
}

TEST(CliTest, ImputeErrorsAreActionable) {
  std::string output;
  // Missing --in.
  EXPECT_FALSE(::smfl::cli::Run(MakeFlags({"impute", "--out=x.csv"}), &output).ok());
  // Missing --out.
  Fixture f = WriteIncompleteCsv("smfl_cli_noout.csv", 30, 0.1, 9);
  EXPECT_FALSE(::smfl::cli::Run(MakeFlags({"impute", "--in=" + f.path}), &output).ok());
  // Unknown method.
  Status status = ::smfl::cli::Run(MakeFlags({"impute", "--in=" + f.path,
                                 "--out=" + TempPath("x.csv"),
                                 "--method=oracle"}),
                      &output);
  std::remove(f.path.c_str());
  EXPECT_FALSE(status.ok());
  // Nonexistent input.
  EXPECT_FALSE(::smfl::cli::Run(MakeFlags({"impute", "--in=/no/such.csv",
                              "--out=" + TempPath("y.csv")}),
                   &output)
                   .ok());
}

TEST(CliTest, RepairCommandEndToEnd) {
  // Complete table with injected cell errors.
  auto dataset = data::MakeLakeLike(200, 11);
  ASSERT_TRUE(dataset.ok());
  std::vector<std::string> names = dataset->table.column_names();
  data::ErrorInjectionOptions inject;
  inject.error_rate = 0.05;
  inject.seed = 13;
  auto injection = data::InjectErrors(dataset->table, inject);
  ASSERT_TRUE(injection.ok());
  auto dirty_table = data::Table::Create(names, injection->dirty, 2);
  ASSERT_TRUE(dirty_table.ok());
  const std::string in_path = TempPath("smfl_cli_repair_in.csv");
  const std::string out_path = TempPath("smfl_cli_repair_out.csv");
  ASSERT_TRUE(data::WriteCsv(in_path, *dirty_table).ok());

  std::string output;
  Status status = ::smfl::cli::Run(
      MakeFlags({"repair", "--in=" + in_path, "--out=" + out_path}), &output);
  std::remove(in_path.c_str());
  ASSERT_TRUE(status.ok()) << status.ToString();

  data::CsvReadOptions read_options;
  read_options.spatial_cols = 2;
  auto repaired = data::ReadCsv(out_path, read_options);
  std::remove(out_path.c_str());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->table.NumRows(), 200);
  EXPECT_FALSE(repaired->table.values().HasNonFinite());
}

TEST(CliTest, RepairRejectsIncompleteInput) {
  Fixture f = WriteIncompleteCsv("smfl_cli_repair_holes.csv", 50, 0.1, 15);
  std::string output;
  Status status = ::smfl::cli::Run(MakeFlags({"repair", "--in=" + f.path,
                                 "--out=" + TempPath("z.csv")}),
                      &output);
  std::remove(f.path.c_str());
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(CliTest, ImputeWithQuantileNormalizer) {
  Fixture f = WriteIncompleteCsv("smfl_cli_quant.csv", 120, 0.1, 29);
  const std::string out_path = TempPath("smfl_cli_quant_out.csv");
  std::string output;
  Status status = ::smfl::cli::Run(
      MakeFlags({"impute", "--in=" + f.path, "--out=" + out_path,
                 "--normalizer=quantile", "--rank=6"}),
      &output);
  std::remove(f.path.c_str());
  ASSERT_TRUE(status.ok()) << status.ToString();
  data::CsvReadOptions read_options;
  read_options.spatial_cols = 2;
  auto completed = data::ReadCsv(out_path, read_options);
  std::remove(out_path.c_str());
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(completed->observed.Count(),
            completed->table.NumRows() * completed->table.NumCols());
  // Unknown normalizer rejected.
  Fixture g = WriteIncompleteCsv("smfl_cli_quant2.csv", 40, 0.1, 31);
  status = ::smfl::cli::Run(
      MakeFlags({"impute", "--in=" + g.path, "--out=" + out_path,
                 "--normalizer=zscore"}),
      &output);
  std::remove(g.path.c_str());
  EXPECT_FALSE(status.ok());
}

TEST(CliTest, FitThenApplyRoundTrip) {
  // Train on one CSV, fold a second (fresh, incomplete) CSV against the
  // saved model.
  auto train = data::MakeLakeLike(200, 21);
  ASSERT_TRUE(train.ok());
  const std::string train_path = TempPath("smfl_cli_fit_train.csv");
  ASSERT_TRUE(data::WriteCsv(train_path, train->table).ok());
  const std::string model_path = TempPath("smfl_cli_fit_model.txt");

  std::string output;
  Status status = ::smfl::cli::Run(
      MakeFlags({"fit", "--in=" + train_path, "--model=" + model_path,
                 "--rank=6"}),
      &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(output.find("model ->"), std::string::npos);

  Fixture fresh = WriteIncompleteCsv("smfl_cli_apply_in.csv", 60, 0.2, 23);
  const std::string out_path = TempPath("smfl_cli_apply_out.csv");
  status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + fresh.path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  std::remove(train_path.c_str());
  std::remove(fresh.path.c_str());
  std::remove(model_path.c_str());
  ASSERT_TRUE(status.ok()) << status.ToString();

  data::CsvReadOptions read_options;
  read_options.spatial_cols = 2;
  auto completed = data::ReadCsv(out_path, read_options);
  std::remove(out_path.c_str());
  ASSERT_TRUE(completed.ok());
  EXPECT_EQ(completed->observed.Count(),
            completed->table.NumRows() * completed->table.NumCols());
  EXPECT_FALSE(completed->table.values().HasNonFinite());
}

TEST(CliTest, ApplyRejectsColumnMismatch) {
  auto train = data::MakeLakeLike(100, 25);  // 7 columns
  ASSERT_TRUE(train.ok());
  const std::string train_path = TempPath("smfl_cli_mm_train.csv");
  ASSERT_TRUE(data::WriteCsv(train_path, train->table).ok());
  const std::string model_path = TempPath("smfl_cli_mm_model.txt");
  std::string output;
  ASSERT_TRUE(::smfl::cli::Run(MakeFlags({"fit", "--in=" + train_path,
                                          "--model=" + model_path}),
                               &output)
                  .ok());
  std::remove(train_path.c_str());

  auto other = data::MakeEconomicLike(50, 27);  // 13 columns
  ASSERT_TRUE(other.ok());
  const std::string other_path = TempPath("smfl_cli_mm_other.csv");
  ASSERT_TRUE(data::WriteCsv(other_path, other->table).ok());
  Status status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + other_path, "--model=" + model_path,
                 "--out=" + TempPath("mm_out.csv")}),
      &output);
  std::remove(other_path.c_str());
  std::remove(model_path.c_str());
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("columns"), std::string::npos);
}

TEST(CliTest, SelectCommandRecommendsFlags) {
  Fixture f = WriteIncompleteCsv("smfl_cli_select.csv", 200, 0.1, 33);
  std::string output;
  Status status =
      ::smfl::cli::Run(MakeFlags({"select", "--in=" + f.path}), &output);
  std::remove(f.path.c_str());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(output.find("recommended: --rank="), std::string::npos);
  EXPECT_NE(output.find("<- best"), std::string::npos);
}

// A CSV whose last column holds no value at all: impute (the fallback
// chain included), fit and select must refuse it by name instead of
// writing a column of zeros. apply still serves such a batch — there the
// model supplies the missing column.
TEST(CliTest, RejectsColumnWithoutObservedCells) {
  auto dataset = data::MakeLakeLike(200, 41);
  ASSERT_TRUE(dataset.ok());
  const data::Table& table = dataset->table;
  const Index last = table.NumCols() - 1;
  const std::string last_name = table.column_names().back();
  Mask observed = Mask::AllSet(table.NumRows(), table.NumCols());
  for (Index i = 0; i < table.NumRows(); ++i) observed.Set(i, last, false);
  const std::string in_path = TempPath("smfl_cli_empty_column.csv");
  ASSERT_TRUE(data::WriteCsv(in_path, table, observed).ok());
  const std::string out_path = TempPath("smfl_cli_empty_column_out.csv");
  const std::string model_path = TempPath("smfl_cli_empty_column.model");
  std::remove(out_path.c_str());
  std::remove(model_path.c_str());

  const std::vector<std::vector<std::string>> commands = {
      {"impute", "--in=" + in_path, "--out=" + out_path},
      {"impute", "--in=" + in_path, "--out=" + out_path, "--method=fallback"},
      {"fit", "--in=" + in_path, "--model=" + model_path},
      {"select", "--in=" + in_path},
  };
  for (const auto& args : commands) {
    std::string output;
    Status status = ::smfl::cli::Run(MakeFlags(args), &output);
    EXPECT_EQ(status.code(), StatusCode::kDataError)
        << args[0] << ": " << status.ToString();
    EXPECT_NE(status.message().find("'" + last_name + "'"), std::string::npos)
        << status.message();
    EXPECT_FALSE(std::filesystem::exists(out_path)) << args[0];
    EXPECT_FALSE(std::filesystem::exists(model_path)) << args[0];
  }

  // apply: fit on complete data, then serve the batch lacking the column.
  const std::string train_path = TempPath("smfl_cli_empty_column_train.csv");
  ASSERT_TRUE(data::WriteCsv(train_path, table).ok());
  std::string output;
  Status status = ::smfl::cli::Run(
      MakeFlags({"fit", "--in=" + train_path, "--model=" + model_path,
                 "--rank=4"}),
      &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + in_path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
  std::remove(model_path.c_str());
  std::remove(train_path.c_str());
}

// ±1.7e308 is finite but max - min overflows: impute and fit must name the
// column in a DataError rather than blame NaN/Inf input.
TEST(CliTest, RejectsOverflowingColumnRange) {
  const std::string in_path = TempPath("smfl_cli_overflow.csv");
  {
    std::ofstream out(in_path);
    out << "lat,lon,temp,big\n";
    for (int i = 0; i < 60; ++i) {
      out << 0.01 * i << "," << 0.5 - 0.005 * i << ",";
      if (i % 7 != 3) out << 5 + 0.1 * i;
      out << "," << (i % 2 == 0 ? "1.7e308" : "-1.7e308") << "\n";
    }
  }
  const std::string out_path = TempPath("smfl_cli_overflow_out.csv");
  const std::string model_path = TempPath("smfl_cli_overflow.model");
  for (const auto& args : std::vector<std::vector<std::string>>{
           {"impute", "--in=" + in_path, "--out=" + out_path},
           {"fit", "--in=" + in_path, "--model=" + model_path}}) {
    std::string output;
    Status status = ::smfl::cli::Run(MakeFlags(args), &output);
    EXPECT_EQ(status.code(), StatusCode::kDataError)
        << args[0] << ": " << status.ToString();
    EXPECT_NE(status.message().find("column 3"), std::string::npos)
        << status.message();
  }
  std::remove(in_path.c_str());
  std::remove(out_path.c_str());
  std::remove(model_path.c_str());
}

TEST(CliTest, UsageListsAllMethods) {
  const std::string usage = UsageText();
  EXPECT_NE(usage.find("SMFL"), std::string::npos);
  EXPECT_NE(usage.find("apply"), std::string::npos);
  EXPECT_NE(usage.find("fit"), std::string::npos);
  EXPECT_NE(usage.find("HoloClean"), std::string::npos);
  EXPECT_NE(usage.find("kNNE"), std::string::npos);
}

// Writes `table` with every value at %.17g (and the cells outside
// `observed` empty): full-precision input no writer of the library rounds.
void WriteFullPrecisionCsv(const std::string& path, const data::Table& table,
                           const Mask& observed) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  const auto& names = table.column_names();
  for (size_t j = 0; j < names.size(); ++j) out << (j ? "," : "") << names[j];
  out << "\n";
  char cell[40];
  for (Index i = 0; i < table.NumRows(); ++i) {
    for (Index j = 0; j < table.NumCols(); ++j) {
      if (j > 0) out << ",";
      if (!observed.Contains(i, j)) continue;
      std::snprintf(cell, sizeof(cell), "%.17g", table.values()(i, j));
      out << cell;
    }
    out << "\n";
  }
}

// A Lake-like table whose every value carries 16–17 significant digits.
data::Table FullPrecisionTable(Index rows, uint64_t seed) {
  auto dataset = data::MakeLakeLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  Matrix values = dataset->table.values();
  Rng rng(seed + 1);
  for (Index i = 0; i < values.size(); ++i) {
    values.data()[i] *= 1.0 + 1e-9 * rng.Uniform(0.1, 1.0);
  }
  auto table = data::Table::Create(dataset->table.column_names(), values, 2);
  SMFL_CHECK(table.ok());
  return std::move(table).value();
}

// Counts the cells in `cells` whose value in the CSV at `out_path` is the
// identical double of `in`'s.
Index ExactCells(const std::string& out_path, const data::Table& in,
                 const Mask& cells) {
  data::CsvReadOptions read_options;
  auto out = data::ReadCsv(out_path, read_options);
  SMFL_CHECK(out.ok());
  SMFL_CHECK(out->table.NumRows() == in.NumRows());
  Index exact = 0;
  for (Index i = 0; i < in.NumRows(); ++i) {
    for (Index j = 0; j < in.NumCols(); ++j) {
      if (!cells.Contains(i, j)) continue;
      if (std::bit_cast<uint64_t>(out->table.values()(i, j)) ==
          std::bit_cast<uint64_t>(in.values()(i, j))) {
        ++exact;
      }
    }
  }
  return exact;
}

// impute, apply and repair write the cells they keep from their input —
// observed cells, clean cells — back as the identical double, even when it
// needs 17 significant digits (the %.12g the filled-in cells get would
// round them).
TEST(CliTest, KeptCellsRoundTripExactly) {
  const data::Table table = FullPrecisionTable(120, 41);
  Mask observed = Mask::AllSet(table.NumRows(), table.NumCols());
  Rng rng(43);
  for (Index i = 0; i < table.NumRows(); ++i) {
    for (Index j = 2; j < table.NumCols(); ++j) {
      if (i >= 10 && rng.Bernoulli(0.15)) observed.Set(i, j, false);
    }
  }
  const std::string in_path = TempPath("smfl_cli_exact_in.csv");
  const std::string out_path = TempPath("smfl_cli_exact_out.csv");
  const std::string model_path = TempPath("smfl_cli_exact_model.txt");
  WriteFullPrecisionCsv(in_path, table, observed);
  const Index kept = observed.Count();

  std::string output;
  Status status = ::smfl::cli::Run(
      MakeFlags({"impute", "--in=" + in_path, "--out=" + out_path}), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ExactCells(out_path, table, observed), kept);

  const std::string train_path = TempPath("smfl_cli_exact_train.csv");
  WriteFullPrecisionCsv(train_path, FullPrecisionTable(150, 47),
                        Mask::AllSet(150, table.NumCols()));
  status = ::smfl::cli::Run(
      MakeFlags({"fit", "--in=" + train_path, "--model=" + model_path,
                 "--rank=5"}),
      &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + in_path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ExactCells(out_path, table, observed), kept);

  // repair: a complete table; every cell it does not flag is clean.
  const Mask all = Mask::AllSet(table.NumRows(), table.NumCols());
  WriteFullPrecisionCsv(in_path, table, all);
  output.clear();
  status = ::smfl::cli::Run(
      MakeFlags({"repair", "--in=" + in_path, "--out=" + out_path}), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  long long flagged = 0;
  const size_t at = output.find("flagged ");
  if (at != std::string::npos) flagged = std::atoll(output.c_str() + at + 8);
  EXPECT_GE(ExactCells(out_path, table, all), all.Count() - flagged)
      << output;
  EXPECT_LT(flagged, all.Count() / 2) << output;

  // A complete table written back unchanged keeps every cell.
  status = ::smfl::cli::Run(
      MakeFlags({"impute", "--in=" + in_path, "--out=" + out_path}), &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(ExactCells(out_path, table, all), all.Count());
  for (const std::string& p : {in_path, out_path, model_path, train_path}) {
    std::remove(p.c_str());
  }
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

// `--trace-out` of every smfl command holds its root span and a span for
// every stage of the command under it (docs/observability.md).
TEST(CliTest, TraceHoldsEveryStageSpan) {
  Fixture f = WriteIncompleteCsv("smfl_cli_trace_in.csv", 100, 0.15, 51);
  const std::string out_path = TempPath("smfl_cli_trace_out.csv");
  const std::string trace_path = TempPath("smfl_cli_trace.json");
  const std::string model_path = TempPath("smfl_cli_trace_model.txt");
  const auto expect_spans = [&](const std::vector<std::string>& args,
                                const std::vector<std::string>& spans) {
    telemetry::TraceRecorder::Global().Clear();
    std::vector<std::string> all = args;
    all.push_back("--trace-out=" + trace_path);
    std::string output;
    Status status = ::smfl::cli::Run(MakeFlags(all), &output);
    telemetry::SetEnabled(false);
    ASSERT_TRUE(status.ok()) << status.ToString();
    const std::string trace = ReadFileText(trace_path);
    for (const std::string& span : spans) {
      EXPECT_NE(trace.find("\"name\":\"" + span + "\",\"cat\":\"smfl\",\"ph\":\"X\""),
                std::string::npos)
          << args[0] << " trace lacks " << span;
    }
  };
  expect_spans({"impute", "--in=" + f.path, "--out=" + out_path},
               {"cli.impute", "data.read_csv", "cli.normalize", "smfl.graph",
                "smfl.fit", "smfl.fit.init", "smfl.fit.iter",
                "smfl.reconstruct", "cli.reconstruct", "data.write_csv"});
  std::string output;
  ASSERT_TRUE(::smfl::cli::Run(MakeFlags({"fit", "--in=" + f.path,
                                          "--model=" + model_path,
                                          "--rank=5"}),
                               &output)
                  .ok());
  expect_spans({"apply", "--in=" + f.path, "--model=" + model_path,
                "--out=" + out_path},
               {"cli.apply", "core.load_model", "data.read_csv",
                "cli.normalize", "foldin.batch", "cli.reconstruct",
                "data.write_csv", "cli.report"});
  expect_spans({"fit", "--in=" + f.path, "--model=" + model_path,
                "--rank=5"},
               {"cli.fit", "data.read_csv", "cli.normalize", "smfl.graph",
                "smfl.fit", "smfl.fit.init", "smfl.fit.iter",
                "core.save_model"});
  // The completed table from apply is repair's complete input.
  const std::string repaired_path = TempPath("smfl_cli_trace_repaired.csv");
  expect_spans({"repair", "--in=" + out_path, "--out=" + repaired_path},
               {"cli.repair", "data.read_csv", "cli.normalize",
                "repair.detect", "data.write_csv"});
  expect_spans({"select", "--in=" + f.path},
               {"cli.select", "data.read_csv", "cli.normalize", "smfl.fit"});
  expect_spans({"stats", "--in=" + f.path}, {"cli.stats", "data.read_csv"});
  telemetry::TraceRecorder::Global().Clear();
  for (const std::string& p :
       {f.path, out_path, trace_path, model_path, repaired_path}) {
    std::remove(p.c_str());
  }
}

// The port is a TCP port: a value outside [0, 65535] is refused before
// the command runs, naming the flag, instead of running with no endpoint.
TEST(CliTest, RejectsMetricsPortOutOfRange) {
  Fixture f = WriteIncompleteCsv("smfl_cli_port_in.csv", 60, 0.1, 57);
  const std::string model_path = TempPath("smfl_cli_port_model.txt");
  for (const char* port : {"-5", "-1", "65536"}) {
    std::string output;
    Status status = ::smfl::cli::Run(
        MakeFlags({"fit", "--in=" + f.path, "--model=" + model_path,
                   "--rank=5", std::string("--metrics-port=") + port}),
        &output);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << port;
    EXPECT_NE(status.message().find("--metrics-port"), std::string::npos)
        << port << ": " << status.ToString();
  }
  std::remove(f.path.c_str());
  std::remove(model_path.c_str());
}

// The CPU probe alone picks the SIMD tier of a CLI run, and the metrics
// snapshot records it as the la.simd.tier gauge.
TEST(CliTest, MetricsRecordTheProbedSimdTier) {
  Fixture f = WriteIncompleteCsv("smfl_cli_tier_in.csv", 60, 0.1, 59);
  const std::string model_path = TempPath("smfl_cli_tier_model.txt");
  const std::string metrics_path = TempPath("smfl_cli_tier_metrics.jsonl");
  std::string output;
  Status status = ::smfl::cli::Run(
      MakeFlags({"fit", "--in=" + f.path, "--model=" + model_path,
                 "--rank=5", "--metrics-out=" + metrics_path}),
      &output);
  telemetry::SetEnabled(false);
  ASSERT_TRUE(status.ok()) << status.ToString();
  const std::string metrics = ReadFileText(metrics_path);
  const std::string key =
      "{\"name\":\"la.simd.tier\",\"type\":\"gauge\",\"value\":";
  const size_t at = metrics.find(key);
  ASSERT_NE(at, std::string::npos) << metrics;
  EXPECT_EQ(std::stod(metrics.substr(at + key.size())),
            static_cast<double>(la::simd::HardwareTier()));
  for (const std::string& p : {f.path, model_path, metrics_path}) {
    std::remove(p.c_str());
  }
}

// A flag no part of the command reads is refused by name before any work
// starts: a misspelt --lambda used to fit the default λ, and a retired
// --simd was ignored the same way.
TEST(CliTest, RejectsUnknownFlags) {
  Fixture f = WriteIncompleteCsv("smfl_cli_flag_in.csv", 60, 0.1, 61);
  const std::string model_path = TempPath("smfl_cli_flag_model.txt");
  std::remove(model_path.c_str());
  for (const char* flag : {"--lamda=0.1", "--simd=1"}) {
    std::string output;
    Status status = ::smfl::cli::Run(
        MakeFlags({"fit", "--in=" + f.path, "--model=" + model_path,
                   "--rank=5", flag}),
        &output);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << flag;
    const std::string name(flag, std::string_view(flag).find('='));
    EXPECT_NE(status.message().find(name + " for 'smfl fit'"),
              std::string::npos)
        << flag << ": " << status.ToString();
    EXPECT_FALSE(std::filesystem::exists(model_path)) << flag;
  }
  // A flag another command reads is still refused here.
  std::string output;
  Status status = ::smfl::cli::Run(
      MakeFlags({"stats", "--in=" + f.path, "--out=stats.csv"}), &output);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--out"), std::string::npos)
      << status.ToString();
  std::remove(f.path.c_str());
}

// A non-finite λ is refused by name instead of fitting into a misleading
// divergence error.
TEST(CliTest, RejectsNonFiniteLambda) {
  Fixture f = WriteIncompleteCsv("smfl_cli_nan_in.csv", 60, 0.1, 63);
  const std::string model_path = TempPath("smfl_cli_nan_model.txt");
  std::string output;
  Status status = ::smfl::cli::Run(
      MakeFlags({"fit", "--in=" + f.path, "--model=" + model_path,
                 "--rank=5", "--lambda=nan"}),
      &output);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("lambda must be finite"),
            std::string::npos)
      << status.ToString();
  std::remove(f.path.c_str());
  std::remove(model_path.c_str());
}

}  // namespace
}  // namespace smfl::cli
