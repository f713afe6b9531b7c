// Serving-path tests for batched fold-in (docs/serving.md):
//
//  * batched FoldIn is bitwise identical to row-at-a-time FoldInRow at
//    any thread count (the PR 2 determinism contract),
//  * per-row faults degrade through the report tiers instead of aborting
//    the batch,
//  * fit -> save -> load -> serve round-trips bitwise through the v4
//    model format (including the persisted normalizer and mean(U)),
//  * v3 files still load and serve like their v4 re-save; bare-text
//    v1/v2 files and hostile values are refused with a DataError,
//  * `smfl apply` refuses a batch whose header differs from training,
//  * `smfl apply` serves in the TRAINING normalization space — the old
//    per-batch re-fit produced systematically different (wrong) values.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "src/cli/commands.h"
#include "src/common/durable_io.h"
#include "src/common/parallel.h"
#include "src/core/fold_in.h"
#include "src/core/model_io.h"
#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/data/normalize.h"
#include "src/exp/metrics.h"
#include "src/la/ops.h"

namespace smfl::core {
namespace {

using data::Mask;

struct Fitted {
  Matrix truth;     // normalized ground truth (all rows)
  SmflModel model;  // fit on the first `train_rows` rows
  Index train_rows = 0;
};

Fitted TrainOnPrefix(Index total_rows, Index train_rows, uint64_t seed) {
  auto dataset = data::MakeLakeLike(total_rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  SMFL_CHECK(normalizer.ok());
  Fitted f;
  f.truth = normalizer->Transform(dataset->table.values());
  f.train_rows = train_rows;
  Matrix train = f.truth.Block(0, 0, train_rows, f.truth.cols());
  SmflOptions options;
  options.rank = 6;
  options.max_iterations = 120;
  auto model =
      FitSmfl(train, Mask::AllSet(train_rows, train.cols()), 2, options);
  SMFL_CHECK(model.ok());
  f.model = std::move(model).value();
  f.model.normalizer = std::move(normalizer).value();
  return f;
}

// Fresh rows after the training prefix with a deterministic hole pattern;
// every row keeps its coordinates plus at least one attribute.
void MakeFreshBatch(const Fitted& f, Index fresh, Matrix* x, Mask* observed) {
  const Index m = f.truth.cols();
  *x = Matrix(fresh, m);
  *observed = Mask(fresh, m);
  for (Index i = 0; i < fresh; ++i) {
    for (Index j = 0; j < m; ++j) {
      const bool hide = j >= 2 && (i + j) % 3 == 0;
      observed->Set(i, j, !hide);
      (*x)(i, j) = hide ? 0.0 : f.truth(f.train_rows + i, j);
    }
  }
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Flags MakeFlags(std::vector<std::string> args) {
  std::vector<const char*> argv = {"smfl"};
  for (const auto& a : args) argv.push_back(a.c_str());
  auto flags = Flags::Parse(static_cast<int>(argv.size()), argv.data());
  SMFL_CHECK(flags.ok());
  return std::move(flags).value();
}

// ------------------------------------------------- batched determinism

TEST(FoldInServingTest, BatchMatchesRowAtATimeBitwiseAtAnyThreadCount) {
  Fitted f = TrainOnPrefix(220, 180, 3);
  const Index fresh = 32;
  Matrix x;
  Mask observed;
  MakeFreshBatch(f, fresh, &x, &observed);

  auto run_batch = [&](int threads) {
    parallel::ScopedParallelism scope(threads);
    auto folded = FoldIn(f.model, x, observed);
    SMFL_CHECK(folded.ok());
    return std::move(folded).value();
  };
  const Matrix batch1 = run_batch(1);
  const Matrix batch4 = run_batch(4);

  // Thread count must not change a single bit.
  for (Index i = 0; i < batch1.rows(); ++i) {
    for (Index j = 0; j < batch1.cols(); ++j) {
      EXPECT_EQ(batch1(i, j), batch4(i, j)) << "at " << i << "," << j;
    }
  }

  // Batched serving must equal the strict row-at-a-time path exactly.
  std::vector<bool> observed_row(static_cast<size_t>(x.cols()));
  for (Index i = 0; i < fresh; ++i) {
    la::Vector row(x.cols());
    for (Index j = 0; j < x.cols(); ++j) {
      row[j] = x(i, j);
      observed_row[static_cast<size_t>(j)] = observed.Contains(i, j);
    }
    auto completed = FoldInRow(f.model, row, observed_row);
    ASSERT_TRUE(completed.ok());
    for (Index j = 0; j < x.cols(); ++j) {
      EXPECT_EQ(batch1(i, j), (*completed)[j]) << "row " << i << " col " << j;
    }
  }
}

// ------------------------------------------------- per-row fault isolation

TEST(FoldInServingTest, BadRowsDegradeInsteadOfAbortingTheBatch) {
  Fitted f = TrainOnPrefix(200, 170, 5);
  const Index fresh = 4;
  Matrix x;
  Mask observed;
  MakeFreshBatch(f, fresh, &x, &observed);
  // Row 1: nothing observed. Row 2: one observed cell corrupted to NaN.
  for (Index j = 0; j < x.cols(); ++j) observed.Set(1, j, false);
  x(2, 3) = std::nan("");
  observed.Set(2, 3, true);

  FoldInReport report;
  auto folded = FoldIn(f.model, x, observed, FoldInOptions{}, &report);
  ASSERT_TRUE(folded.ok());
  ASSERT_EQ(report.rows.size(), static_cast<size_t>(fresh));

  EXPECT_TRUE(report.rows[0].status.ok());
  EXPECT_EQ(report.rows[0].served_by, FoldInTier::kLandmarkKernel);
  EXPECT_GT(report.rows[0].iterations, 0);

  // The all-missing row is served by the column-mean tier, not an error.
  EXPECT_FALSE(report.rows[1].status.ok());
  EXPECT_EQ(report.rows[1].served_by, FoldInTier::kColumnMean);
  EXPECT_EQ(report.rows[1].iterations, 0);

  // The NaN cell is dropped from the solve and replaced in the output.
  EXPECT_FALSE(report.rows[2].status.ok());
  EXPECT_EQ(report.rows[2].status.code(), StatusCode::kDataError);
  EXPECT_NE(report.rows[2].served_by, FoldInTier::kColumnMean);

  for (Index i = 0; i < fresh; ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      EXPECT_TRUE(std::isfinite((*folded)(i, j))) << i << "," << j;
    }
  }
  EXPECT_EQ(report.DegradedCount(), 2);
  EXPECT_EQ(report.CountTier(FoldInTier::kColumnMean), 1);
  EXPECT_NE(report.ToString().find("column-mean"), std::string::npos);

  // The strict single-row API still rejects the same faults.
  la::Vector row(x.cols(), 0.5);
  std::vector<bool> none(static_cast<size_t>(x.cols()), false);
  EXPECT_FALSE(FoldInRow(f.model, row, none).ok());
}

// ------------------------------------------------- kernel width guard

TEST(FoldInServingTest, KernelWidthGuardedForDegenerateLandmarks) {
  // K = 1: no pairwise distance exists; the width must not collapse.
  Matrix one(1, 2);
  one(0, 0) = 0.3;
  one(0, 1) = 0.7;
  EXPECT_GE(FoldInKernelWidth(one), 1e-2);
  // Coincident landmarks: same guard.
  Matrix coincident(3, 2, 0.5);
  EXPECT_GE(FoldInKernelWidth(coincident), 1e-2);
  // Two distinct landmarks: mean nearest squared distance, as before.
  Matrix two{{0.0, 0.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(FoldInKernelWidth(two), 2.0);

  // A K = 1 model end-to-end: the fold still serves on the kernel tier.
  SmflModel model;
  model.v = Matrix(1, 5, 0.4);
  model.u = Matrix(3, 1, 0.9);
  model.landmarks = one;
  model.spatial_cols = 2;
  Matrix x(1, 5, 0.5);
  Mask observed(1, 5);
  observed.Set(0, 0);
  observed.Set(0, 1);
  FoldInReport report;
  auto folded = FoldIn(model, x, observed, FoldInOptions{}, &report);
  ASSERT_TRUE(folded.ok());
  EXPECT_EQ(report.rows[0].served_by, FoldInTier::kLandmarkKernel);
  for (Index j = 0; j < 5; ++j) {
    EXPECT_TRUE(std::isfinite((*folded)(0, j)));
  }
}

// ------------------------------------------------- model round-trip

TEST(FoldInServingTest, SaveLoadServeRoundTripIsBitwise) {
  Fitted f = TrainOnPrefix(200, 170, 7);
  auto restored = DeserializeModel(SerializeModel(f.model));
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored->normalizer.has_value());
  for (Index j = 0; j < f.truth.cols(); ++j) {
    EXPECT_EQ(restored->normalizer->ColMin(j), f.model.normalizer->ColMin(j));
    EXPECT_EQ(restored->normalizer->ColMax(j), f.model.normalizer->ColMax(j));
  }

  Matrix x;
  Mask observed;
  MakeFreshBatch(f, 12, &x, &observed);
  auto in_process = FoldIn(f.model, x, observed);
  auto reloaded = FoldIn(*restored, x, observed);
  ASSERT_TRUE(in_process.ok());
  ASSERT_TRUE(reloaded.ok());
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < x.cols(); ++j) {
      EXPECT_EQ((*in_process)(i, j), (*reloaded)(i, j)) << i << "," << j;
    }
  }
}

// Re-frames a serialized model with `section`'s payload replaced: valid
// checksums around hostile content, the way a buggy or malicious writer
// would produce it.
std::string WithSection(const std::string& serialized,
                        const std::string& section,
                        const std::string& payload) {
  auto sections = ParseSections(serialized);
  SMFL_CHECK(sections.ok());
  SectionWriter writer;
  bool found = false;
  for (const Section& s : *sections) {
    found = found || s.name == section;
    writer.Add(s.name, s.name == section ? payload : s.payload);
  }
  SMFL_CHECK(found);
  return writer.Finish();
}

std::string SectionPayload(const std::string& serialized,
                           const std::string& section) {
  auto sections = ParseSections(serialized);
  SMFL_CHECK(sections.ok());
  for (const Section& s : *sections) {
    if (s.name == section) return s.payload;
  }
  SMFL_CHECK(false);
  return "";
}

TEST(FoldInServingTest, V1AndV2ModelFilesAreRefusedWithARefitHint) {
  Fitted f = TrainOnPrefix(160, 140, 9);
  // The bare-text forms: the concatenated payloads under an old version
  // header, no container and no checksums.
  auto sections = ParseSections(SerializeModel(f.model));
  ASSERT_TRUE(sections.ok());
  std::string body;
  for (const Section& s : *sections) body += s.payload;
  ASSERT_EQ(body.rfind("smfl-model 4", 0), 0u);
  for (int version : {1, 2}) {
    std::string legacy = body;
    legacy.replace(0, std::string("smfl-model 4").size(),
                   "smfl-model " + std::to_string(version));
    auto restored = DeserializeModel(legacy);
    ASSERT_FALSE(restored.ok()) << version;
    EXPECT_EQ(restored.status().code(), StatusCode::kDataError);
    EXPECT_NE(restored.status().message().find(
                  "format v" + std::to_string(version)),
              std::string::npos)
        << restored.status().ToString();
    EXPECT_NE(restored.status().message().find("smfl fit"), std::string::npos)
        << restored.status().ToString();
  }
  // Bare text that is no model at all.
  auto garbage = DeserializeModel("hello\n");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kDataError);
}

TEST(FoldInServingTest, CorruptDimensionsRejectedBeforeAllocation) {
  Fitted f = TrainOnPrefix(120, 100, 11);
  const std::string good = SerializeModel(f.model);
  // A hostile V header claiming astronomically many elements must be a
  // clean DataError, not an overflowed allocation.
  std::string v = SectionPayload(good, "V");
  v.replace(0, v.find('\n'), "V 88888888 88888888");
  auto result = DeserializeModel(WithSection(good, "V", v));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataError);
  EXPECT_NE(result.status().message().find("implausible"),
            std::string::npos);
  // Same for a hostile trace header.
  auto huge_trace =
      DeserializeModel(WithSection(good, "trace", "trace 999999999999\n"));
  EXPECT_FALSE(huge_trace.ok());
}

TEST(FoldInServingTest, HostileValuesAreRefusedByName) {
  Fitted f = TrainOnPrefix(120, 100, 13);
  const std::string good = SerializeModel(f.model);
  ASSERT_TRUE(DeserializeModel(good).ok());
  // Replaces the first value after the section's header line.
  auto poison = [&](const std::string& section, const std::string& value) {
    std::string payload = SectionPayload(good, section);
    const size_t start = payload.find('\n') + 1;
    const size_t end = payload.find_first_of(" \n", start);
    payload.replace(start, end - start, value);
    return DeserializeModel(WithSection(good, section, payload));
  };
  for (const char* section : {"V", "C", "mean_u", "normalizer"}) {
    for (const char* value : {"nan", "inf", "-inf"}) {
      auto result = poison(section, value);
      ASSERT_FALSE(result.ok()) << section << " " << value;
      EXPECT_EQ(result.status().code(), StatusCode::kDataError);
      EXPECT_NE(result.status().message().find(
                    std::string("section '") + section + "'"),
                std::string::npos)
          << result.status().ToString();
    }
  }
  // mean(U) must hold exactly K values.
  const Index k = f.model.v.rows();
  std::string short_mean = "mean_u 1 " + std::to_string(k - 1) + "\n";
  for (Index c = 0; c + 1 < k; ++c) short_mean += "0.5 ";
  auto result =
      DeserializeModel(WithSection(good, "mean_u", short_mean + "\n"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataError);
  EXPECT_NE(result.status().message().find("'mean_u'"), std::string::npos)
      << result.status().ToString();
}

// tests/fixtures/model_v3.smfl was written by the v3 writer (the last one
// that stored U): a rank-3 SMFL model with its normalizer, fit for 20
// iterations on a 40-row table with 2 coordinate and 3 attribute columns.
TEST(FoldInServingTest, V3FilesLoadAndServeLikeTheirV4Resave) {
  const std::string path = std::string(SMFL_FIXTURE_DIR) + "/model_v3.smfl";
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  auto v3 = LoadModel(path);
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(v3->u.rows(), 0);
  ASSERT_TRUE(v3->normalizer.has_value());
  EXPECT_TRUE(v3->column_names.empty());
  const Index k = v3->v.rows(), m = v3->v.cols();
  ASSERT_EQ(k, 3);
  ASSERT_EQ(m, 5);

  // mean(U) is the column mean of the file's U section, bit for bit.
  std::istringstream u_text(SectionPayload(*bytes, "U"));
  std::string tag;
  Index rows = 0, cols = 0;
  ASSERT_TRUE(static_cast<bool>(u_text >> tag >> rows >> cols));
  Matrix u(rows, cols);
  for (Index i = 0; i < u.size(); ++i) {
    ASSERT_TRUE(static_cast<bool>(u_text >> u.data()[i]));
  }
  const la::Vector mean = la::ColMeans(u);
  ASSERT_EQ(v3->mean_u.size(), k);
  for (Index c = 0; c < k; ++c) EXPECT_EQ(v3->mean_u[c], mean[c]) << c;

  // Its v4 re-save holds no U and serves every tier bit for bit alike.
  const std::string resaved = SerializeModel(*v3);
  EXPECT_EQ(resaved.find("section U "), std::string::npos);
  auto v4 = DeserializeModel(resaved);
  ASSERT_TRUE(v4.ok()) << v4.status().ToString();
  Matrix x(24, m);
  Mask observed(24, m);
  for (Index i = 0; i < x.rows(); ++i) {
    for (Index j = 0; j < m; ++j) {
      const bool seen = i % 6 != 5 && (i + j) % 4 != 0;
      observed.Set(i, j, seen);
      x(i, j) = seen ? 0.05 + 0.9 * static_cast<double>((i * 7 + j * 3) % 11) /
                                  10.0
                     : 0.0;
    }
  }
  FoldInReport v3_report, v4_report;
  auto from_v3 = FoldIn(*v3, x, observed, FoldInOptions{}, &v3_report);
  auto from_v4 = FoldIn(*v4, x, observed, FoldInOptions{}, &v4_report);
  ASSERT_TRUE(from_v3.ok());
  ASSERT_TRUE(from_v4.ok());
  EXPECT_GT(v3_report.CountTier(FoldInTier::kColumnMean), 0);
  EXPECT_GT(v3_report.CountTier(FoldInTier::kLandmarkKernel), 0);
  for (Index i = 0; i < x.rows(); ++i) {
    EXPECT_EQ(v3_report.rows[static_cast<size_t>(i)].iterations,
              v4_report.rows[static_cast<size_t>(i)].iterations);
    for (Index j = 0; j < m; ++j) {
      EXPECT_EQ(std::bit_cast<uint64_t>((*from_v3)(i, j)),
                std::bit_cast<uint64_t>((*from_v4)(i, j)))
          << i << "," << j;
    }
  }
}

// ------------------------------------------------- CLI apply round-trip

TEST(FoldInServingTest, ApplyServesInTrainingNormalizationSpace) {
  // Train on the full lake table; serve a SINGLE fresh row whose column
  // "ranges" are degenerate — exactly the case where the old per-batch
  // normalizer re-fit destroyed the signal.
  auto dataset = data::MakeLakeLike(200, 21);
  ASSERT_TRUE(dataset.ok());
  const Index m = dataset->table.NumCols();
  const std::string train_path = TempPath("smfl_serving_train.csv");
  ASSERT_TRUE(data::WriteCsv(train_path, dataset->table).ok());
  const std::string model_path = TempPath("smfl_serving_model.txt");
  std::string output;
  ASSERT_TRUE(::smfl::cli::Run(
                  MakeFlags({"fit", "--in=" + train_path,
                             "--model=" + model_path, "--rank=6"}),
                  &output)
                  .ok());

  // One fresh row = row 190 of the same generator, with two attribute
  // cells hidden.
  auto fresh_source = data::MakeLakeLike(200, 21);
  ASSERT_TRUE(fresh_source.ok());
  Matrix fresh_values(1, m);
  Mask fresh_observed(1, m, true);
  for (Index j = 0; j < m; ++j) {
    fresh_values(0, j) = fresh_source->table.values()(190, j);
  }
  fresh_observed.Set(0, 3, false);
  fresh_observed.Set(0, 5, false);
  auto fresh_table = data::Table::Create(dataset->table.column_names(),
                                         fresh_values, 2);
  ASSERT_TRUE(fresh_table.ok());
  const std::string fresh_path = TempPath("smfl_serving_fresh.csv");
  ASSERT_TRUE(
      data::WriteCsv(fresh_path, *fresh_table, fresh_observed).ok());

  const std::string out_path = TempPath("smfl_serving_out.csv");
  output.clear();
  Status status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + fresh_path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_NE(output.find("serving tiers:"), std::string::npos);
  EXPECT_NE(output.find("ran the 200-iteration cap"), std::string::npos)
      << output;

  data::CsvReadOptions read_options;
  read_options.spatial_cols = 2;
  auto served = data::ReadCsv(out_path, read_options);
  ASSERT_TRUE(served.ok());

  // Expected: fold-in in the TRAINING normalization space.
  auto model = LoadModel(model_path);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->normalizer.has_value());
  Matrix normalized = model->normalizer->Transform(fresh_values);
  for (Index j = 0; j < m; ++j) {
    if (!fresh_observed.Contains(0, j)) continue;
    normalized(0, j) = std::min(1.0, std::max(0.0, normalized(0, j)));
  }
  normalized = data::ApplyMask(normalized, fresh_observed);
  auto folded = FoldIn(*model, normalized, fresh_observed);
  ASSERT_TRUE(folded.ok());
  Matrix expected = model->normalizer->InverseTransform(*folded);
  expected = data::CombineByMask(fresh_values, expected, fresh_observed);
  for (Index j = 0; j < m; ++j) {
    EXPECT_NEAR(served->table.values()(0, j), expected(0, j),
                1e-6 * std::max(1.0, std::fabs(expected(0, j))))
        << "col " << j;
  }

  // The OLD path — re-fitting the normalizer on the single fresh row —
  // gives systematically different, wrong values: observed columns
  // become constant (range [v, v+1]) and hidden columns lose their units
  // entirely, so the imputations land nowhere near the truth.
  auto stale = data::MinMaxNormalizer::Fit(fresh_values, fresh_observed);
  ASSERT_TRUE(stale.ok());
  Matrix stale_norm =
      data::ApplyMask(stale->Transform(fresh_values), fresh_observed);
  auto stale_folded = FoldIn(*model, stale_norm, fresh_observed);
  ASSERT_TRUE(stale_folded.ok());
  Matrix stale_out = stale->InverseTransform(*stale_folded);
  stale_out = data::CombineByMask(fresh_values, stale_out, fresh_observed);
  double new_err = 0.0, old_err = 0.0;
  for (Index j : {Index{3}, Index{5}}) {
    const double truth = fresh_values(0, j);
    new_err = std::max(new_err, std::fabs(expected(0, j) - truth));
    old_err = std::max(old_err, std::fabs(stale_out(0, j) - truth));
    // Proves the two paths disagree — the bug was real.
    EXPECT_GT(std::fabs(stale_out(0, j) - expected(0, j)), 1e-3)
        << "col " << j;
  }
  // And the training-space path is the accurate one.
  EXPECT_LT(new_err, old_err);

  std::remove(train_path.c_str());
  std::remove(model_path.c_str());
  std::remove(fresh_path.c_str());
  std::remove(out_path.c_str());
}

TEST(FoldInServingTest, ApplyValidatesSpatialAgainstModel) {
  auto dataset = data::MakeLakeLike(120, 31);
  ASSERT_TRUE(dataset.ok());
  const std::string train_path = TempPath("smfl_spatial_train.csv");
  ASSERT_TRUE(data::WriteCsv(train_path, dataset->table).ok());
  const std::string model_path = TempPath("smfl_spatial_model.txt");
  std::string output;
  ASSERT_TRUE(::smfl::cli::Run(MakeFlags({"fit", "--in=" + train_path,
                                          "--model=" + model_path,
                                          "--rank=4"}),
                               &output)
                  .ok());
  // A contradictory --spatial must be a clear error, not silent
  // mislabeling of the output's coordinate columns.
  Status status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + train_path, "--model=" + model_path,
                 "--out=" + TempPath("smfl_spatial_out.csv"),
                 "--spatial=3"}),
      &output);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("spatial"), std::string::npos);
  // Without the flag, the model's spatial column count is used.
  output.clear();
  const std::string out_path = TempPath("smfl_spatial_out.csv");
  status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + train_path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::remove(train_path.c_str());
  std::remove(model_path.c_str());
  std::remove(out_path.c_str());
}

TEST(FoldInServingTest, ApplyRefusesPermutedColumns) {
  auto dataset = data::MakeLakeLike(120, 41);
  ASSERT_TRUE(dataset.ok());
  const std::string train_path = TempPath("smfl_permuted_train.csv");
  ASSERT_TRUE(data::WriteCsv(train_path, dataset->table).ok());
  const std::string model_path = TempPath("smfl_permuted_model.smfl");
  std::string output;
  ASSERT_TRUE(::smfl::cli::Run(MakeFlags({"fit", "--in=" + train_path,
                                          "--model=" + model_path,
                                          "--rank=4"}),
                               &output)
                  .ok());
  auto model = LoadModel(model_path);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->column_names, dataset->table.column_names());

  // The same rows with attribute columns 3 and 5 swapped, header and all:
  // the count matches, so only the stored header can catch it.
  std::vector<std::string> names = dataset->table.column_names();
  Matrix values = dataset->table.values();
  std::swap(names[3], names[5]);
  for (Index i = 0; i < values.rows(); ++i) {
    std::swap(values(i, 3), values(i, 5));
  }
  auto permuted = data::Table::Create(names, values, 2);
  ASSERT_TRUE(permuted.ok());
  const std::string batch_path = TempPath("smfl_permuted_batch.csv");
  ASSERT_TRUE(data::WriteCsv(batch_path, *permuted).ok());
  const std::string out_path = TempPath("smfl_permuted_out.csv");
  output.clear();
  Status status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + batch_path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("column 4"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("'" + names[3] + "'"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("'" + names[5] + "'"), std::string::npos)
      << status.ToString();
  EXPECT_FALSE(std::filesystem::exists(out_path));

  // The training order is still served.
  output.clear();
  status = ::smfl::cli::Run(
      MakeFlags({"apply", "--in=" + train_path, "--model=" + model_path,
                 "--out=" + out_path}),
      &output);
  EXPECT_TRUE(status.ok()) << status.ToString();
  for (const std::string& path :
       {train_path, model_path, batch_path, out_path}) {
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace smfl::core
