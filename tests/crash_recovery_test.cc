// Crash-recovery harness for durable checkpointing (docs/robustness.md):
//
//  * kill-mid-fit: forks the real `smfl` binary, SIGKILLs it right after a
//    checkpoint write (SMFL_CRASH_AFTER_CHECKPOINTS), resumes with
//    `--resume`, and asserts the final model file is byte-for-byte
//    identical to an uninterrupted run — across seeds and thread counts —
//    and that the killed run's checkpoint resumes in process to the
//    uninterrupted U (the model file holds only mean(U)),
//  * corrupt-generation fallback: a flipped byte in the newest checkpoint
//    falls back to the previous generation and still reaches the
//    bitwise-identical model,
//  * corruption matrix: one flipped byte in EVERY section of a checkpoint
//    container is a clean DataError (CRC mismatch), never a wrong resume,
//  * checkpoint serialize/deserialize round-trips exactly (hex-encoded
//    IEEE-754 bit patterns, including denormals),
//  * rotation keeps `keep` generations; LoadLatest skips corrupt ones,
//  * the io.write.torn / io.write.fsync_fail / io.read.partial fault
//    points behave as the durability contract promises.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/durable_io.h"
#include "src/common/fault.h"
#include "src/common/logging.h"
#include "src/core/checkpoint.h"
#include "src/core/model_io.h"
#include "src/core/smfl.h"
#include "src/data/csv.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"

namespace smfl::core {
namespace {

namespace fs = std::filesystem;
using data::Mask;
using la::Index;
using la::Matrix;

// ------------------------------------------------------------------ driver

struct RunResult {
  int exit_code = -1;   // valid when !killed
  bool killed = false;  // terminated by SIGKILL
};

// Forks and execs the real CLI binary (path baked in by CMake). With
// crash_after > 0 the child SIGKILLs itself right after that many durable
// checkpoint writes — a real process death at a known recovery point.
RunResult RunSmfl(const std::vector<std::string>& args, int crash_after = 0) {
  std::vector<std::string> full;
  full.emplace_back(SMFL_BIN_PATH);
  full.insert(full.end(), args.begin(), args.end());
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (crash_after > 0) {
      ::setenv("SMFL_CRASH_AFTER_CHECKPOINTS",
               std::to_string(crash_after).c_str(), 1);
    } else {
      ::unsetenv("SMFL_CRASH_AFTER_CHECKPOINTS");
    }
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
      ::close(null_fd);
    }
    std::vector<char*> argv;
    argv.reserve(full.size() + 1);
    for (std::string& a : full) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  RunResult result;
  int status = 0;
  if (pid < 0 || ::waitpid(pid, &status, 0) != pid) return result;
  if (WIFSIGNALED(status)) {
    result.killed = WTERMSIG(status) == SIGKILL;
  } else if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  }
  return result;
}

// Same shape and the same bits in every entry.
void ExpectSameMatrix(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           sizeof(double) * static_cast<size_t>(a.size())))
      << what;
}

// ----------------------------------------------------------------- fixture

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("smfl_crash_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()
                     ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  std::string Path(const std::string& rel) const {
    return (root_ / rel).string();
  }

  // Deterministic small training CSV: 2 spatial + attribute columns with
  // ~10% of attribute cells missing.
  std::string MakeTrainingCsv(uint64_t seed = 5) {
    auto dataset = data::MakeLakeLike(60, seed);
    SMFL_CHECK(dataset.ok());
    data::MissingInjectionOptions inject;
    inject.missing_rate = 0.1;
    inject.seed = seed + 1;
    auto injection = data::InjectMissing(dataset->table, inject);
    SMFL_CHECK(injection.ok());
    const std::string path = Path("train.csv");
    SMFL_CHECK(data::WriteCsv(path, dataset->table, injection->observed).ok());
    return path;
  }

  static std::vector<std::string> FitArgs(const std::string& csv,
                                          const std::string& model,
                                          uint64_t seed, int threads) {
    return {"fit",
            "--in=" + csv,
            "--model=" + model,
            "--rank=4",
            "--neighbors=3",
            "--seed=" + std::to_string(seed),
            "--threads=" + std::to_string(threads)};
  }

  // `smfl fit`'s fit of FitArgs(csv, ..., seed, threads), in process: the
  // same CSV, normalization and options.
  struct InProcessFit {
    data::CsvTable csv;
    std::optional<data::MinMaxNormalizer> normalizer;
    Matrix x;
    SmflOptions options;
  };
  static InProcessFit CliFit(const std::string& csv, uint64_t seed,
                             int threads) {
    InProcessFit fit;
    data::CsvReadOptions read_options;
    read_options.spatial_cols = 2;
    auto table = data::ReadCsv(csv, read_options);
    SMFL_CHECK(table.ok());
    fit.csv = std::move(table).value();
    auto normalizer = data::MinMaxNormalizer::Fit(fit.csv.table.values(),
                                                  fit.csv.observed);
    SMFL_CHECK(normalizer.ok());
    fit.normalizer = std::move(normalizer).value();
    fit.x = data::ApplyMask(fit.normalizer->Transform(fit.csv.table.values()),
                            fit.csv.observed);
    fit.options.rank = 4;
    fit.options.num_neighbors = 3;
    fit.options.seed = seed;
    fit.options.threads = threads;
    return fit;
  }

  static std::string FileBytes(const std::string& path) {
    auto content = ReadFileToString(path);
    SMFL_CHECK(content.ok());
    return std::move(content).value();
  }

  static void FlipByteInFile(const std::string& path, size_t index) {
    std::string bytes = FileBytes(path);
    SMFL_CHECK(index < bytes.size());
    bytes[index] = static_cast<char>(bytes[index] ^ 0x01);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    SMFL_CHECK(out.is_open());
    out << bytes;
  }

  static std::vector<std::string> CheckpointFiles(const std::string& dir) {
    std::vector<std::string> files;
    for (const auto& entry : fs::directory_iterator(dir)) {
      files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
  }

  fs::path root_;
};

// ----------------------------------------------- kill-mid-fit acceptance

TEST_F(CrashRecoveryTest, ResumeIsBitwiseIdenticalAcrossSeedsAndThreads) {
  const std::string csv = MakeTrainingCsv();
  for (const uint64_t seed : {7ULL, 23ULL, 101ULL}) {
    for (const int threads : {1, 4}) {
      const std::string tag =
          "s" + std::to_string(seed) + "_t" + std::to_string(threads);
      const std::string baseline_model = Path("baseline_" + tag + ".model");
      const std::string crashed_model = Path("crashed_" + tag + ".model");
      const std::string ckpt_dir = Path("ckpt_" + tag);

      // Uninterrupted reference run (no checkpointing involved).
      RunResult baseline =
          RunSmfl(FitArgs(csv, baseline_model, seed, threads));
      ASSERT_FALSE(baseline.killed) << tag;
      ASSERT_EQ(baseline.exit_code, 0) << tag;

      // Same fit, SIGKILLed right after the first checkpoint write: the
      // process dies mid-training and never writes a model file.
      auto crash_args = FitArgs(csv, crashed_model, seed, threads);
      crash_args.push_back("--checkpoint-dir=" + ckpt_dir);
      crash_args.push_back("--checkpoint-every=3");
      RunResult crashed = RunSmfl(crash_args, /*crash_after=*/1);
      ASSERT_TRUE(crashed.killed) << tag;
      ASSERT_FALSE(fs::exists(crashed_model)) << tag;
      ASSERT_FALSE(CheckpointFiles(ckpt_dir).empty()) << tag;

      // The model file holds mean(U), not U, so U is compared in process:
      // the killed process's checkpoint resumes to the uninterrupted U,
      // bit for bit. The in-process fit is the CLI's own (same bytes).
      InProcessFit fit = CliFit(csv, seed, threads);
      auto uninterrupted =
          FitSmfl(fit.x, fit.csv.observed, 2, fit.options);
      ASSERT_TRUE(uninterrupted.ok()) << tag;
      SmflModel served = *uninterrupted;
      served.normalizer = fit.normalizer;
      served.column_names = fit.csv.table.column_names();
      ASSERT_EQ(SerializeModel(served), FileBytes(baseline_model)) << tag;
      CheckpointConfig config;
      config.dir = ckpt_dir;
      auto checkpoint = CheckpointManager(config).LoadLatest();
      ASSERT_TRUE(checkpoint.ok()) << tag << checkpoint.status().ToString();
      fit.options.resume_from = &*checkpoint;
      auto resumed_in_process =
          FitSmfl(fit.x, fit.csv.observed, 2, fit.options);
      ASSERT_TRUE(resumed_in_process.ok()) << tag;
      ExpectSameMatrix(resumed_in_process->u, uninterrupted->u, "U");
      ExpectSameMatrix(resumed_in_process->v, uninterrupted->v, "V");

      // Resume replays the exact trajectory the uninterrupted run took.
      auto resume_args = crash_args;
      resume_args.push_back("--resume");
      RunResult resumed = RunSmfl(resume_args);
      ASSERT_FALSE(resumed.killed) << tag;
      ASSERT_EQ(resumed.exit_code, 0) << tag;
      EXPECT_EQ(FileBytes(crashed_model), FileBytes(baseline_model))
          << "resumed model differs from the uninterrupted run (" << tag
          << ")";
    }
  }
}

TEST_F(CrashRecoveryTest, CorruptNewestGenerationFallsBackToPrevious) {
  const std::string csv = MakeTrainingCsv();
  const uint64_t seed = 23;
  const std::string baseline_model = Path("baseline.model");
  const std::string crashed_model = Path("crashed.model");
  const std::string ckpt_dir = Path("ckpt");

  RunResult baseline = RunSmfl(FitArgs(csv, baseline_model, seed, 1));
  ASSERT_EQ(baseline.exit_code, 0);

  // Crash after TWO checkpoint writes so two generations exist on disk.
  auto crash_args = FitArgs(csv, crashed_model, seed, 1);
  crash_args.push_back("--checkpoint-dir=" + ckpt_dir);
  crash_args.push_back("--checkpoint-every=3");
  RunResult crashed = RunSmfl(crash_args, /*crash_after=*/2);
  ASSERT_TRUE(crashed.killed);
  auto generations = CheckpointFiles(ckpt_dir);
  ASSERT_EQ(generations.size(), 2u);

  // One flipped byte in the NEWEST generation: resume must detect it via
  // CRC, fall back to the older generation, and still reach the exact
  // final model (just replaying a few more iterations).
  const std::string& newest = generations.back();
  FlipByteInFile(newest, FileBytes(newest).size() / 2);

  auto resume_args = crash_args;
  resume_args.push_back("--resume");
  RunResult resumed = RunSmfl(resume_args);
  ASSERT_EQ(resumed.exit_code, 0);
  EXPECT_EQ(FileBytes(crashed_model), FileBytes(baseline_model));
}

TEST_F(CrashRecoveryTest, ResumeAgainstChangedOptionsIsRefused) {
  const std::string csv = MakeTrainingCsv();
  const std::string model = Path("m.model");
  const std::string ckpt_dir = Path("ckpt");

  auto crash_args = FitArgs(csv, model, 23, 1);
  crash_args.push_back("--checkpoint-dir=" + ckpt_dir);
  crash_args.push_back("--checkpoint-every=3");
  RunResult crashed = RunSmfl(crash_args, /*crash_after=*/1);
  ASSERT_TRUE(crashed.killed);

  // A different lambda changes the trajectory: the options fingerprint in
  // the checkpoint no longer matches and the resume must refuse rather
  // than produce a model that matches neither configuration.
  auto resume_args = FitArgs(csv, model, 23, 1);
  resume_args.push_back("--checkpoint-dir=" + ckpt_dir);
  resume_args.push_back("--checkpoint-every=3");
  resume_args.push_back("--lambda=0.9");
  resume_args.push_back("--resume");
  RunResult resumed = RunSmfl(resume_args);
  ASSERT_FALSE(resumed.killed);
  EXPECT_NE(resumed.exit_code, 0);
  EXPECT_FALSE(fs::exists(model));
}

// ------------------------------------------------ checkpoint round-trip

// A checkpoint with every field populated, including values decimal text
// would mangle: denormals, negative zero-adjacent magnitudes, irrationals.
FitCheckpoint MakeSyntheticCheckpoint() {
  FitCheckpoint cp;
  cp.seed = 0xdeadbeefcafeULL;
  cp.input_fingerprint = Fnv1a64("input-bytes");
  cp.options_fingerprint = Fnv1a64("options-bytes");
  cp.attempt = 2;
  cp.iteration = 17;
  cp.div_eps = 3.0e-12;
  cp.u = Matrix(3, 2);
  cp.v = Matrix(2, 4);
  cp.landmarks = Matrix(2, 2);
  for (Index i = 0; i < cp.u.rows(); ++i) {
    for (Index j = 0; j < cp.u.cols(); ++j) {
      cp.u(i, j) = 1.4142135623730951 * static_cast<double>(i + 1) -
                   static_cast<double>(j) / 3.0;
    }
  }
  cp.u(2, 1) = -0.0;
  for (Index i = 0; i < cp.v.rows(); ++i) {
    for (Index j = 0; j < cp.v.cols(); ++j) {
      cp.v(i, j) = 0.3333333333333333 * static_cast<double>(j + 1) +
                   static_cast<double>(i);
    }
  }
  cp.landmarks(0, 0) = 5e-324;  // smallest denormal
  cp.landmarks(0, 1) = -2.718281828459045;
  cp.landmarks(1, 0) = 1e300;
  cp.landmarks(1, 1) = 0.1;
  cp.spatial_cols = 2;
  cp.objective_trace = {9.5, 1.0 / 3.0, 0.1};
  cp.guard.div_eps = 1e-12;
  cp.guard.prev_objective = 0.25;
  cp.guard.checkpoint_objective = 0.5;
  cp.guard.checkpoint_iteration = 11;
  cp.guard.have_checkpoint = true;
  cp.guard.rebaseline = true;
  cp.guard.rollbacks = 3;
  cp.guard.recovery_attempts = 2;
  cp.guard.rng.s[0] = 0x0123456789abcdefULL;
  cp.guard.rng.s[1] = 0xfedcba9876543210ULL;
  cp.guard.rng.s[2] = 42;
  cp.guard.rng.s[3] = 7;
  cp.guard.rng.have_cached_normal = true;
  cp.guard.rng.cached_normal_bits = 0x3ff0000000000000ULL;
  cp.guard.checkpoint_u = cp.u;
  cp.guard.checkpoint_v = cp.v;
  auto normalizer = data::MinMaxNormalizer::FromBounds(
      {0.0, -1.5, 2.0, 3.0}, {1.0, 2.5, 7.0, 4.0});
  SMFL_CHECK(normalizer.ok());
  cp.normalizer = std::move(normalizer).value();
  return cp;
}

TEST(CheckpointSerializationTest, RoundTripIsExact) {
  const FitCheckpoint cp = MakeSyntheticCheckpoint();
  auto restored = DeserializeCheckpoint(SerializeCheckpoint(cp));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->seed, cp.seed);
  EXPECT_EQ(restored->input_fingerprint, cp.input_fingerprint);
  EXPECT_EQ(restored->options_fingerprint, cp.options_fingerprint);
  EXPECT_EQ(restored->attempt, cp.attempt);
  EXPECT_EQ(restored->iteration, cp.iteration);
  EXPECT_EQ(restored->div_eps, cp.div_eps);
  EXPECT_EQ(restored->spatial_cols, cp.spatial_cols);
  ExpectSameMatrix(restored->u, cp.u, "u");
  EXPECT_TRUE(std::signbit(restored->u(2, 1)));
  ExpectSameMatrix(restored->v, cp.v, "v");
  ExpectSameMatrix(restored->landmarks, cp.landmarks, "landmarks");
  ASSERT_EQ(restored->objective_trace.size(), cp.objective_trace.size());
  for (size_t i = 0; i < cp.objective_trace.size(); ++i) {
    EXPECT_EQ(restored->objective_trace[i], cp.objective_trace[i]) << i;
  }
  EXPECT_EQ(restored->guard.div_eps, cp.guard.div_eps);
  EXPECT_EQ(restored->guard.prev_objective, cp.guard.prev_objective);
  EXPECT_EQ(restored->guard.checkpoint_objective,
            cp.guard.checkpoint_objective);
  EXPECT_EQ(restored->guard.checkpoint_iteration,
            cp.guard.checkpoint_iteration);
  EXPECT_EQ(restored->guard.have_checkpoint, cp.guard.have_checkpoint);
  EXPECT_EQ(restored->guard.rebaseline, cp.guard.rebaseline);
  EXPECT_EQ(restored->guard.rollbacks, cp.guard.rollbacks);
  EXPECT_EQ(restored->guard.recovery_attempts, cp.guard.recovery_attempts);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(restored->guard.rng.s[i], cp.guard.rng.s[i]) << i;
  }
  EXPECT_EQ(restored->guard.rng.have_cached_normal,
            cp.guard.rng.have_cached_normal);
  EXPECT_EQ(restored->guard.rng.cached_normal_bits,
            cp.guard.rng.cached_normal_bits);
  ExpectSameMatrix(restored->guard.checkpoint_u, cp.guard.checkpoint_u,
                   "guard_u");
  ExpectSameMatrix(restored->guard.checkpoint_v, cp.guard.checkpoint_v,
                   "guard_v");
  ASSERT_TRUE(restored->normalizer.has_value());
  ASSERT_EQ(restored->normalizer->NumCols(), cp.normalizer->NumCols());
  for (Index j = 0; j < cp.normalizer->NumCols(); ++j) {
    EXPECT_EQ(restored->normalizer->ColMin(j), cp.normalizer->ColMin(j));
    EXPECT_EQ(restored->normalizer->ColMax(j), cp.normalizer->ColMax(j));
  }
}

// ------------------------------------------------- corruption matrix

// Payload byte ranges of each section in a durable container, computed by
// walking the same framing ParseSections reads.
struct SectionSpan {
  std::string name;
  size_t begin = 0;
  size_t length = 0;
};

std::vector<SectionSpan> WalkSectionSpans(const std::string& content) {
  std::vector<SectionSpan> spans;
  size_t pos = content.find('\n');
  SMFL_CHECK(pos != std::string::npos);
  std::istringstream header(content.substr(0, pos));
  std::string magic;
  int version = -1;
  long long count = -1;
  SMFL_CHECK(static_cast<bool>(header >> magic >> version >> count));
  ++pos;
  for (long long i = 0; i < count; ++i) {
    const size_t line_end = content.find('\n', pos);
    SMFL_CHECK(line_end != std::string::npos);
    std::istringstream line(content.substr(pos, line_end - pos));
    std::string tag, name, crc;
    long long length = -1;
    SMFL_CHECK(static_cast<bool>(line >> tag >> name >> length >> crc));
    spans.push_back(SectionSpan{name, line_end + 1,
                                static_cast<size_t>(length)});
    pos = line_end + 1 + static_cast<size_t>(length) + 1;
  }
  return spans;
}

TEST(CheckpointSerializationTest, FlippedByteInEverySectionIsADataError) {
  const std::string bytes = SerializeCheckpoint(MakeSyntheticCheckpoint());
  const auto spans = WalkSectionSpans(bytes);
  ASSERT_EQ(spans.size(), 11u);
  for (const SectionSpan& span : spans) {
    if (span.name == "best_model") continue;  // always empty: no byte to flip
    ASSERT_GT(span.length, 0u) << span.name;
    std::string corrupt = bytes;
    const size_t index = span.begin + span.length / 2;
    corrupt[index] = static_cast<char>(corrupt[index] ^ 0x01);
    auto result = DeserializeCheckpoint(corrupt);
    ASSERT_FALSE(result.ok()) << "section '" << span.name
                              << "' corruption went undetected";
    EXPECT_EQ(result.status().code(), StatusCode::kDataError) << span.name;
    EXPECT_NE(result.status().message().find("checksum mismatch"),
              std::string::npos)
        << span.name << ": " << result.status().message();
  }
  // A flipped byte in a section HEADER (not payload) is caught by the
  // framing instead of the checksum — still a clean DataError.
  std::string corrupt_header = bytes;
  const size_t header_byte = bytes.find('\n') + 1;
  corrupt_header[header_byte] =
      static_cast<char>(corrupt_header[header_byte] ^ 0x01);
  auto result = DeserializeCheckpoint(corrupt_header);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataError);
}

// Format v2 keeps the fields of the restart loop the fit no longer runs at
// fixed values: restart 0, retries_used equal to the attempt, no
// best-so-far model and a 0x0 U for it. Anything else came from a
// multi-restart fit, whose best model a resume would drop, so it is
// refused — with valid checksums, as that fit wrote it.
TEST(CheckpointSerializationTest, MultiRestartFieldsAreRefused) {
  const std::string bytes = SerializeCheckpoint(MakeSyntheticCheckpoint());
  ASSERT_TRUE(DeserializeCheckpoint(bytes).ok());
  auto sections = ParseSections(bytes);
  ASSERT_TRUE(sections.ok()) << sections.status().ToString();
  const auto rewrite = [&](const std::string& name, const std::string& from,
                           const std::string& to) {
    SectionWriter writer;
    for (const Section& section : *sections) {
      std::string payload = section.payload;
      if (section.name == name) {
        const size_t at = payload.find(from);
        SMFL_CHECK(at != std::string::npos);
        payload.replace(at, from.size(), to);
      }
      writer.Add(section.name, payload);
    }
    return writer.Finish();
  };
  const std::string variants[] = {
      rewrite("meta", "restart 0\n", "restart 1\n"),
      rewrite("meta", "attempt 2\n", "attempt 1\n"),  // retries_used 2
      rewrite("best_model", "", "opaque best-model bytes\n"),
      rewrite("best_u", "0 0\n", "1 1\n3ff0000000000000\n"),
  };
  for (const std::string& variant : variants) {
    auto result = DeserializeCheckpoint(variant);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataError);
    EXPECT_NE(result.status().message().find("multi-restart fit"),
              std::string::npos)
        << result.status().message();
  }
}

// ------------------------------------------- manager rotation / fallback

class CheckpointManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) /
            ("smfl_ckpt_mgr_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()
                     ->name())))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  CheckpointConfig Config(int every, int keep) const {
    CheckpointConfig config;
    config.dir = dir_;
    config.every = every;
    config.keep = keep;
    return config;
  }

  std::string dir_;
};

TEST_F(CheckpointManagerTest, ShouldCheckpointFollowsCadence) {
  CheckpointManager manager(Config(/*every=*/5, /*keep=*/3));
  EXPECT_FALSE(manager.ShouldCheckpoint(0));
  EXPECT_TRUE(manager.ShouldCheckpoint(4));
  EXPECT_FALSE(manager.ShouldCheckpoint(5));
  EXPECT_TRUE(manager.ShouldCheckpoint(9));
  CheckpointManager disabled(Config(/*every=*/0, /*keep=*/3));
  EXPECT_FALSE(disabled.ShouldCheckpoint(4));
}

TEST_F(CheckpointManagerTest, RotationKeepsNewestGenerations) {
  CheckpointManager manager(Config(/*every=*/1, /*keep=*/2));
  FitCheckpoint cp = MakeSyntheticCheckpoint();
  for (int i = 0; i < 4; ++i) {
    cp.iteration = i;
    ASSERT_TRUE(manager.Save(cp).ok()) << i;
  }
  EXPECT_EQ(manager.writes(), 4);
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    files.push_back(entry.path().filename().string());
  }
  std::sort(files.begin(), files.end());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "checkpoint-00000002.smfl");
  EXPECT_EQ(files[1], "checkpoint-00000003.smfl");
  auto latest = manager.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->iteration, 3);
}

TEST_F(CheckpointManagerTest, LoadSkipsCorruptGenerations) {
  CheckpointManager manager(Config(/*every=*/1, /*keep=*/3));
  FitCheckpoint cp = MakeSyntheticCheckpoint();
  cp.iteration = 0;
  ASSERT_TRUE(manager.Save(cp).ok());
  cp.iteration = 1;
  ASSERT_TRUE(manager.Save(cp).ok());

  const std::string newest = dir_ + "/checkpoint-00000001.smfl";
  auto bytes = ReadFileToString(newest);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = std::move(bytes).value();
  corrupted[corrupted.size() / 2] =
      static_cast<char>(corrupted[corrupted.size() / 2] ^ 0x01);
  {
    std::ofstream out(newest, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out << corrupted;
  }
  auto latest = manager.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->iteration, 0);  // fell back to the older generation

  // With every generation corrupt, the failure is surfaced (DataError),
  // not a silent fresh start.
  const std::string oldest = dir_ + "/checkpoint-00000000.smfl";
  {
    std::ofstream out(oldest, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out << "smfl-durable garbage";
  }
  auto all_corrupt = manager.LoadLatest();
  ASSERT_FALSE(all_corrupt.ok());
  EXPECT_EQ(all_corrupt.status().code(), StatusCode::kDataError);
}

TEST_F(CheckpointManagerTest, EmptyDirectoryIsNotFound) {
  CheckpointManager manager(Config(/*every=*/1, /*keep=*/3));
  auto latest = manager.LoadLatest();
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kNotFound);
}

TEST_F(CheckpointManagerTest, NumberingContinuesAfterLoadedGeneration) {
  {
    CheckpointManager writer(Config(/*every=*/1, /*keep=*/5));
    FitCheckpoint cp = MakeSyntheticCheckpoint();
    cp.iteration = 0;
    ASSERT_TRUE(writer.Save(cp).ok());
    cp.iteration = 1;
    ASSERT_TRUE(writer.Save(cp).ok());
  }
  // A fresh manager (a resumed process) must not renumber from zero and
  // clobber the generations the crashed process left behind.
  CheckpointManager resumed(Config(/*every=*/1, /*keep=*/5));
  auto latest = resumed.LoadLatest();
  ASSERT_TRUE(latest.ok());
  FitCheckpoint cp = std::move(latest).value();
  cp.iteration = 2;
  ASSERT_TRUE(resumed.Save(cp).ok());
  EXPECT_TRUE(fs::exists(dir_ + "/checkpoint-00000002.smfl"));
}

// ------------------------------------------------------ fault injection

TEST_F(CheckpointManagerTest, TornWriteIsSkippedAtLoad) {
  CheckpointManager manager(Config(/*every=*/1, /*keep=*/3));
  FitCheckpoint cp = MakeSyntheticCheckpoint();
  cp.iteration = 0;
  ASSERT_TRUE(manager.Save(cp).ok());
  {
    // The torn-write fault persists half the content and lets the rename
    // go through — the kernel-reordering crash window. The write call
    // itself cannot see it...
    ScopedFault fault("io.write.torn");
    cp.iteration = 1;
    ASSERT_TRUE(manager.Save(cp).ok());
  }
  // ...so detection falls to the reader: CRCs catch the torn generation
  // and the load falls back to the intact one.
  auto latest = manager.LoadLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest->iteration, 0);
}

TEST_F(CheckpointManagerTest, FsyncFailureIsAnIoErrorAndLeavesNoFile) {
  const std::string path = dir_ + "/out.bin";
  fs::create_directories(dir_);
  ScopedFault fault("io.write.fsync_fail");
  Status st = WriteFileDurable(path, "payload");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // Neither the final path nor the temp file may survive a failed write.
  EXPECT_TRUE(fs::is_empty(dir_));
}

TEST_F(CheckpointManagerTest, PartialReadIsDetected) {
  CheckpointManager manager(Config(/*every=*/1, /*keep=*/3));
  FitCheckpoint cp = MakeSyntheticCheckpoint();
  ASSERT_TRUE(manager.Save(cp).ok());
  ScopedFault fault("io.read.partial");
  auto latest = manager.LoadLatest();
  ASSERT_FALSE(latest.ok());
  EXPECT_EQ(latest.status().code(), StatusCode::kDataError);
}

}  // namespace
}  // namespace smfl::core
