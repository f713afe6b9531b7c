// Tests for tools/smfl_lint: one positive and one suppressed fixture per
// rule (R1-R13), plus lexer, parsing-layer (parse.h), include-graph
// (graph.h), baseline/SARIF/--fix plumbing, and suppression-validation
// coverage. Fixtures are written into a temp directory shaped like the
// repo (src/...), so include resolution and per-path rule scoping are
// exercised exactly as in production runs.

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/smfl_lint/graph.h"
#include "tools/smfl_lint/lint.h"
#include "tools/smfl_lint/parse.h"

namespace smfl::lint {
namespace {

namespace fs = std::filesystem;

class LintTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) /
            ("smfl_lint_" +
             std::string(
                 ::testing::UnitTest::GetInstance()->current_test_info()
                     ->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  void WriteFile(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    ASSERT_TRUE(out.is_open()) << p;
    out << content;
  }

  LintResult Run() { return Run(LintOptions{}); }

  // The semantic passes are opt-in; tests for them pass options with
  // graph_pass / race_pass / baseline_path set (repo_root is overridden).
  LintResult Run(LintOptions options) {
    options.repo_root = root_.string();
    LintResult result;
    std::string error;
    EXPECT_TRUE(RunLint(options, &result, &error)) << error;
    return result;
  }

  std::string ReadFile(const std::string& rel) {
    std::ifstream in(root_ / rel, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static std::vector<std::string> Rules(const std::vector<Diagnostic>& ds) {
    std::vector<std::string> out;
    for (const auto& d : ds) out.push_back(d.rule);
    return out;
  }

  fs::path root_;
};

// --------------------------------------------------------------------------
// Lexer

TEST(LexerTest, FloatLiteralClassification) {
  EXPECT_TRUE(IsFloatLiteral("0.0"));
  EXPECT_TRUE(IsFloatLiteral("1.5e-3"));
  EXPECT_TRUE(IsFloatLiteral("2e6"));
  EXPECT_TRUE(IsFloatLiteral("1.f"));
  EXPECT_TRUE(IsFloatLiteral(".25"));
  EXPECT_FALSE(IsFloatLiteral("0"));
  EXPECT_FALSE(IsFloatLiteral("42"));
  EXPECT_FALSE(IsFloatLiteral("0x1F"));
  EXPECT_FALSE(IsFloatLiteral("100ul"));
}

TEST(LexerTest, CommentsAndStringsAreNotCode) {
  const LexedFile f = Lex("src/a.cc",
                          "// std::thread in a comment\n"
                          "const char* s = \"std::thread\";\n"
                          "/* rand() */ int x = 1;\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "thread");
    EXPECT_NE(t.text, "rand");
  }
}

TEST(LexerTest, SuppressionParsing) {
  const LexedFile f = Lex("src/a.cc",
                          "int a = 1;\n"
                          "// smfl-lint: allow(float-eq) masks are 0/1\n"
                          "int b = 2;  // smfl-lint: allow(nondet,thread) ok\n");
  ASSERT_EQ(f.suppressions.size(), 2u);
  EXPECT_TRUE(f.suppressions[0].own_line);
  EXPECT_EQ(f.suppressions[0].line, 2);
  EXPECT_TRUE(f.suppressions[0].rules.count("float-eq"));
  EXPECT_EQ(f.suppressions[0].reason, "masks are 0/1");
  EXPECT_FALSE(f.suppressions[1].own_line);
  EXPECT_TRUE(f.suppressions[1].rules.count("nondet"));
  EXPECT_TRUE(f.suppressions[1].rules.count("thread"));
}

// --------------------------------------------------------------------------
// R1: thread

TEST_F(LintTest, ThreadPositive) {
  WriteFile("src/core/worker.cc",
            "#include <thread>\n"
            "void Go() { std::thread t([] {}); t.join(); }\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "thread");
  EXPECT_EQ(r.violations[0].line, 2);
}

TEST_F(LintTest, ThreadSuppressed) {
  WriteFile("src/core/worker.cc",
            "// smfl-lint: allow(thread) bounded helper, joins immediately\n"
            "void Go() { std::thread t([] {}); t.join(); }\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "thread");
}

TEST_F(LintTest, ThreadAllowedInParallelLayer) {
  WriteFile("src/common/parallel.cc",
            "void Pool() { std::thread t([] {}); t.join(); }\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, ThreadFlagsOpenMp) {
  WriteFile("src/la/fast.cc",
            "#pragma omp parallel for\n"
            "void F() {}\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "thread");
}

// --------------------------------------------------------------------------
// R2: nondet

TEST_F(LintTest, NondetPositive) {
  WriteFile("src/data/sampler.cc",
            "#include <random>\n"
            "int Seed() { std::random_device rd; return (int)rd(); }\n"
            "int Now() { return (int)time(nullptr); }\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 2u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "nondet");
  EXPECT_EQ(r.violations[1].rule, "nondet");
}

TEST_F(LintTest, NondetSuppressed) {
  WriteFile("src/data/sampler.cc",
            "int Now() {\n"
            "  // smfl-lint: allow(nondet) cache-busting token, not numerics\n"
            "  return (int)time(nullptr);\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "nondet");
}

TEST_F(LintTest, NondetAllowedInRng) {
  WriteFile("src/common/rng.cc",
            "unsigned Fallback() { std::random_device rd; return rd(); }\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, NondetIgnoresMemberTime) {
  WriteFile("src/data/sampler.cc",
            "double F(const Stopwatch& sw) { return sw.time(); }\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R3: unordered-iter

TEST_F(LintTest, UnorderedIterPositive) {
  WriteFile("src/core/agg.cc",
            "#include <unordered_map>\n"
            "double Sum(const std::unordered_map<int, double>& cells) {\n"
            "  double s = 0.0;\n"
            "  for (const auto& kv : cells) s += kv.second;\n"
            "  return s;\n"
            "}\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "unordered-iter");
  EXPECT_EQ(r.violations[0].line, 4);
}

TEST_F(LintTest, UnorderedIterSuppressed) {
  WriteFile("src/core/agg.cc",
            "#include <unordered_map>\n"
            "int Count(const std::unordered_map<int, double>& cells) {\n"
            "  int n = 0;\n"
            "  // smfl-lint: allow(unordered-iter) counting is order-free\n"
            "  for (const auto& kv : cells) n += kv.second > 0;\n"
            "  return n;\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "unordered-iter");
}

TEST_F(LintTest, UnorderedLookupIsFine) {
  WriteFile("src/core/agg.cc",
            "#include <unordered_map>\n"
            "double Get(const std::unordered_map<int, double>& m, int k) {\n"
            "  auto it = m.find(k);\n"
            "  return it == m.end() ? 0.0 : it->second;\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, UnorderedIterOnlyInNumericDirs) {
  // Same iteration in src/data is outside the rule's scope.
  WriteFile("src/data/agg.cc",
            "#include <unordered_map>\n"
            "double Sum(const std::unordered_map<int, double>& cells) {\n"
            "  double s = 0.0;\n"
            "  for (const auto& kv : cells) s += kv.second;\n"
            "  return s;\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, UnorderedIterSeesThroughAlias) {
  WriteFile("src/mf/groups.cc",
            "#include <unordered_map>\n"
            "using GroupMap = std::unordered_map<int, double>;\n"
            "double Sum(const GroupMap& g) {\n"
            "  double s = 0.0;\n"
            "  for (const auto& kv : g) s += kv.second;\n"
            "  return s;\n"
            "}\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "unordered-iter");
}

// --------------------------------------------------------------------------
// R4: discard-status

TEST_F(LintTest, DiscardStatusPositive) {
  WriteFile("src/core/io.h",
            "#ifndef SMFL_CORE_IO_H_\n"
            "#define SMFL_CORE_IO_H_\n"
            "Status SaveThing(const char* path);\n"
            "#endif\n");
  WriteFile("src/core/use.cc",
            "#include \"src/core/io.h\"\n"
            "void Checkpoint() {\n"
            "  SaveThing(\"/tmp/x\");\n"
            "}\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "discard-status");
  EXPECT_EQ(r.violations[0].rel_path, "src/core/use.cc");
  EXPECT_EQ(r.violations[0].line, 3);
}

TEST_F(LintTest, DiscardStatusVoidCast) {
  WriteFile("src/core/io.h",
            "#ifndef SMFL_CORE_IO_H_\n"
            "#define SMFL_CORE_IO_H_\n"
            "Status SaveThing(const char* path);\n"
            "#endif\n");
  WriteFile("src/core/use.cc",
            "#include \"src/core/io.h\"\n"
            "void A() { (void)SaveThing(\"/tmp/x\"); }\n"
            "void B() { static_cast<void>(SaveThing(\"/tmp/y\")); }\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 2u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "discard-status");
  EXPECT_EQ(r.violations[1].rule, "discard-status");
}

TEST_F(LintTest, DiscardStatusSuppressed) {
  WriteFile("src/core/io.h",
            "#ifndef SMFL_CORE_IO_H_\n"
            "#define SMFL_CORE_IO_H_\n"
            "Status SaveThing(const char* path);\n"
            "#endif\n");
  WriteFile("src/core/use.cc",
            "#include \"src/core/io.h\"\n"
            "void Shutdown() {\n"
            "  // smfl-lint: allow(discard-status) best-effort final flush\n"
            "  SaveThing(\"/tmp/x\");\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "discard-status");
}

TEST_F(LintTest, DiscardStatusConsumedIsFine) {
  WriteFile("src/core/io.h",
            "#ifndef SMFL_CORE_IO_H_\n"
            "#define SMFL_CORE_IO_H_\n"
            "Status SaveThing(const char* path);\n"
            "Result<int> LoadThing(const char* path);\n"
            "#endif\n");
  WriteFile("src/core/use.cc",
            "#include \"src/core/io.h\"\n"
            "Status Checkpoint() {\n"
            "  Status st = SaveThing(\"/tmp/x\");\n"
            "  if (!st.ok()) return st;\n"
            "  RETURN_NOT_OK(SaveThing(\"/tmp/y\"));\n"
            "  auto loaded = cond ? LoadThing(\"/a\") : LoadThing(\"/b\");\n"
            "  return loaded.status();\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R5: float-eq

TEST_F(LintTest, FloatEqPositive) {
  WriteFile("src/la/norm.cc",
            "bool IsZero(double x) { return x == 0.0; }\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "float-eq");
}

TEST_F(LintTest, FloatEqSuppressed) {
  WriteFile("src/la/norm.cc",
            "bool IsZero(double x) {\n"
            "  // smfl-lint: allow(float-eq) exact-zero guard for division\n"
            "  return x == 0.0;\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "float-eq");
}

TEST_F(LintTest, FloatEqSkipsTestsAndIntegers) {
  WriteFile("tests/norm_test.cc",
            "bool T() { return 1.0 == Norm(); }\n");
  WriteFile("src/la/count.cc",
            "bool Empty(int n) { return n == 0; }\n");
  LintOptions options;
  options.repo_root = root_.string();
  options.roots = {"src", "tests"};
  LintResult r;
  std::string error;
  ASSERT_TRUE(RunLint(options, &r, &error)) << error;
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R6: raw-log

TEST_F(LintTest, RawLogPositive) {
  WriteFile("src/exp/report.cc",
            "#include <iostream>\n"
            "void Warn() { std::cerr << \"bad\\n\"; }\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "raw-log");
  EXPECT_EQ(r.violations[0].line, 2);
}

TEST_F(LintTest, RawLogSuppressed) {
  WriteFile("src/exp/report.cc",
            "#include <iostream>\n"
            "void Warn() {\n"
            "  // smfl-lint: allow(raw-log) crash path; logger may be gone\n"
            "  std::cerr << \"bad\\n\";\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "raw-log");
}

TEST_F(LintTest, RawLogAllowedInLoggingImpl) {
  WriteFile("src/common/logging.cc",
            "#include <iostream>\n"
            "void Emit(const char* m) { std::cerr << m; }\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R7: raw-file-write

TEST_F(LintTest, RawFileWritePositive) {
  WriteFile("src/exp/report.cc",
            "#include <fstream>\n"
            "#include <cstdio>\n"
            "void Dump() { std::ofstream out(\"/tmp/r.csv\"); }\n"
            "void Legacy() { FILE* f = fopen(\"/tmp/r.bin\", \"wb\"); }\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 2u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "raw-file-write");
  EXPECT_EQ(r.violations[0].line, 3);
  EXPECT_EQ(r.violations[1].rule, "raw-file-write");
  EXPECT_EQ(r.violations[1].line, 4);
}

TEST_F(LintTest, RawFileWriteSuppressed) {
  WriteFile("src/exp/report.cc",
            "#include <fstream>\n"
            "void Dump() {\n"
            "  // smfl-lint: allow(raw-file-write) append-only debug stream\n"
            "  std::ofstream out(\"/tmp/r.csv\");\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "raw-file-write");
}

TEST_F(LintTest, RawFileWriteAllowedInDurableIoAndTests) {
  WriteFile("src/common/durable_io.cc",
            "#include <cstdio>\n"
            "bool W(const char* p) { return fopen(p, \"wb\") != nullptr; }\n");
  WriteFile("tests/io_test.cc",
            "#include <fstream>\n"
            "void Fixture() { std::ofstream out(\"/tmp/fixture\"); }\n");
  LintOptions options;
  options.repo_root = root_.string();
  options.roots = {"src", "tests"};
  LintResult r;
  std::string error;
  ASSERT_TRUE(RunLint(options, &r, &error)) << error;
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, RawFileWriteIgnoresReadsAndMembers) {
  WriteFile("src/exp/report.cc",
            "#include <fstream>\n"
            "void Load() { std::ifstream in(\"/tmp/r.csv\"); }\n"
            "void Member(Vfs& vfs) { vfs.fopen(\"/tmp/x\"); }\n"
            "void Other() { posix::fopen(\"/tmp/x\"); }\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R8: raw-simd

TEST_F(LintTest, RawSimdPositive) {
  WriteFile("src/core/fast_path.cc",
            "#include <immintrin.h>\n"
            "void F(double* y, const double* x) {\n"
            "  __m256d a = _mm256_loadu_pd(x);\n"
            "  _mm256_storeu_pd(y, a);\n"
            "}\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 4u) << ResultToJson(r);
  for (const auto& d : r.violations) EXPECT_EQ(d.rule, "raw-simd");
  EXPECT_EQ(r.violations[0].line, 1);  // the #include itself
}

TEST_F(LintTest, RawSimdNeonPositive) {
  WriteFile("src/core/fast_path.cc",
            "#include <arm_neon.h>\n"
            "void F(double* y, const double* x) {\n"
            "  float64x2_t a = vld1q_f64(x);\n"
            "  vst1q_f64(y, vaddq_f64(a, vdupq_n_f64(1.0)));\n"
            "}\n");
  const LintResult r = Run();
  ASSERT_GE(r.violations.size(), 5u) << ResultToJson(r);
  for (const auto& d : r.violations) EXPECT_EQ(d.rule, "raw-simd");
}

TEST_F(LintTest, RawSimdSuppressed) {
  WriteFile("src/core/fast_path.cc",
            "void F(double* y) {\n"
            "  // smfl-lint: allow(raw-simd) one-off prefetch, no arithmetic\n"
            "  _mm_prefetch(y, 1);\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "raw-simd");
}

TEST_F(LintTest, RawSimdAllowedInDispatchLayer) {
  WriteFile("src/la/simd.cc",
            "#include <immintrin.h>\n"
            "void F(double* y, const double* x) {\n"
            "  _mm256_storeu_pd(y, _mm256_loadu_pd(x));\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, RawSimdIgnoresOrdinaryIdentifiers) {
  WriteFile("src/core/plain.cc",
            "int vmax_f64_count = 0;\n"      // no 'q'
            "void visit(int v) { (void)v; }\n"
            "double mm_ratio = 1.5;\n");     // no leading underscore
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R9: const-ref

TEST_F(LintTest, ConstRefPositive) {
  WriteFile("src/core/api.cc",
            "double Sum(Matrix m);\n"
            "double Mix(const Matrix& a, Table t, int n);\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 2u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "const-ref");
  EXPECT_EQ(r.violations[0].line, 1);
  EXPECT_EQ(r.violations[1].rule, "const-ref");
  EXPECT_EQ(r.violations[1].line, 2);
}

TEST_F(LintTest, ConstRefSuppressed) {
  WriteFile("src/core/api.cc",
            "// smfl-lint: allow(const-ref) sink parameter, moved from\n"
            "void Consume(Matrix m);\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "const-ref");
}

TEST_F(LintTest, ConstRefIgnoresReferencesDeclarationsAndMacros) {
  WriteFile("src/core/api.cc",
            "double Ok(const Matrix& a, Mask* b);\n"
            "void Local() { Matrix c(3, 4); Matrix u = c; }\n"
            "Status Harvest() {\n"
            "  ASSIGN_OR_RETURN(Matrix z, LoadMatrix());\n"
            "  SMFL_CHECK_EQ(z.rows(), 3);\n"
            "  return Status::OK();\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, ConstRefExemptInTests) {
  WriteFile("tests/helper_test.cc", "double Sum(Matrix m);\n");
  LintOptions options;
  options.repo_root = root_.string();
  options.roots = {"tests"};
  LintResult r;
  std::string error;
  ASSERT_TRUE(RunLint(options, &r, &error)) << error;
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R10: mask-scan

TEST_F(LintTest, MaskScanPositive) {
  WriteFile("src/core/loop.cc",
            "void Iterate(const Mask& observed) {\n"
            "  const uint8_t* row = observed.RowData(0);\n"
            "  Index c = observed.RowCount(2);\n"
            "  auto pts = observed.Entries();\n"
            "  (void)row; (void)c; (void)pts;\n"
            "}\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 3u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "mask-scan");
  EXPECT_EQ(r.violations[0].line, 2);
  EXPECT_EQ(r.violations[1].line, 3);
  EXPECT_EQ(r.violations[2].line, 4);
}

TEST_F(LintTest, MaskScanSuppressed) {
  WriteFile("src/mf/probe.cc",
            "void Hash(const Mask& m) {\n"
            "  // smfl-lint: allow(mask-scan) fingerprint hashes once per fit\n"
            "  const uint8_t* row = m.RowData(0);\n"
            "  (void)row;\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "mask-scan");
}

TEST_F(LintTest, MaskScanIgnoresBareIdentsAndOtherDirs) {
  // Bare identifiers and declarations are not member-call scan sites.
  WriteFile("src/core/decl.cc",
            "Index RowCount(const Mask& m);\n"
            "void F() { Index Entries = 3; (void)Entries; }\n");
  // mask.cc (src/data) is the sanctioned home for raw row scans.
  WriteFile("src/data/mask.cc",
            "void Scan(const Mask& m) { (void)m.RowData(0); }\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R11: raw-socket

TEST_F(LintTest, RawSocketPositive) {
  WriteFile("src/core/push.cc",
            "void Push() {\n"
            "  int fd = socket(AF_INET, SOCK_STREAM, 0);\n"
            "  bind(fd, nullptr, 0);\n"
            "  listen(fd, 8);\n"
            "  poll(nullptr, 0, 100);\n"
            "}\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 4u) << ResultToJson(r);
  for (const Diagnostic& d : r.violations) {
    EXPECT_EQ(d.rule, "raw-socket");
  }
  EXPECT_EQ(r.violations[0].line, 2);
}

TEST_F(LintTest, RawSocketSuppressed) {
  WriteFile("src/core/push.cc",
            "void Push() {\n"
            "  // smfl-lint: allow(raw-socket) UDP beacon, fire-and-forget\n"
            "  int fd = socket(AF_INET, SOCK_DGRAM, 0);\n"
            "  (void)fd;\n"
            "}\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "raw-socket");
}

TEST_F(LintTest, RawSocketIgnoresQualifiedMemberAndServerHome) {
  // std::bind and member .bind(...) are not the socket syscall; the obs
  // HTTP server is the sanctioned home and tests may open sockets freely.
  WriteFile("src/core/cb.cc",
            "void F() {\n"
            "  auto g = std::bind(h, 1);\n"
            "  server.listen(80);\n"
            "  q->poll();\n"
            "  int accept = 0; (void)accept; (void)g;\n"
            "}\n");
  WriteFile("src/obs/http_server.cc",
            "void Start() { int fd = socket(AF_INET, SOCK_STREAM, 0);"
            " (void)fd; }\n");
  WriteFile("tests/net_test.cc",
            "void T() { int fd = socket(AF_INET, SOCK_STREAM, 0);"
            " (void)fd; }\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R12: header-hygiene

TEST_F(LintTest, HeaderHygieneMissingGuard) {
  WriteFile("src/obs/widget.h", "struct Widget { int x; };\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "header-hygiene");
  EXPECT_NE(r.violations[0].message.find("SMFL_OBS_WIDGET_H_"),
            std::string::npos)
      << r.violations[0].message;
}

TEST_F(LintTest, HeaderHygieneWrongGuardNamesConvention) {
  WriteFile("src/obs/widget.h",
            "#ifndef WIDGET_H\n"
            "#define WIDGET_H\n"
            "struct Widget { int x; };\n"
            "#endif\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "header-hygiene");
  EXPECT_NE(r.violations[0].message.find("WIDGET_H"), std::string::npos);
  EXPECT_NE(r.violations[0].message.find("SMFL_OBS_WIDGET_H_"),
            std::string::npos);
}

TEST_F(LintTest, HeaderHygieneCompliantAndNonHeadersPass) {
  WriteFile("src/obs/widget.h",
            "#ifndef SMFL_OBS_WIDGET_H_\n"
            "#define SMFL_OBS_WIDGET_H_\n"
            "// A comment before the guard is fine.\n"
            "struct Widget { int x; };\n"
            "#endif  // SMFL_OBS_WIDGET_H_\n");
  WriteFile("src/obs/widget.cc", "int unguarded_translation_unit = 1;\n");
  WriteFile("tests/fixture.h", "struct NoGuardNeeded {};\n");
  const LintResult r = Run();
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// Suppression hygiene

TEST_F(LintTest, SuppressionWithoutReasonIsViolation) {
  WriteFile("src/la/norm.cc",
            "// smfl-lint: allow(float-eq)\n"
            "bool IsZero(double x) { return x == 0.0; }\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "bad-suppression");
}

TEST_F(LintTest, SuppressionWithUnknownRuleIsViolation) {
  WriteFile("src/la/norm.cc",
            "// smfl-lint: allow(no-such-rule) because reasons\n"
            "int x = 1;\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "bad-suppression");
}

TEST_F(LintTest, MalformedDirectiveIsViolation) {
  WriteFile("src/la/norm.cc",
            "// smfl-lint: disable everything\n"
            "int x = 1;\n");
  const LintResult r = Run();
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "bad-suppression");
}

// --------------------------------------------------------------------------
// Output plumbing

TEST_F(LintTest, JsonSummaryContainsFindings) {
  WriteFile("src/la/norm.cc",
            "bool IsZero(double x) { return x == 0.0; }\n");
  const LintResult r = Run();
  const std::string json = ResultToJson(r);
  EXPECT_NE(json.find("\"violation_count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"float-eq\""), std::string::npos) << json;
  EXPECT_NE(json.find("src/la/norm.cc"), std::string::npos) << json;
}

TEST_F(LintTest, FormatDiagnosticIsFileLineRule) {
  const Diagnostic d{"float-eq", "src/la/norm.cc", 7, "msg"};
  EXPECT_EQ(FormatDiagnostic(d), "src/la/norm.cc:7: [float-eq] msg");
}

// --------------------------------------------------------------------------
// Parsing layer (parse.h)

TEST(ParseTest, ParseIncludesSeparatesProjectAndSystem) {
  const LexedFile f = Lex("src/core/x.cc",
                          "#include \"src/la/vec.h\"\n"
                          "#include <vector>\n"
                          "#include \"local.h\"  // trailing comment\n");
  const std::vector<IncludeDirective> incs = ParseIncludes(f);
  ASSERT_EQ(incs.size(), 3u);
  EXPECT_EQ(incs[0].path, "src/la/vec.h");
  EXPECT_FALSE(incs[0].angled);
  EXPECT_EQ(incs[0].line, 1);
  EXPECT_EQ(incs[1].path, "vector");
  EXPECT_TRUE(incs[1].angled);
  EXPECT_EQ(incs[2].path, "local.h");
}

TEST(ParseTest, HarvestDeclaredSymbolsCoversTheHeaderApi) {
  const LexedFile f = Lex(
      "src/la/vec.h",
      "#ifndef SMFL_LA_VEC_H_\n"
      "#define SMFL_LA_VEC_H_\n"
      "#define VEC_MAX_DIM 8\n"
      "namespace smfl::la {\n"
      "struct VecThing { int size_; void Member(); };\n"
      "enum class VecMode { kDense, kSparse };\n"
      "using VecScalar = double;\n"
      "double VecNorm(const VecThing& v);\n"
      "inline constexpr double kVecEps = 1e-12;\n"
      "}  // namespace smfl::la\n"
      "#endif  // SMFL_LA_VEC_H_\n");
  const std::set<std::string> syms = HarvestDeclaredSymbols(f);
  EXPECT_TRUE(syms.count("VecThing"));
  EXPECT_TRUE(syms.count("VecMode"));
  EXPECT_TRUE(syms.count("kDense"));
  EXPECT_TRUE(syms.count("VecScalar"));
  EXPECT_TRUE(syms.count("VecNorm"));
  EXPECT_TRUE(syms.count("kVecEps"));
  EXPECT_TRUE(syms.count("VEC_MAX_DIM"));
  // Include-guard macros and class members are not part of the API.
  EXPECT_FALSE(syms.count("SMFL_LA_VEC_H_"));
  EXPECT_FALSE(syms.count("size_"));
  EXPECT_FALSE(syms.count("Member"));
}

TEST(ParseTest, LambdaCapturesParamsAndBody) {
  const LexedFile f =
      Lex("src/core/x.cc",
          "auto fn = [&, total](Index b, Index e) { return b + e; };\n");
  size_t open = 0;
  while (open < f.tokens.size() && !TokIsPunct(f.tokens[open], "[")) ++open;
  ASSERT_LT(open, f.tokens.size());
  LambdaInfo lam;
  ASSERT_TRUE(ParseLambda(f.tokens, open, &lam));
  EXPECT_TRUE(lam.default_by_ref);
  EXPECT_FALSE(lam.default_by_value);
  EXPECT_TRUE(lam.by_value_names.count("total"));
  ASSERT_EQ(lam.params.size(), 2u);
  EXPECT_EQ(lam.params[0], "b");
  EXPECT_EQ(lam.params[1], "e");
  EXPECT_LT(lam.body_begin, lam.body_end);
}

TEST(ParseTest, SubscriptAndAttributeAreNotLambdas) {
  const LexedFile f = Lex("src/core/x.cc",
                          "int y = arr[i];\n"
                          "[[nodiscard]] int F();\n");
  LambdaInfo lam;
  for (size_t i = 0; i < f.tokens.size(); ++i) {
    if (TokIsPunct(f.tokens[i], "[")) {
      EXPECT_FALSE(ParseLambda(f.tokens, i, &lam)) << "token index " << i;
    }
  }
}

// --------------------------------------------------------------------------
// Include graph (graph.h): module mapping and graph construction

TEST(GraphTest, ModuleOfAndRankFollowTheDeclaredDag) {
  EXPECT_EQ(ModuleOf("src/core/smfl.h"), "core");
  EXPECT_EQ(ModuleOf("src/la/matrix.h"), "la");
  EXPECT_EQ(ModuleOf("tools/smfl_lint/lint.h"), "tools");
  EXPECT_EQ(ModuleOf("src/orphan.h"), "");  // directly under src/
  EXPECT_LT(ModuleRank("common"), ModuleRank("la"));
  EXPECT_LT(ModuleRank("la"), ModuleRank("data"));
  EXPECT_LT(ModuleRank("data"), ModuleRank("spatial"));
  EXPECT_LT(ModuleRank("spatial"), ModuleRank("cluster"));
  EXPECT_LT(ModuleRank("cluster"), ModuleRank("nn"));
  EXPECT_LT(ModuleRank("nn"), ModuleRank("mf"));
  EXPECT_LT(ModuleRank("mf"), ModuleRank("core"));
  EXPECT_LT(ModuleRank("core"), ModuleRank("impute"));
  EXPECT_EQ(ModuleRank("impute"), ModuleRank("repair"));
  EXPECT_LT(ModuleRank("repair"), ModuleRank("obs"));
  EXPECT_LT(ModuleRank("obs"), ModuleRank("cli"));
  EXPECT_EQ(ModuleRank("no-such-module"), -1);
}

TEST_F(LintTest, BuildIncludeGraphResolvesRootAndSiblingIncludes) {
  WriteFile("src/la/vec.h", "struct VecThing {};\n");
  const LexedFile root_rel =
      Lex("src/core/user.cc",
          "#include \"src/la/vec.h\"\n"
          "#include <vector>\n"
          "#include \"src/core/not_on_disk.h\"\n");
  const LexedFile sibling_rel = Lex("src/la/other.cc",
                                    "#include \"vec.h\"\n");
  const IncludeGraph g =
      BuildIncludeGraph({root_rel, sibling_rel}, root_.string());
  ASSERT_EQ(g.edges.at("src/core/user.cc").size(), 1u);
  EXPECT_EQ(g.edges.at("src/core/user.cc")[0].to, "src/la/vec.h");
  EXPECT_EQ(g.edges.at("src/core/user.cc")[0].line, 1);
  ASSERT_EQ(g.edges.at("src/la/other.cc").size(), 1u);
  EXPECT_EQ(g.edges.at("src/la/other.cc")[0].to, "src/la/vec.h");
}

// --------------------------------------------------------------------------
// Graph pass: layering

TEST_F(LintTest, LayeringBackEdgeIsViolation) {
  // la (layer 1) must not include core (layer 7).
  WriteFile("src/core/model.h",
            "#ifndef SMFL_CORE_MODEL_H_\n"
            "#define SMFL_CORE_MODEL_H_\n"
            "namespace smfl::core { struct CoreModel { int trained; }; }\n"
            "#endif  // SMFL_CORE_MODEL_H_\n");
  WriteFile("src/la/vec.h",
            "#ifndef SMFL_LA_VEC_H_\n"
            "#define SMFL_LA_VEC_H_\n"
            "#include \"src/core/model.h\"\n"
            "namespace smfl::la { core::CoreModel MakeModel(); }\n"
            "#endif  // SMFL_LA_VEC_H_\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "layering");
  EXPECT_EQ(r.violations[0].rel_path, "src/la/vec.h");
  EXPECT_EQ(r.violations[0].line, 3);
  EXPECT_NE(r.violations[0].message.find("back-edge"), std::string::npos)
      << r.violations[0].message;
}

TEST_F(LintTest, LayeringSanctionedSameLayerEdgeRepairToImpute) {
  WriteFile("src/impute/mean.h",
            "#ifndef SMFL_IMPUTE_MEAN_H_\n"
            "#define SMFL_IMPUTE_MEAN_H_\n"
            "namespace smfl::impute { struct MeanImputer { int k; }; }\n"
            "#endif  // SMFL_IMPUTE_MEAN_H_\n");
  WriteFile("src/repair/fix.h",
            "#ifndef SMFL_REPAIR_FIX_H_\n"
            "#define SMFL_REPAIR_FIX_H_\n"
            "#include \"src/impute/mean.h\"\n"
            "namespace smfl::repair { impute::MeanImputer MakeStage(); }\n"
            "#endif  // SMFL_REPAIR_FIX_H_\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, LayeringUnsanctionedSameLayerEdgeImputeToRepair) {
  WriteFile("src/repair/fix.h",
            "#ifndef SMFL_REPAIR_FIX_H_\n"
            "#define SMFL_REPAIR_FIX_H_\n"
            "namespace smfl::repair { struct FixStage { int n; }; }\n"
            "#endif  // SMFL_REPAIR_FIX_H_\n");
  WriteFile("src/impute/mean.h",
            "#ifndef SMFL_IMPUTE_MEAN_H_\n"
            "#define SMFL_IMPUTE_MEAN_H_\n"
            "#include \"src/repair/fix.h\"\n"
            "namespace smfl::impute { repair::FixStage MakeStage(); }\n"
            "#endif  // SMFL_IMPUTE_MEAN_H_\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "layering");
  EXPECT_EQ(r.violations[0].rel_path, "src/impute/mean.h");
  EXPECT_NE(r.violations[0].message.find("same-layer"), std::string::npos)
      << r.violations[0].message;
}

TEST_F(LintTest, LayeringSrcMustNotDependOutsideSrc) {
  WriteFile("tools/helper.h", "struct ToolHelper { int x; };\n");
  WriteFile("src/core/use.cc",
            "#include \"tools/helper.h\"\n"
            "namespace smfl::core { ToolHelper MakeHelper(); }\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "layering");
  EXPECT_NE(r.violations[0].message.find("must not depend"),
            std::string::npos)
      << r.violations[0].message;
}

// --------------------------------------------------------------------------
// Graph pass: cycles and .cc includes

TEST_F(LintTest, IncludeCycleIsViolation) {
  // Same module (no layering noise), symbols mutually used (no
  // unused-include noise): the cycle itself is the only finding.
  WriteFile("src/la/a.h",
            "#ifndef SMFL_LA_A_H_\n"
            "#define SMFL_LA_A_H_\n"
            "#include \"src/la/b.h\"\n"
            "namespace smfl::la { struct AThing { BThing* peer; }; }\n"
            "#endif  // SMFL_LA_A_H_\n");
  WriteFile("src/la/b.h",
            "#ifndef SMFL_LA_B_H_\n"
            "#define SMFL_LA_B_H_\n"
            "#include \"src/la/a.h\"\n"
            "namespace smfl::la { struct BThing { AThing* peer; }; }\n"
            "#endif  // SMFL_LA_B_H_\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "include-cycle");
  EXPECT_NE(r.violations[0].message.find("include cycle"), std::string::npos);
  EXPECT_NE(r.violations[0].message.find("src/la/a.h"), std::string::npos);
  EXPECT_NE(r.violations[0].message.find("src/la/b.h"), std::string::npos);
}

TEST_F(LintTest, CcIncludeIsViolation) {
  WriteFile("src/core/impl.cc",
            "namespace smfl::core { int ImplValue() { return 3; } }\n");
  WriteFile("src/core/driver.cc",
            "#include \"src/core/impl.cc\"\n"
            "namespace smfl::core { int Driver() { return ImplValue(); } }\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "cc-include");
  EXPECT_EQ(r.violations[0].rel_path, "src/core/driver.cc");
}

// --------------------------------------------------------------------------
// Graph pass: unused-include (IWYU-lite)

TEST_F(LintTest, UnusedIncludePositive) {
  WriteFile("src/la/vec.h",
            "#ifndef SMFL_LA_VEC_H_\n"
            "#define SMFL_LA_VEC_H_\n"
            "namespace smfl::la { struct VecThing { int n; }; }\n"
            "#endif  // SMFL_LA_VEC_H_\n");
  WriteFile("src/core/user.cc",
            "#include \"src/la/vec.h\"\n"
            "namespace smfl::core { int Unrelated() { return 1; } }\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "unused-include");
  EXPECT_EQ(r.violations[0].rel_path, "src/core/user.cc");
  EXPECT_EQ(r.violations[0].line, 1);
}

TEST_F(LintTest, UnusedIncludeSuppressedOnTheIncludeLine) {
  WriteFile("src/la/vec.h",
            "#ifndef SMFL_LA_VEC_H_\n"
            "#define SMFL_LA_VEC_H_\n"
            "namespace smfl::la { struct VecThing { int n; }; }\n"
            "#endif  // SMFL_LA_VEC_H_\n");
  WriteFile("src/core/user.cc",
            "#include \"src/la/vec.h\"  "
            "// smfl-lint: allow(unused-include) kept as an umbrella\n"
            "namespace smfl::core { int Unrelated() { return 1; } }\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "unused-include");
}

TEST_F(LintTest, UsedIncludeAndOwnHeaderAreNotFlagged) {
  WriteFile("src/la/vec.h",
            "#ifndef SMFL_LA_VEC_H_\n"
            "#define SMFL_LA_VEC_H_\n"
            "namespace smfl::la { struct VecThing { int n; }; }\n"
            "#endif  // SMFL_LA_VEC_H_\n");
  // engine.cc includes its own header without touching any symbol from it
  // (common for registration-only TUs) — exempt by the own-header rule.
  WriteFile("src/core/engine.h",
            "#ifndef SMFL_CORE_ENGINE_H_\n"
            "#define SMFL_CORE_ENGINE_H_\n"
            "namespace smfl::core { struct Engine { int x; }; }\n"
            "#endif  // SMFL_CORE_ENGINE_H_\n");
  WriteFile("src/core/engine.cc",
            "#include \"src/core/engine.h\"\n"
            "namespace smfl::core { int RegisterOnly() { return 1; } }\n");
  WriteFile("src/core/user.cc",
            "#include \"src/la/vec.h\"\n"
            "namespace smfl::core { la::VecThing MakeVec(); }\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, GraphPassFillsModuleLevelDot) {
  WriteFile("src/la/vec.h",
            "#ifndef SMFL_LA_VEC_H_\n"
            "#define SMFL_LA_VEC_H_\n"
            "namespace smfl::la { struct VecThing { int n; }; }\n"
            "#endif  // SMFL_LA_VEC_H_\n");
  WriteFile("src/core/user.cc",
            "#include \"src/la/vec.h\"\n"
            "namespace smfl::core { la::VecThing MakeVec(); }\n");
  LintOptions options;
  options.graph_pass = true;
  const LintResult r = Run(options);
  EXPECT_NE(r.dot.find("digraph smfl_modules"), std::string::npos) << r.dot;
  EXPECT_NE(r.dot.find("\"core\" -> \"la\";"), std::string::npos) << r.dot;
  EXPECT_NE(r.dot.find("layer 1"), std::string::npos) << r.dot;   // la
  EXPECT_NE(r.dot.find("layer 7"), std::string::npos) << r.dot;   // core
}

// --------------------------------------------------------------------------
// R13: race (ParallelFor/ParallelReduce body analysis)

TEST_F(LintTest, RaceSharedAccumulatorIsViolation) {
  WriteFile("src/core/accum.cc",
            "namespace smfl::core {\n"
            "double SumAll(const la::Vector& v) {\n"
            "  double sum = 0.0;\n"
            "  parallel::ParallelFor(0, v.size(), 256,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    for (la::Index i = b; i < e; ++i) sum += v[i];\n"
            "  });\n"
            "  return sum;\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "race");
  EXPECT_EQ(r.violations[0].line, 6);
  EXPECT_NE(r.violations[0].message.find("'sum'"), std::string::npos)
      << r.violations[0].message;
}

TEST_F(LintTest, RaceInductionIndexedWriteIsSafe) {
  WriteFile("src/core/map.cc",
            "namespace smfl::core {\n"
            "void Scale(const la::Vector& in, la::Vector& out) {\n"
            "  parallel::ParallelFor(0, in.size(), 256,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    for (la::Index i = b; i < e; ++i) out[i] = in[i] * 2.0;\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, RaceParallelReduceLocalAccumulatorIsSafe) {
  WriteFile("src/core/reduce.cc",
            "namespace smfl::core {\n"
            "double SumAll(const la::Vector& v) {\n"
            "  return parallel::ParallelReduce(0, v.size(), 256,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    double acc = 0.0;\n"
            "    for (la::Index i = b; i < e; ++i) acc += v[i];\n"
            "    return acc;\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// Arrays declared inside the body — `T name[N]`, `T name[N] = {...}`, a
// multi-declarator chain of them and `const T* name[N]` — are chunk-local.
TEST_F(LintTest, RaceBodyLocalArraysAreSafe) {
  WriteFile("src/core/lanes.cc",
            "namespace smfl::core {\n"
            "double Lanes(const la::Vector& x, const double* const* rows) {\n"
            "  return parallel::ParallelReduce(0, x.size(), 64,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    double r[4];\n"
            "    double num[4] = {}, den[4] = {0.0, 1.0};\n"
            "    const double* ur[2];\n"
            "    double grid[2][2] = {};\n"
            "    double acc = 0.0;\n"
            "    for (la::Index i = b; i < e; ++i) {\n"
            "      r[0] = x[i];\n"
            "      num[1] += r[0];\n"
            "      den[2] = num[1];\n"
            "      ur[0] = rows[0];\n"
            "      grid[1][0] = ur[0][0];\n"
            "      acc += den[2] + grid[1][0];\n"
            "    }\n"
            "    return acc;\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// A captured array is still shared state: writing it from the body is
// flagged, and a product `w * totals[1]` is not mistaken for a
// declaration of `totals`.
TEST_F(LintTest, RaceCapturedArrayWriteIsViolation) {
  WriteFile("src/core/totals.cc",
            "namespace smfl::core {\n"
            "void Totals(const la::Vector& x, double w) {\n"
            "  double totals[4] = {};\n"
            "  parallel::ParallelFor(0, x.size(), 64,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    for (la::Index i = b; i < e; ++i) {\n"
            "      const double y = w * totals[1];\n"
            "      totals[0] += x[i] + y;\n"
            "    }\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "race");
  EXPECT_EQ(r.violations[0].line, 8);
  EXPECT_NE(r.violations[0].message.find("'totals'"), std::string::npos)
      << r.violations[0].message;
}

// Every declarator of a multi-declarator local is chunk-local, whatever
// its initializer form: `name(...)` and `name{...}` chain to the next
// declarator just like `name = init`.
TEST_F(LintTest, RaceMultiDeclaratorParenLocalsAreSafe) {
  WriteFile("src/core/rows.cc",
            "namespace smfl::core {\n"
            "void Rows(la::Index n, la::Index k, la::Matrix& out) {\n"
            "  parallel::ParallelFor(0, n, 64, [&](la::Index b, la::Index e) {\n"
            "    std::vector<double> num(k), den(static_cast<size_t>(k)), du(k);\n"
            "    for (la::Index i = b; i < e; ++i) {\n"
            "      for (la::Index l = 0; l < k; ++l) {\n"
            "        num[l] = 1.0;\n"
            "        den[l] = 2.0;\n"
            "        du[l] += num[l] * den[l];\n"
            "        out(i, l) = du[l];\n"
            "      }\n"
            "    }\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, RaceMultiDeclaratorBraceLocalsAreSafe) {
  WriteFile("src/core/pairs.cc",
            "namespace smfl::core {\n"
            "void Pairs(la::Index n, la::Matrix& out) {\n"
            "  parallel::ParallelFor(0, n, 64, [&](la::Index b, la::Index e) {\n"
            "    std::vector<double> lo{0.0, 1.0}, hi{2.0, 3.0};\n"
            "    for (la::Index i = b; i < e; ++i) {\n"
            "      lo[0] = hi[1];\n"
            "      hi[0] = lo[1];\n"
            "      out(i, 0) = lo[0] + hi[0];\n"
            "    }\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// The chaining must not swallow a real race: a captured outer vector
// written next to multi-declarator locals is still reported.
TEST_F(LintTest, RaceCapturedVectorBesideMultiDeclaratorIsViolation) {
  WriteFile("src/core/shared.cc",
            "namespace smfl::core {\n"
            "void Shared(la::Index n, la::Index k, std::vector<double>& acc) {\n"
            "  parallel::ParallelFor(0, n, 64, [&](la::Index b, la::Index e) {\n"
            "    std::vector<double> num(k), den(k);\n"
            "    for (la::Index i = b; i < e; ++i) {\n"
            "      num[0] = 1.0;\n"
            "      den[0] = 2.0;\n"
            "      acc[0] += num[0] * den[0];\n"
            "    }\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "race");
  EXPECT_EQ(r.violations[0].line, 8);
  EXPECT_NE(r.violations[0].message.find("'acc'"), std::string::npos)
      << r.violations[0].message;
}

TEST_F(LintTest, RaceSuppressed) {
  WriteFile("src/core/flag.cc",
            "namespace smfl::core {\n"
            "void Mark(la::Index n, la::Index& last) {\n"
            "  parallel::ParallelFor(0, n, 1, [&](la::Index b, la::Index e) {\n"
            "    // smfl-lint: allow(race) single chunk: grain covers n\n"
            "    last = e;\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
  ASSERT_EQ(r.suppressed.size(), 1u);
  EXPECT_EQ(r.suppressed[0].rule, "race");
}

TEST_F(LintTest, RaceMutatingContainerCallIsViolation) {
  WriteFile("src/core/collect.cc",
            "namespace smfl::core {\n"
            "void Collect(la::Index n, std::vector<la::Index>& results) {\n"
            "  parallel::ParallelFor(0, n, 64,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    for (la::Index i = b; i < e; ++i) results.push_back(i);\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "race");
  EXPECT_NE(r.violations[0].message.find("push_back"), std::string::npos)
      << r.violations[0].message;
}

TEST_F(LintTest, RaceRngAdvancementIsViolation) {
  WriteFile("src/core/draw.cc",
            "namespace smfl::core {\n"
            "void Fill(la::Index n, Rng& rng, la::Vector& out) {\n"
            "  parallel::ParallelFor(0, n, 64,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    for (la::Index i = b; i < e; ++i) out[i] = rng.Uniform();\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "race");
  EXPECT_NE(r.violations[0].message.find("RNG"), std::string::npos)
      << r.violations[0].message;
}

TEST_F(LintTest, RaceTelemetryOutsideAllowlistIsViolation) {
  WriteFile("src/core/instr.cc",
            "namespace smfl::core {\n"
            "void Count(la::Index n) {\n"
            "  parallel::ParallelFor(0, n, 64,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    if (telemetry::Enabled()) {\n"
            "      const int64_t t0 = telemetry::NowMicros(); (void)t0;\n"
            "    }\n"
            "    telemetry::CounterAdd(\"core.count\", e - b);\n"
            "  });\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "race");
  EXPECT_EQ(r.violations[0].line, 8);
  EXPECT_NE(r.violations[0].message.find("CounterAdd"), std::string::npos)
      << r.violations[0].message;
}

TEST_F(LintTest, RaceAtomicStateIsExempt) {
  WriteFile("src/core/hits.cc",
            "namespace smfl::core {\n"
            "la::Index CountHits(const la::Vector& v) {\n"
            "  std::atomic<la::Index> hits{0};\n"
            "  parallel::ParallelFor(0, v.size(), 64,\n"
            "      [&](la::Index b, la::Index e) {\n"
            "    for (la::Index i = b; i < e; ++i) {\n"
            "      if (v[i] > 0.5) hits += 1;\n"
            "    }\n"
            "  });\n"
            "  return hits.load();\n"
            "}\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

TEST_F(LintTest, RacePassIgnoresTestFilesAndParallelImpl) {
  const std::string body =
      "void F(la::Index n, double& sum) {\n"
      "  parallel::ParallelFor(0, n, 1, [&](la::Index b, la::Index e) {\n"
      "    sum += static_cast<double>(e - b);\n"
      "  });\n"
      "}\n";
  WriteFile("src/common/parallel.cc", body);
  WriteFile("src/core/f_test.cc", body);
  LintOptions options;
  options.race_pass = true;
  const LintResult r = Run(options);
  EXPECT_TRUE(r.violations.empty()) << ResultToJson(r);
}

// --------------------------------------------------------------------------
// R4 regression: Status functions declared in included (unscanned) headers

TEST_F(LintTest, DiscardStatusSeesFunctionsFromIncludedHeaders) {
  // Only use.cc is scanned; the registry must still learn DoThing() from
  // the included header via the include-closure harvest.
  WriteFile("src/core/api.h",
            "#ifndef SMFL_CORE_API_H_\n"
            "#define SMFL_CORE_API_H_\n"
            "namespace smfl::core {\n"
            "Status DoThing();\n"
            "}  // namespace smfl::core\n"
            "#endif  // SMFL_CORE_API_H_\n");
  WriteFile("src/core/use.cc",
            "#include \"src/core/api.h\"\n"
            "namespace smfl::core {\n"
            "void Caller() { DoThing(); }\n"
            "}  // namespace smfl::core\n");
  LintOptions options;
  options.roots = {"src/core/use.cc"};
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);
  EXPECT_EQ(r.violations[0].rule, "discard-status");
  EXPECT_EQ(r.violations[0].rel_path, "src/core/use.cc");
  EXPECT_EQ(r.violations[0].line, 3);
}

// --------------------------------------------------------------------------
// Baseline, SARIF, and --fix plumbing

TEST_F(LintTest, BaselineMovesKnownFindingsOutOfViolations) {
  WriteFile("src/la/norm.cc",
            "bool IsZero(double x) { return x == 0.0; }\n");
  const LintResult before = Run();
  ASSERT_EQ(before.violations.size(), 1u);

  WriteFile("lint-baseline.txt",
            "# accepted findings\n" + BaselineKey(before.violations[0]) +
                "\n");
  LintOptions options;
  options.baseline_path = (root_ / "lint-baseline.txt").string();
  const LintResult after = Run(options);
  EXPECT_TRUE(after.violations.empty()) << ResultToJson(after);
  ASSERT_EQ(after.baselined.size(), 1u);
  EXPECT_EQ(after.baselined[0].rule, "float-eq");
  // Round-trip: the regenerated baseline keeps covering the finding.
  EXPECT_NE(BaselineFromResult(after).find(BaselineKey(after.baselined[0])),
            std::string::npos);
}

TEST_F(LintTest, SarifListsRulesAndResults) {
  WriteFile("src/la/norm.cc",
            "bool IsZero(double x) { return x == 0.0; }\n");
  const LintResult r = Run();
  const std::string sarif = ResultToSarif(r);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"smfl_lint\""), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"float-eq\"}"), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"float-eq\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/la/norm.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

TEST_F(LintTest, FixRemovesUnusedIncludeAndDryRunDoesNot) {
  WriteFile("src/la/vec.h",
            "#ifndef SMFL_LA_VEC_H_\n"
            "#define SMFL_LA_VEC_H_\n"
            "namespace smfl::la { struct VecThing { int n; }; }\n"
            "#endif  // SMFL_LA_VEC_H_\n");
  WriteFile("src/core/user.cc",
            "#include \"src/la/vec.h\"\n"
            "namespace smfl::core { int Unrelated() { return 1; } }\n");
  LintOptions options;
  options.graph_pass = true;
  options.repo_root = root_.string();
  const LintResult r = Run(options);
  ASSERT_EQ(r.violations.size(), 1u) << ResultToJson(r);

  std::string report;
  std::string error;
  int fixed = 0;
  ASSERT_TRUE(ApplyUnusedIncludeFixes(options, r.violations, /*dry_run=*/true,
                                      &report, &fixed, &error))
      << error;
  EXPECT_EQ(fixed, 1);
  EXPECT_NE(report.find("--- src/core/user.cc:1"), std::string::npos)
      << report;
  EXPECT_NE(ReadFile("src/core/user.cc").find("#include"), std::string::npos)
      << "dry run must not edit the file";

  ASSERT_TRUE(ApplyUnusedIncludeFixes(options, r.violations,
                                      /*dry_run=*/false, &report, &fixed,
                                      &error))
      << error;
  EXPECT_EQ(fixed, 1);
  EXPECT_EQ(ReadFile("src/core/user.cc").find("#include"), std::string::npos);
  // The tree is clean after the fix.
  const LintResult after = Run(options);
  EXPECT_TRUE(after.violations.empty()) << ResultToJson(after);
}

TEST_F(LintTest, FixSkipsStaleFindingLines) {
  WriteFile("src/core/user.cc",
            "int not_an_include = 1;\n");
  const std::vector<Diagnostic> stale = {
      Diagnostic{"unused-include", "src/core/user.cc", 1, "stale"}};
  LintOptions options;
  options.repo_root = root_.string();
  std::string report;
  std::string error;
  int fixed = 0;
  ASSERT_TRUE(ApplyUnusedIncludeFixes(options, stale, /*dry_run=*/false,
                                      &report, &fixed, &error))
      << error;
  EXPECT_EQ(fixed, 0);
  EXPECT_EQ(ReadFile("src/core/user.cc"), "int not_an_include = 1;\n");
}

}  // namespace
}  // namespace smfl::lint
