// perfbench_harness: the repository benchmark's measuring program.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace 0|1
//                     --work-dir <dir> --state-dir <dir> --smfl <path>
//   perfbench_harness --selftest
//
// run.py builds it and passes the directories. Each run is one closed loop
// with one client: the next request starts when the previous one is done.
// With --trace 0 every request is the CLI subcommand function itself
// (cli::RunImputeCommand / cli::RunApplyCommand), telemetry off, and the
// last stdout line carries the end-to-end metrics. With --trace 1 untraced
// CLI requests alternate with traced replays (ledger.h) and the last line
// carries the per-layer metrics. See README.md.

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench/src/check.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/probe.h"
#include "perfbench/src/selftest.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workload.h"
#include "src/cli/commands.h"
#include "src/common/flags.h"
#include "src/common/parallel.h"
#include "src/common/telemetry.h"
#include "src/la/simd.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetups = 3;
// Serving batches: column-outage patterns and how rows lose cells.
constexpr int kOutagePatterns = 4;
constexpr int64_t kOutageCols = 6;
constexpr double kOutageRowShare = 0.6;
constexpr double kBatchCellShare = 0.2;
// Untraced requests run in windows of at least this much request time,
// with a probe run between windows (probe.h). Below the shortest impute
// request, so each impute request has a window of its own.
constexpr double kProbeWindowMs = 1000.0;
// Tail percentile of the apply workload's requests (reported when the run
// holds enough samples, see stats.h).
constexpr double kTailQuantile = 0.95;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string work_dir;
  std::string state_dir;
  std::string smfl;
  std::string self_path;  // this binary, fingerprinted for the hash ledger
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* a, std::string* error) {
  std::map<std::string, std::string> v;
  a->self_path = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      v[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      v[arg.substr(2)] = argv[++i];
    } else {
      *error = "flag '" + arg + "' needs a value";
      return false;
    }
  }
  if (a->selftest) return true;
  for (const char* required : {"workload", "seed", "seconds", "trace",
                               "work-dir", "state-dir", "smfl"}) {
    if (!v.count(required)) {
      *error = std::string("--") + required + " is required";
      return false;
    }
  }
  char* end = nullptr;
  a->workload = v["workload"];
  a->seed = std::strtoull(v["seed"].c_str(), &end, 10);
  if (*end != '\0' || v["seed"].empty()) {
    *error = "--seed must be a whole number";
    return false;
  }
  a->seconds = std::atoi(v["seconds"].c_str());
  a->trace = std::atoi(v["trace"].c_str());
  if (a->seconds < 1 || (v["trace"] != "0" && v["trace"] != "1")) {
    *error = "--seconds must be >= 1 and --trace 0 or 1";
    return false;
  }
  a->work_dir = v["work-dir"];
  a->state_dir = v["state-dir"];
  a->smfl = v["smfl"];
  return true;
}

double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_leaf = 0, unused = 0;
  __get_cpuid(0x80000000u, &max_leaf, &unused, &unused, &unused);
  if (max_leaf >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand = brand.c_str();
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string Hex(uint64_t h) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// The generated inputs of one set-up.
struct Inputs {
  std::vector<SpatialTable> tables;  // impute: one; apply: the batch pool
  std::vector<std::string> paths;    // CSV of each table
  std::string model_path;            // apply only
  uint64_t model_hash = 0;
  std::vector<uint64_t> output_hash;  // warm-up output of each table
  double scaled_sq_error = 0.0;       // warm-up outputs, all tables
  int64_t hidden_cells = 0;
};

// Runs the serving model's fit as a child `smfl fit`, so its memory never
// counts toward the serving process's peak RSS.
bool RunChildFit(const Args& args, const WorkloadSpec& spec,
                 const std::string& train, const std::string& model,
                 const std::string& log, std::string* error) {
  const std::string in = "--in=" + train, out = "--model=" + model,
                    threads = "--threads=" + std::to_string(spec.threads);
  const char* argv[] = {args.smfl.c_str(), "fit", in.c_str(), out.c_str(),
                        threads.c_str(), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, args.smfl.c_str(), &actions, nullptr,
                             const_cast<char* const*>(argv), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    *error = "cannot start " + args.smfl + ": " + std::strerror(rc);
    return false;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) {
      *error = "waitpid failed";
      return false;
    }
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::string log_text;
    ReadTextFile(log, &log_text);
    *error = "smfl fit failed: " + log_text;
    return false;
  }
  return true;
}

// One CLI request, exactly as `smfl impute|apply ...` would run it.
smfl::Status RunRequest(const WorkloadSpec& spec, const Inputs& in,
                        size_t table, const std::string& out_path) {
  std::vector<std::string> words = {
      "smfl", spec.apply ? "apply" : "impute", "--in=" + in.paths[table],
      "--out=" + out_path, "--threads=" + std::to_string(spec.threads)};
  if (spec.apply) words.push_back("--model=" + in.model_path);
  std::vector<const char*> argv;
  for (const std::string& w : words) argv.push_back(w.c_str());
  auto flags = smfl::Flags::Parse(static_cast<int>(argv.size()), argv.data());
  if (!flags.ok()) return flags.status();
  std::string report;
  return spec.apply ? smfl::cli::RunApplyCommand(*flags, &report)
                    : smfl::cli::RunImputeCommand(*flags, &report);
}

OutputCheck CheckRequestOutput(const SpatialTable& table,
                               const std::string& out_path) {
  std::string bytes;
  if (!ReadTextFile(out_path, &bytes)) {
    OutputCheck c;
    c.error = "cannot read " + out_path;
    return c;
  }
  return CheckOutput(table, bytes);
}

// Generates the inputs from the seed, writes them, fits the serving model
// (apply) and runs one untimed warm-up request per input table.
bool SetUp(const Args& args, const WorkloadSpec& spec, const std::string& dir,
           Inputs* in, std::string* error) {
  fs::create_directories(dir);
  const SpatialField field = MakeField(spec.cols);
  if (!spec.apply) {
    Rng rng(StreamSeed(args.seed, 2));
    in->tables.push_back(SampleRows(field, rng, spec.rows));
    HideCells(in->tables.back(), rng, spec.hidden_share);
  } else {
    Rng rng(StreamSeed(args.seed, 3));
    SpatialTable train = SampleRows(field, rng, spec.rows);
    HideCells(train, rng, spec.hidden_share);
    const std::string train_path = dir + "/train.csv";
    in->model_path = dir + "/model.smfl";
    if (!WriteTextFile(train_path, ToCsv(train)) ||
        !RunChildFit(args, spec, train_path, in->model_path,
                     dir + "/fit.log", error)) {
      if (error->empty()) *error = "cannot write " + train_path;
      return false;
    }
    std::string model_bytes;
    ReadTextFile(in->model_path, &model_bytes);
    in->model_hash = Fnv1a64(model_bytes);
    for (int b = 0; b < spec.batch_pool; ++b) {
      Rng batch_rng(StreamSeed(args.seed, 100 + static_cast<uint64_t>(b)));
      in->tables.push_back(SampleRows(field, batch_rng, spec.batch_rows));
      HideOutages(in->tables.back(), batch_rng, kOutagePatterns, kOutageCols,
                  kOutageRowShare, kBatchCellShare);
    }
  }
  for (size_t t = 0; t < in->tables.size(); ++t) {
    in->paths.push_back(dir + "/input" + std::to_string(t) + ".csv");
    if (!WriteTextFile(in->paths.back(), ToCsv(in->tables[t]))) {
      *error = "cannot write " + in->paths.back();
      return false;
    }
  }
  const std::string out_path = dir + "/warmup.csv";
  for (size_t t = 0; t < in->tables.size(); ++t) {
    const smfl::Status st = RunRequest(spec, *in, t, out_path);
    if (!st.ok()) {
      *error = "warm-up request failed: " + st.ToString();
      return false;
    }
    const OutputCheck c = CheckRequestOutput(in->tables[t], out_path);
    if (!c.ok) {
      *error = "warm-up output check failed: " + c.error;
      return false;
    }
    in->output_hash.push_back(c.hash);
    in->scaled_sq_error += c.scaled_sq_error;
    in->hidden_cells += c.hidden_cells;
  }
  return true;
}

// Output hashes of earlier runs of this same harness binary, keyed by
// workload and seed: the determinism contract says they never change.
// Returns false when an earlier run of the same binary saw another hash.
bool CheckHashLedger(const Args& args, uint64_t binary, uint64_t outputs,
                     std::string* note) {
  const std::string path = args.state_dir + "/output-hashes.txt";
  const std::string key = Hex(binary) + " " + args.workload + " " +
                          std::to_string(args.seed) + " ";
  std::string ledger;
  ReadTextFile(path, &ledger);
  const size_t at = ledger.find(key);
  if (at != std::string::npos) {
    const std::string seen = ledger.substr(at + key.size(), 16);
    if (seen != Hex(outputs)) {
      *note = "output hash " + Hex(outputs) + " differs from " + seen +
              ", recorded by an earlier run of this binary and seed";
      return false;
    }
    *note = "matches an earlier run of this binary and seed";
    return true;
  }
  WriteTextFile(path, ledger + key + Hex(outputs) + "\n");
  *note = "first run of this binary and seed";
  return true;
}

uint64_t CombinedHash(const Inputs& in) {
  std::string all = Hex(in.model_hash);
  for (uint64_t h : in.output_hash) all += Hex(h);
  return Fnv1a64(all);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

struct RunState {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // first few, for stderr

  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 5) errors.push_back(why);
  }
};

// One timed CLI request plus its (untimed) output check.
struct Timed {
  bool ok = false;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

Timed TimedRequest(const WorkloadSpec& spec, const Inputs& in, size_t table,
                   const std::string& out_path, RunState& run) {
  Timed t;
  ++run.attempted;
  const double w0 = WallMs(), c0 = ProcessCpuMs();
  const smfl::Status st = RunRequest(spec, in, table, out_path);
  t.wall_ms = WallMs() - w0;
  t.cpu_ms = ProcessCpuMs() - c0;
  if (!st.ok()) {
    run.Fail("request failed: " + st.ToString());
    return t;
  }
  const OutputCheck c = CheckRequestOutput(in.tables[table], out_path);
  if (!c.ok) {
    run.Fail("output check failed: " + c.error);
  } else if (c.hash != in.output_hash[table]) {
    run.Fail("output hash " + Hex(c.hash) + " differs from the warm-up's " +
             Hex(in.output_hash[table]));
  } else {
    t.ok = true;
  }
  return t;
}

// A traced replay of the request just made from `table`; its output must
// be byte-identical to the CLI request's at `cli_out`.
ReplayResult TracedReplay(const WorkloadSpec& spec, const Inputs& in,
                          size_t table, const std::string& cli_out,
                          const std::string& replay_out,
                          SpanRecorder& recorder, int64_t request,
                          RunState& run) {
  ++run.attempted;
  ReplayResult r = Replay(spec, in.paths[table], in.model_path, replay_out,
                          recorder, request);
  if (!r.status.ok()) {
    run.Fail("traced replay failed: " + r.status.ToString());
    return r;
  }
  std::string cli_bytes, replay_bytes;
  ReadTextFile(cli_out, &cli_bytes);
  ReadTextFile(replay_out, &replay_bytes);
  if (cli_bytes.empty() || cli_bytes != replay_bytes) {
    r.status = smfl::Status::DataError("replay output differs");
    run.Fail("traced replay output differs from the CLI request's");
  }
  return r;
}

int Run(const Args& args, const WorkloadSpec& spec) {
  smfl::telemetry::SetEnabled(false);
  // What the CLI's --threads does before dispatching a subcommand.
  smfl::parallel::SetParallelism(spec.threads);
  const bool traced = args.trace == 1;
  fs::create_directories(args.state_dir);
  RunState run;
  std::vector<std::string> notes;

  // Set-up, several times: setup_s is the median, and every set-up from
  // the same seed must produce the same inputs, model and outputs. Each
  // set-up lies between two probe runs and is scaled by them.
  HostProbe probe;
  ProbeTime last_probe = probe.Run();
  std::vector<double> probe_ms = {last_probe.wall_ms};
  // The probe does the same work on every run, or its times mean nothing.
  const double probe_checksum = probe.checksum();
  auto run_probe = [&] {
    const ProbeTime p = probe.Run();
    probe_ms.push_back(p.wall_ms);
    if (probe.checksum() != probe_checksum) {
      run.Fail("the host probe's result changed between runs");
    }
    return p;
  };
  std::vector<double> setup_s, unscaled_setup_s;
  Inputs in;
  const int setups = traced ? 1 : kSetups;
  for (int s = 0; s < setups; ++s) {
    Inputs fresh;
    std::string error;
    const double t0 = WallMs();
    if (!SetUp(args, spec, args.work_dir + "/setup" + std::to_string(s),
               &fresh, &error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", error.c_str());
      return 1;
    }
    const double setup_ms = WallMs() - t0;
    const ProbeTime after = run_probe();
    unscaled_setup_s.push_back(setup_ms / 1e3);
    setup_s.push_back(
        ScaleToReference(setup_ms, last_probe.wall_ms, after.wall_ms) / 1e3);
    last_probe = after;
    if (s > 0 && (fresh.output_hash != in.output_hash ||
                  fresh.model_hash != in.model_hash)) {
      run.Fail("set-up " + std::to_string(s) +
               " from the same seed produced different outputs");
    }
    in = std::move(fresh);
  }
  std::string binary_bytes;
  ReadTextFile(args.self_path, &binary_bytes);
  std::string ledger_note;
  if (!CheckHashLedger(args, Fnv1a64(binary_bytes), CombinedHash(in),
                       &ledger_note)) {
    run.Fail(ledger_note);
  }

  const std::string out_path = args.work_dir + "/out.csv";
  const std::string replay_path = args.work_dir + "/replay.csv";
  std::vector<double> wall_ms, cpu_ms, traced_ms, cycles;
  // Untraced: the unscaled times, and the requests since the last probe.
  std::vector<double> unscaled_wall_ms, unscaled_cpu_ms;
  std::vector<size_t> window;
  double window_ms = 0.0, rows = 0.0;
  auto close_window = [&] {
    const ProbeTime after = run_probe();
    for (size_t k : window) {
      wall_ms[k] = ScaleToReference(unscaled_wall_ms[k], last_probe.wall_ms,
                                    after.wall_ms);
      cpu_ms[k] = ScaleToReference(unscaled_cpu_ms[k], last_probe.cpu_ms,
                                   after.cpu_ms);
    }
    window.clear();
    window_ms = 0.0;
    last_probe = after;
  };
  SpanRecorder recorder;
  std::vector<ReplayResult> replays;
  // The run measures for --seconds: a request starts only while the time
  // left holds one more cycle (request, check, the probe run that closes a
  // window or, traced, the replay) of the median length seen so far.
  const double deadline = WallMs() + 1e3 * args.seconds;
  for (size_t i = 0;
       i == 0 || WallMs() + Median(cycles) < deadline; ++i) {
    const double cycle_start = WallMs();
    const size_t table = i % in.tables.size();
    const Timed t = TimedRequest(spec, in, table, out_path, run);
    if (t.ok) {
      if (!traced) window.push_back(wall_ms.size());
      wall_ms.push_back(t.wall_ms);
      cpu_ms.push_back(t.cpu_ms);
      unscaled_wall_ms.push_back(t.wall_ms);
      unscaled_cpu_ms.push_back(t.cpu_ms);
      rows += static_cast<double>(in.tables[table].rows);
    }
    window_ms += t.wall_ms;
    if (!traced && window_ms >= kProbeWindowMs) close_window();
    if (traced) {
      ReplayResult r = TracedReplay(spec, in, table, out_path, replay_path,
                                    recorder, static_cast<int64_t>(i), run);
      if (r.status.ok()) {
        traced_ms.push_back(r.wall_ms);
        replays.push_back(std::move(r));
      }
    }
    cycles.push_back(WallMs() - cycle_start);
  }
  if (!window.empty()) close_window();

  std::vector<Metric> metrics;
  std::map<std::string, size_t> samples;
  const double nrmse = Nrmse(in.scaled_sq_error, in.hidden_cells);
  if (wall_ms.empty()) {
    for (const std::string& e : run.errors) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
    std::fprintf(stderr, "perfbench: no request completed\n");
    return 1;
  }
  const std::optional<double> p95 = TailPercentile(wall_ms, kTailQuantile);
  if (!traced) {
    double request_s = 0.0;
    for (double ms : wall_ms) request_s += ms / 1e3;
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"request_ms_p50", Median(wall_ms), "ms"},
        {"rows_per_s", rows / request_s, "rows/s"},
        {"cpu_ms_p50", Median(cpu_ms), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"nrmse", nrmse, "ratio"},
    };
    samples = {{"setup_s", setup_s.size()},
               {"request_ms_p50", wall_ms.size()},
               {"rows_per_s", wall_ms.size()},
               {"cpu_ms_p50", cpu_ms.size()},
               {"probe_ms_p50", probe_ms.size()}};
  }
  std::string trace_path;
  if (traced && !replays.empty()) {
    const std::vector<double> self = SelfTimesUs(recorder.spans());
    const double untraced_p50 = Median(wall_ms);
    const double overhead_pct =
        100.0 * (Median(traced_ms) - untraced_p50) / untraced_p50;
    for (ReplayResult& r : replays) {
      const size_t req = static_cast<size_t>(r.request_span);
      const double dur = recorder.spans()[req].duration_us();
      r.layers["cli.trace_coverage_pct"] = 100.0 * (dur - self[req]) / dur;
      r.layers["common.telemetry_overhead_pct"] = overhead_pct;
    }
    for (const MetricDef& def : PerLayerMetrics()) {
      std::vector<double> values;
      for (const ReplayResult& r : replays) values.push_back(r.layers.at(def.name));
      metrics.push_back({def.name, Median(values), def.unit});
      samples[def.name] = values.size();
    }
    fs::create_directories(args.state_dir + "/traces");
    trace_path = args.state_dir + "/traces/" + args.workload + "-seed" +
                 std::to_string(args.seed) + ".json";
    const std::string merged = MergeChromeTrace(
        smfl::telemetry::TraceRecorder::Global().ChromeTraceJson(),
        recorder.ChromeEvents());
    if (!WriteTextFile(trace_path, merged)) {
      notes.push_back("cannot write " + trace_path);
      trace_path.clear();
    }
  }
  if (metrics.empty()) {
    for (const std::string& e : run.errors) {
      std::fprintf(stderr, "perfbench: %s\n", e.c_str());
    }
    std::fprintf(stderr, "perfbench: no traced request completed\n");
    return 1;
  }

  // Host and configuration, then one line per metric, then the result.
  std::string config =
      "{\"perfbench_config\": {\"workload\": \"" + args.workload +
      "\", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + std::to_string(args.seconds) +
      ", \"trace\": " + std::to_string(args.trace) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": \"" + JsonEscape(CpuModel()) +
      "\", \"simd_tier\": \"" +
      smfl::la::simd::TierName(smfl::la::simd::ActiveTier()) +
      "\", \"threads\": " + std::to_string(spec.threads) +
      ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
      "\", \"rows_per_request\": " +
      std::to_string(spec.apply ? spec.batch_rows : spec.rows) +
      ", \"output_hash\": \"" + Hex(CombinedHash(in)) +
      "\", \"output_hash_ledger\": \"" + JsonEscape(ledger_note) + "\"";
  if (traced) {
    config += ", \"traced_requests\": " + std::to_string(replays.size()) +
              ", \"trace_file\": \"" + JsonEscape(trace_path) + "\"";
  }
  // The tail percentile needs kMinBeyond samples past it (stats.h).
  if (p95) samples["request_ms_p95"] = wall_ms.size();
  config += ", \"request_ms_p95\": " +
            (p95 ? FormatNumber(*p95) : std::string("null")) +
            ", \"request_ms_p95_needs_samples\": " +
            std::to_string(MinSamplesForPercentile(kTailQuantile)) +
            ", \"probe_ms_p50\": " + FormatNumber(Median(probe_ms)) +
            ", \"probe_reference_ms\": " + FormatNumber(kProbeReferenceMs) +
            ", \"unscaled\": {\"setup_s\": " +
            FormatNumber(Median(unscaled_setup_s)) +
            ", \"request_ms_p50\": " + FormatNumber(Median(unscaled_wall_ms)) +
            ", \"cpu_ms_p50\": " + FormatNumber(Median(unscaled_cpu_ms)) +
            "}, \"failed_ratio\": " +
            FormatNumber(static_cast<double>(run.failed) /
                         static_cast<double>(run.attempted)) +
            ", \"samples\": {";
  bool first = true;
  for (const auto& [name, n] : samples) {
    config += std::string(first ? "" : ", ") + "\"" + name +
              "\": " + std::to_string(n);
    first = false;
  }
  config += "}}}";
  std::printf("%s\n", config.c_str());
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : run.errors) {
    std::printf("FAILED: %s\n", e.c_str());
  }
  for (const std::string& n : notes) std::printf("note: %s\n", n.c_str());
  PrintResult(run.failed == 0, run.attempted, run.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  const std::vector<std::string> failures = RunSelfTests();
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench self-test failed: %s\n", f.c_str());
  }
  if (args.selftest) {
    if (failures.empty()) std::printf("perfbench self-tests passed\n");
    return failures.empty() ? 0 : 1;
  }
  if (!failures.empty()) return 2;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing an assertion-enabled build\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a '%s' build; only Release is "
                 "measured\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::string names;
    for (const std::string& n : WorkloadNames()) names += " " + n;
    std::fprintf(stderr, "perfbench: unknown workload '%s' (known:%s)\n",
                 args.workload.c_str(), names.c_str());
    return 2;
  }
  const int rc = Run(args, *spec);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  return rc;
}
