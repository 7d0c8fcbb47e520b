// Command-line contextual schema matcher over CSV files — the "downstream
// user" entry point: point it at two directories of CSVs (one table per
// file, header row, types inferred) and it prints the contextual matches.
//
// Usage:
//   csv_match_tool SOURCE_DIR TARGET_DIR [options]
// Options:
//   --tau=F          StandardMatch confidence threshold   (default 0.5)
//   --omega=F        view improvement threshold           (default 0.1)
//                    (both in [0, 1])
//   --infer=KIND     naive | src | tgt                    (default src)
//   --select=POLICY  qualtable | multitable               (default qualtable)
//   --late           LateDisjuncts (default EarlyDisjuncts)
//   --stages=N       conjunctive condition stages         (default 1)
//   --target-views   also search for conditions on the target tables
//   --seed=N         RNG seed                             (default 1)
//   --threads=N      worker threads for CSV ingest and matching;
//                    0 = all cores                        (default 1)
//                    (results are identical for every N)
//   --sample-rows=N  cap classifier training at N rows per table (uniform
//                    deterministic sample; 0 = train on every row)
//   --load-only      stop after loading both directories (ingest smoke:
//                    CI's million-row scale job uses this to exercise CSV
//                    ingest under ASan without a full match)
//   --deadline-ms=N  wall-clock budget per match run; on expiry the run
//                    degrades (baseline + views scored so far) and the
//                    tool exits with code 3 after printing what it has
//   --trace-out=F    write a Chrome trace of the run to F
//                    (open in chrome://tracing or https://ui.perfetto.dev)
//   --metrics-out=F  write the run's metrics (phase seconds, counters,
//                    latency histograms) as JSON to F; "-" prints a
//                    readable summary to stdout
//
// Exit codes come from the shared StatusCode table (ExitCodeForStatus in
// common/status.h, the same mapping the match service uses): 0 success,
// 1 internal failure, 2 bad input (unusable flags, missing/unreadable or
// malformed CSVs), 3 deadline exceeded or cancelled (degraded result was
// still printed).  Output-write failures (trace/metrics files) exit 1.
//
// Demo (no arguments): generates the Retail data set into a temp directory
// and matches it, so the tool is runnable out of the box.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>

#include "core/match_engine.h"
#include "datagen/retail_gen.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "relational/csv.h"

namespace {

using namespace csm;

bool ParseFlag(const std::string& arg, const std::string& name,
               std::string* value) {
  std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

/// True when `value` is a whole non-negative decimal integer that fits
/// `*out`, digits only (atoll would turn "-1" into SIZE_MAX workers, "abc"
/// into 0 and "5x" into 5).
template <typename Unsigned>
bool ParseDigits(const std::string& value, Unsigned* out) {
  static_assert(std::is_unsigned_v<Unsigned>);
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// Parses a count flag's value by ParseDigits' rule.  Prints the rejection
/// and returns false on anything else.
template <typename Unsigned>
bool ParseCountFlag(const char* name, const std::string& value,
                    Unsigned* out) {
  if (ParseDigits(value, out)) return true;
  std::fprintf(stderr, "--%s needs a non-negative integer, got '%s'\n", name,
               value.c_str());
  return false;
}

/// Parses a threshold flag's value: a whole decimal number in [0, 1], so
/// not NaN or infinite (atof would read "abc" as 0).  Prints the rejection
/// and returns false on anything else.
bool ParseUnitFlag(const char* name, const std::string& value, double* out) {
  const char* end = value.data() + value.size();
  double parsed = 0.0;
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (ec == std::errc() && ptr == end && parsed >= 0.0 && parsed <= 1.0) {
    *out = parsed;
    return true;
  }
  std::fprintf(stderr, "--%s needs a number in [0, 1], got '%s'\n", name,
               value.c_str());
  return false;
}

StatusOr<Database> LoadDirectory(const std::string& dir,
                                 const std::string& db_name, size_t threads) {
  namespace fs = std::filesystem;
  Database db(db_name);
  std::error_code ec;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".csv") files.push_back(entry.path());
  }
  if (ec) return Status::IoError("cannot list directory: " + dir);
  if (files.empty()) {
    return Status::NotFound("no .csv files in " + dir);
  }
  std::sort(files.begin(), files.end());
  CsvIngestOptions ingest;
  ingest.threads = threads;
  for (const auto& path : files) {
    CSM_ASSIGN_OR_RETURN(
        Table table,
        ReadCsvFileInferred(path.stem().string(), path.string(), ingest));
    std::printf("loaded %-24s %8zu rows  %s\n", path.filename().c_str(),
                table.num_rows(), table.schema().ToString().c_str());
    db.AddTable(std::move(table));
  }
  return db;
}

int WriteDemoData(const std::string& src_dir, const std::string& tgt_dir) {
  RetailOptions options;
  options.num_items = 300;
  options.gamma = 2;
  options.seed = 7;
  RetailDataset data = MakeRetailDataset(options);
  std::filesystem::create_directories(src_dir);
  std::filesystem::create_directories(tgt_dir);
  for (const Table& t : data.source.tables()) {
    if (!WriteCsvFile(t, src_dir + "/" + t.name() + ".csv").ok()) return 1;
  }
  for (const Table& t : data.target.tables()) {
    if (!WriteCsvFile(t, tgt_dir + "/" + t.name() + ".csv").ok()) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string source_dir, target_dir;
  ContextMatchOptions options;
  options.omega = 0.1;
  size_t stages = 1;
  bool target_views = false;
  bool load_only = false;
  std::string trace_out, metrics_out;

  std::vector<std::string> args(argv + 1, argv + argc);
  std::vector<std::string> positional;
  for (const std::string& arg : args) {
    std::string value;
    if (ParseFlag(arg, "tau", &value)) {
      if (!ParseUnitFlag("tau", value, &options.tau)) return 2;
    } else if (ParseFlag(arg, "omega", &value)) {
      if (!ParseUnitFlag("omega", value, &options.omega)) return 2;
    } else if (ParseFlag(arg, "seed", &value)) {
      if (!ParseCountFlag("seed", value, &options.seed)) return 2;
    } else if (ParseFlag(arg, "stages", &value)) {
      if (!ParseCountFlag("stages", value, &stages)) return 2;
    } else if (ParseFlag(arg, "threads", &value)) {
      if (!ParseCountFlag("threads", value, &options.threads)) return 2;
    } else if (ParseFlag(arg, "deadline-ms", &value)) {
      uint64_t deadline_ms = 0;
      if (!ParseDigits(value, &deadline_ms) || deadline_ms == 0 ||
          deadline_ms > static_cast<uint64_t>(INT64_MAX)) {
        std::fprintf(stderr, "--deadline-ms needs a positive integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.deadline_ms = static_cast<int64_t>(deadline_ms);
    } else if (ParseFlag(arg, "infer", &value)) {
      if (value == "naive") options.inference = ViewInferenceKind::kNaive;
      else if (value == "src") options.inference = ViewInferenceKind::kSrcClass;
      else if (value == "tgt") options.inference = ViewInferenceKind::kTgtClass;
      else {
        std::fprintf(stderr, "unknown --infer value '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "select", &value)) {
      if (value == "qualtable") {
        options.selection = SelectionPolicy::kQualTable;
      } else if (value == "multitable") {
        options.selection = SelectionPolicy::kMultiTable;
      } else {
        std::fprintf(stderr, "unknown --select value '%s'\n", value.c_str());
        return 2;
      }
    } else if (ParseFlag(arg, "trace-out", &value)) {
      trace_out = value;
    } else if (ParseFlag(arg, "metrics-out", &value)) {
      metrics_out = value;
    } else if (ParseFlag(arg, "sample-rows", &value)) {
      if (!ParseCountFlag("sample-rows", value,
                          &options.match.max_training_rows)) {
        return 2;
      }
    } else if (arg == "--load-only") {
      load_only = true;
    } else if (arg == "--late") {
      options.early_disjuncts = false;
    } else if (arg == "--target-views") {
      target_views = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (positional.empty()) {
    // Demo mode: generate retail CSVs into a temp workspace.
    std::string base = std::filesystem::temp_directory_path() /
                       "csm_demo";
    source_dir = base + "/source";
    target_dir = base + "/target";
    std::printf("demo mode: writing Retail CSVs under %s\n\n", base.c_str());
    if (WriteDemoData(source_dir, target_dir) != 0) {
      std::fprintf(stderr, "failed to write demo data\n");
      return 1;
    }
  } else if (positional.size() == 2) {
    source_dir = positional[0];
    target_dir = positional[1];
  } else {
    std::fprintf(stderr, "usage: %s SOURCE_DIR TARGET_DIR [options]\n",
                 argv[0]);
    return 2;
  }

  // Unreadable or malformed input is the caller's problem: load failures
  // carry kIoError/kNotFound/kInvalidArgument, which the shared table maps
  // to exit 2 (bad input), distinct from the tool's own failures (exit 1).
  auto source = LoadDirectory(source_dir, "source", options.threads);
  if (!source.ok()) {
    std::fprintf(stderr, "cannot load source: %s\n",
                 source.status().ToString().c_str());
    return ExitCodeForStatus(source.status().code());
  }
  auto target = LoadDirectory(target_dir, "target", options.threads);
  if (!target.ok()) {
    std::fprintf(stderr, "cannot load target: %s\n",
                 target.status().ToString().c_str());
    return ExitCodeForStatus(target.status().code());
  }
  if (load_only) {
    std::printf("\nload-only: %zu source + %zu target tables loaded ok\n",
                source->tables().size(), target->tables().size());
    return 0;
  }

  std::printf("\nrunning ContextMatch: tau=%.2f omega=%.3f infer=%s "
              "select=%s %s stages=%zu threads=%zu\n\n",
              options.tau, options.omega,
              ViewInferenceKindToString(options.inference),
              SelectionPolicyToString(options.selection),
              options.early_disjuncts ? "EarlyDisjuncts" : "LateDisjuncts",
              stages, options.threads);

  // One engine for the whole invocation: the --target-views pass below
  // reuses its thread pool, and the optional sinks see both runs.
  MatchEngine engine(options);
  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  if (!trace_out.empty()) engine.set_tracer(&tracer);
  if (!metrics_out.empty()) engine.set_metrics(&metrics);

  MatchRequest request;
  request.mode = stages > 1 ? MatchMode::kConjunctive : MatchMode::kContext;
  request.max_stages = stages;
  request.source = BorrowDatabase(*source);
  request.target = BorrowDatabase(*target);
  MatchResponse response = engine.Execute(request);
  const ContextMatchResult& result = response.result;
  std::printf("-- selected views (%zu of %zu candidates) --\n",
              response.selected_views.size(),
              result.pool.candidate_views.size());
  for (const View& v : response.selected_views) {
    std::printf("  %s\n", v.ToString().c_str());
  }
  std::printf("-- matches --\n");
  for (const Match& m : response.matches) {
    std::printf("  %s\n", m.ToString().c_str());
  }
  std::printf("(%zu matches, %.3fs total)\n", response.matches.size(),
              result.TotalSeconds());

  // A degraded run still prints its partial answer above; the status and
  // exit code (shared table: deadline/cancel = 3) tell scripts the answer
  // is incomplete.
  int exit_code = response.ExitCode();
  if (!response.ok()) {
    std::fprintf(stderr, "\nrun degraded: %s (completeness: %s)\n",
                 response.status.ToString().c_str(),
                 MatchCompletenessToString(response.completeness));
  }

  if (target_views) {
    std::printf("\n-- target-side contextual matching --\n");
    request.mode = MatchMode::kTargetContext;
    request.max_stages = 1;
    MatchResponse reversed = engine.Execute(request);
    for (const View& v : reversed.selected_views) {
      std::printf("  target view: %s\n", v.ToString().c_str());
    }
    for (const Match& m : reversed.matches) {
      std::printf("  %s\n", m.ToString().c_str());
    }
    if (!reversed.ok()) {
      std::fprintf(stderr, "\ntarget-side run degraded: %s (completeness: %s)\n",
                   reversed.status.ToString().c_str(),
                   MatchCompletenessToString(reversed.completeness));
      if (exit_code == 0) exit_code = reversed.ExitCode();
    }
  }

  if (!trace_out.empty()) {
    if (tracer.WriteChromeTrace(trace_out)) {
      std::printf("\nwrote trace (%zu spans) to %s\n", tracer.span_count(),
                  trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", trace_out.c_str());
      return 1;
    }
  }
  if (!metrics_out.empty()) {
    if (metrics_out == "-") {
      std::printf("\n-- metrics --\n%s", metrics.ToString().c_str());
    } else {
      std::ofstream out(metrics_out);
      out << metrics.ToJson() << "\n";
      if (!out) {
        std::fprintf(stderr, "cannot write metrics to %s\n",
                     metrics_out.c_str());
        return 1;
      }
      std::printf("\nwrote metrics to %s\n", metrics_out.c_str());
    }
  }
  return exit_code;
}
