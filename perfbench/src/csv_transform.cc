// csv_transform: the paper's end goal — match, map, then move the data.
// A closed loop whose ops alternate between the two heterogeneity patterns
// of Section 5:
//   * Retail horizontal partitioning: one inventory table (~8 MB of CSV)
//     split into the Book and Music target tables;
//   * Grades attribute normalization: grades_narrow (~7 MB of CSV)
//     promoted into one grades_wide row per student.
// One op: ReadCsvFileStreaming of the source -> Execute on a few-hundred-row
// training sample -> BuildSchemaMapping on that sample -> ExecuteMappings
// over the full instance -> WriteCsvFile of every output table.  Ops run in
// Retail/Grades pairs so every run has the same mix.
//
// The training samples (and the target samples the matcher sees) are fixed;
// the seed generates the full instances they are applied to.  About one
// generated sample in twenty legitimately selects a wrong view (Retail
// F = 0.42), which would make the transform itself wrong; the fixed samples
// are ones the matcher gets right, so no op fails on any seed.
//
// Traced run: the first half of the time runs untraced ops; the second half
// wraps each step in a span and, per op, also times ScanCsvChunks and a
// one-thread TableFromCsvParallel on the in-memory text.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common.h"
#include "core/match_engine.h"
#include "datagen/scale_gen.h"
#include "mapping/clio.h"
#include "relational/condition.h"
#include "relational/csv.h"

namespace perfbench {
namespace {

constexpr size_t kRetailRows = 100'000;
constexpr size_t kStudents = 50'000;
constexpr size_t kExams = 5;
/// Training sample: Retail rows, and Grades students (kExams rows each).
constexpr size_t kRetailSampleRows = 400;
constexpr size_t kGradesSampleStudents = 100;
/// Rows per target table the matcher sees.
constexpr size_t kTargetSampleRows = 200;
/// Generator seed of the training and target samples.
constexpr uint64_t kTrainingSeed = 0x7a1;
/// Per-op F-measure floor against the generator's ground truth.
constexpr double kMinFmeasure = 0.9;

/// One heterogeneity pattern: where its source CSV lives and what a correct
/// transform of it must produce.
struct Pattern {
  std::string name;
  csm::TableSchema source_schema;
  std::string csv_path;
  size_t source_rows = 0;
  csm::Database training;       // the source sample the matcher sees
  csm::Database target_sample;  // what the matcher sees of the target
  csm::GroundTruth truth;
  /// Expected output rows per target table.
  std::vector<std::pair<std::string, size_t>> expected_rows;
  csm::ContextMatchOptions options;
};

csm::ContextMatchOptions BaseOptions(uint64_t seed) {
  csm::ContextMatchOptions options;
  options.inference = csm::ViewInferenceKind::kSrcClass;
  options.selection = csm::SelectionPolicy::kQualTable;
  options.threads = kEngineThreads;
  options.seed = seed;
  return options;
}

bool WriteSource(const csm::Database& source, const std::string& path) {
  return csm::WriteCsvFile(source.tables().front(), path).ok();
}

/// Generates both patterns and writes their source CSVs into `dir`.
std::vector<Pattern> MakePatterns(uint64_t seed, const std::string& dir) {
  std::vector<Pattern> patterns(2);

  csm::ScaleRetailOptions retail_options;
  retail_options.source_rows = kRetailSampleRows;
  retail_options.target_rows_per_table = kTargetSampleRows;
  retail_options.seed = kTrainingSeed;
  retail_options.threads = kEngineThreads;
  csm::RetailDataset training = csm::MakeScaleRetailDataset(retail_options);
  retail_options.source_rows = kRetailRows;
  retail_options.target_rows_per_table = 1;  // only the source is used
  retail_options.seed = MixSeed(seed, 1);
  csm::RetailDataset retail = csm::MakeScaleRetailDataset(retail_options);
  Pattern& r = patterns[0];
  const csm::Table& inventory = retail.source.tables().front();
  r.name = "retail";
  r.source_schema = inventory.schema();
  r.csv_path = dir + "/" + inventory.name() + ".csv";
  r.source_rows = inventory.num_rows();
  r.expected_rows = {
      {"Book", csm::Condition::In("ItemType", retail.book_labels)
                   .MatchingPositions(inventory)
                   .size()},
      {"Music", csm::Condition::In("ItemType", retail.cd_labels)
                    .MatchingPositions(inventory)
                    .size()}};
  r.options = BaseOptions(MixSeed(kTrainingSeed, 3));
  r.options.tau = 0.5;
  r.options.omega = 0.1;
  r.options.early_disjuncts = true;
  if (!WriteSource(retail.source, r.csv_path)) return {};
  r.training = std::move(training.source);
  r.target_sample = std::move(training.target);
  r.truth = std::move(training.truth);

  csm::ScaleGradesOptions grades_options;
  grades_options.num_students = kGradesSampleStudents;
  grades_options.num_exams = kExams;
  grades_options.seed = kTrainingSeed;
  grades_options.threads = kEngineThreads;
  csm::GradesDataset grades_training =
      csm::MakeScaleGradesDataset(grades_options);
  grades_options.num_students = kStudents;
  grades_options.seed = MixSeed(seed, 2);
  csm::GradesDataset grades = csm::MakeScaleGradesDataset(grades_options);
  Pattern& g = patterns[1];
  const csm::Table& narrow = grades.source.tables().front();
  g.name = "grades";
  g.source_schema = narrow.schema();
  g.csv_path = dir + "/" + narrow.name() + ".csv";
  g.source_rows = narrow.num_rows();
  g.expected_rows = {{"grades_wide", kStudents}};
  g.options = BaseOptions(MixSeed(kTrainingSeed, 4));
  g.options.tau = 0.45;
  g.options.omega = 0.025;
  g.options.early_disjuncts = false;
  if (!WriteSource(grades.source, g.csv_path)) return {};
  g.training = std::move(grades_training.source);
  g.target_sample = std::move(grades_training.target);
  g.truth = std::move(grades_training.truth);
  return patterns;
}

/// Step timings and volumes of one transform op.
struct OpStats {
  double read_s = 0.0;
  size_t read_bytes = 0;
  size_t rows_out = 0;
  size_t written_bytes = 0;
  double fmeasure = 0.0;
};

/// One transform op on `pattern`; spans go to `spans` under op id `op`.
/// Returns false (and counts the failure) when an output is wrong.
bool TransformOp(const Pattern& pattern, csm::MatchEngine& engine,
                 const std::string& out_dir, SpanLog& spans, uint64_t op,
                 uint64_t* reference_hash, OpStats* stats,
                 RunResult* result) {
  csm::CsvIngestOptions ingest;
  ingest.threads = kEngineThreads;
  csm::CsvIngestStats ingest_stats;
  const auto read_start = Clock::now();
  auto table = spans.Time("relational.csv_read", op, [&] {
    return csm::ReadCsvFileStreaming(pattern.source_schema, pattern.csv_path,
                                     ingest, &ingest_stats);
  });
  stats->read_s = SecondsSince(read_start);
  stats->read_bytes = ingest_stats.file_bytes;
  if (!table.ok() || table->num_rows() != pattern.source_rows) {
    result->FailOp(pattern.name + ": CSV read failed");
    return false;
  }
  csm::Database source("source");
  source.AddTable(std::move(table).value());

  engine.ClearSessionCache();
  csm::MatchResponse response = spans.Time("core.sample_match", op, [&] {
    csm::MatchRequest request;
    request.source = csm::BorrowDatabase(pattern.training);
    request.target = csm::BorrowDatabase(pattern.target_sample);
    return engine.Execute(request);
  });
  if (!response.ok() ||
      response.completeness != csm::MatchCompleteness::kComplete) {
    result->FailOp(pattern.name + ": match not complete");
    return false;
  }
  const double f =
      csm::EvaluateMatches(pattern.truth, response.matches).fmeasure;
  stats->fmeasure = f;
  if (f < kMinFmeasure) {
    result->FailOp(pattern.name + ": F-measure " + std::to_string(f) +
                   " below floor");
    return false;
  }
  const uint64_t hash = FingerprintHash(response.result);
  if (*reference_hash == 0) *reference_hash = hash;
  if (hash != *reference_hash) {
    result->FailOp(pattern.name + ": repeated match fingerprint differs");
    return false;
  }

  const csm::Schema target_schema = pattern.target_sample.GetSchema();
  const csm::SchemaMappingResult mapping =
      spans.Time("mapping.generate", op, [&] {
        return csm::BuildSchemaMapping(pattern.training, target_schema,
                                       response.matches,
                                       response.selected_views);
      });
  auto output = spans.Time("mapping.execute", op, [&] {
    return csm::ExecuteMappings(mapping.queries, source, mapping.views,
                                target_schema);
  });
  if (!output.ok()) {
    result->FailOp(pattern.name + ": " + output.status().ToString());
    return false;
  }
  // ExecuteMappings collapses exact duplicate output rows by design, so a
  // target table may hold a few (at most 0.1%) fewer rows than source rows
  // it received.
  for (const auto& [table_name, rows] : pattern.expected_rows) {
    const csm::Table* out = output->FindTable(table_name);
    const size_t got = out == nullptr ? 0 : out->num_rows();
    if (got > rows || got < rows - rows / 1000) {
      result->FailOp(pattern.name + ": " + table_name + " has " +
                     std::to_string(got) + " rows, expected " +
                     std::to_string(rows));
      return false;
    }
  }

  bool written = true;
  spans.Time("relational.csv_write", op, [&] {
    for (const csm::Table& out : output->tables()) {
      written = written &&
                csm::WriteCsvFile(out, out_dir + "/" + out.name() + ".csv")
                    .ok();
    }
  });
  if (!written) {
    result->FailOp(pattern.name + ": CSV write failed");
    return false;
  }
  for (const csm::Table& out : output->tables()) {
    stats->rows_out += out.num_rows();
    stats->written_bytes +=
        std::filesystem::file_size(out_dir + "/" + out.name() + ".csv");
  }
  return true;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The in-memory ingest layers: chunk scan and one-thread parse.
void TraceInMemoryIngest(const Pattern& pattern, SpanLog& spans, uint64_t op,
                         RunResult* result) {
  const std::string text = ReadFile(pattern.csv_path);
  const size_t header_end = text.find('\n') + 1;
  const size_t chunk_bytes = csm::AutotuneCsvChunkBytes(text.size(), 1);
  const size_t chunks = spans.Time("relational.csv_scan", op, [&] {
    return csm::ScanCsvChunks(text, header_end, chunk_bytes).size();
  });
  csm::CsvIngestOptions serial;
  serial.threads = 1;
  auto parsed = spans.Time("relational.csv_parse", op, [&] {
    return csm::TableFromCsvParallel(pattern.source_schema, text, serial);
  });
  if (chunks == 0 || !parsed.ok() ||
      parsed->num_rows() != pattern.source_rows) {
    result->Invalidate(pattern.name + ": in-memory parse disagrees");
  }
}

}  // namespace

RunResult RunCsvTransform(const RunConfig& config) {
  RunResult result;
  const std::string in_dir = config.work_dir + "/csv_transform-in";
  const std::string out_dir = config.work_dir + "/csv_transform-out";
  std::filesystem::create_directories(in_dir);
  std::filesystem::create_directories(out_dir);
  std::vector<Pattern> patterns;
  const double setup_s =
      TimeSetup([&] { patterns = MakePatterns(config.seed, in_dir); });
  if (patterns.empty()) {
    result.Invalidate("could not write the source CSVs");
    return result;
  }

  csm::MatchEngine retail_engine(patterns[0].options);
  csm::MatchEngine grades_engine(patterns[1].options);
  csm::MatchEngine* engines[2] = {&retail_engine, &grades_engine};
  uint64_t reference[2] = {0, 0};
  uint64_t op = 0;

  // Untraced ops (the whole run, or its first half when tracing), always in
  // whole Retail/Grades pairs.
  SpanLog untraced(false);
  std::vector<double> op_seconds, cpu;
  double rows = 0, read_s = 0, read_bytes = 0;
  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  const auto loop_start = Clock::now();
  while (SecondsSince(loop_start) < untraced_seconds || op % 2 == 1) {
    const Pattern& pattern = patterns[op % 2];
    OpStats stats;
    const double cpu_start = CpuSeconds();
    const auto start = Clock::now();
    TransformOp(pattern, *engines[op % 2], out_dir, untraced, op,
                &reference[op % 2], &stats, &result);
    op_seconds.push_back(SecondsSince(start));
    cpu.push_back(CpuSeconds() - cpu_start);
    std::printf("op %llu %-6s %.3f s, CPU %.3f s (read %.3f s), F %.3f\n",
                static_cast<unsigned long long>(op), pattern.name.c_str(),
                op_seconds.back(), cpu.back(), stats.read_s, stats.fmeasure);
    ++result.attempted;
    rows += static_cast<double>(pattern.source_rows);
    read_s += stats.read_s;
    read_bytes += static_cast<double>(stats.read_bytes);
    ++op;
  }
  const double cpu_util =
      Mean(cpu) / (Mean(op_seconds) * static_cast<double>(kEngineThreads));
  const Quantiles q = Summarize(op_seconds);
  const double rows_per_s =
      rows / (Mean(op_seconds) * static_cast<double>(op_seconds.size()));
  PrintQuantile("transform_op_p50_s", q.p50, q.n, "s");
  PrintQuantile("transform_op_p90_s", q.p90, q.n, "s");
  PrintValue("transform_rows_per_s", rows_per_s, "1/s");
  PrintValue("ingest_mb_s", read_bytes / 1e6 / read_s, "MB/s");
  PrintValue("cpu_per_op_s", Mean(cpu), "s");
  PrintValue("exec.cpu_util", cpu_util, "ratio");

  if (!config.trace) {
    result.Set("cpu_per_op_s", Mean(cpu));
    result.Set("setup_s", setup_s);
  } else {
    SpanLog spans(true);
    std::vector<double> traced_ops, rows_out, written_mb;
    double traced_read_s = 0, traced_read_bytes = 0;
    const auto traced_start = Clock::now();
    while (SecondsSince(traced_start) < config.seconds / 2 || op % 2 == 1) {
      const Pattern& pattern = patterns[op % 2];
      OpStats stats;
      const auto start = Clock::now();
      TransformOp(pattern, *engines[op % 2], out_dir, spans, op,
                  &reference[op % 2], &stats, &result);
      const auto end = Clock::now();
      spans.Record(kOpSpan, op, start, end);
      traced_ops.push_back(Seconds(start, end));
      ++result.attempted;
      rows_out.push_back(static_cast<double>(stats.rows_out));
      written_mb.push_back(static_cast<double>(stats.written_bytes) / 1e6);
      traced_read_s += stats.read_s;
      traced_read_bytes += static_cast<double>(stats.read_bytes);
      TraceInMemoryIngest(pattern, spans, op, &result);
      ++op;
    }
    // Ops alternate patterns, so per-layer values are per-op means.
    const size_t n = traced_ops.size();
    for (const char* name :
         {"relational.csv_read", "relational.csv_scan", "relational.csv_parse",
          "core.sample_match", "mapping.generate", "mapping.execute",
          "relational.csv_write"}) {
      const double mean = Mean(spans.PerOpTotals(name));
      const std::string metric = std::string(name) + "_s";
      PrintValue(metric + " (mean of " + std::to_string(n) + " ops)", mean,
                 "s");
      result.Set(metric, mean);
    }
    result.Set("relational.csv_read_mb_s",
               traced_read_bytes / 1e6 / traced_read_s);
    result.Set("mapping.rows_out", Mean(rows_out));
    result.Set("relational.csv_write_mb", Mean(written_mb));
    result.Set("exec.cpu_util", cpu_util);
    const double overhead = Mean(traced_ops) / Mean(op_seconds);
    PrintValue("trace.overhead_ratio (mean op, traced/untraced)", overhead,
               "ratio");
    result.Set("trace.overhead_ratio", overhead);
    spans.WriteJsonLines(config.work_dir + "/spans-csv_transform.jsonl");
  }

  std::error_code ignored;
  std::filesystem::remove_all(in_dir, ignored);
  std::filesystem::remove_all(out_dir, ignored);
  return result;
}

}  // namespace perfbench
