// The million-row scale sweep (DESIGN.md "Streaming ingest & sampling"):
// generates a scale retail inventory, writes it as CSV, then measures
//
//   1. ingest  — streaming (mmap + chunked parallel parse) per thread
//                count: wall-clock, process CPU seconds and CPU/wall (how
//                many cores the run got), rows/sec, MB/s, speedup vs one
//                thread (one thread parses one chunk), and the reader's
//                split into load / chunk scan / chunk parse / merge;
//   2. chunks  — chunk-size sensitivity at the best thread count (the
//                autotuned size should sit near the sweep's minimum);
//   3. training — TableMatchSession build time at full table size vs a
//                quarter-size table, both capped at the same
//                max_training_rows: the ratio should hover near 1.0
//                because training cost follows the cap, not the table.
//
// Writes BENCH_scale_sweep.json (or argv[1]).  The speedup-record guard
// applies: a record from a bigger machine is not overwritten unless
// CSM_BENCH_FORCE=1.  Knobs: CSM_BENCH_SCALE_ROWS (default 1e6),
// CSM_BENCH_REPS (default 3).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "datagen/scale_gen.h"
#include "exec/thread_pool.h"
#include "match/session.h"
#include "match/matchers.h"
#include "relational/csv.h"

namespace {

using namespace csm;
using namespace csm::bench;

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One timed streaming read: wall and process CPU seconds, and the
/// reader's own counters and layer split.
struct IngestSample {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  CsvIngestStats stats;
};

/// The read of `path` with the smallest wall-clock out of `reps` (min
/// absorbs scheduling noise better than mean).  Each read includes freeing
/// its table.  Aborts unless it yields `rows` rows.
IngestSample BestIngest(size_t reps, const TableSchema& schema,
                        const std::string& path,
                        const CsvIngestOptions& options, size_t rows) {
  IngestSample best;
  for (size_t r = 0; r < reps; ++r) {
    IngestSample sample;
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = std::chrono::steady_clock::now();
    {
      auto loaded = ReadCsvFileStreaming(schema, path, options, &sample.stats);
      if (!loaded.ok() || loaded.value().num_rows() != rows) std::abort();
    }
    sample.seconds = Seconds(t0);
    sample.cpu_seconds = ProcessCpuSeconds() - cpu0;
    if (r == 0 || sample.seconds < best.seconds) best = sample;
  }
  return best;
}

/// Best-of-N wall-clock of `fn` (min absorbs scheduling noise better than
/// mean for short IO-bound runs).
template <typename Fn>
double BestOf(size_t reps, const Fn& fn) {
  double best = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double elapsed = Seconds(t0);
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

double SessionBuildSeconds(const Database& source_db, const Database& target,
                           size_t max_training_rows, size_t reps) {
  const Table& source = source_db.tables().front();
  MatchOptions options;
  options.max_training_rows = max_training_rows;
  return BestOf(reps, [&] {
    TableMatchSession session(source, target, DefaultMatcherSuite(), options);
    (void)session;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_scale_sweep.json";
  const size_t hardware = exec::ThreadPool::HardwareThreads();
  const size_t rows = GlobalBenchConfig().scale_rows > 0
                          ? GlobalBenchConfig().scale_rows
                          : 1'000'000;
  const size_t reps = GlobalBenchConfig().Repetitions(3);

  if (!SpeedupRecordWriteAllowed(json_path, hardware)) return 4;
  if (hardware == 1) {
    std::fprintf(stderr,
                 "*** WARNING: 1 hardware thread; parallel-ingest rows are "
                 "overhead measurements only.\n");
  }

  // ---- Generate and write the instance --------------------------------
  std::printf("generating scale retail instance (%zu rows)...\n", rows);
  auto t0 = std::chrono::steady_clock::now();
  ScaleRetailOptions gen;
  gen.source_rows = rows;
  gen.target_rows_per_table = std::max<size_t>(1, rows / 10);
  gen.threads = 0;
  RetailDataset data = MakeScaleRetailDataset(gen);
  const double gen_seconds = Seconds(t0);

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "csm_scale_sweep";
  fs::create_directories(dir);
  const Table& inventory = data.source.tables().front();
  const std::string csv_path = (dir / "inventory.csv").string();
  t0 = std::chrono::steady_clock::now();
  if (!WriteCsvFile(inventory, csv_path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
    return 1;
  }
  const double write_seconds = Seconds(t0);
  const size_t file_bytes = fs::file_size(dir / "inventory.csv");
  std::printf("generated in %.2fs, wrote %zu bytes in %.2fs\n\n", gen_seconds,
              file_bytes, write_seconds);

  // ---- 1. Ingest thread sweep ------------------------------------------
  std::vector<size_t> thread_counts = {1, 2, 4};
  if (hardware > 4) thread_counts.push_back(hardware);

  ResultTable ingest_table(
      "Scale: streaming CSV ingest",
      {"threads", "seconds", "cpu_s", "cpu/wall", "MB/s", "vs_1thread",
       "scan_s", "parse_s", "merge_s"});
  struct IngestRow {
    size_t threads;
    IngestSample sample;
    double rows_per_sec, mb_per_sec, speedup_vs_serial;
    double chunk_parse_seconds;  // parse_seconds less scan and merge
  };
  std::vector<IngestRow> ingest_rows;
  double one_thread_seconds = 0.0;
  for (size_t threads : thread_counts) {
    CsvIngestOptions ingest;
    ingest.threads = threads;
    IngestRow row;
    row.threads = threads;
    row.sample = BestIngest(reps, inventory.schema(), csv_path, ingest, rows);
    const double seconds = row.sample.seconds;
    const CsvIngestStats& stats = row.sample.stats;
    if (threads == 1) one_thread_seconds = seconds;
    row.rows_per_sec = seconds > 0 ? static_cast<double>(rows) / seconds : 0;
    row.mb_per_sec =
        seconds > 0 ? static_cast<double>(file_bytes) / 1e6 / seconds : 0;
    row.speedup_vs_serial = seconds > 0 ? one_thread_seconds / seconds : 0;
    row.chunk_parse_seconds =
        stats.parse_seconds - stats.scan_seconds - stats.merge_seconds;
    ingest_rows.push_back(row);
    ingest_table.AddRow(
        {std::to_string(threads), ResultTable::Num(seconds),
         ResultTable::Num(row.sample.cpu_seconds),
         ResultTable::Num(row.sample.cpu_seconds / seconds, 2),
         ResultTable::Num(row.mb_per_sec, 1),
         ResultTable::Num(row.speedup_vs_serial, 2),
         ResultTable::Num(stats.scan_seconds),
         ResultTable::Num(row.chunk_parse_seconds),
         ResultTable::Num(stats.merge_seconds)});
  }
  ingest_table.Print();
  std::printf("\n");

  // ---- 2. Chunk-size sweep ---------------------------------------------
  const size_t sweep_threads = std::min<size_t>(hardware, 4);
  ResultTable chunk_table("Scale: chunk-size sensitivity",
                          {"chunk_bytes", "seconds", "cpu_s", "chunks"});
  struct ChunkRow {
    size_t chunk_bytes;
    double seconds, cpu_seconds;
    size_t chunks;
    bool autotuned;
  };
  std::vector<ChunkRow> chunk_rows;
  const std::vector<size_t> chunk_sizes = {256u << 10, 1u << 20, 4u << 20,
                                           /*autotune=*/0};
  for (size_t chunk_bytes : chunk_sizes) {
    CsvIngestOptions ingest;
    ingest.threads = sweep_threads;
    ingest.chunk_bytes = chunk_bytes;
    const IngestSample sample =
        BestIngest(reps, inventory.schema(), csv_path, ingest, rows);
    chunk_rows.push_back({sample.stats.chunk_bytes, sample.seconds,
                          sample.cpu_seconds, sample.stats.chunks,
                          chunk_bytes == 0});
    chunk_table.AddRow({std::to_string(sample.stats.chunk_bytes) +
                            (chunk_bytes == 0 ? " (auto)" : ""),
                        ResultTable::Num(sample.seconds),
                        ResultTable::Num(sample.cpu_seconds),
                        std::to_string(sample.stats.chunks)});
  }
  chunk_table.Print();
  std::printf("\n");

  // ---- 3. Training-cost independence -----------------------------------
  const size_t cap = 2000;
  Database quarter("source");
  {
    PosList prefix(rows / 4);
    for (size_t i = 0; i < prefix.size(); ++i) {
      prefix[i] = static_cast<RowId>(i);
    }
    quarter.AddTable(inventory.SelectRows(prefix));
  }
  const double full_seconds =
      SessionBuildSeconds(data.source, data.target, cap, reps);
  const double quarter_seconds =
      SessionBuildSeconds(quarter, data.target, cap, reps);
  const double ratio =
      quarter_seconds > 0 ? full_seconds / quarter_seconds : 0.0;
  std::printf(
      "session build @cap=%zu: full (%zu rows) %.3fs, quarter (%zu rows) "
      "%.3fs, ratio %.2f (≈1.0 = cost independent of table size)\n",
      cap, rows, full_seconds, rows / 4, quarter_seconds, ratio);

  // ---- JSON -------------------------------------------------------------
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"scale_sweep\",\n"
               "  \"workload\": {\"dataset\": \"scale_retail\","
               " \"source_rows\": %zu, \"file_bytes\": %zu,"
               " \"repetitions\": %zu},\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"datagen_seconds\": %.3f,\n"
               "  \"ingest\": [\n",
               rows, file_bytes, reps, hardware, gen_seconds);
  for (size_t i = 0; i < ingest_rows.size(); ++i) {
    const IngestRow& r = ingest_rows[i];
    const CsvIngestStats& stats = r.sample.stats;
    std::fprintf(out,
                 "    {\"threads\": %zu, \"seconds\": %.4f,"
                 " \"cpu_seconds\": %.4f, \"cpu_over_wall\": %.3f,"
                 " \"rows_per_sec\": %.0f, \"rows_per_sec_per_thread\": %.0f,"
                 " \"mb_per_sec\": %.1f, \"chunks\": %zu,"
                 " \"chunk_bytes\": %zu, \"speedup_vs_1thread\": %.3f,\n"
                 "     \"load_seconds\": %.4f, \"scan_seconds\": %.4f,"
                 " \"chunk_parse_seconds\": %.4f, \"merge_seconds\": %.4f}%s\n",
                 r.threads, r.sample.seconds, r.sample.cpu_seconds,
                 r.sample.cpu_seconds / r.sample.seconds, r.rows_per_sec,
                 r.rows_per_sec / static_cast<double>(r.threads),
                 r.mb_per_sec, stats.chunks, stats.chunk_bytes,
                 r.speedup_vs_serial, stats.load_seconds, stats.scan_seconds,
                 r.chunk_parse_seconds, stats.merge_seconds,
                 i + 1 < ingest_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"chunk_sweep_threads\": %zu,\n"
               "  \"chunk_sweep\": [\n",
               sweep_threads);
  for (size_t i = 0; i < chunk_rows.size(); ++i) {
    const ChunkRow& r = chunk_rows[i];
    std::fprintf(out,
                 "    {\"chunk_bytes\": %zu, \"seconds\": %.4f,"
                 " \"cpu_seconds\": %.4f, \"chunks\": %zu,"
                 " \"autotuned\": %s}%s\n",
                 r.chunk_bytes, r.seconds, r.cpu_seconds, r.chunks,
                 r.autotuned ? "true" : "false",
                 i + 1 < chunk_rows.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n"
               "  \"training\": {\"max_training_rows\": %zu,"
               " \"full_rows\": %zu, \"full_seconds\": %.4f,"
               " \"quarter_rows\": %zu, \"quarter_seconds\": %.4f,"
               " \"full_over_quarter_ratio\": %.3f}\n"
               "}\n",
               cap, rows, full_seconds, rows / 4, quarter_seconds, ratio);
  std::fclose(out);
  std::printf("wrote %s\n", json_path.c_str());

  std::error_code ec;
  fs::remove_all(dir, ec);
  return 0;
}
