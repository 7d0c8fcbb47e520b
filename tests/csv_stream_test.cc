// Tests for the chunked CSV ingest path (relational/csv.h, "Streaming
// ingest & sampling" in DESIGN.md): chunk-boundary correctness at hostile
// chunk sizes, the single-pass byte-once guarantee of the file loader,
// error-order parity with the one-chunk parse, and column-type inference
// from every record.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "relational/csv.h"
#include "relational/table.h"
#include "tests/test_util.h"  // NOLINT

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::N;
using testing::R;
using testing::S;

/// One thread parses one chunk: the serial ground truth every other chunk
/// size and thread count must match bit for bit.
constexpr CsvIngestOptions kOneChunk{.threads = 1};

Table SerialParse(const TableSchema& schema, const std::string& csv) {
  CsvIngestStats stats;
  auto parsed = TableFromCsvParallel(schema, csv, kOneChunk, &stats);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_LE(stats.chunks, 1u);
  return std::move(parsed.value());
}

/// Asserts schema-level, value-level and dictionary-code-level equality.
void ExpectBitIdentical(const Table& expected, const Table& actual,
                        const std::string& what) {
  ASSERT_EQ(actual.schema().ToString(), expected.schema().ToString()) << what;
  ASSERT_EQ(actual.num_rows(), expected.num_rows()) << what;
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    ASSERT_EQ(actual.row(r), expected.row(r)) << what << " at row " << r;
  }
  for (size_t c = 0; c < expected.schema().num_attributes(); ++c) {
    if (expected.schema().attribute(c).type != ValueType::kString) continue;
    EXPECT_EQ(actual.column(c).codes(), expected.column(c).codes())
        << what << ": dictionary codes diverged in column "
        << expected.schema().attribute(c).name;
    ASSERT_EQ(actual.column(c).dictionary().size(),
              expected.column(c).dictionary().size())
        << what;
    for (uint32_t code = 0; code < expected.column(c).dictionary().size();
         ++code) {
      EXPECT_EQ(actual.column(c).dictionary().value(code),
                expected.column(c).dictionary().value(code))
          << what << ": dictionary entry " << code;
    }
  }
}

/// Parses `csv` through the chunked path at every chunk size in
/// [1, csv.size()] and asserts bit-identity with the serial parser.  A
/// 1-byte target chunk places a boundary after every record, so every
/// hostile construct (quoted terminator, CRLF, NULL row, multi-byte
/// character) gets exercised adjacent to a split.
void SweepAllChunkSizes(const TableSchema& schema, const std::string& csv,
                        size_t threads = 2) {
  const Table expected = SerialParse(schema, csv);
  for (size_t chunk_bytes = 1; chunk_bytes <= csv.size(); ++chunk_bytes) {
    CsvIngestOptions options;
    options.chunk_bytes = chunk_bytes;
    options.threads = threads;
    auto parsed = TableFromCsvParallel(schema, csv, options);
    ASSERT_TRUE(parsed.ok())
        << "chunk_bytes=" << chunk_bytes << ": " << parsed.status().ToString();
    ExpectBitIdentical(expected, *parsed,
                       "chunk_bytes=" + std::to_string(chunk_bytes));
  }
}

// ------------------------------------------------------------- chunk scan

TEST(CsvChunkScanTest, SpansAreContiguousAndCoverTheText) {
  const std::string csv = "a,b\n1,x\n2,y\n3,z\n4,w\n";
  for (size_t target = 1; target <= csv.size() + 4; ++target) {
    size_t cursor = 4;  // just past the header record
    for (const CsvChunkSpan& span : ScanCsvChunks(csv, 4, target)) {
      EXPECT_EQ(span.begin, cursor) << "target=" << target;
      EXPECT_GT(span.end, span.begin) << "target=" << target;
      cursor = span.end;
    }
    EXPECT_EQ(cursor, csv.size()) << "target=" << target;
  }
}

TEST(CsvChunkScanTest, NeverSplitsBetweenCarriageReturnAndLineFeed) {
  // CRLF terminators at every record; any 1-byte-granularity scan that
  // treated CR and LF separately would start some chunk on the LF and parse
  // a phantom empty record there.
  const std::string csv = "a\r\n1\r\n22\r\n333\r\n4444\r\n";
  for (size_t target = 1; target <= csv.size(); ++target) {
    for (const CsvChunkSpan& span : ScanCsvChunks(csv, 3, target)) {
      if (span.begin == 0 || span.begin >= csv.size()) continue;
      EXPECT_FALSE(csv[span.begin - 1] == '\r' && csv[span.begin] == '\n')
          << "target=" << target << " split CRLF at byte " << span.begin;
    }
  }
}

TEST(CsvChunkScanTest, RecordCountsBoundReservations) {
  // Quoted embedded newlines make terminator counting exact per record; a
  // final unterminated record is still counted.
  const std::string csv = "a\n\"x\ny\"\nplain\nlast";
  const std::vector<CsvChunkSpan> spans = ScanCsvChunks(csv, 2, csv.size());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].records, 3u);
}

TEST(CsvChunkScanTest, AutotuneClampsToSaneRange) {
  // One thread: one chunk holding the whole body, at any size.
  EXPECT_EQ(AutotuneCsvChunkBytes(1000, 1), 1000u);
  EXPECT_EQ(AutotuneCsvChunkBytes(size_t{1} << 40, 1), size_t{1} << 40);
  // Tiny inputs: floor of 64 KiB keeps small files effectively serial.
  EXPECT_EQ(AutotuneCsvChunkBytes(1000, 4), 64u << 10);
  // Huge inputs: ceiling of 16 MiB bounds per-chunk table sizes.
  EXPECT_EQ(AutotuneCsvChunkBytes(size_t{1} << 40, 2), 16u << 20);
  // In between: ~4 chunks per worker.
  EXPECT_EQ(AutotuneCsvChunkBytes(size_t{32} << 20, 4), (32u << 20) / 16);
}

// -------------------------------------------- chunk-boundary parse parity

TEST(CsvStreamTest, QuotedTerminatorsAcrossChunkBoundaries) {
  Table t = MakeTable("q", {"text", "n"},
                      {{S("embedded\nnewline"), I(1)},
                       {S("embedded\r\ncrlf"), I(2)},
                       {S("bare\rcr"), I(3)},
                       {S("quote\"inside"), I(4)},
                       {S("comma,inside"), I(5)},
                       {S("\"leading quote"), I(6)}});
  SweepAllChunkSizes(t.schema(), TableToCsv(t));
}

TEST(CsvStreamTest, MixedLineEndingsAcrossChunkBoundaries) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  // \n, \r\n, bare \r terminators interleaved, CR-only tail.
  SweepAllChunkSizes(schema, "a\n1\r\n2\r3\n4\r\n5\r");
}

TEST(CsvStreamTest, CarriageReturnOnlyFile) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  schema.AddAttribute("b", ValueType::kString);
  SweepAllChunkSizes(schema, "a,b\r1,x\r2,y\r3,z\r");
}

TEST(CsvStreamTest, BlankInteriorLinesAcrossChunkBoundaries) {
  // An interior blank line is a record with one empty field — a NULL row
  // here — even when it ends a chunk; only the blank line at the end of the
  // text is the trailing newline.
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  const std::string csv = "a\n1\n\n2\r\n\r\n3\r\r4\n\n";
  ASSERT_EQ(SerialParse(schema, csv).num_rows(), 7u);
  SweepAllChunkSizes(schema, csv);
  // With two attributes the same blank line is an arity error at every
  // chunk size.
  TableSchema pair("p");
  pair.AddAttribute("a", ValueType::kInt);
  pair.AddAttribute("b", ValueType::kInt);
  for (size_t chunk_bytes : {size_t{0}, size_t{1}, size_t{4}}) {
    CsvIngestOptions options;
    options.chunk_bytes = chunk_bytes;
    options.threads = 2;
    EXPECT_FALSE(
        TableFromCsvParallel(pair, "a,b\n1,2\n\n3,4\n", options).ok())
        << "chunk_bytes=" << chunk_bytes;
  }
}

TEST(CsvStreamTest, Utf8CellsAcrossChunkBoundaries) {
  // Multi-byte sequences land adjacent to every chunk split; continuation
  // bytes must never be mistaken for quotes or terminators.
  Table t = MakeTable("u", {"s"},
                      {{S("caf\xc3\xa9")},
                       {S("\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e")},
                       {S("emoji \xf0\x9f\x98\x80 mix")},
                       {S("\xc3\xa9\xc3\xa8\xc3\xaa")}});
  SweepAllChunkSizes(t.schema(), TableToCsv(t));
}

TEST(CsvStreamTest, NullRowsSpanningChunkSplits) {
  Table t = MakeTable("n", {"a", "b"},
                      {{I(1), N()},
                       {N(), N()},
                       {N(), S("x")},
                       {I(4), S("")}});
  SweepAllChunkSizes(t.schema(), TableToCsv(t));
}

TEST(CsvStreamTest, SingleAttributeNullRowsRenderedAsQuotedEmpty) {
  // A single-attribute NULL row renders as `""` — a 1-byte chunk sweep puts
  // splits inside and around those two quote characters.
  Table t = MakeTable("n1", {"a"}, {{N()}, {S("v")}, {N()}, {N()}});
  SweepAllChunkSizes(t.schema(), TableToCsv(t));
}

TEST(CsvStreamTest, DictionaryCodesIdenticalAcrossThreadCounts) {
  // Repeated strings whose first occurrences are spread over several
  // chunks: the merged dictionary must reproduce serial first-seen order.
  std::vector<Row> rows;
  const char* values[] = {"delta", "alpha", "beta", "alpha", "gamma",
                          "delta", "beta",  "epsilon"};
  for (const char* v : values) rows.push_back({S(v)});
  Table t = MakeTable("d", {"s"}, rows);
  const std::string csv = TableToCsv(t);
  const Table expected = SerialParse(t.schema(), csv);
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t chunk_bytes : {size_t{1}, size_t{8}, size_t{64}}) {
      CsvIngestOptions options;
      options.threads = threads;
      options.chunk_bytes = chunk_bytes;
      auto parsed = TableFromCsvParallel(t.schema(), csv, options);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      ExpectBitIdentical(expected, *parsed,
                         "threads=" + std::to_string(threads) +
                             " chunk_bytes=" + std::to_string(chunk_bytes));
    }
  }
}

TEST(CsvStreamTest, HeaderOnlyTextYieldsEmptyTable) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  for (const std::string& csv : {std::string("a\n"), std::string("a")}) {
    CsvIngestOptions options;
    options.chunk_bytes = 1;
    auto parsed = TableFromCsvParallel(schema, csv, options);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed->num_rows(), 0u);
  }
}

TEST(CsvStreamTest, FirstErrorInTextOrderMatchesSerialParser) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  // Two bad records; the one-chunk parse reports the *first* one.  The
  // chunked path must report the same error even when a later chunk (with
  // the second bad record) finishes first.
  const std::string csv = "a\n1\nbad_early\n3\nbad_late\n5\n";
  const Status serial = TableFromCsvParallel(schema, csv, kOneChunk).status();
  ASSERT_FALSE(serial.ok());
  for (size_t chunk_bytes : {size_t{1}, size_t{4}, size_t{1024}}) {
    CsvIngestOptions options;
    options.chunk_bytes = chunk_bytes;
    options.threads = 4;
    const Status chunked = TableFromCsvParallel(schema, csv, options).status();
    ASSERT_FALSE(chunked.ok()) << "chunk_bytes=" << chunk_bytes;
    EXPECT_EQ(chunked.message(), serial.message())
        << "chunk_bytes=" << chunk_bytes;
  }
}

TEST(CsvStreamTest, HeaderMismatchRejected) {
  TableSchema schema("t");
  schema.AddAttribute("wrong", ValueType::kInt);
  EXPECT_FALSE(TableFromCsvParallel(schema, "a\n1\n").ok());
}

// ----------------------------------------------------------- file loaders

std::string WriteTempCsv(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return path;
}

TEST(CsvStreamFileTest, ReadFallbackReadsEveryByteExactlyOnce) {
  Table t = MakeTable("f", {"a", "b"},
                      {{I(1), S("x")}, {I(2), S("y")}, {I(3), S("z")}});
  const std::string csv = TableToCsv(t);
  const std::string path = WriteTempCsv("csm_stream_once.csv", csv);
  CsvIngestOptions options;
  options.force_read_fallback = true;
  CsvIngestStats stats;
  auto parsed = ReadCsvFileStreaming(t.schema(), path, options, &stats);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectBitIdentical(SerialParse(t.schema(), csv), *parsed, "read fallback");
  // The instrumented reader counts every byte it copies: exactly one pass
  // over the file, no separate estimate scan (the old loader read the body
  // twice).
  EXPECT_FALSE(stats.used_mmap);
  EXPECT_EQ(stats.file_bytes, csv.size());
  EXPECT_EQ(stats.bytes_read, csv.size());
  EXPECT_EQ(stats.records, t.num_rows());
  std::remove(path.c_str());
}

TEST(CsvStreamFileTest, MmapPathCopiesNothing) {
  Table t = MakeTable("m", {"a"}, {{I(1)}, {I(2)}});
  const std::string csv = TableToCsv(t);
  const std::string path = WriteTempCsv("csm_stream_mmap.csv", csv);
  CsvIngestStats stats;
  auto parsed = ReadCsvFileStreaming(t.schema(), path, {}, &stats);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->num_rows(), 2u);
#ifndef _WIN32
  EXPECT_TRUE(stats.used_mmap);
  EXPECT_EQ(stats.bytes_read, 0u);
#endif
  EXPECT_EQ(stats.file_bytes, csv.size());
  std::remove(path.c_str());
}

TEST(CsvStreamFileTest, MissingFileIsIoError) {
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  EXPECT_EQ(
      ReadCsvFileStreaming(schema, "/nonexistent/file.csv").status().code(),
      StatusCode::kIoError);
}

TEST(CsvStreamFileTest, EmptyFileRejectedLikeSerialLoader) {
  const std::string path = WriteTempCsv("csm_stream_empty.csv", "");
  TableSchema schema("t");
  schema.AddAttribute("a", ValueType::kInt);
  const Status streaming = ReadCsvFileStreaming(schema, path).status();
  const Status serial = TableFromCsvParallel(schema, "", kOneChunk).status();
  EXPECT_FALSE(streaming.ok());
  EXPECT_EQ(streaming.message(), serial.message());
  EXPECT_EQ(ReadCsvFileInferred("t", path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

// ------------------------------------------------------- type inference

/// A temp file name unique to the running test: ctest runs each test of a
/// binary as its own process, concurrently with the others.
std::string TestCsvName() {
  return std::string("csm_") +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() +
         ".csv";
}

/// Writes `csv` to a temp file and reads it with inferred types.
StatusOr<Table> ReadInferred(const std::string& csv,
                             const CsvIngestOptions& options = {}) {
  const std::string path = WriteTempCsv(TestCsvName(), csv);
  auto table = ReadCsvFileInferred("t", path, options);
  std::remove(path.c_str());
  return table;
}

/// Reads `csv` with inferred types at every chunk size in [1, csv.size()]
/// and thread counts 1/2/4, and asserts each read is bit-identical —
/// schema included — to the one-chunk read, which it returns.
Table SweepInferredChunkSizes(const std::string& csv) {
  const std::string path = WriteTempCsv(TestCsvName(), csv);
  auto expected = ReadCsvFileInferred("t", path, kOneChunk);
  EXPECT_TRUE(expected.ok()) << expected.status().ToString();
  if (!expected.ok()) return Table();
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t chunk_bytes = 1; chunk_bytes <= csv.size(); ++chunk_bytes) {
      CsvIngestOptions options;
      options.threads = threads;
      options.chunk_bytes = chunk_bytes;
      auto chunked = ReadCsvFileInferred("t", path, options);
      const std::string what = "threads=" + std::to_string(threads) +
                               " chunk_bytes=" + std::to_string(chunk_bytes);
      EXPECT_TRUE(chunked.ok()) << what << ": " << chunked.status().ToString();
      if (chunked.ok()) ExpectBitIdentical(*expected, *chunked, what);
    }
  }
  std::remove(path.c_str());
  return std::move(expected.value());
}

TEST(CsvStreamFileTest, InferredReadIdenticalAtEveryChunkSize) {
  const Table table = SweepInferredChunkSizes(
      "id,price,name\n1,9.5,ab\n2,1.25,cd\n3,7.0,ef\n4,2.5,gh\n");
  ASSERT_EQ(table.num_rows(), 4u);
  EXPECT_EQ(table.schema().attribute(0).type, ValueType::kInt);
  EXPECT_EQ(table.schema().attribute(1).type, ValueType::kReal);
  EXPECT_EQ(table.schema().attribute(2).type, ValueType::kString);
}

TEST(CsvInferenceTest, ChunkMergeTakesWidestTypeInAnyRecordOrder) {
  // Each 1-byte chunk holds one record, so the verdict is decided entirely
  // by the merge: int, real and string cells must widen to string whatever
  // chunk each lands in.
  const char* cells[] = {"1", "2.5", "x"};
  size_t order[] = {0, 1, 2};
  do {
    std::string csv = "v\n";
    for (size_t i : order) csv += std::string(cells[i]) + "\n";
    const Table table = SweepInferredChunkSizes(csv);
    ASSERT_EQ(table.num_rows(), 3u) << csv;
    EXPECT_EQ(table.schema().attribute(0).type, ValueType::kString) << csv;
  } while (std::next_permutation(std::begin(order), std::end(order)));
}

TEST(CsvInferenceTest, Int64OverflowWidensToReal) {
  for (const std::string csv :
       {"v\n7\n99999999999999999999\n", "v\n99999999999999999999\n7\n"}) {
    const Table table = SweepInferredChunkSizes(csv);
    EXPECT_EQ(table.schema().attribute(0).type, ValueType::kReal) << csv;
    EXPECT_EQ(table.ValueAt(0, "v").type(), ValueType::kReal) << csv;
  }
}

TEST(CsvInferenceTest, ColumnEmptyInFirstChunkStillInfersInt) {
  // Column b is empty for the first 1,500 of 2,000 records: at every chunk
  // size and thread count the verdict comes from all of them.
  std::string csv = "a,b\n";
  for (int r = 0; r < 2000; ++r) {
    csv += std::to_string(r) + "," + (r < 1500 ? "" : std::to_string(r)) +
           "\n";
  }
  for (size_t threads : {size_t{1}, size_t{4}}) {
    for (size_t chunk_bytes : {size_t{0}, size_t{1}, size_t{64}}) {
      CsvIngestOptions options;
      options.threads = threads;
      options.chunk_bytes = chunk_bytes;
      auto table = ReadInferred(csv, options);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      EXPECT_EQ(table->schema().attribute(1).type, ValueType::kInt)
          << "threads=" << threads << " chunk_bytes=" << chunk_bytes;
      EXPECT_TRUE(table->ValueAt(0, "b").is_null());
      EXPECT_EQ(table->ValueAt(1999, "b"), I(1999));
    }
  }
  SweepInferredChunkSizes("a,b\n1,\n2,\n3,4\n");
}

TEST(CsvInferenceTest, InfersIntRealString) {
  auto table = ReadInferred("id,price,name\n1,2.5,abc\n2,3,def\n3,4.25,ghi\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kInt);
  EXPECT_EQ(table->schema().attribute(1).type, ValueType::kReal);
  EXPECT_EQ(table->schema().attribute(2).type, ValueType::kString);
  EXPECT_EQ(table->ValueAt(0, "id"), Value::Int(1));
  EXPECT_EQ(table->ValueAt(1, "price"), Value::Real(3.0));
}

TEST(CsvInferenceTest, OneBadCellDemotesColumn) {
  auto table = ReadInferred("x\n1\n2\noops\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kString);
  EXPECT_EQ(table->ValueAt(0, "x"), Value::String("1"));
}

TEST(CsvInferenceTest, EmptyCellsAreNullAndDoNotAffectType) {
  auto table = ReadInferred("x\n1\n\n3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kInt);
  EXPECT_TRUE(table->ValueAt(1, "x").is_null());
}

TEST(CsvInferenceTest, AllEmptyColumnDefaultsToString) {
  auto table = ReadInferred("a,b\n1,\n2,\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(1).type, ValueType::kString);
}

TEST(CsvInferenceTest, RoundTripThroughWriter) {
  Table original = MakeTable(
      "roundtrip", {"n", "r", "s"},
      {{Value::Int(1), Value::Real(1.5), Value::String("x,y")},
       {Value::Int(2), Value::Real(2.5), Value::String("z")}});
  auto parsed = ReadInferred(TableToCsv(original));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->ValueAt(0, "n"), Value::Int(1));
  EXPECT_EQ(parsed->ValueAt(0, "r"), Value::Real(1.5));
  EXPECT_EQ(parsed->ValueAt(0, "s"), Value::String("x,y"));
}

TEST(CsvInferenceTest, ArityMismatchRejected) {
  EXPECT_FALSE(ReadInferred("a,b\n1\n").ok());
}

TEST(CsvInferenceTest, RepeatedHeaderNameRejected) {
  // A repeated name cannot become a schema; it is bad input, not a crash.
  auto repeated = ReadInferred("id,name,name\n1,a,b\n2,c,d\n");
  EXPECT_EQ(repeated.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(repeated.status().message().find("'name'"), std::string::npos)
      << repeated.status().ToString();
  EXPECT_EQ(ReadInferred(",\n1,2\n").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(CsvInferenceTest, FileVariantReadsFromDisk) {
  Table t = MakeTable("disk", {"v"}, {{Value::Int(9)}});
  std::string path = ::testing::TempDir() + "/csm_infer_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto parsed = ReadCsvFileInferred("disk", path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ValueAt(0, "v"), Value::Int(9));
  EXPECT_EQ(ReadCsvFileInferred("disk", "/nonexistent/file.csv")
                .status()
                .code(),
            StatusCode::kIoError);
}

}  // namespace
}  // namespace csm
