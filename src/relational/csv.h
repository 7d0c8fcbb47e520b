// CSV serialization for tables: RFC-4180-ish quoting, header row with
// attribute names.
//
// One ingest path (DESIGN.md "Streaming ingest & sampling"): a file is
// mapped read-only (or read once through a buffered fallback), one
// structural pass splits its body into record-aligned chunks, and the
// chunks parse in parallel into per-chunk column segments that merge in
// text order with dictionary re-encoding.  One thread parses one chunk, so
// a serial read builds the table directly with no merge.  The result is
// bit-identical at every thread count and chunk size.  Three entrypoints
// read CSV: TableFromCsvParallel (typed, from text), ReadCsvFileStreaming
// (typed, from a file) and ReadCsvFileInferred (column types inferred from
// every record of a file).
//
// Text format: the first record is a header of attribute names; empty
// cells are NULL.  Records end at "\n", "\r\n" or a bare "\r" (classic
// Mac), so files with any mix of line endings parse; CR/LF *inside* a field
// must be quoted (the writer always quotes them).  A blank line at the end
// of the text is the file's trailing newline, not a record.

#ifndef CSM_RELATIONAL_CSV_H_
#define CSM_RELATIONAL_CSV_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "relational/table.h"

namespace csm {

/// Serializes `instance` (with a header row) to CSV text.  A row that would
/// render as a completely empty line (a single-attribute NULL) is written as
/// `""` so it survives the round trip — an empty line is otherwise
/// indistinguishable from the file's trailing newline.
std::string TableToCsv(const Table& instance);

/// Writes `instance` as CSV to `path`.
Status WriteCsvFile(const Table& instance, const std::string& path);

/// One parse chunk: a half-open byte range of the CSV body that starts and
/// ends on record boundaries, plus an upper-bound record count for
/// reservation (terminators seen in the range; quoted embedded newlines make
/// it exact, a trailing blank line overcounts by one).
struct CsvChunkSpan {
  size_t begin = 0;
  size_t end = 0;
  size_t records = 0;
};

/// Splits `csv` from `pos` (normally just past the header record) into
/// chunks of at least `target_chunk_bytes` bytes, each ending on a record
/// boundary, in one pass that tracks quote parity — a '"' toggles in/out of
/// a quoted field, exactly like the record parser, so terminators inside
/// quoted fields never split a record.  "\r\n" is one terminator: a chunk
/// never splits between the CR and the LF (a chunk starting with a bare LF
/// would otherwise parse a phantom empty record).  The final chunk may be
/// short; an unterminated final record is included in it.
std::vector<CsvChunkSpan> ScanCsvChunks(std::string_view csv, size_t pos,
                                        size_t target_chunk_bytes);

/// Chunk size policy.  One thread (`threads` <= 1) gets one chunk holding
/// the whole body, so it parses straight into the result with no per-chunk
/// tables and no merge.  More threads aim for ~4 chunks per worker so
/// stragglers level out, clamped to [64 KiB, 16 MiB] so tiny files stay a
/// single chunk and huge files do not blow up the per-chunk table count.
size_t AutotuneCsvChunkBytes(size_t total_bytes, size_t threads);

/// Knobs for CSV ingest.
struct CsvIngestOptions {
  /// Worker threads for the chunk passes; 0 = one per hardware thread,
  /// 1 = fully serial (no pool spun up).
  size_t threads = 0;
  /// Target chunk size in bytes; 0 = AutotuneCsvChunkBytes.
  size_t chunk_bytes = 0;
  /// Skip mmap and use the instrumented buffered-read fallback (tests use
  /// this to prove the file is read exactly once).
  bool force_read_fallback = false;
};

/// Observability counters for one ingest.
struct CsvIngestStats {
  size_t file_bytes = 0;    // size of the input file / text
  size_t bytes_read = 0;    // bytes copied by the read fallback (0 = mmap)
  bool used_mmap = false;
  size_t threads = 0;       // effective parse workers
  size_t chunk_bytes = 0;   // chunk size actually used
  size_t chunks = 0;
  size_t records = 0;       // data records parsed (header excluded)
  double load_seconds = 0.0;   // mmap / read time
  double parse_seconds = 0.0;  // scan + type inference + parse + merge time
  double scan_seconds = 0.0;   // the chunk scan, part of parse_seconds
  double merge_seconds = 0.0;  // the ordered chunk merge, part of parse_seconds
};

/// Parses CSV text into a table.  The header must match `schema`'s
/// attribute names (order-sensitive); cells parse by each attribute's
/// declared type.  Output — rows and dictionary code assignment — is
/// identical for every thread count and chunk size, and the first parse
/// error in *text order* is returned.  `stats`, when non-null, receives the
/// parse-side counters.
StatusOr<Table> TableFromCsvParallel(const TableSchema& schema,
                                     std::string_view csv,
                                     const CsvIngestOptions& options = {},
                                     CsvIngestStats* stats = nullptr);

/// Reads a CSV file into a table conforming to `schema`: maps the file
/// read-only (mmap) when possible and parses it with TableFromCsvParallel,
/// so no second copy of the text is made.  Falls back to a buffered
/// single-pass read (counted in stats->bytes_read) when mapping fails or
/// options.force_read_fallback is set.  A missing file is kIoError.
StatusOr<Table> ReadCsvFileStreaming(const TableSchema& schema,
                                     const std::string& path,
                                     const CsvIngestOptions& options = {},
                                     CsvIngestStats* stats = nullptr);

/// Reads a CSV file, inferring each column's type from every record: a
/// column whose non-empty cells all parse as int becomes int; failing
/// that, real; otherwise string.  Columns with no non-empty cells default
/// to string.  The header supplies the attribute names, which must be
/// unique (kInvalidArgument names a repeated one).  The file loads like
/// ReadCsvFileStreaming; one chunk plan serves both passes: a parallel
/// per-chunk type fold, merged per column by taking the wider type, then
/// the typed parse.  The inferred schema does not depend on the chunking.
StatusOr<Table> ReadCsvFileInferred(const std::string& table_name,
                                    const std::string& path,
                                    const CsvIngestOptions& options = {},
                                    CsvIngestStats* stats = nullptr);

}  // namespace csm

#endif  // CSM_RELATIONAL_CSV_H_
