#include "relational/csv.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "common/logging.h"
#include "common/string_util.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"

namespace csm {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool NeedsQuoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& field) {
  if (!NeedsQuoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

/// Splits one logical CSV record starting at `pos`; advances `pos` past the
/// record's trailing newline.  Handles quoted fields with embedded commas,
/// quotes, and newlines.
StatusOr<std::vector<std::string>> ParseRecord(std::string_view text,
                                               size_t& pos) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  bool saw_any = false;
  while (pos < text.size()) {
    char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          current += '"';
          ++pos;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
      ++pos;
      saw_any = true;
      continue;
    }
    if (c == '\r') {
      // Record terminator: "\r\n" (DOS) or a bare "\r" (classic Mac).
      // Skipping the "\r" instead would both collapse a CR-only file into a
      // single record and silently drop an unquoted embedded "\r".
      ++pos;
      if (pos < text.size() && text[pos] == '\n') ++pos;
      break;
    }
    if (c == '\n') {
      ++pos;
      break;
    }
    current += c;
    ++pos;
    saw_any = true;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  if (!saw_any && pos >= text.size()) {
    return std::vector<std::string>{};  // empty trailing record
  }
  fields.push_back(std::move(current));
  return fields;
}

Status ValidateCsvHeader(const TableSchema& schema,
                         const std::vector<std::string>& header) {
  if (header.size() != schema.num_attributes()) {
    return Status::InvalidArgument("CSV header arity mismatch for table '" +
                                   schema.name() + "'");
  }
  for (size_t c = 0; c < header.size(); ++c) {
    if (header[c] != schema.attribute(c).name) {
      return Status::InvalidArgument("CSV header mismatch: expected '" +
                                     schema.attribute(c).name + "', got '" +
                                     header[c] + "'");
    }
  }
  return Status::Ok();
}

/// Parses every record of `text` from `pos` into `out` (blank trailing
/// lines skipped).  The single record loop shared by the serial and the
/// per-chunk parallel parse, so both paths have identical semantics by
/// construction.
Status AppendCsvRecords(const TableSchema& schema, std::string_view text,
                        size_t pos, Table* out) {
  while (pos < text.size()) {
    CSM_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                         ParseRecord(text, pos));
    if (fields.empty()) continue;  // blank trailing line
    if (fields.size() != schema.num_attributes()) {
      return Status::InvalidArgument("CSV record arity mismatch in table '" +
                                     schema.name() + "'");
    }
    // Parse straight into the column segments (dictionary codes for string
    // attributes) instead of boxing a Value per cell.
    CSM_RETURN_IF_ERROR(out->AddRowFromText(fields));
  }
  return Status::Ok();
}

/// Column-type inference accumulator: demotes each column from int toward
/// real toward string as cells fail to parse.  Shared by the slurping and
/// streaming inferred readers.
void UpdateTypeInference(const std::vector<std::string>& record,
                         std::vector<ValueType>* types,
                         std::vector<bool>* saw_value) {
  for (size_t c = 0; c < record.size(); ++c) {
    std::string_view cell = Trim(record[c]);
    if (cell.empty()) continue;
    (*saw_value)[c] = true;
    if ((*types)[c] == ValueType::kInt &&
        !Value::Parse(cell, ValueType::kInt).ok()) {
      (*types)[c] = ValueType::kReal;
    }
    if ((*types)[c] == ValueType::kReal &&
        !Value::Parse(cell, ValueType::kReal).ok()) {
      (*types)[c] = ValueType::kString;
    }
  }
}

}  // namespace

std::string TableToCsv(const Table& instance) {
  std::ostringstream os;
  const TableSchema& schema = instance.schema();
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (c > 0) os << ',';
    os << QuoteField(schema.attribute(c).name);
  }
  os << '\n';
  for (size_t r = 0; r < instance.num_rows(); ++r) {
    std::string line;
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (c > 0) line += ',';
      line += QuoteField(instance.ValueAt(r, c).ToString());
    }
    // A single-attribute NULL row would render as an empty line, which a
    // reader cannot tell apart from the file's trailing newline.  Quote it;
    // "" parses back to one empty field and hence NULL.
    if (line.empty()) line = "\"\"";
    os << line << '\n';
  }
  return os.str();
}

StatusOr<Table> TableFromCsv(const TableSchema& schema, std::string_view csv) {
  size_t pos = 0;
  CSM_ASSIGN_OR_RETURN(std::vector<std::string> header,
                       ParseRecord(csv, pos));
  CSM_RETURN_IF_ERROR(ValidateCsvHeader(schema, header));
  // Single pass: no estimate scan — vector growth amortizes, and the old
  // newline-count pass re-read every byte of the text a second time.
  Table out(schema);
  CSM_RETURN_IF_ERROR(AppendCsvRecords(schema, csv, pos, &out));
  return out;
}

Status WriteCsvFile(const Table& instance, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  out << TableToCsv(instance);
  // close() flushes the buffered tail; checking the stream before it would
  // miss a failed final write (a small table on a full disk).
  out.close();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

StatusOr<Table> ReadCsvFile(const TableSchema& schema,
                            const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TableFromCsv(schema, buffer.str());
}

StatusOr<Table> TableFromCsvInferred(const std::string& table_name,
                                     std::string_view csv) {
  // First pass: collect header and all records as raw strings.
  size_t pos = 0;
  CSM_ASSIGN_OR_RETURN(std::vector<std::string> header, ParseRecord(csv, pos));
  if (header.empty()) {
    return Status::InvalidArgument("CSV has no header row");
  }
  std::vector<std::vector<std::string>> records;
  while (pos < csv.size()) {
    CSM_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                         ParseRecord(csv, pos));
    if (fields.empty()) continue;
    if (fields.size() != header.size()) {
      return Status::InvalidArgument("CSV record arity mismatch in '" +
                                     table_name + "'");
    }
    records.push_back(std::move(fields));
  }

  // Second pass: infer column types — int unless some cell fails, then
  // real, then string.
  std::vector<ValueType> types(header.size(), ValueType::kInt);
  std::vector<bool> saw_value(header.size(), false);
  for (const auto& record : records) {
    UpdateTypeInference(record, &types, &saw_value);
  }
  TableSchema schema(table_name);
  for (size_t c = 0; c < header.size(); ++c) {
    schema.AddAttribute(header[c],
                        saw_value[c] ? types[c] : ValueType::kString);
  }

  Table out(schema);
  out.Reserve(records.size());
  for (const auto& record : records) {
    CSM_RETURN_IF_ERROR(out.AddRowFromText(record));
  }
  return out;
}

StatusOr<Table> ReadCsvFileInferred(const std::string& table_name,
                                    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return TableFromCsvInferred(table_name, buffer.str());
}

// ---------------------------------------------------------------------------
// Streaming / parallel ingest
// ---------------------------------------------------------------------------

std::vector<CsvChunkSpan> ScanCsvChunks(std::string_view csv, size_t pos,
                                        size_t target_chunk_bytes) {
  std::vector<CsvChunkSpan> spans;
  if (pos >= csv.size()) return spans;
  if (target_chunk_bytes == 0) target_chunk_bytes = 1;
  size_t chunk_begin = pos;
  size_t records = 0;
  // Plain quote-parity toggle.  ParseRecord's escaped-quote handling ("")
  // consumes two quotes while staying in-quotes; the toggle flips out and
  // back in — the same parity after both, so terminator classification
  // (quoted vs structural) agrees with the record parser everywhere.
  bool in_quotes = false;
  size_t i = pos;
  while (i < csv.size()) {
    const char c = csv[i];
    if (c == '"') {
      in_quotes = !in_quotes;
      ++i;
      continue;
    }
    if (!in_quotes && (c == '\n' || c == '\r')) {
      ++i;
      // "\r\n" is ONE terminator: never split between the CR and the LF, or
      // the next chunk would start with a bare LF and parse a phantom empty
      // record.
      if (c == '\r' && i < csv.size() && csv[i] == '\n') ++i;
      ++records;
      if (i - chunk_begin >= target_chunk_bytes) {
        spans.push_back({chunk_begin, i, records});
        chunk_begin = i;
        records = 0;
      }
      continue;
    }
    ++i;
  }
  if (chunk_begin < csv.size()) {
    // Unterminated final record (or an unterminated quote — the chunk parse
    // reports that error).
    spans.push_back({chunk_begin, csv.size(), records + 1});
  }
  return spans;
}

size_t AutotuneCsvChunkBytes(size_t total_bytes, size_t threads) {
  if (threads == 0) threads = 1;
  constexpr size_t kMinChunk = 64u << 10;  // below this, spawn overhead wins
  constexpr size_t kMaxChunk = 16u << 20;  // above this, stragglers dominate
  const size_t target = total_bytes / (threads * 4);
  return std::clamp(target, kMinChunk, kMaxChunk);
}

StatusOr<Table> TableFromCsvParallel(const TableSchema& schema,
                                     std::string_view csv,
                                     const CsvIngestOptions& options,
                                     CsvIngestStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  size_t pos = 0;
  CSM_ASSIGN_OR_RETURN(std::vector<std::string> header,
                       ParseRecord(csv, pos));
  CSM_RETURN_IF_ERROR(ValidateCsvHeader(schema, header));

  exec::ThreadPool* pool = options.pool;
  const size_t threads =
      pool != nullptr ? pool->size() : exec::EffectiveThreads(options.threads);
  const size_t chunk_bytes =
      options.chunk_bytes != 0
          ? options.chunk_bytes
          : AutotuneCsvChunkBytes(csv.size() - pos, threads);
  const std::vector<CsvChunkSpan> spans = ScanCsvChunks(csv, pos, chunk_bytes);

  std::unique_ptr<exec::ThreadPool> owned_pool;
  if (pool == nullptr && threads > 1 && spans.size() > 1) {
    owned_pool = std::make_unique<exec::ThreadPool>(threads);
    pool = owned_pool.get();
  }

  // Each chunk parses into its own table (own dictionaries, no shared
  // mutable state); the merge below re-encodes in chunk order, which
  // reproduces the serial parse bit-for-bit.
  struct ChunkResult {
    Table table;
    Status status;
  };
  std::vector<ChunkResult> parsed =
      exec::ParallelMap(pool, spans.size(), [&](size_t i) {
        const CsvChunkSpan& span = spans[i];
        ChunkResult result;
        result.table = Table(schema);
        result.table.Reserve(span.records);
        result.status = AppendCsvRecords(
            schema, csv.substr(span.begin, span.end - span.begin), 0,
            &result.table);
        return result;
      });

  // First error in text order wins — identical to what the serial parser
  // would have reported first.
  for (const ChunkResult& result : parsed) {
    if (!result.status.ok()) return result.status;
  }

  Table out(schema);
  if (!parsed.empty()) {
    out = std::move(parsed.front().table);
    // Reserve the merged size up front: without this every AppendRowsFrom
    // regrows the destination segments geometrically, re-copying the prefix
    // once per chunk.
    size_t total_rows = 0;
    for (const ChunkResult& result : parsed) {
      total_rows += result.table.num_rows();
    }
    out.Reserve(total_rows);
    for (size_t i = 1; i < parsed.size(); ++i) {
      out.AppendRowsFrom(parsed[i].table);
    }
  }

  if (stats != nullptr) {
    stats->threads = threads;
    stats->chunk_bytes = chunk_bytes;
    stats->chunks = spans.size();
    stats->records = out.num_rows();
    stats->parse_seconds = SecondsSince(t0);
  }
  return out;
}

namespace {

/// The loaded bytes of a CSV file: either a read-only mapping (unmapped by
/// the shared_ptr deleter) or an owned fallback buffer.  Move-friendly by
/// construction; `view` always points at the live storage.
struct CsvFileBuffer {
  std::string fallback;
  std::shared_ptr<const void> mapping;
  std::string_view view;
};

Status LoadCsvFile(const std::string& path, bool force_read_fallback,
                   CsvFileBuffer* buffer, CsvIngestStats* stats) {
#ifndef _WIN32
  if (!force_read_fallback) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st;
      if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
        const size_t len = static_cast<size_t>(st.st_size);
        if (len == 0) {
          ::close(fd);
          buffer->view = std::string_view();
          if (stats != nullptr) stats->used_mmap = true;
          return Status::Ok();
        }
        void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (base != MAP_FAILED) {
#ifdef MADV_SEQUENTIAL
          ::madvise(base, len, MADV_SEQUENTIAL);
#endif
          buffer->mapping = std::shared_ptr<const void>(
              base, [len](const void* p) {
                ::munmap(const_cast<void*>(p), len);
              });
          buffer->view =
              std::string_view(static_cast<const char*>(base), len);
          if (stats != nullptr) {
            stats->used_mmap = true;
            stats->file_bytes = len;
          }
          return Status::Ok();
        }
      } else {
        ::close(fd);
      }
    }
    // Any mmap-path failure falls through to the buffered read below; a
    // missing file fails there with a proper IoError.
  }
#endif
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for read: " + path);
  // Single forward pass in fixed-size reads; every byte is counted exactly
  // once in bytes_read (the read-once regression test keys on this).
  char block[64 << 10];
  while (in.read(block, sizeof(block)) || in.gcount() > 0) {
    buffer->fallback.append(block, static_cast<size_t>(in.gcount()));
    if (stats != nullptr) {
      stats->bytes_read += static_cast<size_t>(in.gcount());
    }
  }
  if (in.bad()) return Status::IoError("read failed: " + path);
  buffer->view = buffer->fallback;
  if (stats != nullptr) stats->file_bytes = buffer->fallback.size();
  return Status::Ok();
}

}  // namespace

StatusOr<Table> ReadCsvFileStreaming(const TableSchema& schema,
                                     const std::string& path,
                                     const CsvIngestOptions& options,
                                     CsvIngestStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  CsvFileBuffer buffer;
  CSM_RETURN_IF_ERROR(
      LoadCsvFile(path, options.force_read_fallback, &buffer, stats));
  if (stats != nullptr) stats->load_seconds = SecondsSince(t0);
  return TableFromCsvParallel(schema, buffer.view, options, stats);
}

StatusOr<Table> ReadCsvFileInferredStreaming(const std::string& table_name,
                                             const std::string& path,
                                             size_t infer_records,
                                             const CsvIngestOptions& options,
                                             CsvIngestStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  CsvFileBuffer buffer;
  CSM_RETURN_IF_ERROR(
      LoadCsvFile(path, options.force_read_fallback, &buffer, stats));
  if (stats != nullptr) stats->load_seconds = SecondsSince(t0);

  const std::string_view csv = buffer.view;
  size_t pos = 0;
  CSM_ASSIGN_OR_RETURN(std::vector<std::string> header,
                       ParseRecord(csv, pos));
  if (header.empty()) {
    return Status::InvalidArgument("CSV has no header row");
  }
  std::vector<ValueType> types(header.size(), ValueType::kInt);
  std::vector<bool> saw_value(header.size(), false);
  size_t seen = 0;
  while (pos < csv.size() && (infer_records == 0 || seen < infer_records)) {
    CSM_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                         ParseRecord(csv, pos));
    if (fields.empty()) continue;
    if (fields.size() != header.size()) {
      return Status::InvalidArgument("CSV record arity mismatch in '" +
                                     table_name + "'");
    }
    UpdateTypeInference(fields, &types, &saw_value);
    ++seen;
  }
  TableSchema schema(table_name);
  for (size_t c = 0; c < header.size(); ++c) {
    schema.AddAttribute(header[c],
                        saw_value[c] ? types[c] : ValueType::kString);
  }
  return TableFromCsvParallel(schema, csv, options, stats);
}

}  // namespace csm
