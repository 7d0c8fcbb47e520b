#include "relational/csv.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>

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

/// Appends `field` to `out`, quoted (embedded quotes doubled) when it
/// holds a comma, a quote, CR or LF.
void AppendField(std::string_view field, std::string* out) {
  bool special = false;
  for (char c : field) {
    special |= c == ',' || c == '"' || c == '\n' || c == '\r';
  }
  if (!special) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// Appends the CSV field of cell `r` of `col`: Value::ToString's rendering,
/// quoted as needed.  NULL renders empty; int and real renderings never
/// need quotes.
void AppendCell(const Column& col, size_t r, std::string* out) {
  if (col.type() != ValueType::kString) {
    col.AppendRendering(r, out);
  } else if (col.codes()[r] != kNullCode) {
    AppendField(col.dictionary().values()[col.codes()[r]], out);
  }
}

/// Renders `instance` as CSV into `out`, straight from its column segments,
/// calling `after_row(out)` after the header and after each record (the
/// file writer flushes full blocks there).
template <typename AfterRow>
void RenderCsv(const Table& instance, std::string* out, AfterRow after_row) {
  const TableSchema& schema = instance.schema();
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (c > 0) out->push_back(',');
    AppendField(schema.attribute(c).name, out);
  }
  out->push_back('\n');
  after_row(out);
  for (size_t r = 0; r < instance.num_rows(); ++r) {
    const size_t line_begin = out->size();
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (c > 0) out->push_back(',');
      AppendCell(instance.column(c), r, out);
    }
    // A single-attribute NULL row would render as an empty line, which a
    // reader cannot tell apart from the file's trailing newline.  Quote it;
    // "" parses back to one empty field and hence NULL.
    if (out->size() == line_begin) out->append("\"\"");
    out->push_back('\n');
    after_row(out);
  }
}

/// WriteCsvFile hands the file blocks of about this many bytes.
constexpr size_t kCsvWriteBlockBytes = 1 << 20;

/// One record's fields, and the storage ParseRecord reuses from record to
/// record within a chunk.
struct CsvRecord {
  /// Views into the CSV text, or into `scratch` for a field that holds a
  /// quote.  Valid until the next ParseRecord call on this record.
  std::vector<std::string_view> fields;
  /// The unescaped bytes of the record's quote-holding fields.
  std::string scratch;
  /// Where each quote-holding field sits in `scratch`.  Its view is built
  /// only once the record ends: `scratch` may reallocate mid-record.
  struct Unescaped {
    size_t field = 0;
    size_t offset = 0;
    size_t size = 0;
  };
  std::vector<Unescaped> unescaped;
};

/// The first byte at or after `pos` that ends an unquoted run (one of
/// , " \r \n), or `size`.
size_t EndOfUnquotedRun(const char* data, size_t pos, size_t size) {
  if constexpr (std::endian::native == std::endian::little) {
    // Eight bytes at a time.  A byte of word ^ (c * kOnes) is zero exactly
    // where word holds c, and (v - kOnes) & ~v & kHighs sets the high bit
    // of v's lowest zero byte (a borrow may also flag higher bytes), so the
    // lowest flagged byte is the first stop.
    constexpr uint64_t kOnes = 0x0101010101010101ULL;
    constexpr uint64_t kHighs = 0x8080808080808080ULL;
    auto zero_bytes = [](uint64_t v) { return (v - kOnes) & ~v & kHighs; };
    while (pos + sizeof(uint64_t) <= size) {
      uint64_t word;
      std::memcpy(&word, data + pos, sizeof(word));
      const uint64_t stops =
          zero_bytes(word ^ (kOnes * ',')) | zero_bytes(word ^ (kOnes * '"')) |
          zero_bytes(word ^ (kOnes * '\r')) | zero_bytes(word ^ (kOnes * '\n'));
      if (stops != 0) return pos + std::countr_zero(stops) / 8;
      pos += sizeof(uint64_t);
    }
  }
  // The tail, byte by byte.  Bit b of kStops is set for b in
  // {'\n', '\r', '"', ','}: every byte above ',' costs one compare.
  constexpr uint64_t kStops = (uint64_t{1} << '\n') | (uint64_t{1} << '\r') |
                              (uint64_t{1} << '"') | (uint64_t{1} << ',');
  while (pos < size) {
    const unsigned char c = static_cast<unsigned char>(data[pos]);
    if (c <= ',' && ((kStops >> c) & 1) != 0) break;
    ++pos;
  }
  return pos;
}

/// Unescapes the field that starts at `begin` and whose first quote is at
/// `pos` into record->scratch, advancing `pos` to the byte that ends the
/// field.  A quote toggles quoted state anywhere in a field, "" inside
/// quotes is one literal quote, and quoted CR, LF and commas are data.
Status UnescapeField(std::string_view text, size_t begin, size_t& pos,
                     CsvRecord* record) {
  const char* const data = text.data();
  const size_t size = text.size();
  std::string& out = record->scratch;
  const size_t offset = out.size();
  out.append(data + begin, pos - begin);
  bool in_quotes = false;
  while (pos < size) {
    const char c = data[pos];
    if (c == '"') {
      if (in_quotes && pos + 1 < size && data[pos + 1] == '"') {
        out.push_back('"');
        pos += 2;
      } else {
        in_quotes = !in_quotes;
        ++pos;
      }
      continue;
    }
    size_t end;
    if (in_quotes) {
      const void* quote = std::memchr(data + pos, '"', size - pos);
      end = quote == nullptr ? size : static_cast<const char*>(quote) - data;
    } else {
      if (c == ',' || c == '\r' || c == '\n') break;
      end = EndOfUnquotedRun(data, pos, size);
    }
    out.append(data + pos, end - pos);
    pos = end;
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated quoted CSV field");
  }
  record->unescaped.push_back(
      {record->fields.size(), offset, out.size() - offset});
  record->fields.emplace_back();
  return Status::Ok();
}

/// Splits one logical CSV record starting at `pos` into record->fields and
/// advances `pos` past the record's terminator.  An unquoted field is a
/// view into `text`; only a field holding a quote is copied, unescaped,
/// into record->scratch.  A blank line at the very end of `text` yields no
/// fields: it is the file's trailing newline, not a record.
Status ParseRecord(std::string_view text, size_t& pos, CsvRecord* record) {
  record->fields.clear();
  record->scratch.clear();
  record->unescaped.clear();
  const char* const data = text.data();
  const size_t size = text.size();
  const size_t start = pos;
  for (;;) {
    const size_t begin = pos;
    pos = EndOfUnquotedRun(data, pos, size);
    if (pos < size && data[pos] == '"') {
      CSM_RETURN_IF_ERROR(UnescapeField(text, begin, pos, record));
    } else {
      record->fields.emplace_back(data + begin, pos - begin);
    }
    if (pos == size || data[pos] != ',') break;
    ++pos;
  }
  const bool blank = pos == start;
  if (pos < size) {
    // Record terminator: "\r\n" (DOS), "\n", or a bare "\r" (classic
    // Mac).  Skipping a bare "\r" instead would both collapse a CR-only
    // file into a single record and silently drop an unquoted embedded
    // "\r".
    if (data[pos++] == '\r' && pos < size && data[pos] == '\n') ++pos;
  }
  const std::string_view scratch = record->scratch;
  for (const CsvRecord::Unescaped& u : record->unescaped) {
    record->fields[u.field] = scratch.substr(u.offset, u.size);
  }
  if (blank && pos >= size) record->fields.clear();
  return Status::Ok();
}

Status ValidateCsvHeader(const TableSchema& schema,
                         const std::vector<std::string_view>& header) {
  if (header.size() != schema.num_attributes()) {
    return Status::InvalidArgument("CSV header arity mismatch for table '" +
                                   schema.name() + "'");
  }
  for (size_t c = 0; c < header.size(); ++c) {
    if (header[c] != schema.attribute(c).name) {
      return Status::InvalidArgument("CSV header mismatch: expected '" +
                                     schema.attribute(c).name + "', got '" +
                                     std::string(header[c]) + "'");
    }
  }
  return Status::Ok();
}

/// The one record loop: parses each record of `csv` in [span.begin,
/// span.end) and hands its `arity` field views to `visit`, which must not
/// keep them past its return.  ParseRecord sees the
/// whole text, so only a blank line at the end of the file — never one that
/// merely ends a chunk — is skipped as the trailing newline.
template <typename Visit>
Status AppendCsvRecords(std::string_view csv, const CsvChunkSpan& span,
                        size_t arity, const std::string& table_name,
                        Visit&& visit) {
  CsvRecord record;
  size_t pos = span.begin;
  while (pos < span.end) {
    CSM_RETURN_IF_ERROR(ParseRecord(csv, pos, &record));
    if (record.fields.empty()) continue;  // blank trailing line
    if (record.fields.size() != arity) {
      return Status::InvalidArgument("CSV record arity mismatch in table '" +
                                     table_name + "'");
    }
    CSM_RETURN_IF_ERROR(visit(record.fields));
  }
  return Status::Ok();
}

/// Widens each column's type so it admits `record`'s cells, in the order
/// kNull (no non-empty cell yet) < kInt < kReal < kString.  A column's
/// verdict is the widest of its cells' narrowest types, so chunks fold
/// independently and merge exactly by taking the per-column maximum: every
/// cell from_chars accepts as an int64 also parses as a double.
void UpdateTypeInference(const std::vector<std::string_view>& record,
                         std::vector<ValueType>* types) {
  for (size_t c = 0; c < record.size(); ++c) {
    ValueType& type = (*types)[c];
    if (type == ValueType::kString) continue;
    const std::string_view cell = Trim(record[c]);
    if (cell.empty()) continue;
    if (type != ValueType::kReal && Value::Parse(cell, ValueType::kInt).ok()) {
      type = ValueType::kInt;
    } else {
      type = Value::Parse(cell, ValueType::kReal).ok() ? ValueType::kReal
                                                       : ValueType::kString;
    }
  }
}

}  // namespace

std::string TableToCsv(const Table& instance) {
  std::string out;
  RenderCsv(instance, &out, [](std::string*) {});
  return out;
}

Status WriteCsvFile(const Table& instance, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for write: " + path);
  std::string block;
  block.reserve(2 * kCsvWriteBlockBytes);
  auto write_block = [&out](std::string* buffer) {
    out.write(buffer->data(), static_cast<std::streamsize>(buffer->size()));
    buffer->clear();
  };
  RenderCsv(instance, &block, [&](std::string* buffer) {
    if (buffer->size() >= kCsvWriteBlockBytes) write_block(buffer);
  });
  write_block(&block);
  // close() flushes the buffered tail; checking the stream before it would
  // miss a failed final write (a small table on a full disk).
  out.close();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

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
  if (threads <= 1) return std::max<size_t>(total_bytes, 1);
  constexpr size_t kMinChunk = 64u << 10;  // below this, spawn overhead wins
  constexpr size_t kMaxChunk = 16u << 20;  // above this, stragglers dominate
  const size_t target = total_bytes / (threads * 4);
  return std::clamp(target, kMinChunk, kMaxChunk);
}

namespace {

/// How one read splits the CSV body and who parses it.  Planned once per
/// read, so the inferred reader's type fold and typed parse share the spans.
struct CsvChunkPlan {
  size_t threads = 1;
  size_t chunk_bytes = 0;
  std::vector<CsvChunkSpan> spans;
  double scan_seconds = 0.0;
  std::unique_ptr<exec::ThreadPool> pool;  // null: spans run on the caller
};

CsvChunkPlan PlanCsvChunks(std::string_view csv, size_t pos,
                           const CsvIngestOptions& options) {
  CsvChunkPlan plan;
  plan.threads = exec::EffectiveThreads(options.threads);
  plan.chunk_bytes =
      options.chunk_bytes != 0
          ? options.chunk_bytes
          : AutotuneCsvChunkBytes(csv.size() - pos, plan.threads);
  const auto scan_start = std::chrono::steady_clock::now();
  plan.spans = ScanCsvChunks(csv, pos, plan.chunk_bytes);
  plan.scan_seconds = SecondsSince(scan_start);
  if (plan.threads > 1 && plan.spans.size() > 1) {
    plan.pool = std::make_unique<exec::ThreadPool>(plan.threads);
  }
  return plan;
}

/// Parses every span of `plan` into its own table (own dictionaries, no
/// shared mutable state) and appends them in text order; the append
/// re-encodes string codes in row order, which reproduces a one-chunk parse
/// bit for bit.  The first error in text order wins, as it would in one
/// chunk.  `t0` starts the parse_seconds clock.
StatusOr<Table> ParseCsvChunks(const TableSchema& schema, std::string_view csv,
                               const CsvChunkPlan& plan,
                               std::chrono::steady_clock::time_point t0,
                               CsvIngestStats* stats) {
  struct ChunkResult {
    Table table;
    Status status;
  };
  std::vector<ChunkResult> parsed =
      exec::ParallelMap(plan.pool.get(), plan.spans.size(), [&](size_t i) {
        ChunkResult result;
        result.table = Table(schema);
        result.table.Reserve(plan.spans[i].records);
        result.status = AppendCsvRecords(
            csv, plan.spans[i], schema.num_attributes(), schema.name(),
            [&](const std::vector<std::string_view>& fields) {
              return result.table.AddRowFromText(fields);
            });
        return result;
      });
  for (const ChunkResult& result : parsed) {
    if (!result.status.ok()) return result.status;
  }

  const auto merge_start = std::chrono::steady_clock::now();
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
    stats->threads = plan.threads;
    stats->chunk_bytes = plan.chunk_bytes;
    stats->chunks = plan.spans.size();
    stats->records = out.num_rows();
    stats->scan_seconds = plan.scan_seconds;
    stats->merge_seconds = SecondsSince(merge_start);
    stats->parse_seconds = SecondsSince(t0);
  }
  return out;
}

/// Infers the schema of `csv`'s body from every record: folds the type of
/// each chunk in parallel over `plan`'s spans, then merges the verdicts per
/// column in text order.  `header` names the columns and must not repeat a
/// name.
StatusOr<TableSchema> InferCsvSchema(const std::string& table_name,
                                     const std::vector<std::string_view>& header,
                                     std::string_view csv,
                                     const CsvChunkPlan& plan) {
  struct ChunkTypes {
    std::vector<ValueType> types;
    Status status;
  };
  const std::vector<ChunkTypes> folds =
      exec::ParallelMap(plan.pool.get(), plan.spans.size(), [&](size_t i) {
        ChunkTypes fold;
        fold.types.assign(header.size(), ValueType::kNull);
        fold.status = AppendCsvRecords(
            csv, plan.spans[i], header.size(), table_name,
            [&](const std::vector<std::string_view>& fields) {
              UpdateTypeInference(fields, &fold.types);
              return Status::Ok();
            });
        return fold;
      });
  std::vector<ValueType> types(header.size(), ValueType::kNull);
  for (const ChunkTypes& fold : folds) {
    if (!fold.status.ok()) return fold.status;
    for (size_t c = 0; c < types.size(); ++c) {
      types[c] = std::max(types[c], fold.types[c]);
    }
  }
  TableSchema schema(table_name);
  for (size_t c = 0; c < header.size(); ++c) {
    if (schema.FindAttribute(header[c]).has_value()) {
      return Status::InvalidArgument("CSV header repeats column '" +
                                     std::string(header[c]) + "' in '" +
                                     table_name + "'");
    }
    schema.AddAttribute(std::string(header[c]), types[c] == ValueType::kNull
                                       ? ValueType::kString
                                       : types[c]);
  }
  return schema;
}

/// The loaded bytes of a CSV file: either a read-only mapping (unmapped by
/// the shared_ptr deleter) or an owned fallback buffer.  Move-friendly by
/// construction; `view` always points at the live storage.
struct CsvFileBuffer {
  std::string fallback;
  std::shared_ptr<const void> mapping;
  std::string_view view;
};

/// The one file loader: maps `path` read-only, or reads it in one buffered
/// forward pass when mapping fails or `force_read_fallback` is set.
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

StatusOr<Table> TableFromCsvParallel(const TableSchema& schema,
                                     std::string_view csv,
                                     const CsvIngestOptions& options,
                                     CsvIngestStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  size_t pos = 0;
  CsvRecord header;
  CSM_RETURN_IF_ERROR(ParseRecord(csv, pos, &header));
  CSM_RETURN_IF_ERROR(ValidateCsvHeader(schema, header.fields));
  return ParseCsvChunks(schema, csv, PlanCsvChunks(csv, pos, options), t0,
                        stats);
}

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

StatusOr<Table> ReadCsvFileInferred(const std::string& table_name,
                                    const std::string& path,
                                    const CsvIngestOptions& options,
                                    CsvIngestStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  CsvFileBuffer buffer;
  CSM_RETURN_IF_ERROR(
      LoadCsvFile(path, options.force_read_fallback, &buffer, stats));
  if (stats != nullptr) stats->load_seconds = SecondsSince(t0);
  const auto parse_start = std::chrono::steady_clock::now();
  const std::string_view csv = buffer.view;
  size_t pos = 0;
  CsvRecord header;
  CSM_RETURN_IF_ERROR(ParseRecord(csv, pos, &header));
  if (header.fields.empty()) {
    return Status::InvalidArgument("CSV has no header row");
  }
  const CsvChunkPlan plan = PlanCsvChunks(csv, pos, options);
  CSM_ASSIGN_OR_RETURN(TableSchema schema,
                       InferCsvSchema(table_name, header.fields, csv, plan));
  return ParseCsvChunks(schema, csv, plan, parse_start, stats);
}

}  // namespace csm
