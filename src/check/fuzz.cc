#include "check/fuzz.h"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "check/differential.h"
#include "check/fingerprint.h"
#include "check/generators.h"
#include "check/reference.h"
#include "check/token_profile.h"
#include "common/logging.h"
#include "core/clustered_view_gen.h"
#include "core/match_engine.h"
#include "core/session_store.h"
#include "core/view_inference.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "match/code_index.h"
#include "match/matcher.h"
#include "match/matchers.h"
#include "match/sample_store.h"
#include "match/session.h"
#include "ml/naive_bayes.h"
#include "relational/csv.h"
#include "relational/sample.h"
#include "relational/table_view.h"
#include "relational/view.h"
#include "stats/descriptive.h"
#include "text/gram.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace csm::check {
namespace {

/// Prefixes an oracle failure with the exact replay coordinates.
Status Replay(const FuzzOptions& options, size_t iteration, Status status) {
  if (status.ok()) return status;
  return Status(status.code(),
                "replay: seed=" + std::to_string(options.seed) +
                    " iteration=" + std::to_string(iteration) + "; " +
                    status.message());
}

// --------------------------------------------------------------------- CSV

/// Renders `table` as CSV with a random record terminator ("\n", "\r\n" or
/// a bare "\r") per record, quoting fields like the writer (the library
/// writer always emits "\n"); the final record keeps its terminator with
/// probability 1/2 (both are legal).
std::string RenderCsvMixedLineEndings(const Table& table, Rng& rng) {
  const char* kTerminators[] = {"\n", "\r\n", "\r"};
  std::string out;
  auto append_record = [&](const std::vector<std::string>& fields,
                           bool last) {
    std::string record;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (c > 0) record += ',';
      record += ReferenceQuoteField(fields[c]);
    }
    // Match the library writer: a would-be-empty line is written as `""`
    // so it cannot fuse with a preceding bare-"\r" terminator into "\r\n"
    // (or vanish as the trailing newline).
    if (record.empty()) record = "\"\"";
    out += record;
    if (!last || rng.NextBounded(2) == 0) {
      out += kTerminators[rng.NextBounded(3)];
    }
  };
  std::vector<std::string> fields;
  for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
    fields.push_back(table.schema().attribute(c).name);
  }
  append_record(fields, table.num_rows() == 0);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    fields.clear();
    for (const Value& v : table.row(r)) fields.push_back(v.ToString());
    append_record(fields, r + 1 == table.num_rows());
  }
  return out;
}

Status CompareTables(const Table& expected, const Table& actual,
                     const char* what) {
  const std::string e = FingerprintTable(expected);
  const std::string a = FingerprintTable(actual);
  if (e != a) {
    return Status::Internal(std::string(what) +
                            " round trip diverged:\n--- expected ---\n" + e +
                            "--- actual ---\n" + a);
  }
  return Status::Ok();
}

/// A chunked parse must match the one-chunk parse in values *and* in the
/// codes its merged dictionaries assign (downstream fingerprints and
/// dictionary-code scans depend on them).
Status CompareChunkedParse(const Table& expected, const Table& actual,
                           const char* what) {
  CSM_RETURN_IF_ERROR(CompareTables(expected, actual, what));
  for (size_t c = 0; c < expected.schema().num_attributes(); ++c) {
    const Column& e = expected.column(c);
    const Column& a = actual.column(c);
    if (e.type() != ValueType::kString) continue;
    const std::string& name = expected.schema().attribute(c).name;
    if (a.codes() != e.codes()) {
      return Status::Internal(std::string(what) + ": dictionary codes "
                              "diverged in column " + name);
    }
    if (a.dictionary().size() != e.dictionary().size()) {
      return Status::Internal(std::string(what) + ": dictionary size "
                              "diverged in column " + name);
    }
    for (uint32_t code = 0; code < e.dictionary().size(); ++code) {
      if (a.dictionary().value(code) != e.dictionary().value(code)) {
        return Status::Internal(std::string(what) + ": dictionary entry " +
                                std::to_string(code) + " diverged in column " +
                                name);
      }
    }
  }
  return Status::Ok();
}

/// One thread parses one chunk: the reference parse.
constexpr CsvIngestOptions kOneChunk{.threads = 1};

}  // namespace

Status FuzzCsvRoundTrip(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const Table table = RandomHostileTable("fuzz", rng);

    // Library writer -> library parser.
    StatusOr<Table> parsed =
        TableFromCsvParallel(table.schema(), TableToCsv(table), kOneChunk);
    if (!parsed.ok()) {
      return Replay(options, i,
                    Status::Internal("ParseCsv failed on WriteCsv output: " +
                                     parsed.status().message()));
    }
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CompareTables(table, *parsed, "WriteCsv")));

    // Re-rendered with randomized \n / \r\n / \r record terminators.
    const std::string mixed = RenderCsvMixedLineEndings(table, rng);
    parsed = TableFromCsvParallel(table.schema(), mixed, kOneChunk);
    if (!parsed.ok()) {
      return Replay(options, i,
                    Status::Internal("ParseCsv failed on mixed-line-ending "
                                     "rendering: " +
                                     parsed.status().message()));
    }
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CompareTables(table, *parsed, "mixed-line-ending")));

    // The columnar writer's bytes against the boxed writer, on this table
    // and on one holding NaN, +-inf, -0.0 and lossy "%g" reals.
    HostileTableOptions special_options;
    special_options.special_reals = true;
    const Table special = RandomHostileTable("fuzz", rng, special_options);
    for (const Table* t : {&table, &special}) {
      if (TableToCsv(*t) != ReferenceTableToCsv(*t)) {
        return Replay(options, i,
                      Status::Internal("TableToCsv bytes differ from the "
                                       "boxed reference writer:\n" +
                                       ReferenceTableToCsv(*t)));
      }
    }
  }
  return Status::Ok();
}

Status FuzzCsvChunkedParse(const FuzzOptions& options) {
  // Chunk sizes chosen to force record splits everywhere: 1 byte puts every
  // record (and every quoted terminator) at a chunk boundary; the larger
  // sizes exercise mid-table splits and the single-chunk degenerate case.
  const size_t kChunkSizes[] = {1, 7, 64, 4096};
  const std::vector<size_t> thread_counts =
      options.thread_counts.empty() ? std::vector<size_t>{1}
                                    : options.thread_counts;
  // The inferred reader takes a file; pid keeps concurrent runs apart.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("csm_fuzz_csv_" + std::to_string(::getpid()) + ".csv"))
          .string();
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const Table table = RandomHostileTable("fuzz", rng);
    const std::string renderings[] = {TableToCsv(table),
                                      RenderCsvMixedLineEndings(table, rng)};
    for (const std::string& csv : renderings) {
      const StatusOr<Table> serial =
          TableFromCsvParallel(table.schema(), csv, kOneChunk);
      if (!serial.ok()) {
        return Replay(options, i,
                      Status::Internal("one-chunk parser rejected rendering: " +
                                       serial.status().message()));
      }

      // Chunk-scan invariants: spans are contiguous, non-empty, and cover
      // [pos, size) exactly, at an arbitrary target size.
      const size_t target = 1 + rng.NextBounded(csv.size() + 1);
      size_t cursor = 0;
      for (const CsvChunkSpan& span : ScanCsvChunks(csv, 0, target)) {
        if (span.begin != cursor || span.end <= span.begin) {
          return Replay(options, i,
                        Status::Internal(
                            "chunk scan produced a gap or empty span at byte " +
                            std::to_string(cursor) + " (target=" +
                            std::to_string(target) + ")"));
        }
        cursor = span.end;
      }
      if (cursor != csv.size()) {
        return Replay(options, i,
                      Status::Internal("chunk scan covered " +
                                       std::to_string(cursor) + " of " +
                                       std::to_string(csv.size()) + " bytes"));
      }

      // The inferred reader takes a file.
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << csv;
        out.close();
        if (!out) return Status::IoError("cannot write fuzz input " + path);
      }
      const StatusOr<Table> inferred =
          ReadCsvFileInferred("fuzz", path, kOneChunk);
      if (!inferred.ok()) {
        return Replay(options, i,
                      Status::Internal("inferred reader rejected rendering: " +
                                       inferred.status().message()));
      }

      // Every chunk size x thread count must reproduce the one-chunk typed
      // parse, and the per-chunk type fold plus its merge must infer the
      // schema — and parse the cells and codes — of the one-chunk read.
      for (size_t chunk_bytes : kChunkSizes) {
        for (size_t threads : thread_counts) {
          const CsvIngestOptions ingest{.threads = threads,
                                        .chunk_bytes = chunk_bytes};
          auto where = [&](const std::string& message) {
            return Replay(options, i,
                          Status::Internal(
                              message + " (chunk_bytes=" +
                              std::to_string(chunk_bytes) + ", threads=" +
                              std::to_string(threads) + ")"));
          };
          const StatusOr<Table> chunked =
              TableFromCsvParallel(table.schema(), csv, ingest);
          if (!chunked.ok()) {
            return where("chunked parser rejected text the one-chunk parser "
                         "accepted: " + chunked.status().message());
          }
          Status same = CompareChunkedParse(*serial, *chunked, "chunked parse");
          if (!same.ok()) return where(same.message());
          const StatusOr<Table> chunked_inferred =
              ReadCsvFileInferred("fuzz", path, ingest);
          if (!chunked_inferred.ok()) {
            return where("chunked inferred read failed: " +
                         chunked_inferred.status().message());
          }
          same = CompareChunkedParse(*inferred, *chunked_inferred,
                                     "chunked inferred read");
          if (!same.ok()) return where(same.message());
        }
      }
    }
  }
  std::remove(path.c_str());
  return Status::Ok();
}

namespace {

/// One byte, or one multi-byte UTF-8 character, that never ends an
/// unquoted CSV run: letters, digits, space, '.', '-', NUL, 0x1b-0x1f.
std::string RandomPlainCsvChar(Rng& rng) {
  static const char* const kUtf8[] = {"\xc3\xa9", "\xe2\x82\xac",
                                      "\xf0\x9d\x84\x9e", "\xe6\x97\xa5"};
  switch (rng.NextBounded(8)) {
    case 0:
      return std::string(1, static_cast<char>('a' + rng.NextBounded(26)));
    case 1:
      return std::string(1, static_cast<char>('A' + rng.NextBounded(26)));
    case 2:
    case 3:
      return std::string(1, static_cast<char>('0' + rng.NextBounded(10)));
    case 4:
      return std::string(1, " .-"[rng.NextBounded(3)]);
    case 5:
      return std::string(1, rng.NextBounded(3) == 0
                                ? '\0'
                                : static_cast<char>(0x1b + rng.NextBounded(5)));
    default:
      return kUtf8[rng.NextBounded(4)];
  }
}

/// Any character of the scan fuzzer's alphabet, structural bytes included.
std::string RandomCsvChar(Rng& rng) {
  if (rng.NextBounded(3) != 0) return RandomPlainCsvChar(rng);
  return std::string(1, ",\"\r\n"[rng.NextBounded(4)]);
}

std::string RandomCsvRun(Rng& rng, size_t max_chars, bool plain) {
  std::string out;
  const size_t n = rng.NextBounded(max_chars + 1);
  for (size_t k = 0; k < n; ++k) {
    out += plain ? RandomPlainCsvChar(rng) : RandomCsvChar(rng);
  }
  return out;
}

/// Number-like text: optional blanks and sign, digits, and for a real a
/// fraction or exponent.  `wild` allows ints past int64 and fractions or
/// exponents in ints, which the typed parse rejects.
std::string RandomCsvNumber(Rng& rng, bool integer, bool wild) {
  std::string out(rng.NextBounded(3), ' ');
  if (rng.NextBounded(3) == 0) out += '-';
  const size_t digits =
      1 + rng.NextBounded(wild && rng.NextBounded(4) == 0 ? 22 : 6);
  for (size_t k = 0; k < digits; ++k) {
    out += static_cast<char>('0' + rng.NextBounded(10));
  }
  if (!integer || (wild && rng.NextBounded(4) == 0)) {
    if (rng.NextBounded(2) == 0) {
      out += '.' + std::to_string(rng.NextBounded(1000));
    }
    if (rng.NextBounded(6) == 0) {
      out += "e" + std::to_string(rng.NextBounded(40));
    }
  }
  out.append(rng.NextBounded(2), ' ');
  return out;
}

/// `content` quoted, embedded quotes doubled.
std::string QuotedCsv(const std::string& content) {
  std::string out = "\"";
  for (char c : content) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + "\"";
}

/// One field's raw text for a column of `type`: empty, plain and
/// number-like runs, quoted fields holding , " CR LF (so "" escapes),
/// quotes in mid-field and quoted fields long enough to regrow the
/// scanner's scratch buffer.  Int and real columns get numbers, sometimes
/// quoted.  `wild` adds arbitrary bytes that can split or merge records,
/// quotes left open, and non-numbers in numeric columns.
std::string RandomCsvFieldText(Rng& rng, ValueType type, bool wild) {
  if ((type == ValueType::kInt || type == ValueType::kReal) &&
      (!wild || rng.NextBounded(8) != 0)) {
    const std::string number =
        RandomCsvNumber(rng, type == ValueType::kInt, wild);
    return rng.NextBounded(6) == 0 ? QuotedCsv(number) : number;
  }
  switch (rng.NextBounded(10)) {
    case 0:
      return "";
    case 1:
    case 2:
      return RandomCsvRun(rng, 8, /*plain=*/true);
    case 3:
      return RandomCsvNumber(rng, rng.NextBounded(2) == 0, wild);
    case 4:
      return QuotedCsv(RandomCsvRun(rng, 10, /*plain=*/false));
    case 5:
      // Quotes in mid-field: each toggles quoted state.
      return RandomCsvRun(rng, 4, true) + "\"" + RandomCsvRun(rng, 6, false) +
             "\"" + RandomCsvRun(rng, 4, true);
    case 6: {
      std::string content;
      const size_t n =
          16 + rng.NextBounded(rng.NextBounded(2) == 0 ? 64 : 2048);
      while (content.size() < n) content += RandomCsvChar(rng);
      return QuotedCsv(content);
    }
    case 7:
      if (wild) return RandomCsvRun(rng, 12, /*plain=*/false);
      return RandomCsvRun(rng, 8, /*plain=*/true);
    case 8:
      if (wild && rng.NextBounded(4) == 0) {
        return RandomCsvRun(rng, 3, true) + "\"" + RandomCsvRun(rng, 6, true);
      }
      return RandomCsvRun(rng, 8, /*plain=*/true);
    default:
      return QuotedCsv(RandomCsvRun(rng, 6, true)) + RandomCsvRun(rng, 3, true);
  }
}

/// Random CSV text for `schema`: a header, then records whose fields come
/// from RandomCsvFieldText, ended by random "\n", "\r\n" or "\r", with
/// blank interior and trailing lines, and the last terminator sometimes
/// missing.  A wild text may also get a wrong header or a record of the
/// wrong arity.
std::string RandomCsvText(const TableSchema& schema, Rng& rng) {
  static const char* const kTerminators[] = {"\n", "\r\n", "\r"};
  auto terminator = [&] { return kTerminators[rng.NextBounded(3)]; };
  // A quarter of the texts are wild (RandomCsvFieldText); most of those
  // fail, at a point both readers must agree on.
  const bool wild = rng.NextBounded(4) == 0;
  std::string out;
  std::vector<std::string> names;
  for (const AttributeDef& attr : schema.attributes()) {
    names.push_back(attr.name);
  }
  if (wild && rng.NextBounded(3) == 0) {
    switch (rng.NextBounded(3)) {
      case 0:
        names.pop_back();
        break;
      case 1:
        names.push_back("extra");
        break;
      default:
        names[rng.NextBounded(names.size())] += "x";
        break;
    }
  }
  for (size_t c = 0; c < names.size(); ++c) {
    if (c > 0) out += ',';
    out += ReferenceQuoteField(names[c]);
  }
  const size_t records = rng.NextBounded(24);
  for (size_t r = 0; r < records; ++r) {
    out += terminator();
    if (rng.NextBounded(40) == 0) out += terminator();  // blank line
    size_t fields = schema.num_attributes();
    if (wild && rng.NextBounded(8) == 0) {
      fields = rng.NextBounded(2) == 0 ? fields + 1 : fields - 1;
    }
    for (size_t c = 0; c < fields; ++c) {
      if (c > 0) out += ',';
      out += RandomCsvFieldText(
          rng,
          c < schema.num_attributes() ? schema.attribute(c).type
                                      : ValueType::kString,
          wild);
    }
  }
  switch (rng.NextBounded(4)) {
    case 0:
      break;  // no final terminator
    case 1:
      out += terminator();
      out += terminator();  // trailing blank line
      break;
    default:
      out += terminator();
      break;
  }
  return out;
}

/// A random mixed-type schema of 1-5 attributes, every name unique and some
/// holding bytes the header must quote.
TableSchema RandomCsvSchema(Rng& rng) {
  static const char* const kPrefixes[] = {"", "", "q\"", "a,b", "l\r\n",
                                          " sp", "\xc3\xa9"};
  static const ValueType kTypes[] = {ValueType::kString, ValueType::kString,
                                     ValueType::kInt,    ValueType::kInt,
                                     ValueType::kReal,   ValueType::kReal,
                                     ValueType::kNull};
  TableSchema schema("scan");
  const size_t arity = 1 + rng.NextBounded(5);
  for (size_t c = 0; c < arity; ++c) {
    const std::string name =
        kPrefixes[rng.NextBounded(std::size(kPrefixes))] + std::to_string(c);
    schema.AddAttribute(name, kTypes[rng.NextBounded(std::size(kTypes))]);
  }
  return schema;
}

/// The first difference between two parsed tables, bit for bit: schema,
/// row count, null masks, int values, real bit patterns, string codes and
/// dictionary entries.  Also checks `actual`'s stored string hashes.
/// Empty when they agree.
std::string DiffTableBits(const Table& expected, const Table& actual) {
  if (expected.schema().ToString() != actual.schema().ToString()) {
    return "schema " + actual.schema().ToString() + ", expected " +
           expected.schema().ToString();
  }
  if (expected.num_rows() != actual.num_rows()) {
    return std::to_string(actual.num_rows()) + " rows, expected " +
           std::to_string(expected.num_rows());
  }
  for (size_t c = 0; c < expected.schema().num_attributes(); ++c) {
    const Column& e = expected.column(c);
    const Column& a = actual.column(c);
    const std::string where = " of column " + std::to_string(c);
    if (e.null_mask() != a.null_mask()) return "null mask" + where;
    if (e.ints() != a.ints()) return "int cells" + where;
    if (e.reals().size() != a.reals().size() ||
        (!e.reals().empty() &&
         std::memcmp(e.reals().data(), a.reals().data(),
                     e.reals().size() * sizeof(double)) != 0)) {
      return "real bits" + where;
    }
    if (e.type() != ValueType::kString) continue;
    if (e.codes() != a.codes()) return "dictionary codes" + where;
    if (e.dictionary().values() != a.dictionary().values()) {
      return "dictionary entries" + where;
    }
    const StringDictionary& dict = a.dictionary();
    for (uint32_t code = 0; code < dict.size(); ++code) {
      if (dict.hash(code) != std::hash<std::string_view>{}(dict.value(code))) {
        return "stored hash of code " + std::to_string(code) + where;
      }
    }
  }
  return "";
}

/// Same status (code and message) and, when both parse, the same table
/// bit for bit.
Status CompareScan(const StatusOr<Table>& expected,
                   const StatusOr<Table>& actual, const std::string& what) {
  if (expected.ok() != actual.ok() ||
      (!expected.ok() &&
       (expected.status().code() != actual.status().code() ||
        expected.status().message() != actual.status().message()))) {
    return Status::Internal(what + ": status " + actual.status().ToString() +
                            ", reference " + expected.status().ToString());
  }
  if (!expected.ok()) return Status::Ok();
  const std::string diff = DiffTableBits(*expected, *actual);
  if (!diff.empty()) return Status::Internal(what + ": " + diff);
  return Status::Ok();
}

/// The model StringDictionary is checked against.
struct DictionaryModel {
  std::unordered_map<std::string, uint32_t> index;
  std::vector<std::string> values;

  uint32_t GetOrAdd(const std::string& s) {
    const auto [it, added] =
        index.emplace(s, static_cast<uint32_t>(values.size()));
    if (added) values.push_back(s);
    return it->second;
  }
};

/// The first difference between `dict` and `model`, or empty.
std::string DiffDictionary(const StringDictionary& dict,
                           const DictionaryModel& model) {
  if (dict.size() != model.values.size()) {
    return "size " + std::to_string(dict.size()) + ", expected " +
           std::to_string(model.values.size());
  }
  if (dict.values() != model.values) return "values() diverged";
  for (uint32_t code = 0; code < dict.size(); ++code) {
    if (dict.Find(model.values[code]) != std::optional<uint32_t>(code)) {
      return "Find lost code " + std::to_string(code);
    }
    if (dict.hash(code) !=
        std::hash<std::string_view>{}(model.values[code])) {
      return "stored hash of code " + std::to_string(code);
    }
  }
  return "";
}

/// Random GetOrAdd / GetOrAddFrom / Find / Reserve / copy sequences on a
/// StringDictionary against the model, over strings that are empty, hold
/// NUL bytes, exceed the small-string buffer and share long prefixes.  The
/// whole dictionary is diffed each time its index has just grown.
std::string CheckDictionaryAgainstModel(Rng& rng) {
  std::vector<std::string> pool = {"", std::string(1, '\0'),
                                   std::string("a\0b", 3)};
  const size_t distinct = 4 + rng.NextBounded(rng.NextBounded(2) == 0 ? 40 : 700);
  while (pool.size() < distinct) {
    const std::string id = std::to_string(pool.size());
    switch (rng.NextBounded(4)) {
      case 0:
        pool.push_back("shared-prefix-longer-than-sso-" + id);
        break;
      case 1:
        pool.push_back(std::string(1 + rng.NextBounded(3), '\0') + id);
        break;
      case 2:
        pool.push_back(RandomCsvRun(rng, 24, /*plain=*/false));
        break;
      default:
        pool.push_back("k" + id);
        break;
    }
  }
  // A second dictionary to insert from, in its own first-seen order.
  StringDictionary other;
  for (size_t k = 0; k < pool.size(); ++k) {
    other.GetOrAdd(pool[rng.NextBounded(pool.size())]);
  }

  StringDictionary dict;
  DictionaryModel model;
  auto expect = [](const std::string& op, std::optional<uint32_t> got,
                   std::optional<uint32_t> want) -> std::string {
    if (got == want) return "";
    auto show = [](std::optional<uint32_t> v) {
      return v.has_value() ? std::to_string(*v) : std::string("nullopt");
    };
    return op + " returned " + show(got) + ", expected " + show(want);
  };
  const size_t ops = 2 * pool.size() + rng.NextBounded(200);
  for (size_t op = 0; op < ops; ++op) {
    const std::string& s = pool[rng.NextBounded(pool.size())];
    const size_t before = dict.size();
    std::string diff;
    switch (rng.NextBounded(16)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4:
      case 5:
        diff = expect("GetOrAdd", dict.GetOrAdd(s), model.GetOrAdd(s));
        break;
      case 6:
      case 7:
      case 8: {
        const auto it = model.index.find(s);
        diff = expect("Find", dict.Find(s),
                      it == model.index.end()
                          ? std::nullopt
                          : std::optional<uint32_t>(it->second));
        break;
      }
      case 9:
      case 10:
      case 11: {
        const uint32_t code =
            static_cast<uint32_t>(rng.NextBounded(other.size()));
        diff = expect("GetOrAddFrom", dict.GetOrAddFrom(other, code),
                      model.GetOrAdd(other.value(code)));
        break;
      }
      case 12:
      case 13:
        dict.Reserve(rng.NextBounded(rng.NextBounded(2) == 0 ? 4 : 300));
        break;
      case 14: {
        // A copy grows on its own; the original must not move.
        StringDictionary copy = dict;
        DictionaryModel copy_model = model;
        for (size_t k = rng.NextBounded(40); k > 0 && diff.empty(); --k) {
          const std::string& t = pool[rng.NextBounded(pool.size())];
          diff = expect("GetOrAdd on a copy", copy.GetOrAdd(t),
                        copy_model.GetOrAdd(t));
        }
        if (diff.empty()) {
          diff = DiffDictionary(copy, copy_model);
          if (!diff.empty()) diff = "its copy: " + diff;
        }
        if (diff.empty()) diff = DiffDictionary(dict, model);
        break;
      }
      default:
        diff = expect("Find of an absent string",
                      dict.Find(s + std::string(1, '\0') + "absent"),
                      std::nullopt);
        break;
    }
    // Growth happens when an insert passes a power of two; diff right
    // after it.
    const size_t after = dict.size();
    if (diff.empty() && after != before && after >= 2 &&
        ((after - 1) & (after - 2)) == 0) {
      diff = DiffDictionary(dict, model);
    }
    if (!diff.empty()) {
      return "StringDictionary op " + std::to_string(op) + " (size " +
             std::to_string(dict.size()) + "): " + diff;
    }
  }
  return DiffDictionary(dict, model);
}

}  // namespace

Status FuzzCsvScanEquivalence(const FuzzOptions& options) {
  const std::vector<size_t> thread_counts =
      options.thread_counts.empty() ? std::vector<size_t>{1}
                                    : options.thread_counts;
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const TableSchema typed = RandomCsvSchema(rng);
    TableSchema strings(typed.name());
    for (const AttributeDef& attr : typed.attributes()) {
      strings.AddAttribute(attr.name, ValueType::kString);
    }
    const std::string csv = RandomCsvText(typed, rng);
    const size_t chunk_sizes[] = {1 + rng.NextBounded(csv.size() + 1),
                                  1 + rng.NextBounded(64)};
    const TableSchema* const schemas[] = {&strings, &typed};
    for (const TableSchema* schema : schemas) {
      const StatusOr<Table> reference = ReferenceTableFromCsv(*schema, csv);
      CSM_RETURN_IF_ERROR(Replay(
          options, i,
          CompareScan(reference, TableFromCsvParallel(*schema, csv, kOneChunk),
                      "one-chunk parse of " + schema->ToString())));
      for (size_t chunk_bytes : chunk_sizes) {
        for (size_t threads : thread_counts) {
          const CsvIngestOptions ingest{.threads = threads,
                                        .chunk_bytes = chunk_bytes};
          CSM_RETURN_IF_ERROR(Replay(
              options, i,
              CompareScan(reference,
                          TableFromCsvParallel(*schema, csv, ingest),
                          "parse of " + schema->ToString() + " (chunk_bytes=" +
                              std::to_string(chunk_bytes) + ", threads=" +
                              std::to_string(threads) + ")")));
        }
      }
    }
    const std::string diff = CheckDictionaryAgainstModel(rng);
    if (!diff.empty()) return Replay(options, i, Status::Internal(diff));
  }
  return Status::Ok();
}

Status FuzzConditionEvaluation(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    const Table table = RandomHostileTable("fuzz", rng, table_options);
    const Condition condition = RandomCondition(table, rng);
    const View view("v", table.name(), condition);

    // Ground truth: independent per-row evaluation.
    PosList expected_rows;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (condition.Evaluate(table.schema(), table.row(r))) {
        expected_rows.push_back(static_cast<RowId>(r));
      }
    }

    if (view.Positions(table) != expected_rows) {
      return Replay(options, i,
                    Status::Internal("Positions != per-row Evaluate for " +
                                     view.ToString()));
    }
    const Table materialized = view.Materialize(table);
    if (materialized.num_rows() != expected_rows.size()) {
      return Replay(
          options, i,
          Status::Internal(
              "materialized row count " +
              std::to_string(materialized.num_rows()) + " != " +
              std::to_string(expected_rows.size()) + " rows satisfying " +
              condition.ToString()));
    }
    for (size_t m = 0; m < expected_rows.size(); ++m) {
      if (!(materialized.row(m) == table.row(expected_rows[m]))) {
        return Replay(options, i,
                      Status::Internal("materialized row " +
                                       std::to_string(m) +
                                       " differs from base row " +
                                       std::to_string(expected_rows[m])));
      }
    }
  }
  return Status::Ok();
}

namespace {

// ------------------------------------------------------------ View identity

/// Attribute names holding rendering syntax: "a = 'x' and b" = 'y' renders
/// like the two clauses a = 'x' and b = 'y'.
const char* const kIdentityAttributes[] = {
    "a", "b", "k", "a = 'x' and b", "x {", "it's", "p and q", "w"};

/// A value for FuzzViewIdentity, drawn per type from small pools so values
/// repeat: strings holding quotes and each byte 0x1b-0x1f, ints around a
/// rendering-order flip (9 vs 10) and 2^53, reals that render alike
/// ("0.123456"), +-0.0, NaNs of different payloads and +-inf.
Value RandomIdentityValue(ValueType type, Rng& rng) {
  static const char* const kStrings[] = {
      "x", "y", "'", "a', 'b", "it''s", "\x1b", "\x1c", "\x1d", "\x1e",
      "\x1f", "p\x1fq", "t\x1dx = 1", "} and {"};
  static const int64_t kInts[] = {-1, 0, 1, 9, 10, int64_t{1} << 53,
                                  (int64_t{1} << 53) + 1};
  static const double kReals[] = {
      0.1234561, 0.1234564, -0.0, 0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::bit_cast<double>(uint64_t{0x7ff8000000000001}),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), 1.0, 9.0, 10.0};
  switch (type) {
    case ValueType::kInt:
      return Value::Int(kInts[rng.NextBounded(std::size(kInts))]);
    case ValueType::kReal:
      return Value::Real(kReals[rng.NextBounded(std::size(kReals))]);
    default:
      return Value::String(kStrings[rng.NextBounded(std::size(kStrings))]);
  }
}

/// 0-3 clauses on distinct attributes in random order; each clause holds
/// 1-3 values of one type, or (one clause in eight) of mixed types.
ViewId RandomViewId(Rng& rng) {
  static const char* const kTables[] = {"t", "u", "t\x1dx"};
  ViewId id{kTables[rng.NextBounded(std::size(kTables))], Condition()};
  std::vector<std::string> attributes(std::begin(kIdentityAttributes),
                                      std::end(kIdentityAttributes));
  rng.Shuffle(attributes);
  const size_t clauses = rng.NextBounded(4);
  for (size_t c = 0; c < clauses; ++c) {
    const bool mixed = rng.NextBounded(8) == 0;
    const ValueType types[] = {ValueType::kString, ValueType::kInt,
                               ValueType::kReal};
    ValueType type = types[rng.NextBounded(3)];
    std::vector<Value> values;
    const size_t n = 1 + rng.NextBounded(3);
    for (size_t v = 0; v < n; ++v) {
      if (mixed) type = types[rng.NextBounded(3)];
      values.push_back(RandomIdentityValue(type, rng));
    }
    id.condition.AddClause(attributes[c], std::move(values));
  }
  return id;
}

/// The same view rebuilt with other bits for equal values: zeros flip sign
/// and NaNs change payload.
ViewId WithOtherBits(const ViewId& id) {
  ViewId out{id.base_table, Condition()};
  for (const ConditionClause& clause : id.condition.clauses()) {
    std::vector<Value> values;
    for (const Value& v : clause.values) {
      if (v.type() == ValueType::kReal && v.AsReal() == 0.0) {
        values.push_back(Value::Real(std::signbit(v.AsReal()) ? 0.0 : -0.0));
      } else if (v.type() == ValueType::kReal && std::isnan(v.AsReal())) {
        values.push_back(
            Value::Real(std::bit_cast<double>(uint64_t{0xfff8000000000007})));
      } else {
        values.push_back(v);
      }
    }
    out.condition.AddClause(clause.attribute, std::move(values));
  }
  return out;
}

/// `id` with one value of one clause redrawn from the same type's pool: a
/// near twin that differs in at most that value.
ViewId WithOneValueRedrawn(const ViewId& id, Rng& rng) {
  if (id.condition.is_true()) return id;
  const auto& clauses = id.condition.clauses();
  const size_t c = rng.NextBounded(clauses.size());
  const size_t v = rng.NextBounded(clauses[c].values.size());
  ViewId out{id.base_table, Condition()};
  for (size_t i = 0; i < clauses.size(); ++i) {
    std::vector<Value> values = clauses[i].values;
    if (i == c) values[v] = RandomIdentityValue(values[v].type(), rng);
    out.condition.AddClause(clauses[i].attribute, std::move(values));
  }
  return out;
}

/// The same clauses in reverse order: another conjunction, since a
/// Condition's clause order is part of its value.
ViewId WithClausesReversed(const ViewId& id) {
  ViewId out{id.base_table, Condition()};
  const auto& clauses = id.condition.clauses();
  for (auto it = clauses.rbegin(); it != clauses.rend(); ++it) {
    out.condition.AddClause(it->attribute, it->values);
  }
  return out;
}

/// Reference equality of two cells: same type and the same int, string or
/// real (every NaN alike, -0.0 == 0.0), decided without Value's operators.
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.AsInt() == b.AsInt();
    case ValueType::kReal:
      return a.AsReal() == b.AsReal() ||
             (std::isnan(a.AsReal()) && std::isnan(b.AsReal()));
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

/// Every value of `a` has a SameCell partner in `b`.
bool CoveredBy(const std::vector<Value>& a, const std::vector<Value>& b) {
  return std::all_of(a.begin(), a.end(), [&](const Value& x) {
    return std::any_of(b.begin(), b.end(),
                       [&](const Value& y) { return SameCell(x, y); });
  });
}

/// Reference view equality: same table, and clause by clause the same
/// attribute and the same set of cells.
bool SameView(const ViewId& a, const ViewId& b) {
  if (a.base_table != b.base_table) return false;
  const auto& ca = a.condition.clauses();
  const auto& cb = b.condition.clauses();
  if (ca.size() != cb.size()) return false;
  for (size_t i = 0; i < ca.size(); ++i) {
    if (ca[i].attribute != cb[i].attribute ||
        !CoveredBy(ca[i].values, cb[i].values) ||
        !CoveredBy(cb[i].values, ca[i].values)) {
      return false;
    }
  }
  return true;
}

/// Typed dump for failure messages: renderings can coincide, so reals
/// print as hex floats and control bytes as \xNN.
std::string DescribeViewId(const ViewId& id) {
  auto escape = [](const std::string& text) {
    std::string out;
    for (unsigned char c : text) {
      if (c < 0x20 || c == 0x7f) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\x%02x", c);
        out += buf;
      } else {
        out += static_cast<char>(c);
      }
    }
    return out;
  };
  std::string out = "[" + escape(id.base_table) + "]";
  for (const ConditionClause& clause : id.condition.clauses()) {
    out += " [" + escape(clause.attribute) + "] in {";
    for (size_t i = 0; i < clause.values.size(); ++i) {
      const Value& v = clause.values[i];
      if (i > 0) out += ", ";
      out += ValueTypeToString(v.type());
      out += ':';
      if (v.type() == ValueType::kReal) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%a", v.AsReal());
        out += buf;
      } else {
        out += escape(v.ToString());
      }
    }
    out += "}";
  }
  return out;
}

}  // namespace

Status FuzzViewIdentity(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    std::vector<ViewId> ids;
    for (size_t d = 0; d < 10; ++d) ids.push_back(RandomViewId(rng));
    // Equal views spelled with other bits, reordered conjunctions, and
    // near twins that differ in one value.
    for (size_t d = 0; d < 3; ++d) {
      ids.push_back(WithOtherBits(ids[rng.NextBounded(10)]));
      ids.push_back(WithClausesReversed(ids[rng.NextBounded(10)]));
      ids.push_back(WithOneValueRedrawn(ids[rng.NextBounded(10)], rng));
    }
    auto fail = [&](const std::string& what, size_t a, size_t b) {
      return Replay(options, i,
                    Status::Internal(what + ": " + DescribeViewId(ids[a]) +
                                     " vs " + DescribeViewId(ids[b])));
    };
    const size_t n = ids.size();
    for (size_t a = 0; a < n; ++a) {
      if (ids[a] < ids[a]) return fail("ViewId < is not irreflexive", a, a);
      for (size_t b = 0; b < n; ++b) {
        const bool same = SameView(ids[a], ids[b]);
        if ((ids[a] == ids[b]) != same) {
          return fail(same ? "ViewId == splits equal views"
                           : "ViewId == joins distinct views",
                      a, b);
        }
        const bool ab = ids[a] < ids[b];
        const bool ba = ids[b] < ids[a];
        if (ab && ba) return fail("ViewId < is not asymmetric", a, b);
        if ((!ab && !ba) != same) {
          return fail("ViewId < equivalence disagrees with equality", a, b);
        }
        if (!ab) continue;
        for (size_t c = 0; c < n; ++c) {
          if (ids[b] < ids[c] && !(ids[a] < ids[c])) {
            return fail("ViewId < is not transitive through " +
                            DescribeViewId(ids[b]),
                        a, c);
          }
        }
      }
    }
    // DeduplicateCandidates keeps exactly the first of each equal group.
    std::vector<CandidateView> candidates(n);
    std::vector<size_t> expected;
    for (size_t a = 0; a < n; ++a) {
      candidates[a].view = View("v" + std::to_string(a), ids[a].base_table,
                                ids[a].condition);
      bool first = true;
      for (size_t b = 0; b < a && first; ++b) first = !SameView(ids[a], ids[b]);
      if (first) expected.push_back(a);
    }
    const std::vector<CandidateView> kept =
        DeduplicateCandidates(std::move(candidates));
    std::vector<size_t> kept_index;
    for (const CandidateView& c : kept) {
      kept_index.push_back(std::stoul(c.view.name().substr(1)));
    }
    if (kept_index != expected) {
      return Replay(options, i,
                    Status::Internal(
                        "DeduplicateCandidates kept " +
                        std::to_string(kept_index.size()) + " views, " +
                        std::to_string(expected.size()) + " are distinct"));
    }
  }
  return Status::Ok();
}

namespace {

/// A label atom for FuzzLabelOrder: ints around the rendering-order flips
/// at 9/10 and 99/100 and negatives, reals that render alike ("0.123456"),
/// +-0.0, NaN and +-inf, and strings holding quotes, prefixes of one
/// another, "" and (one string in six) any byte 0x01-0x1f.
Value RandomLabelAtom(ValueType type, Rng& rng) {
  static const int64_t kInts[] = {-100, -10, -9, -1, 0,  1,   2,   9,
                                  10,   11,  19, 99, 100, 101, 1000};
  static const double kReals[] = {
      0.1234561, 0.1234564, -0.0, 0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(), -1.5, 0.5, 9.0, 10.0,
      100.0, 1e20};
  static const char* const kStrings[] = {
      "", "a", "ab", "abc", "b", "ba", "'", "it's", "\"q\"", "a'b", "10",
      "9", "\x01", "a\x01", "a\x1b" "b", "\x1d", "a\x1e", "x\x1f" "y",
      "\x1f"};
  switch (type) {
    case ValueType::kInt:
      return Value::Int(kInts[rng.NextBounded(std::size(kInts))]);
    case ValueType::kReal:
      return Value::Real(kReals[rng.NextBounded(std::size(kReals))]);
    default:
      if (rng.NextBounded(6) == 0) {
        std::string text = rng.NextBernoulli(0.5) ? "a" : "";
        text += static_cast<char>(1 + rng.NextBounded(0x1f));
        return Value::String(std::move(text));
      }
      return Value::String(kStrings[rng.NextBounded(std::size(kStrings))]);
  }
}

/// Distinct atoms, ascending in Value order, as a label attribute's
/// ValueCounts holds them: of one type, or (one draw in eight) mixed.
std::vector<Value> RandomLabelAtoms(Rng& rng) {
  const ValueType types[] = {ValueType::kInt, ValueType::kReal,
                             ValueType::kString};
  const bool mixed = rng.NextBounded(8) == 0;
  ValueType type = types[rng.NextBounded(3)];
  std::set<Value> atoms;
  const size_t draws = 1 + rng.NextBounded(8);
  for (size_t d = 0; d < draws; ++d) {
    if (mixed) type = types[rng.NextBounded(3)];
    atoms.insert(RandomLabelAtom(type, rng));
  }
  return {atoms.begin(), atoms.end()};
}

/// A random non-empty subset of `n` atoms, ascending.
AtomGroup RandomAtomGroup(size_t n, Rng& rng) {
  AtomGroup group;
  for (AtomId a = 0; a < n; ++a) {
    if (rng.NextBernoulli(0.4)) group.push_back(a);
  }
  if (group.empty()) group.push_back(static_cast<AtomId>(rng.NextBounded(n)));
  return group;
}

/// A random partition of `n` atoms into groups, in random group order.
std::vector<AtomGroup> RandomPartition(size_t n, Rng& rng) {
  std::vector<AtomGroup> groups(1 + rng.NextBounded(n));
  for (AtomId a = 0; a < n; ++a) {
    groups[rng.NextBounded(groups.size())].push_back(a);
  }
  std::erase_if(groups, [](const AtomGroup& g) { return g.empty(); });
  rng.Shuffle(groups);
  return groups;
}

/// Reference partition identity: the groups as a set of atom sets.
std::set<std::set<AtomId>> PartitionSets(const std::vector<AtomGroup>& groups) {
  std::set<std::set<AtomId>> out;
  for (const AtomGroup& g : groups) out.emplace(g.begin(), g.end());
  return out;
}

std::vector<Value> GroupValues(const std::vector<Value>& atoms,
                               const AtomGroup& group) {
  std::vector<Value> values;
  for (AtomId a : group) values.push_back(atoms[a]);
  return values;
}

/// True when the string-keyed reference orders like the typed keys: no
/// rendering holds a byte <= 0x1f (the token's separators and escape) and
/// no two atoms render alike (they would share a token).
bool TokensOrderLikeKeys(const std::vector<Value>& atoms) {
  std::set<std::string> renderings;
  for (const Value& v : atoms) {
    const std::string text = v.ToString();
    const auto control = [](char c) {
      return static_cast<unsigned char>(c) <= 0x1f;
    };
    if (std::any_of(text.begin(), text.end(), control)) return false;
    if (!renderings.insert(text).second) return false;
  }
  return true;
}

/// Checks that `less` is a strict weak order over the items 0..n-1 whose
/// equivalence is `same`; empty when it is, else what failed and where.
template <typename Less, typename Same>
std::string CheckStrictWeakOrder(size_t n, Less less, Same same) {
  auto at = [](size_t a, size_t b) {
    return " at " + std::to_string(a) + ", " + std::to_string(b);
  };
  for (size_t a = 0; a < n; ++a) {
    if (less(a, a)) return "not irreflexive" + at(a, a);
    for (size_t b = 0; b < n; ++b) {
      const bool ab = less(a, b);
      const bool ba = less(b, a);
      if (ab && ba) return "not asymmetric" + at(a, b);
      if ((!ab && !ba) != same(a, b)) {
        return "equivalence is not set equality" + at(a, b);
      }
      if (!ab) continue;
      for (size_t c = 0; c < n; ++c) {
        if (less(b, c) && !less(a, c)) {
          return "not transitive through " + std::to_string(b) + at(a, c);
        }
      }
    }
  }
  return "";
}

}  // namespace

Status FuzzLabelOrder(const FuzzOptions& options) {
  static const char* const kLabels[] = {"l", "l2", "m"};
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const std::vector<Value> values = RandomLabelAtoms(rng);
    const LabelAtoms atoms(values);
    const size_t n = values.size();
    const bool tokens_order = TokensOrderLikeKeys(values);
    auto describe = [&](const AtomGroup& group) {
      return DescribeViewId(
          ViewId{"", Condition::In("l", GroupValues(values, group))});
    };
    auto fail = [&](const std::string& what) {
      return Replay(options, i, Status::Internal(what));
    };

    // Groups: random atom sets, some drawn twice.
    std::vector<AtomGroup> groups;
    for (size_t d = 0; d < 10; ++d) groups.push_back(RandomAtomGroup(n, rng));
    for (size_t d = 0; d < 3; ++d) {
      groups.push_back(groups[rng.NextBounded(10)]);
    }
    std::vector<GroupKey> keys;
    for (const AtomGroup& g : groups) keys.push_back(atoms.Key(g));
    for (size_t a = 0; a < keys.size(); ++a) {
      for (size_t b = 0; b < keys.size(); ++b) {
        if ((keys[a] == keys[b]) != (groups[a] == groups[b])) {
          return fail("GroupKey == disagrees with set equality: " +
                      describe(groups[a]) + " vs " + describe(groups[b]));
        }
        if (!tokens_order) continue;
        const bool by_token = GroupToken(GroupValues(values, groups[a])) <
                              GroupToken(GroupValues(values, groups[b]));
        if ((keys[a] < keys[b]) != by_token) {
          return fail("group order differs from GroupToken order: " +
                      describe(groups[a]) + " vs " + describe(groups[b]));
        }
      }
    }
    const std::string group_order = CheckStrictWeakOrder(
        groups.size(), [&](size_t a, size_t b) { return keys[a] < keys[b]; },
        [&](size_t a, size_t b) { return groups[a] == groups[b]; });
    if (!group_order.empty()) return fail("group order " + group_order);

    // Families: random partitions under a few label attributes, some
    // spelled again in another group order.
    struct Family {
      std::string label;
      std::vector<AtomGroup> groups;
    };
    std::vector<Family> families;
    for (size_t d = 0; d < 6; ++d) {
      families.push_back({kLabels[rng.NextBounded(std::size(kLabels))],
                          RandomPartition(n, rng)});
    }
    for (size_t d = 0; d < 2; ++d) {
      Family again = families[rng.NextBounded(6)];
      rng.Shuffle(again.groups);
      families.push_back(std::move(again));
    }
    std::vector<FamilyKey> family_keys;
    std::vector<std::string> reference_keys;
    for (const Family& family : families) {
      family_keys.push_back(MakeFamilyKey(family.label, atoms, family.groups));
      ViewFamily views;
      views.label_attribute = family.label;
      for (const AtomGroup& g : family.groups) {
        views.views.emplace_back(
            "v", "t", Condition::In(family.label, GroupValues(values, g)));
      }
      reference_keys.push_back(FamilyPartitionKey(views));

      // Each group's classifier label is its rank in group order.
      const std::vector<LabelId> labels = NumberGroups(atoms, family.groups);
      std::vector<LabelId> sorted = labels;
      std::sort(sorted.begin(), sorted.end());
      for (size_t g = 0; g < sorted.size(); ++g) {
        if (sorted[g] != g) {
          return fail("NumberGroups is not a permutation of 0.." +
                      std::to_string(sorted.size() - 1));
        }
      }
      if (!tokens_order) continue;
      for (size_t a = 0; a < family.groups.size(); ++a) {
        for (size_t b = 0; b < family.groups.size(); ++b) {
          const bool by_token =
              GroupToken(GroupValues(values, family.groups[a])) <
              GroupToken(GroupValues(values, family.groups[b]));
          if ((labels[a] < labels[b]) != by_token) {
            return fail("NumberGroups differs from GroupToken order: " +
                        describe(family.groups[a]) + " vs " +
                        describe(family.groups[b]));
          }
        }
      }
    }
    auto same_family = [&](size_t a, size_t b) {
      return families[a].label == families[b].label &&
             PartitionSets(families[a].groups) ==
                 PartitionSets(families[b].groups);
    };
    for (size_t a = 0; a < families.size(); ++a) {
      for (size_t b = 0; b < families.size(); ++b) {
        if ((family_keys[a] == family_keys[b]) != same_family(a, b)) {
          return fail("FamilyKey == disagrees with partition equality at " +
                      std::to_string(a) + ", " + std::to_string(b));
        }
        if (tokens_order && (family_keys[a] < family_keys[b]) !=
                                (reference_keys[a] < reference_keys[b])) {
          return fail("family-key order differs from FamilyPartitionKey "
                      "order at " + std::to_string(a) + ", " +
                      std::to_string(b));
        }
      }
    }
    const std::string family_order = CheckStrictWeakOrder(
        families.size(),
        [&](size_t a, size_t b) { return family_keys[a] < family_keys[b]; },
        same_family);
    if (!family_order.empty()) return fail("family-key order " + family_order);
  }
  return Status::Ok();
}

Status FuzzPipeline(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const DatabasePair pair = RandomDatabasePair(rng);

    ContextMatchOptions o;
    const ViewInferenceKind kinds[] = {ViewInferenceKind::kNaive,
                                       ViewInferenceKind::kSrcClass,
                                       ViewInferenceKind::kTgtClass};
    o.inference = kinds[rng.NextBounded(3)];
    o.selection = rng.NextBounded(2) == 0 ? SelectionPolicy::kQualTable
                                          : SelectionPolicy::kMultiTable;
    o.early_disjuncts = rng.NextBounded(2) == 0;
    o.omega = 0.02 + rng.NextDouble() * 0.2;
    o.tau = 0.4 + rng.NextDouble() * 0.15;
    o.seed = rng.Next();
    o.threads = options.thread_counts.empty()
                    ? 1
                    : options.thread_counts[rng.NextBounded(
                          options.thread_counts.size())];

    const MatchRequest request{.source = BorrowDatabase(pair.source),
                               .target = BorrowDatabase(pair.target)};
    const ContextMatchResult result = MatchEngine(o).Execute(request).result;
    auto fail = [&](const std::string& message) {
      return Replay(options, i,
                    Status::Internal(message + " (inference=" +
                                     ViewInferenceKindToString(o.inference) +
                                     ", threads=" +
                                     std::to_string(o.threads) + ")"));
    };
    if (!result.status.ok()) {
      return fail("uncancelled pipeline returned non-OK status " +
                  result.status.ToString());
    }
    if (result.completeness != MatchCompleteness::kComplete) {
      return fail("uncancelled pipeline claims degraded completeness");
    }
    for (const Match& m : result.matches) {
      if (m.confidence < 0.0 || m.confidence > 1.0) {
        return fail("selected match confidence out of [0,1]: " +
                    m.ToString());
      }
    }
    // Selection picks only scored views.
    std::vector<ViewId> candidate_ids;
    for (const View& v : result.pool.candidate_views) {
      candidate_ids.push_back(ViewId::Of(v));
    }
    for (const View& v : result.selected_views) {
      if (std::find(candidate_ids.begin(), candidate_ids.end(),
                    ViewId::Of(v)) == candidate_ids.end()) {
        return fail("selected view was never scored: " + v.ToString());
      }
    }
    // Row-count conservation against the source tables.
    for (const View& v : result.pool.candidate_views) {
      const Table* base = pair.source.FindTable(v.base_table());
      if (base == nullptr) {
        return fail("candidate view over unknown base table " +
                    v.base_table());
      }
      auto it = result.pool.view_row_counts.find(ViewId::Of(v));
      if (it != result.pool.view_row_counts.end() &&
          it->second > base->num_rows()) {
        return fail("view row count exceeds base table rows for " +
                    v.ToString());
      }
    }
    // One match per target attribute under multi-table selection.
    if (o.selection == SelectionPolicy::kMultiTable) {
      std::vector<std::string> targets;
      for (const Match& m : result.matches) {
        const std::string t = m.target.ToString();
        if (std::find(targets.begin(), targets.end(), t) != targets.end()) {
          return fail("multi-table selection emitted target twice: " + t);
        }
        targets.push_back(t);
      }
    }
  }
  return Status::Ok();
}

Status FuzzRowColumnarEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    const Table table = RandomHostileTable("fuzz", rng, table_options);
    const size_t cols = table.schema().num_attributes();

    // (1) Re-insert every row through the boxed AddRow path; the rebuilt
    // columnar store must fingerprint bit-identically.
    Table rebuilt(table.schema());
    rebuilt.Reserve(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) rebuilt.AddRow(table.row(r));
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CompareTables(table, rebuilt, "AddRow rebuild")));

    // (2) Columnar cell hashes against boxed Value::Hash (the fingerprint
    // cache keys depend on this equivalence).
    for (size_t c = 0; c < cols; ++c) {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (table.column(c).CellHash(r) !=
            static_cast<uint64_t>(table.ValueAt(r, c).Hash())) {
          return Replay(options, i,
                        Status::Internal(
                            "CellHash != Value::Hash at row " +
                            std::to_string(r) + " col " + std::to_string(c)));
        }
      }
    }

    // (3) Dictionary-code condition scan against per-row Evaluate.
    const Condition condition = RandomCondition(table, rng);
    PosList expected;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (condition.Evaluate(table.schema(), table.row(r))) {
        expected.push_back(static_cast<RowId>(r));
      }
    }
    if (condition.MatchingPositions(table) != expected) {
      return Replay(options, i,
                    Status::Internal("MatchingPositions != per-row Evaluate "
                                     "for " +
                                     condition.ToString()));
    }

    // (4) Zero-copy view reads and column gather against a row-at-a-time
    // copy of the matching rows.
    Table rowpath(table.schema());
    for (RowId r : expected) rowpath.AddRow(table.row(r));
    const TableView bound(table, expected);
    CSM_RETURN_IF_ERROR(Replay(
        options, i, CompareTables(rowpath, bound.ToTable(), "view gather")));
    for (size_t vr = 0; vr < bound.num_rows(); ++vr) {
      for (size_t c = 0; c < cols; ++c) {
        if (!(bound.ValueAt(vr, c) == rowpath.ValueAt(vr, c))) {
          return Replay(options, i,
                        Status::Internal(
                            "TableView::ValueAt != row copy at view row " +
                            std::to_string(vr) + " col " + std::to_string(c)));
        }
      }
    }

    // (5) ValueBag / ValueCounts through the view against boxed
    // recomputation from the copied rows.
    for (size_t c = 0; c < cols; ++c) {
      const std::string& attr = table.schema().attribute(c).name;
      const std::vector<Value> bag = bound.ValueBag(attr);
      std::map<Value, size_t> counts;
      if (bag.size() != rowpath.num_rows()) {
        return Replay(options, i,
                      Status::Internal("ValueBag size mismatch on " + attr));
      }
      for (size_t vr = 0; vr < bag.size(); ++vr) {
        if (!(bag[vr] == rowpath.ValueAt(vr, c))) {
          return Replay(options, i,
                        Status::Internal("ValueBag mismatch on " + attr +
                                         " at view row " +
                                         std::to_string(vr)));
        }
        if (!bag[vr].is_null()) ++counts[bag[vr]];
      }
      if (bound.ValueCounts(attr) != counts) {
        return Replay(options, i,
                      Status::Internal("ValueCounts mismatch on " + attr));
      }
    }
  }
  return Status::Ok();
}

namespace {

bool BitEqual(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

/// The pre-kernel map-of-strings multinomial NB, kept verbatim as the
/// differential reference: per-label gram-string counts, per-call log sums.
class ReferenceNaiveBayes {
 public:
  explicit ReferenceNaiveBayes(size_t q, double smoothing = 1.0)
      : q_(q), smoothing_(smoothing) {}

  void Train(const std::string& text, const std::string& label) {
    LabelStats& stats = labels_[label];
    ++stats.example_count;
    ++total_examples_;
    for (const std::string& gram : QGrams(text, q_)) {
      stats.token_counts[gram] += 1.0;
      stats.token_total += 1.0;
      vocabulary_.insert(gram);
    }
  }

  double LogScore(const std::string& text, const std::string& label) const {
    auto it = labels_.find(label);
    if (it == labels_.end() || total_examples_ == 0) {
      return -std::numeric_limits<double>::infinity();
    }
    return Score(it->second, text);
  }

  std::string Classify(const std::string& text) const {
    if (labels_.empty()) return "";
    const std::string* best = nullptr;
    double best_score = -std::numeric_limits<double>::infinity();
    size_t best_frequency = 0;
    for (const auto& [label, stats] : labels_) {
      const double score = Score(stats, text);
      if (score > best_score ||
          (score == best_score && stats.example_count > best_frequency)) {
        best = &label;
        best_score = score;
        best_frequency = stats.example_count;
      }
    }
    return best == nullptr ? "" : *best;
  }

 private:
  struct LabelStats {
    size_t example_count = 0;
    double token_total = 0.0;
    std::map<std::string, double> token_counts;
  };

  double Score(const LabelStats& stats, const std::string& text) const {
    const double num_labels = static_cast<double>(labels_.size());
    const double vocab = static_cast<double>(vocabulary_.size());
    double score = std::log(
        (static_cast<double>(stats.example_count) + smoothing_) /
        (static_cast<double>(total_examples_) + smoothing_ * num_labels));
    const double denom = stats.token_total + smoothing_ * (vocab + 1.0);
    for (const std::string& gram : QGrams(text, q_)) {
      auto it = stats.token_counts.find(gram);
      const double count = it == stats.token_counts.end() ? 0.0 : it->second;
      score += std::log((count + smoothing_) / denom);
    }
    return score;
  }

  size_t q_;
  double smoothing_;
  size_t total_examples_ = 0;
  std::map<std::string, LabelStats> labels_;
  std::set<std::string> vocabulary_;
};

/// The kernel's label ids: each label's rank among `labels` in string
/// order, the reference's label order, so the lower id of an exact tie is
/// the label the reference's map visits first.
std::map<std::string, LabelId> LabelRanks(std::vector<std::string> labels) {
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  std::map<std::string, LabelId> ids;
  for (const std::string& label : labels) {
    ids.emplace(label, static_cast<LabelId>(ids.size()));
  }
  return ids;
}

/// Classifies every cell of the string column `cells` with the gram-major
/// classifier (check/reference_classifier.h) and the map-of-strings
/// reference and requires the same label (twice from the classifier: the
/// second call replays its memo) and bit-equal LogScores for every label in
/// `ids`.
Status CompareNaiveBayes(const NaiveBayesClassifier& nb,
                         const ReferenceNaiveBayes& reference,
                         const Column& cells,
                         const std::map<std::string, LabelId>& ids,
                         const std::string& stage) {
  for (size_t r = 0; r < cells.size(); ++r) {
    if (cells.IsNull(r)) continue;
    const std::string& text = cells.dictionary().value(cells.codes()[r]);
    const std::string expected = reference.Classify(text);
    const LabelId expected_id = expected.empty() ? kNoLabel : ids.at(expected);
    const LabelId got = nb.Classify(cells, r);
    if (nb.Classify(cells, r) != got) {
      return Status::Internal(stage + ": classify memo diverged on \"" +
                              text + "\"");
    }
    if (got != expected_id) {
      return Status::Internal(stage + ": NB classification diverged on \"" +
                              text + "\": reference=" + expected +
                              " kernel=" + std::to_string(got));
    }
    for (const auto& [label, id] : ids) {
      if (!BitEqual(nb.LogScore(cells, r, id),
                    reference.LogScore(text, label))) {
        return Status::Internal(stage + ": NB log score diverged on \"" +
                                text + "\" label " + label);
      }
    }
  }
  return Status::Ok();
}

/// The production Naive Bayes kernel fitted as TgtClassInfer's tagger
/// (NaiveBayesCellModel: label id g trains on every cell of
/// `label_cells[g]`) against the reference on every cell of the string
/// columns `evidence`, all of one length: the same label and bit-equal log
/// scores for every label in `ids`.
Status CompareNaiveBayesKernel(const std::vector<Column>& label_cells,
                               const ReferenceNaiveBayes& reference,
                               const std::vector<const Column*>& evidence,
                               const std::map<std::string, LabelId>& ids,
                               const std::string& stage) {
  if (evidence.empty()) return Status::Ok();
  std::vector<const Column*> labels;
  for (const Column& column : label_cells) labels.push_back(&column);
  PosList positions(evidence[0]->size());
  std::iota(positions.begin(), positions.end(), RowId{0});
  std::vector<std::vector<uint32_t>> items;
  const NaiveBayesCellModel kernel(labels, evidence, positions, &items);
  std::vector<size_t> label_order(labels.size());
  std::iota(label_order.begin(), label_order.end(), size_t{0});
  std::vector<LabelId> predicted;
  kernel.PredictAll(label_order, &predicted);
  for (size_t e = 0; e < evidence.size(); ++e) {
    const Column& cells = *evidence[e];
    for (RowId r : positions) {
      if (cells.IsNull(r) != (items[e][r] == kNoItem)) {
        return Status::Internal(stage + ": kernel item of row " +
                                std::to_string(r) + " diverged");
      }
      if (cells.IsNull(r)) continue;
      const std::string& text = cells.dictionary().value(cells.codes()[r]);
      const std::string expected = reference.Classify(text);
      const LabelId expected_id =
          expected.empty() ? kNoLabel : ids.at(expected);
      if (predicted[items[e][r]] != expected_id) {
        return Status::Internal(
            stage + ": NB kernel label diverged on \"" + text +
            "\": reference=" + expected +
            " kernel=" + std::to_string(predicted[items[e][r]]));
      }
      for (const auto& [label, id] : ids) {
        if (!BitEqual(kernel.Score(items[e][r], id),
                      reference.LogScore(text, label))) {
          return Status::Internal(stage + ": NB kernel log score diverged on \"" +
                                  text + "\" label " + label);
        }
      }
    }
  }
  return Status::Ok();
}

/// The string columns of `table`.
std::vector<const Column*> StringColumns(const Table& table) {
  std::vector<const Column*> out;
  for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
    if (table.column(c).type() == ValueType::kString) {
      out.push_back(&table.column(c));
    }
  }
  return out;
}

/// Naive Bayes over the string columns of `table` against the reference.
/// Labels are column names, some with a twin label trained on the same
/// cells (equal scores and frequencies, so label order breaks the tie);
/// the names of other columns are scored as labels never trained.
/// Each cell is trained in a first batch, in a second batch after the first
/// check (so the vocabulary grows after the model was finalized), or never
/// (so its unseen grams score the unseen row).  Both checks classify every
/// string cell of `table` and of `other`, whose columns hold their own
/// dictionaries, with the reference classifier and with the production
/// kernel fitted to every cell trained so far.
Status CheckNaiveBayesAgainstReference(const Table& table, const Table& other,
                                       Rng& rng) {
  std::vector<std::string> labels;
  struct Example {
    size_t col, row;
    std::vector<std::string> labels;
  };
  std::vector<Example> first_batch, second_batch;
  for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
    const Column& column = table.column(c);
    std::vector<std::string> column_labels = {
        table.schema().attribute(c).name};
    if (column.type() != ValueType::kString) {
      labels.push_back(column_labels[0]);  // never trained: -inf scores
      continue;
    }
    if (rng.NextBernoulli(0.5)) {
      column_labels.push_back(column_labels[0] + "#twin");
    }
    labels.insert(labels.end(), column_labels.begin(), column_labels.end());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (column.IsNull(r)) continue;
      const Example example{c, r, column_labels};
      switch (rng.NextBounded(3)) {
        case 0: first_batch.push_back(example); break;
        case 1: second_batch.push_back(example); break;
        default: break;  // held out
      }
    }
  }
  const std::map<std::string, LabelId> ids = LabelRanks(labels);
  ReferenceNaiveBayes reference(NaiveBayesClassifier::kGramQ);
  NaiveBayesClassifier nb;
  std::vector<Column> label_cells(ids.size(), Column(ValueType::kString));
  auto train = [&](const Example& example) {
    const Column& column = table.column(example.col);
    const std::string& text =
        column.dictionary().value(column.codes()[example.row]);
    for (const std::string& label : example.labels) {
      nb.Train(column, example.row, ids.at(label));
      reference.Train(text, label);
      label_cells[ids.at(label)].AppendString(text);
    }
  };
  auto compare = [&](const std::string& stage) -> Status {
    for (const Table* cells : {&table, &other}) {
      const std::string where =
          stage + (cells == &other ? ", other dictionary" : "");
      for (const Column* column : StringColumns(*cells)) {
        CSM_RETURN_IF_ERROR(
            CompareNaiveBayes(nb, reference, *column, ids, where));
      }
      CSM_RETURN_IF_ERROR(CompareNaiveBayesKernel(
          label_cells, reference, StringColumns(*cells), ids, where));
    }
    return Status::Ok();
  };
  for (const Example& example : first_batch) train(example);
  CSM_RETURN_IF_ERROR(compare("first batch"));
  for (const Example& example : second_batch) train(example);
  return compare("second batch");
}

/// Two labels of different frequency whose scores are equal in exact
/// arithmetic, so the tie rule (the more frequent label wins) is exercised
/// whenever the doubles tie too, which 44 of the 72 possible draws do.
/// Label "a" trains m_a cells "b" (3 grams each) and label "z" m_z cells
/// "cde" (5 grams); both pad their example counts n_a, n_z with gram-free
/// "!" cells.  The vocabulary holds V = 8 grams, so the denominators are
/// 3 m_a + 9 and 5 m_z + 9 = c (3 m_a + 9).  A probe of k = length + 2
/// grams outside the vocabulary scores log((n + 1) / (N + 2)) minus k
/// times log(denominator), so the labels tie when n_z + 1 = c^k (n_a + 1).
Status CheckNaiveBayesTies(Rng& rng) {
  const size_t c = 2 + rng.NextBounded(2);
  const size_t m_a = (c == 2 ? 1 : 3) + 5 * rng.NextBounded(3);
  const size_t m_z = (c * (3 * m_a + 9) - 9) / 5;
  const size_t n_a = m_a + rng.NextBounded(4);
  const size_t probe_len = 1 + rng.NextBounded(3);
  size_t ratio = 1;
  for (size_t k = 0; k < probe_len + 2; ++k) ratio *= c;
  const size_t n_z = ratio * (n_a + 1) - 1;

  Column cells(ValueType::kString);
  std::vector<std::string> cell_labels;
  std::vector<Column> label_cells(2, Column(ValueType::kString));
  auto add = [&](const char* text, const char* label, size_t count) {
    for (size_t k = 0; k < count; ++k) {
      cells.AppendString(text);
      cell_labels.push_back(label);
      label_cells[label[0] == 'a' ? 0 : 1].AppendString(text);
    }
  };
  add("b", "a", m_a);
  add("!", "a", n_a - m_a);
  add("cde", "z", m_z);
  add("!", "z", n_z - m_z);
  const std::map<std::string, LabelId> ids = LabelRanks({"a", "z"});
  ReferenceNaiveBayes reference(NaiveBayesClassifier::kGramQ);
  NaiveBayesClassifier nb;
  for (size_t r = 0; r < cells.size(); ++r) {
    nb.Train(cells, r, ids.at(cell_labels[r]));
    reference.Train(cells.dictionary().value(cells.codes()[r]),
                    cell_labels[r]);
  }
  Column probes(ValueType::kString);
  for (size_t k = 0; k < 4; ++k) {
    std::string probe;
    for (size_t j = 0; j < probe_len; ++j) {
      probe += static_cast<char>('f' + rng.NextBounded(20));
    }
    probes.AppendString(probe);
  }
  CSM_RETURN_IF_ERROR(CompareNaiveBayes(nb, reference, probes, ids, "tie"));
  return CompareNaiveBayesKernel(label_cells, reference, {&probes}, ids,
                                 "tie");
}

/// Reference semantics of an AttributeSample over `positions` of `column`,
/// computed from boxed cells: per-row 3-gram and word tokenization of each
/// rendering into map profiles, renderings counted by text, and the numeric
/// cells folded in position order.
struct BoxedBagReference {
  size_t non_null = 0;
  std::map<std::string, double> renders;
  TokenProfile grams;
  TokenProfile words;
  DescriptiveStats numeric;

  BoxedBagReference(const Column& column, const PosList& positions) {
    std::vector<Value> cells;
    column.BoxGatheredTo(positions, &cells);
    for (const Value& v : cells) {
      if (v.is_null()) continue;
      ++non_null;
      const std::string text = v.ToString();
      renders[text] += 1.0;
      grams.AddAll(QGrams(text, 3));
      words.AddAll(WordTokens(text));
      if (v.IsNumeric()) numeric.Add(v.AsNumeric());
    }
  }
};

/// Empty when `sample` equals `bag` — exact counts, the DistinctRenders
/// multiset, every profile entry in reference order, bit-equal totals and
/// gram norm, and bit-equal numeric moments — else what diverged.
std::string DiffSampleAgainstBag(const AttributeSample& sample,
                                 const BoxedBagReference& bag) {
  if (sample.NonNullCount() != bag.non_null) return "non-null count";
  std::map<std::string, double> renders;
  for (const auto& [text, count] : sample.DistinctRenders()) {
    renders[text] += count;
  }
  if (renders != bag.renders) return "DistinctRenders";

  const GramProfile& grams = sample.QGramProfile();
  if (grams.num_distinct() != bag.grams.num_distinct()) return "gram count";
  auto ref_gram = bag.grams.counts().begin();
  for (const GramProfile::Entry& e : grams.entries()) {
    if (e.id != PackGram(ref_gram->first) ||
        !BitEqual(e.count, ref_gram->second)) {
      return "gram entry '" + ref_gram->first + "'";
    }
    ++ref_gram;
  }
  if (!BitEqual(grams.total(), bag.grams.total()) ||
      !BitEqual(grams.Norm(), bag.grams.Norm())) {
    return "gram total/norm";
  }

  const WordProfile& words = sample.WordProfile();
  if (words.num_distinct() != bag.words.num_distinct()) return "word count";
  auto ref_word = bag.words.counts().begin();
  for (const WordProfile::Entry& e : words.entries()) {
    if (e.token != ref_word->first || !BitEqual(e.count, ref_word->second)) {
      return "word entry '" + ref_word->first + "'";
    }
    ++ref_word;
  }
  if (!BitEqual(words.total(), bag.words.total())) return "word total";

  const DescriptiveStats& numeric = sample.NumericStats();
  const bool mostly_numeric =
      bag.non_null > 0 && static_cast<double>(bag.numeric.count()) >=
                              0.5 * static_cast<double>(bag.non_null);
  if (numeric.count() != bag.numeric.count() ||
      !BitEqual(numeric.Mean(), bag.numeric.Mean()) ||
      !BitEqual(numeric.PopulationStdDev(), bag.numeric.PopulationStdDev()) ||
      sample.MostlyNumeric() != mostly_numeric) {
    return "numeric moments";
  }
  return "";
}

/// Empty when every similarity of the production samples `a`, `b` equals
/// the reference's on their bags `ra`, `rb` bit for bit, else its name.
std::string DiffSimilarities(const AttributeSample& a,
                             const AttributeSample& b,
                             const BoxedBagReference& ra,
                             const BoxedBagReference& rb,
                             const TfIdfCorpus& corpus,
                             const ReferenceTfIdfCorpus& ref_corpus) {
  const GramProfile& ga = a.QGramProfile();
  const GramProfile& gb = b.QGramProfile();
  const WordProfile& wa = a.WordProfile();
  const WordProfile& wb = b.WordProfile();
  if (!BitEqual(CosineSimilarity(ga, gb),
                CosineSimilarity(ra.grams, rb.grams))) {
    return "gram cosine";
  }
  if (!BitEqual(DiceSimilarity(wa, wb), DiceSimilarity(ra.words, rb.words))) {
    return "word Dice";
  }
  if (!BitEqual(corpus.WeightedCosine(wa, wb),
                ref_corpus.WeightedCosine(ra.words, rb.words))) {
    return "TF-IDF weighted cosine";
  }
  return "";
}

/// Samples every column of `table` twice — the whole table (an Indexed
/// sample) and its Restrict to a random row draw of 0..n rows — and checks
/// each against its BoxedBagReference, plus bit-equal similarities between
/// every pair of samples.
Status CheckSamplesAgainstBoxedBags(const Table& table, Rng& rng) {
  PosList all(table.num_rows());
  std::iota(all.begin(), all.end(), RowId{0});
  std::vector<AttributeSample> samples;
  std::vector<BoxedBagReference> bags;
  for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
    const std::string& name = table.schema().attribute(c).name;
    const PosList draw = SampleRowPositions(
        table.num_rows(), rng.NextBounded(table.num_rows() + 1), rng);
    const AttributeSample whole = AttributeSample::Indexed(table, name);
    samples.push_back(whole);
    bags.emplace_back(table.column(c), all);
    samples.push_back(whole.Restrict(draw));
    bags.emplace_back(table.column(c), draw);
  }

  for (size_t i = 0; i < samples.size(); ++i) {
    const std::string diff = DiffSampleAgainstBag(samples[i], bags[i]);
    if (!diff.empty()) {
      return Status::Internal(
          "sample of " + samples[i].ref().ToString() +
          (i % 2 == 0 ? " (whole table)" : " (row draw)") +
          " diverged from its boxed bag: " + diff);
    }
  }

  std::vector<const WordProfile*> documents;
  ReferenceTfIdfCorpus bag_corpus;
  for (size_t i = 0; i < samples.size(); ++i) {
    documents.push_back(&samples[i].WordProfile());
    bag_corpus.AddDocument(bags[i].words);
  }
  const TfIdfCorpus sample_corpus(documents);
  for (size_t a = 0; a < samples.size(); ++a) {
    for (size_t b = a; b < samples.size(); ++b) {
      const std::string diff = DiffSimilarities(
          samples[a], samples[b], bags[a], bags[b], sample_corpus, bag_corpus);
      if (!diff.empty()) {
        return Status::Internal("sample " + diff +
                                " diverged from boxed bags on samples " +
                                std::to_string(a) + "/" + std::to_string(b));
      }
    }
  }
  return Status::Ok();
}

/// Interns every word token of `texts`, every text whole (arbitrary
/// bytes, NUL and "" included) and random re-adds through TokenInterner
/// and the node-based reference: the same id for every add, and after the
/// last add the same size and the same bytes for every id.
Status CheckInterner(const std::vector<std::vector<std::string>>& texts,
                     Rng& rng) {
  std::vector<std::string> stream;
  for (const auto& col_texts : texts) {
    for (const std::string& text : col_texts) {
      for (const std::string& word : WordTokens(text)) stream.push_back(word);
      stream.push_back(text);
    }
  }
  for (size_t k = stream.size(); k > 0 && rng.NextBounded(2) == 0; --k) {
    stream.push_back(stream[rng.NextBounded(stream.size())]);
  }
  TokenInterner interner;
  ReferenceTokenInterner reference;
  for (const std::string& token : stream) {
    const GramId got = interner.GetOrAdd(token);
    const uint32_t want = reference.GetOrAdd(token);
    if (got != want) {
      return Status::Internal("interned id of \"" + token + "\" is " +
                              std::to_string(got) + ", reference " +
                              std::to_string(want));
    }
  }
  if (interner.size() != reference.size()) {
    return Status::Internal("interner size diverged");
  }
  for (GramId id = 0; id < interner.size(); ++id) {
    if (interner.value(id) != reference.value(id)) {
      return Status::Internal("interned bytes of id " + std::to_string(id) +
                              " diverged");
    }
  }
  return Status::Ok();
}

/// Random CSR rows of vocabulary indices (empty rows, repeats, one-index
/// vocabularies) through BuildCodePartials and the sorting reference: per
/// code the same (index, count) terms, compared in index order.
Status CheckCodePartials(Rng& rng) {
  const size_t vocab_size = 1 + rng.NextBounded(40);
  std::vector<uint32_t> raw_offsets{0};
  std::vector<uint32_t> raw;
  for (size_t c = rng.NextBounded(12); c > 0; --c) {
    for (size_t k = rng.NextBounded(20); k > 0; --k) {
      raw.push_back(static_cast<uint32_t>(rng.NextBounded(vocab_size)));
    }
    raw_offsets.push_back(static_cast<uint32_t>(raw.size()));
  }
  std::vector<uint32_t> offsets, want_offsets;
  std::vector<CodePartial> partials;
  std::vector<std::pair<uint32_t, uint32_t>> want;
  BuildCodePartials(raw_offsets, raw, vocab_size, &offsets, &partials);
  ReferenceCodePartials(raw_offsets, raw, &want_offsets, &want);
  if (offsets != want_offsets) {
    return Status::Internal("code partial offsets diverged");
  }
  for (size_t c = 0; c + 1 < offsets.size(); ++c) {
    std::vector<std::pair<uint32_t, uint32_t>> got;
    for (uint32_t k = offsets[c]; k < offsets[c + 1]; ++k) {
      got.emplace_back(partials[k].index, partials[k].count);
    }
    std::sort(got.begin(), got.end());
    if (!std::equal(got.begin(), got.end(), want.begin() + offsets[c])) {
      return Status::Internal("code partials of code " + std::to_string(c) +
                              " diverged");
    }
  }
  return Status::Ok();
}

/// A table for FuzzViewProfileEquivalence: every column kind the per-code
/// index groups differently, with values drawn from small pools so
/// renderings repeat — strings holding ',', '"', bytes 0x1b-0x1f or no
/// token at all, ints, reals including NaN, -NaN, +-inf, -0.0 and
/// subnormals, all-NULL string columns and kNull columns — over 0-24 rows.
Table RandomViewProfileTable(const std::string& name, Rng& rng) {
  static const std::vector<std::string> kControlCells = {
      "a\x1b" "b", "x\x1c", "\x1d\x1e\x1f", "p\x1fq\x1er",
      "p,q", "\"r\"\"s\"", "", "!!!",
      "Alpha beta", "ALPHA,beta", "beta alpha"};
  static const double kReals[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -0.0, 0.0, 0.1 + 0.2, 1e15, 5e-324, 2.5, -7.125};
  const size_t num_rows = rng.NextBounded(5) == 0 ? 0 : rng.NextBounded(25);
  const size_t num_attributes = 1 + rng.NextBounded(6);

  TableSchema schema(name);
  std::vector<std::vector<Value>> pools(num_attributes);
  std::vector<double> null_probability(num_attributes);
  for (size_t c = 0; c < num_attributes; ++c) {
    const double probabilities[] = {0.0, 0.1, 0.5};
    null_probability[c] = probabilities[rng.NextBounded(3)];
    ValueType type = ValueType::kString;
    const size_t pool_size = 1 + rng.NextBounded(6);
    switch (rng.NextBounded(6)) {
      case 0:
        type = ValueType::kInt;
        for (size_t k = 0; k < pool_size; ++k) {
          pools[c].push_back(Value::Int(rng.NextInt(-20, 20)));
        }
        break;
      case 1:
        type = ValueType::kReal;
        for (size_t k = 0; k < pool_size; ++k) {
          pools[c].push_back(
              Value::Real(kReals[rng.NextBounded(std::size(kReals))]));
        }
        break;
      case 2:  // every cell NULL, declared string
        null_probability[c] = 1.0;
        break;
      case 3:  // every cell NULL, declared kNull
        type = ValueType::kNull;
        null_probability[c] = 1.0;
        break;
      case 4:
        for (size_t k = 0; k < pool_size; ++k) {
          pools[c].push_back(Value::String(RandomHostileCell(rng)));
        }
        break;
      default:
        for (size_t k = 0; k < pool_size; ++k) {
          pools[c].push_back(Value::String(
              kControlCells[rng.NextBounded(kControlCells.size())]));
        }
        break;
    }
    schema.AddAttribute("a" + std::to_string(c), type);
  }

  Table out(schema);
  for (size_t r = 0; r < num_rows; ++r) {
    Row row;
    for (size_t c = 0; c < num_attributes; ++c) {
      if (pools[c].empty() || rng.NextDouble() < null_probability[c]) {
        row.push_back(Value::Null());
      } else {
        row.push_back(pools[c][rng.NextBounded(pools[c].size())]);
      }
    }
    out.AddRow(std::move(row));
  }
  return out;
}

}  // namespace

Status FuzzTokenKernelEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    const Table table = RandomHostileTable("fuzz", rng, table_options);
    // Packed gram length for the pack/unpack checks; profiles use q = 3.
    const size_t q = 1 + rng.NextBounded(kMaxPackedGramQ);

    // One text list per table column, plus one of arbitrary bytes: a text
    // holding every byte 0x00-0xff once in random order and random-byte
    // texts, so the dense 3-gram ranks see every byte the normalizer must
    // drop, fold or keep.
    std::vector<std::vector<std::string>> texts(
        table.schema().num_attributes());
    for (size_t c = 0; c < texts.size(); ++c) {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        const Value v = table.ValueAt(r, c);
        if (!v.is_null()) texts[c].push_back(v.ToString());
      }
    }
    std::vector<std::string>& byte_texts = texts.emplace_back();
    std::string every_byte(256, '\0');
    for (size_t b = 0; b < 256; ++b) every_byte[b] = static_cast<char>(b);
    for (size_t b = 255; b > 0; --b) {
      std::swap(every_byte[b], every_byte[rng.NextBounded(b + 1)]);
    }
    byte_texts.push_back(every_byte);
    for (size_t k = rng.NextBounded(4); k > 0; --k) {
      std::string text(rng.NextBounded(24), '\0');
      for (char& ch : text) ch = static_cast<char>(rng.NextBounded(256));
      byte_texts.push_back(std::move(text));
    }
    const size_t cols = texts.size();

    // (1) Packed ids match the string grams one-to-one and round-trip, and
    // each 3-gram's dense rank is its packed id's, in the same order.
    std::string scratch;
    std::vector<GramId> ids;
    std::vector<uint32_t> ranks;
    for (const auto& col_texts : texts) {
      for (const std::string& text : col_texts) {
        const std::vector<std::string> grams = QGrams(text, q);
        ids.clear();
        AppendPackedQGrams(text, q, &scratch, &ids);
        if (ids.size() != grams.size()) {
          return Replay(options, i,
                        Status::Internal("packed gram count diverged on \"" +
                                         text + "\" q=" + std::to_string(q)));
        }
        for (size_t g = 0; g < grams.size(); ++g) {
          if (ids[g] != PackGram(grams[g]) ||
              UnpackGram(ids[g], q) != grams[g]) {
            return Replay(options, i,
                          Status::Internal("gram pack/unpack diverged on \"" +
                                           grams[g] + "\""));
          }
        }
        const std::vector<std::string> trigrams = QGrams(text, kProfileGramQ);
        ranks.clear();
        AppendQGramRanks(text, &scratch, &ranks);
        if (ranks.size() != trigrams.size()) {
          return Replay(options, i,
                        Status::Internal("3-gram rank count diverged on \"" +
                                         text + "\""));
        }
        for (size_t g = 0; g < trigrams.size(); ++g) {
          const GramId id = PackGram(trigrams[g]);
          if (ranks[g] >= kNumGramRanks || GramOfRank(ranks[g]) != id) {
            return Replay(options, i,
                          Status::Internal("3-gram rank diverged on \"" +
                                           trigrams[g] + "\""));
          }
        }
      }
    }

    // (2) Flat profiles against map profiles: aggregates, every entry and
    // both pairwise similarity measures, bit for bit.
    std::vector<TokenProfile> ref_grams(cols), ref_words(cols);
    std::vector<GramProfile> kernel_grams(cols);
    std::vector<WordProfile> kernel_words(cols);
    GramProfileBuilder gram_builder;
    WordProfileBuilder word_builder;
    for (size_t c = 0; c < cols; ++c) {
      for (const std::string& text : texts[c]) {
        ref_grams[c].AddAll(QGrams(text, kProfileGramQ));
        ref_words[c].AddAll(WordTokens(text));
        gram_builder.AddText(text);
        word_builder.AddText(text);
      }
      kernel_grams[c] = gram_builder.Build();
      kernel_words[c] = word_builder.Build();
      if (kernel_grams[c].num_distinct() != ref_grams[c].num_distinct() ||
          !BitEqual(kernel_grams[c].total(), ref_grams[c].total()) ||
          !BitEqual(kernel_grams[c].Norm(), ref_grams[c].Norm()) ||
          kernel_words[c].num_distinct() != ref_words[c].num_distinct() ||
          !BitEqual(kernel_words[c].total(), ref_words[c].total())) {
        return Replay(options, i,
                      Status::Internal("profile aggregate diverged on col " +
                                       std::to_string(c)));
      }
      auto ref_gram = ref_grams[c].counts().begin();
      for (const GramProfile::Entry& e : kernel_grams[c].entries()) {
        if (e.id != PackGram(ref_gram->first) ||
            !BitEqual(e.count, ref_gram->second)) {
          return Replay(options, i,
                        Status::Internal("3-gram profile entry '" +
                                         ref_gram->first +
                                         "' diverged on col " +
                                         std::to_string(c)));
        }
        ++ref_gram;
      }
      auto ref_word = ref_words[c].counts().begin();
      for (const WordProfile::Entry& e : kernel_words[c].entries()) {
        if (e.token != ref_word->first ||
            !BitEqual(e.count, ref_word->second)) {
          return Replay(options, i,
                        Status::Internal("word profile entry '" +
                                         ref_word->first +
                                         "' diverged on col " +
                                         std::to_string(c)));
        }
        ++ref_word;
      }
    }
    ReferenceTfIdfCorpus ref_corpus;
    std::vector<const WordProfile*> documents;
    for (size_t c = 0; c < cols; ++c) {
      ref_corpus.AddDocument(ref_words[c]);
      documents.push_back(&kernel_words[c]);
    }
    const TfIdfCorpus kernel_corpus(documents);
    for (size_t a = 0; a < cols; ++a) {
      for (size_t b = a; b < cols; ++b) {
        const bool ok =
            BitEqual(CosineSimilarity(kernel_grams[a], kernel_grams[b]),
                     CosineSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(DiceSimilarity(kernel_words[a], kernel_words[b]),
                     DiceSimilarity(ref_words[a], ref_words[b])) &&
            BitEqual(kernel_corpus.WeightedCosine(kernel_words[a],
                                                  kernel_words[b]),
                     ref_corpus.WeightedCosine(ref_words[a], ref_words[b]));
        // The same cosine with `a` copied out of the corpus: its side is
        // computed from IDF lookups, `b`'s read from the stored document.
        const WordProfile outside = kernel_words[a];
        const bool outside_ok =
            BitEqual(kernel_corpus.WeightedCosine(outside, kernel_words[b]),
                     ref_corpus.WeightedCosine(ref_words[a], ref_words[b])) &&
            BitEqual(kernel_corpus.WeightedNorm(outside),
                     kernel_corpus.WeightedNorm(kernel_words[a]));
        if (!ok || !outside_ok) {
          const std::string what = ok ? "non-document TF-IDF" : "similarity";
          return Replay(options, i,
                        Status::Internal(what + " diverged on cols " +
                                         std::to_string(a) + "/" +
                                         std::to_string(b)));
        }
      }
    }

    // (3) Naive Bayes against the reference: labels and log scores must be
    // bit-identical on trained, held-out and foreign-dictionary cells,
    // before and after the vocabulary grows, and on exact score ties.
    const Table other = RandomHostileTable("other", rng, table_options);
    CSM_RETURN_IF_ERROR(Replay(
        options, i, CheckNaiveBayesAgainstReference(table, other, rng)));
    CSM_RETURN_IF_ERROR(Replay(options, i, CheckNaiveBayesTies(rng)));

    // (4) Column-only attribute samples against the boxed bags they
    // replaced; restrictions merge the stamped index's partials.
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CheckSamplesAgainstBoxedBags(table, rng)));

    // (5) The flat interner against the node-based one, and the stamped
    // partial builder against the sorting one.
    CSM_RETURN_IF_ERROR(Replay(options, i, CheckInterner(texts, rng)));
    CSM_RETURN_IF_ERROR(Replay(options, i, CheckCodePartials(rng)));
  }
  return Status::Ok();
}

Status FuzzViewProfileEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const Table table = RandomViewProfileTable("src", rng);
    const size_t n = table.num_rows();

    // Position lists: random conditions' matching rows, Floyd placebo
    // draws of random sizes, and the empty and full lists.
    std::vector<PosList> lists;
    for (size_t k = 0; k < 3; ++k) {
      lists.push_back(RandomCondition(table, rng).MatchingPositions(table));
      lists.push_back(
          SampleRowPositions(n, rng.NextBounded(n + 1), rng));
    }
    lists.emplace_back();
    lists.emplace_back(n);
    std::iota(lists.back().begin(), lists.back().end(), RowId{0});

    // Whole-table samples and references of every column, the targets of
    // the similarity checks.
    PosList all(n);
    std::iota(all.begin(), all.end(), RowId{0});
    std::vector<AttributeSample> wholes;
    std::vector<BoxedBagReference> whole_bags;
    std::vector<const WordProfile*> documents;
    ReferenceTfIdfCorpus ref_corpus;
    for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
      wholes.push_back(
          AttributeSample::Indexed(table, table.schema().attribute(c).name));
      whole_bags.emplace_back(table.column(c), all);
      documents.push_back(&wholes.back().WordProfile());
      ref_corpus.AddDocument(whole_bags.back().words);
    }
    const TfIdfCorpus corpus(documents);

    // Session-level equivalence runs against two random target databases,
    // so each index is aligned to the targets of two sessions (two IDF
    // corpora).  The second also holds a table of tokens no source table
    // draws, which every index vocabulary lacks.
    Database target_a("tgt_a");
    target_a.AddTable(RandomViewProfileTable("t0", rng));
    target_a.AddTable(RandomViewProfileTable("t1", rng));
    Database target_b("tgt_b");
    target_b.AddTable(RandomViewProfileTable("t2", rng));
    {
      TableSchema schema("t3");
      schema.AddAttribute("w", ValueType::kString);
      Table unseen(schema);
      for (const char* cell : {"alpha xqz7", "zulu9 beta", "ee ff ee", "!!!"}) {
        unseen.AddRow({Value::String(cell)});
      }
      unseen.AddRow({Value::Null()});
      target_b.AddTable(std::move(unseen));
    }
    const TableMatchSession session_a(table, target_a, DefaultMatcherSuite());
    const TableMatchSession session_b(table, target_b, DefaultMatcherSuite());
    const TableMatchSession* const sessions[] = {&session_a, &session_b};

    for (size_t c = 0; c < wholes.size(); ++c) {
      const std::string& attr = table.schema().attribute(c).name;
      // Every target of both sessions laid over this column's index, once.
      std::vector<std::vector<IndexAlignment>> alignments;
      for (const TableMatchSession* session : sessions) {
        std::vector<IndexAlignment>& per_target = alignments.emplace_back();
        for (const AttributeRef& ref : session->target_refs()) {
          per_target.push_back(session->AlignRestricted(wholes[c], ref));
        }
      }
      // This column's lists: the shared ones, its NULL rows only, and one
      // random row.
      std::vector<PosList> column_lists = lists;
      PosList& null_rows = column_lists.emplace_back();
      for (size_t r = 0; r < n; ++r) {
        if (table.column(c).IsNull(r)) {
          null_rows.push_back(static_cast<RowId>(r));
        }
      }
      if (n > 0) {
        column_lists.push_back({static_cast<RowId>(rng.NextBounded(n))});
      }
      for (size_t l = 0; l < column_lists.size(); ++l) {
        const PosList& rows = column_lists[l];
        const std::string where = attr + " at position list " +
                                  std::to_string(l) + " (" +
                                  std::to_string(rows.size()) + " rows)";
        const AttributeSample restricted = wholes[c].Restrict(rows);
        const BoxedBagReference bag(table.column(c), rows);

        // (1) The restriction against its boxed bag.
        if (restricted.size() != rows.size() ||
            restricted.declared_type() != table.column(c).type()) {
          return Replay(options, i,
                        Status::Internal("Restrict shape diverged on " + where));
        }
        std::string diff = DiffSampleAgainstBag(restricted, bag);
        if (!diff.empty()) {
          return Replay(options, i,
                        Status::Internal("Restrict diverged from its boxed bag "
                                         "on " + where + ": " + diff));
        }

        // (2) Similarities against every column's whole-table sample.
        for (size_t o = 0; o < wholes.size(); ++o) {
          diff = DiffSimilarities(restricted, wholes[o], bag, whole_bags[o],
                                  corpus, ref_corpus);
          if (!diff.empty()) {
            return Replay(options, i,
                          Status::Internal(diff + " diverged on " + where +
                                           " vs whole column " +
                                           std::to_string(o)));
          }
        }

        // (3) ScoreRestrictedSample on the restriction, scored in the
        // index's vocabulary against each target's alignment, equals the
        // same call on the view materialized as a table, in both sessions.
        const AttributeSample materialized =
            AttributeSample::FromTable(TableView(table, rows).ToTable(), attr);
        for (size_t k = 0; k < std::size(sessions); ++k) {
          const TableMatchSession& session = *sessions[k];
          for (size_t t = 0; t < session.target_refs().size(); ++t) {
            const AttributeRef& ref = session.target_refs()[t];
            const MatchScore want =
                session.ScoreRestrictedSample(materialized, ref);
            const MatchScore got = session.ScoreRestrictedSample(
                restricted, ref, &alignments[k][t]);
            if (got.matchers_used != want.matchers_used ||
                !BitEqual(got.score, want.score) ||
                !BitEqual(got.confidence, want.confidence)) {
              return Replay(options, i,
                            Status::Internal(
                                "ScoreRestrictedSample diverged on " + where +
                                " -> " + ref.ToString() + " in session " +
                                std::to_string(k)));
            }
          }
        }
      }
    }
  }
  return Status::Ok();
}

namespace {

/// RandomViewProfileTable's cells under attribute names drawn without
/// repetition from a pool of camelCase, underscored, dashed, digit-bearing
/// and case-variant names, so name scores separate Jaro-Winkler from the
/// token Dice.
Table RandomNamedTable(const std::string& name, Rng& rng) {
  static const std::vector<std::string> kNames = {
      "ItemType", "item_type", "type",      "Title",          "BookTitle",
      "book_title2", "title2", "price",     "PriceUSD",       "usd_price",
      "name",     "Name",      "x",         "ab_cd",          "cdAb",
      "AB-cd 3",  "year_published", "PublishedYear", "yr", "Code"};
  const Table cells = RandomViewProfileTable(name, rng);
  std::vector<std::string> names = kNames;
  for (size_t k = names.size(); k > 1; --k) {
    std::swap(names[k - 1], names[rng.NextBounded(k)]);
  }
  TableSchema schema(name);
  for (size_t c = 0; c < cells.schema().num_attributes(); ++c) {
    schema.AddAttribute(names[c], cells.schema().attribute(c).type);
  }
  Table out(schema);
  for (size_t r = 0; r < cells.num_rows(); ++r) {
    Row row;
    for (size_t c = 0; c < cells.schema().num_attributes(); ++c) {
      row.push_back(cells.ValueAt(r, c));
    }
    out.AddRow(std::move(row));
  }
  return out;
}

/// `table` as the session trains on it: all of it, or under a training cap
/// the rows the hash-set sampler draws for it.
Table ReferenceCapped(const Table& table, const MatchOptions& options) {
  if (options.max_training_rows == 0 ||
      table.num_rows() <= options.max_training_rows) {
    return table;
  }
  Rng rng(DeriveTableSampleSeed(options.training_sample_seed, table.name()));
  return table.SelectRows(ReferenceSampleRowPositions(
      table.num_rows(), options.max_training_rows, rng));
}

/// The score grid shape of a session over the default matcher suite.
TableMatchSession::ScoreGridShape GridShape(const TableMatchSession& session) {
  return {DefaultMatcherSuite().size(), session.source_attributes().size(),
          session.target_refs().size()};
}

/// A session's raw score matrix, read back through its serialized form.
std::vector<std::vector<std::vector<double>>> RawScores(
    const TableMatchSession& session) {
  std::string blob;
  session.AppendSerializedScores(&blob);
  size_t pos = 0;
  StatusOr<TableMatchSession::RestoredScores> parsed =
      TableMatchSession::ParseSerializedScores(blob, &pos,
                                               GridShape(session));
  CSM_CHECK(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed.value().raw);
}

/// The default suite's raw scores of every (source attribute, target
/// attribute) pair, each computed on its own from boxed bags and map
/// profiles: both names tokenized per pair, the q-gram cosine of map
/// profiles, the TF-IDF cosine of the map reference corpus over the target
/// bags (both norms summed per pair), and the numeric matcher on fresh
/// samples; NaN where the session's applicability rules skip the pair.
std::vector<std::vector<std::vector<double>>> ReferenceRawScores(
    const Table& source, const Database& target, const MatchOptions& options) {
  struct Side {
    std::string attribute;
    AttributeSample sample;
    BoxedBagReference bag;
  };
  auto sides_of = [&](const Table& table, std::vector<Side>* out) {
    const Table capped = ReferenceCapped(table, options);
    PosList all(capped.num_rows());
    std::iota(all.begin(), all.end(), RowId{0});
    for (size_t c = 0; c < capped.schema().num_attributes(); ++c) {
      const std::string& name = capped.schema().attribute(c).name;
      out->push_back({name, AttributeSample::FromTable(capped, name),
                      BoxedBagReference(capped.column(c), all)});
    }
  };
  std::vector<Side> sources, targets;
  sides_of(source, &sources);
  for (const Table& table : target.tables()) sides_of(table, &targets);
  ReferenceTfIdfCorpus corpus;
  for (const Side& t : targets) corpus.AddDocument(t.bag.words);

  auto mostly_numeric = [](const BoxedBagReference& bag) {
    return bag.non_null > 0 && static_cast<double>(bag.numeric.count()) >=
                                   0.5 * static_cast<double>(bag.non_null);
  };
  const NumericMatcher numeric;
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<std::vector<double>>> raw(
      4, std::vector<std::vector<double>>(
             sources.size(), std::vector<double>(targets.size(), kNaN)));
  for (size_t s = 0; s < sources.size(); ++s) {
    const BoxedBagReference& a = sources[s].bag;
    if (a.non_null < options.min_non_null_values) continue;
    for (size_t t = 0; t < targets.size(); ++t) {
      const BoxedBagReference& b = targets[t].bag;
      if (b.non_null < options.min_non_null_values) continue;
      raw[0][s][t] =
          ReferenceNameScore(sources[s].attribute, targets[t].attribute);
      if (a.non_null > 0 && b.non_null > 0) {
        raw[1][s][t] = CosineSimilarity(a.grams, b.grams);
      }
      if (!a.words.empty() && !b.words.empty()) {
        raw[2][s][t] = corpus.WeightedCosine(a.words, b.words);
      }
      if (mostly_numeric(a) && mostly_numeric(b)) {
        raw[3][s][t] = numeric.Score(sources[s].sample, targets[t].sample);
      }
    }
  }
  return raw;
}

/// Bit equality that also equates any two NaNs (a serialized NaN reads
/// back as the positive quiet NaN).
bool SameScore(double a, double b) {
  return BitEqual(a, b) || (std::isnan(a) && std::isnan(b));
}

bool SameMatchScore(const MatchScore& a, const MatchScore& b) {
  return a.matchers_used == b.matchers_used && BitEqual(a.score, b.score) &&
         BitEqual(a.confidence, b.confidence);
}

/// The first raw score where `raw` differs from `want`, rendered with both
/// hexfloats; empty when every score is the same.
std::string DiffRawScores(
    const TableMatchSession& session,
    const std::vector<std::vector<std::vector<double>>>& raw,
    const std::vector<std::vector<std::vector<double>>>& want) {
  static const char* const kMatchers[] = {"name", "qgram", "tfidf",
                                          "numeric"};
  if (raw.size() != want.size()) return "matcher count diverged";
  for (size_t m = 0; m < raw.size(); ++m) {
    for (size_t s = 0; s < raw[m].size(); ++s) {
      for (size_t t = 0; t < raw[m][s].size(); ++t) {
        if (SameScore(raw[m][s][t], want[m][s][t])) continue;
        char buf[96];
        std::snprintf(buf, sizeof(buf), ": %a, per-pair reference %a",
                      raw[m][s][t], want[m][s][t]);
        return std::string("raw ") + kMatchers[m] + " score of " +
               session.source_attributes()[s] + " -> " +
               session.target_refs()[t].ToString() + buf;
      }
    }
  }
  return "";
}

/// Sessions over one SampleStore, built concurrently on `pool`: `source`
/// and a second table against `target`, and both against a database
/// holding a content-equal copy of `source` beside `target`'s first table,
/// so one entry serves a table as source and as target at once.  Each
/// session, fresh and restored from its own scores, must equal the
/// per-pair reference bit for bit, and the store must have built each
/// distinct table once.  Empty when all hold.
std::string CheckSharedStoreSessions(const Table& source,
                                     const Database& target,
                                     const MatchOptions& options, Rng& rng,
                                     exec::ThreadPool* pool) {
  const Table other = RandomNamedTable("src2", rng);
  Database mirrored("mirror");
  mirrored.AddTable(source);
  mirrored.AddTable(target.tables()[0]);
  struct Case {
    const Table* source;
    const Database* target;
  };
  const std::vector<Case> cases = {{&source, &target},
                                   {&other, &target},
                                   {&source, &mirrored},
                                   {&other, &mirrored}};

  // Resolved on this thread, as the engine does; the held entries keep
  // every repeat a hit.
  SampleStore store;
  auto resolve = [&](const Table& table) {
    return store.Resolve(FingerprintTableContent(table), table,
                         options.max_training_rows,
                         options.training_sample_seed);
  };
  std::vector<SessionSamples> samples;
  for (const Case& c : cases) {
    SessionSamples s{resolve(*c.source), {}};
    for (const Table& table : c.target->tables()) {
      s.targets.push_back(resolve(table));
    }
    samples.push_back(std::move(s));
  }
  if (store.misses() != 2 + target.tables().size()) {
    return "store built " + std::to_string(store.misses()) +
           " entries for " + std::to_string(2 + target.tables().size()) +
           " distinct tables";
  }
  if (samples[2].targets[0] != samples[0].source) {
    return "the source's copy in the target did not share its entry";
  }

  std::vector<std::unique_ptr<TableMatchSession>> fresh(cases.size());
  exec::ParallelFor(pool, cases.size(), [&](size_t k) {
    fresh[k] = std::make_unique<TableMatchSession>(
        samples[k], DefaultMatcherSuite(), options);
  });
  std::vector<std::string> blobs(cases.size());
  for (size_t k = 0; k < cases.size(); ++k) {
    fresh[k]->AppendSerializedScores(&blobs[k]);
  }
  std::vector<std::unique_ptr<TableMatchSession>> restored(cases.size());
  std::vector<std::string> errors(cases.size());
  exec::ParallelFor(pool, cases.size(), [&](size_t k) {
    size_t pos = 0;
    StatusOr<TableMatchSession::RestoredScores> parsed =
        TableMatchSession::ParseSerializedScores(blobs[k], &pos,
                                                 GridShape(*fresh[k]));
    if (!parsed.ok()) {
      errors[k] = parsed.status().ToString();
      return;
    }
    restored[k] = std::make_unique<TableMatchSession>(
        samples[k], DefaultMatcherSuite(), options, std::move(parsed.value()));
  });
  for (size_t k = 0; k < cases.size(); ++k) {
    const std::string where = " (shared store, case " + std::to_string(k) +
                              ": " + cases[k].source->name() + " -> " +
                              cases[k].target->name() + ")";
    if (!errors[k].empty()) return errors[k] + where;
    const std::string diff = DiffRawScores(
        *fresh[k], RawScores(*fresh[k]),
        ReferenceRawScores(*cases[k].source, *cases[k].target, options));
    if (!diff.empty()) return diff + where;
    std::string restored_blob;
    restored[k]->AppendSerializedScores(&restored_blob);
    if (restored_blob != blobs[k]) return "restored raw scores diverged" + where;
    for (const std::string& attribute : fresh[k]->source_attributes()) {
      for (const AttributeRef& ref : fresh[k]->target_refs()) {
        if (!SameMatchScore(restored[k]->PairScore(attribute, ref),
                            fresh[k]->PairScore(attribute, ref))) {
          return "restored pair score of " + attribute + " -> " +
                 ref.ToString() + " diverged" + where;
        }
      }
    }
  }
  return "";
}

}  // namespace

Status FuzzSessionScoreEquivalence(const FuzzOptions& options) {
  const size_t threads =
      options.thread_counts.empty()
          ? 1
          : *std::max_element(options.thread_counts.begin(),
                              options.thread_counts.end());
  std::unique_ptr<exec::ThreadPool> pool =
      threads > 1 ? std::make_unique<exec::ThreadPool>(threads) : nullptr;
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    auto fail = [&](const std::string& what) {
      return Replay(options, i, Status::Internal(what));
    };
    const Table source = RandomNamedTable("src", rng);
    Database target("tgt");
    for (size_t k = 1 + rng.NextBounded(2); k > 0; --k) {
      target.AddTable(RandomNamedTable("t" + std::to_string(k), rng));
    }
    MatchOptions match_options;
    match_options.min_non_null_values = 1 + rng.NextBounded(3);
    match_options.blend_raw_score = rng.NextBounded(2) == 0;
    match_options.max_training_rows =
        rng.NextBounded(3) == 0 ? 1 + rng.NextBounded(12) : 0;

    // (1) The scoring constructor's raw matrix against the per-pair
    // reference, every matcher, bit for bit.
    const TableMatchSession fresh(source, target, DefaultMatcherSuite(),
                                  match_options);
    const std::string diff =
        DiffRawScores(fresh, RawScores(fresh),
                      ReferenceRawScores(source, target, match_options));
    if (!diff.empty()) return fail(diff);

    // (2) The restore constructor over those scores: the same matrix,
    // pair scores, accepted matches, and restricted-sample scores, with
    // either session's alignment or none.
    std::string blob;
    fresh.AppendSerializedScores(&blob);
    size_t pos = 0;
    StatusOr<TableMatchSession::RestoredScores> parsed =
        TableMatchSession::ParseSerializedScores(blob, &pos, GridShape(fresh));
    if (!parsed.ok()) return fail(parsed.status().ToString());
    const TableMatchSession restored(source, target, DefaultMatcherSuite(),
                                     match_options, std::move(parsed.value()));
    std::string restored_blob;
    restored.AppendSerializedScores(&restored_blob);
    if (restored_blob != blob) return fail("restored raw scores diverged");
    const double tau = rng.NextDouble();
    const MatchList fresh_matches = fresh.AcceptedMatches(tau);
    const MatchList restored_matches = restored.AcceptedMatches(tau);
    if (fresh_matches.size() != restored_matches.size()) {
      return fail("restored accepted matches diverged");
    }
    for (size_t k = 0; k < fresh_matches.size(); ++k) {
      if (fresh_matches[k].source != restored_matches[k].source ||
          fresh_matches[k].target != restored_matches[k].target ||
          !BitEqual(fresh_matches[k].confidence,
                    restored_matches[k].confidence)) {
        return fail("restored accepted match " + std::to_string(k) +
                    " diverged");
      }
    }
    for (const std::string& attribute : fresh.source_attributes()) {
      const AttributeSample indexed =
          AttributeSample::Indexed(source, attribute);
      const AttributeSample restricted = indexed.Restrict(SampleRowPositions(
          source.num_rows(), rng.NextBounded(source.num_rows() + 1), rng));
      for (const AttributeRef& ref : fresh.target_refs()) {
        if (!SameMatchScore(restored.PairScore(attribute, ref),
                            fresh.PairScore(attribute, ref))) {
          return fail("restored pair score of " + attribute + " -> " +
                      ref.ToString() + " diverged");
        }
        const IndexAlignment fresh_alignment =
            fresh.AlignRestricted(indexed, ref);
        const IndexAlignment restored_alignment =
            restored.AlignRestricted(indexed, ref);
        const MatchScore want_score =
            fresh.ScoreRestrictedSample(restricted, ref, &fresh_alignment);
        if (!SameMatchScore(restored.ScoreRestrictedSample(
                                restricted, ref, &restored_alignment),
                            want_score) ||
            !SameMatchScore(restored.ScoreRestrictedSample(restricted, ref),
                            want_score)) {
          return fail("restored restricted score of " + attribute + " -> " +
                      ref.ToString() + " diverged");
        }
      }
    }

    // (3) The same sessions and more over one shared SampleStore.
    const std::string shared = CheckSharedStoreSessions(
        source, target, match_options, rng, pool.get());
    if (!shared.empty()) return fail(shared);
  }
  return Status::Ok();
}

Status FuzzDifferential(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const DatabasePair pair = RandomDatabasePair(rng);

    ContextMatchOptions o;
    const ViewInferenceKind kinds[] = {ViewInferenceKind::kNaive,
                                       ViewInferenceKind::kSrcClass,
                                       ViewInferenceKind::kTgtClass};
    o.inference = kinds[rng.NextBounded(3)];
    o.selection = rng.NextBounded(2) == 0 ? SelectionPolicy::kQualTable
                                          : SelectionPolicy::kMultiTable;
    o.early_disjuncts = rng.NextBounded(2) == 0;
    o.omega = 0.02 + rng.NextDouble() * 0.2;
    o.seed = rng.Next();
    o.threads = 1;

    CSM_RETURN_IF_ERROR(Replay(
        options, i,
        CheckAllOracles(pair.source, pair.target, o, options.thread_counts)));
  }
  return Status::Ok();
}

}  // namespace csm::check
