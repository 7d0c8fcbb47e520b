#include "check/fuzz.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/differential.h"
#include "check/fingerprint.h"
#include "check/generators.h"
#include "core/match_engine.h"
#include "ml/naive_bayes.h"
#include "relational/csv.h"
#include "relational/table_view.h"
#include "relational/view.h"
#include "text/gram.h"
#include "text/profile.h"
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

/// Writer-compatible quoting, duplicated here so the fuzzer can re-render
/// a table with randomized record terminators (the library writer always
/// emits "\n").
std::string QuoteLikeWriter(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

/// Renders `table` as CSV with a random record terminator ("\n", "\r\n" or
/// a bare "\r") per record; the final record keeps its terminator with
/// probability 1/2 (both are legal).
std::string RenderCsvMixedLineEndings(const Table& table, Rng& rng) {
  const char* kTerminators[] = {"\n", "\r\n", "\r"};
  std::string out;
  auto append_record = [&](const std::vector<std::string>& fields,
                           bool last) {
    std::string record;
    for (size_t c = 0; c < fields.size(); ++c) {
      if (c > 0) record += ',';
      record += QuoteLikeWriter(fields[c]);
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

}  // namespace

Status FuzzCsvRoundTrip(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const Table table = RandomHostileTable("fuzz", rng);

    // Library writer -> library parser.
    StatusOr<Table> parsed = TableFromCsv(table.schema(), TableToCsv(table));
    if (!parsed.ok()) {
      return Replay(options, i,
                    Status::Internal("ParseCsv failed on WriteCsv output: " +
                                     parsed.status().message()));
    }
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CompareTables(table, *parsed, "WriteCsv")));

    // Re-rendered with randomized \n / \r\n / \r record terminators.
    const std::string mixed = RenderCsvMixedLineEndings(table, rng);
    parsed = TableFromCsv(table.schema(), mixed);
    if (!parsed.ok()) {
      return Replay(options, i,
                    Status::Internal("ParseCsv failed on mixed-line-ending "
                                     "rendering: " +
                                     parsed.status().message()));
    }
    CSM_RETURN_IF_ERROR(
        Replay(options, i, CompareTables(table, *parsed, "mixed-line-ending")));
  }
  return Status::Ok();
}

Status FuzzCsvChunkedParse(const FuzzOptions& options) {
  // Chunk sizes chosen to force record splits everywhere: 1 byte puts every
  // record (and every quoted terminator) at a chunk boundary; the larger
  // sizes exercise mid-table splits and the single-chunk degenerate case.
  const size_t kChunkSizes[] = {1, 7, 64, 4096};
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const Table table = RandomHostileTable("fuzz", rng);
    const std::string renderings[] = {TableToCsv(table),
                                      RenderCsvMixedLineEndings(table, rng)};
    for (const std::string& csv : renderings) {
      const StatusOr<Table> serial = TableFromCsv(table.schema(), csv);
      if (!serial.ok()) {
        return Replay(options, i,
                      Status::Internal("serial parser rejected rendering: " +
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

      for (size_t chunk_bytes : kChunkSizes) {
        CsvIngestOptions ingest;
        ingest.chunk_bytes = chunk_bytes;
        ingest.threads = options.thread_counts.empty()
                             ? 1
                             : options.thread_counts[rng.NextBounded(
                                   options.thread_counts.size())];
        const StatusOr<Table> chunked =
            TableFromCsvParallel(table.schema(), csv, ingest);
        auto where = [&](const std::string& message) {
          return Status::Internal(message + " (chunk_bytes=" +
                                  std::to_string(chunk_bytes) + ", threads=" +
                                  std::to_string(ingest.threads) + ")");
        };
        if (!chunked.ok()) {
          return Replay(options, i,
                        where("chunked parser rejected text the serial "
                              "parser accepted: " +
                              chunked.status().message()));
        }
        CSM_RETURN_IF_ERROR(Replay(
            options, i, CompareTables(*serial, *chunked, "chunked parse")));
        // Value equality is not enough: the merged dictionary must assign
        // the exact codes a serial parse would (downstream fingerprints and
        // dictionary-code scans depend on it).
        for (size_t c = 0; c < table.schema().num_attributes(); ++c) {
          const Column& expected = serial->column(c);
          const Column& actual = chunked->column(c);
          if (expected.type() != ValueType::kString) continue;
          if (actual.codes() != expected.codes()) {
            return Replay(options, i,
                          where("dictionary codes diverged from serial parse "
                                "in column " +
                                table.schema().attribute(c).name));
          }
          if (actual.dictionary().size() != expected.dictionary().size()) {
            return Replay(options, i,
                          where("merged dictionary size diverged in column " +
                                table.schema().attribute(c).name));
          }
          for (uint32_t code = 0; code < expected.dictionary().size();
               ++code) {
            if (actual.dictionary().value(code) !=
                expected.dictionary().value(code)) {
              return Replay(
                  options, i,
                  where("dictionary entry " + std::to_string(code) +
                        " diverged in column " +
                        table.schema().attribute(c).name));
            }
          }
        }
      }
    }
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
    std::vector<size_t> expected_rows;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (condition.Evaluate(table.schema(), table.row(r))) {
        expected_rows.push_back(r);
      }
    }

    if (view.MatchingRows(table) != expected_rows) {
      return Replay(options, i,
                    Status::Internal("MatchingRows != per-row Evaluate for " +
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
    std::vector<std::string> candidate_keys;
    for (const View& v : result.pool.candidate_views) {
      candidate_keys.push_back(v.base_table() + "\x1d" +
                               v.condition().ToString());
    }
    for (const View& v : result.selected_views) {
      const std::string key =
          v.base_table() + "\x1d" + v.condition().ToString();
      if (std::find(candidate_keys.begin(), candidate_keys.end(), key) ==
          candidate_keys.end()) {
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
      auto it = result.pool.view_row_counts.find(
          v.base_table() + "\x1d" + v.condition().ToString());
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

}  // namespace

Status FuzzTokenKernelEquivalence(const FuzzOptions& options) {
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    HostileTableOptions table_options;
    table_options.min_rows = 1;
    const Table table = RandomHostileTable("fuzz", rng, table_options);
    const size_t cols = table.schema().num_attributes();
    // Packed gram length for the profile checks; the classifier check
    // sometimes uses q = 5 to exercise the interner fallback.
    const size_t q = 1 + rng.NextBounded(kMaxPackedGramQ);
    const size_t nb_q = rng.NextBounded(4) == 0 ? kMaxPackedGramQ + 1 : q;

    std::vector<std::vector<std::string>> texts(cols);
    for (size_t c = 0; c < cols; ++c) {
      for (size_t r = 0; r < table.num_rows(); ++r) {
        const Value v = table.ValueAt(r, c);
        if (!v.is_null()) texts[c].push_back(v.ToString());
      }
    }

    // (1) Packed ids match the string grams one-to-one and round-trip.
    std::string scratch;
    std::vector<GramId> ids;
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
      }
    }

    // (2) Flat profiles against map profiles: aggregates and every pairwise
    // similarity measure, bit for bit.
    std::vector<TokenProfile> ref_grams(cols), ref_words(cols);
    std::vector<GramProfile> kernel_grams(cols);
    std::vector<WordProfile> kernel_words(cols);
    GramProfileBuilder gram_builder;
    WordProfileBuilder word_builder;
    for (size_t c = 0; c < cols; ++c) {
      for (const std::string& text : texts[c]) {
        ref_grams[c].AddAll(QGrams(text, q));
        ref_words[c].AddAll(WordTokens(text));
        gram_builder.AddText(text, q);
        word_builder.AddText(text);
      }
      kernel_grams[c] = gram_builder.Build();
      kernel_words[c] = word_builder.Build();
      if (kernel_grams[c].num_distinct() != ref_grams[c].num_distinct() ||
          !BitEqual(kernel_grams[c].total(), ref_grams[c].total()) ||
          !BitEqual(kernel_grams[c].Norm(), ref_grams[c].Norm()) ||
          kernel_words[c].num_distinct() != ref_words[c].num_distinct() ||
          !BitEqual(kernel_words[c].total(), ref_words[c].total()) ||
          !BitEqual(kernel_words[c].Norm(), ref_words[c].Norm())) {
        return Replay(options, i,
                      Status::Internal("profile aggregate diverged on col " +
                                       std::to_string(c)));
      }
    }
    TfIdfCorpus ref_corpus, kernel_corpus;
    for (size_t c = 0; c < cols; ++c) {
      ref_corpus.AddDocument(ref_words[c]);
      kernel_corpus.AddDocument(kernel_words[c]);
    }
    for (size_t a = 0; a < cols; ++a) {
      for (size_t b = a; b < cols; ++b) {
        const bool ok =
            BitEqual(CosineSimilarity(kernel_grams[a], kernel_grams[b]),
                     CosineSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(JaccardSimilarity(kernel_grams[a], kernel_grams[b]),
                     JaccardSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(DiceSimilarity(kernel_grams[a], kernel_grams[b]),
                     DiceSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(OverlapSimilarity(kernel_grams[a], kernel_grams[b]),
                     OverlapSimilarity(ref_grams[a], ref_grams[b])) &&
            BitEqual(CosineSimilarity(kernel_words[a], kernel_words[b]),
                     CosineSimilarity(ref_words[a], ref_words[b])) &&
            BitEqual(DiceSimilarity(kernel_words[a], kernel_words[b]),
                     DiceSimilarity(ref_words[a], ref_words[b])) &&
            BitEqual(kernel_corpus.WeightedCosine(kernel_words[a],
                                                  kernel_words[b]),
                     ref_corpus.WeightedCosine(ref_words[a], ref_words[b]));
        if (!ok) {
          return Replay(options, i,
                        Status::Internal("similarity diverged on cols " +
                                         std::to_string(a) + "/" +
                                         std::to_string(b)));
        }
      }
    }

    // (3) Naive Bayes: boxed and coded kernel paths against the reference,
    // labels = column names.  The coded classifier trains through the
    // (dictionary, code) memo; classification must still be bit-identical.
    ReferenceNaiveBayes reference(nb_q);
    NaiveBayesClassifier boxed(nb_q);
    NaiveBayesClassifier coded(nb_q);
    for (size_t c = 0; c < cols; ++c) {
      const std::string& label = table.schema().attribute(c).name;
      const Column& column = table.column(c);
      if (column.type() == ValueType::kString) {
        const StringDictionary& dict = column.dictionary();
        for (uint32_t code : column.codes()) {
          if (code == kNullCode) continue;
          coded.TrainCoded(dict, code, label);
        }
      } else {
        for (size_t r = 0; r < table.num_rows(); ++r) {
          const Value v = table.ValueAt(r, c);
          if (!v.is_null()) coded.Train(v, label);
        }
      }
      for (const std::string& text : texts[c]) {
        reference.Train(text, label);
        boxed.Train(Value::String(text), label);
      }
    }
    for (size_t c = 0; c < cols; ++c) {
      const Column& column = table.column(c);
      for (size_t r = 0; r < table.num_rows(); ++r) {
        const Value v = table.ValueAt(r, c);
        if (v.is_null()) continue;
        const std::string text = v.ToString();
        const std::string expected = reference.Classify(text);
        const std::string from_boxed = boxed.Classify(Value::String(text));
        // ClassifyCoded runs twice so the second call exercises the memo.
        std::string from_coded;
        if (column.type() == ValueType::kString) {
          const StringDictionary& dict = column.dictionary();
          const uint32_t code = column.codes()[r];
          from_coded = coded.ClassifyCoded(dict, code);
          if (coded.ClassifyCoded(dict, code) != from_coded) {
            return Replay(options, i,
                          Status::Internal("classify memo diverged on \"" +
                                           text + "\""));
          }
        } else {
          from_coded = coded.Classify(v);
        }
        if (from_boxed != expected || from_coded != expected) {
          return Replay(
              options, i,
              Status::Internal("NB classification diverged on \"" + text +
                               "\": reference=" + expected +
                               " boxed=" + from_boxed +
                               " coded=" + from_coded));
        }
        for (size_t lc = 0; lc < cols; ++lc) {
          const std::string& label = table.schema().attribute(lc).name;
          if (!BitEqual(boxed.LogScore(Value::String(text), label),
                        reference.LogScore(text, label))) {
            return Replay(options, i,
                          Status::Internal("NB log score diverged on \"" +
                                           text + "\" label " + label));
          }
        }
      }
    }
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
