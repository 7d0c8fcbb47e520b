// Microbenchmarks of the columnar relational core against the historical
// row-store access paths, on the Fig 15 cardinality workload (Retail,
// ItemType cardinality gamma swept over {2, 4, 6, 8, 10}).
//
// Four operations are measured, each in two implementations:
//
//   condition_scan     per-row Condition::Evaluate over boxed rows vs the
//                      dictionary-code Condition::MatchingPositions scan
//   value_bag          row-major boxed bag assembly vs Table::ValueBag's
//                      column read
//   view_materialize   row-at-a-time AddRow copy of the matching rows vs
//                      TableView::ToTable column gather
//   feature_extract    the ClusteredViewGen (label, evidence) pair walk
//                      over boxed rows vs the dictionary-code reads of
//                      RunCycle's coded fast path
//
// The headline metric is scan_score (condition scan + per-attribute bag
// reads — the candidate-view evaluation inner loop of MatchEngine
// scoring); `speedup` in the JSON is columnar vs row-store for that
// compound op.  Writes BENCH_columnar_scan.json (or argv[1]).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "relational/condition.h"
#include "relational/table_view.h"

namespace {

using namespace csm;
using namespace csm::bench;

/// Best-of-`reps` wall-clock seconds for `op`; `op` returns a size_t that
/// is accumulated into a sink so the work cannot be optimized away.
template <typename Op>
double TimeBest(size_t reps, volatile size_t* sink, Op&& op) {
  double best = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    *sink = *sink + op();
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

/// The historical row-store scan: per-row Condition::Evaluate over boxed
/// rows (exactly what View::MatchingRows did before the columnar core).
std::vector<size_t> RowStoreScan(const TableSchema& schema,
                                 const std::vector<Row>& rows,
                                 const Condition& condition) {
  std::vector<size_t> matching;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (condition.Evaluate(schema, rows[r])) matching.push_back(r);
  }
  return matching;
}

struct GammaRow {
  size_t gamma = 0;
  size_t rows = 0;
  size_t conditions = 0;
  double scan_row = 0, scan_col = 0;
  double bag_row = 0, bag_col = 0;
  double mat_row = 0, mat_col = 0;
  double feat_row = 0, feat_col = 0;
  double scan_score_row = 0, scan_score_col = 0;
  double speedup = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path =
      argc > 1 ? argv[1] : "BENCH_columnar_scan.json";
  const size_t reps = GlobalBenchConfig().Repetitions(10);
  volatile size_t sink = 0;

  ResultTable out_table(
      "Micro: columnar core vs row-store access paths (Retail)",
      {"gamma", "rows", "conds", "scan_row", "scan_col", "scan+score_row",
       "scan+score_col", "speedup"});

  std::vector<GammaRow> rows;
  for (size_t gamma : {2u, 4u, 6u, 8u, 10u}) {
    RetailOptions data_options = DefaultRetail();
    data_options.num_items = 2000;
    data_options.gamma = gamma;
    data_options.seed = 7;
    const RetailDataset data = MakeRetailDataset(data_options);
    const Table& table = data.source.tables().front();

    // One Equals condition per ItemType label — the candidate views
    // NaiveInfer proposes on this workload.
    std::vector<Condition> conditions;
    for (const auto& [value, count] : table.ValueCounts("ItemType")) {
      conditions.push_back(Condition::Equals("ItemType", value));
    }
    const std::vector<std::string> attributes = [&] {
      std::vector<std::string> names;
      for (const auto& attr : table.schema().attributes()) {
        names.push_back(attr.name);
      }
      return names;
    }();
    const size_t label_col = table.schema().AttributeIndex("ItemType");
    const size_t evidence_col =
        table.schema().AttributeIndex(attributes.back());
    // The row-store baseline owned its boxed rows, so they are built once
    // here, outside every timed loop.
    std::vector<Row> row_store;
    row_store.reserve(table.num_rows());
    for (size_t r = 0; r < table.num_rows(); ++r) {
      row_store.push_back(table.row(r));
    }

    GammaRow g;
    g.gamma = gamma;
    g.rows = table.num_rows();
    g.conditions = conditions.size();

    // --- condition_scan ---------------------------------------------------
    g.scan_row = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const Condition& c : conditions) {
        n += RowStoreScan(table.schema(), row_store, c).size();
      }
      return n;
    });
    g.scan_col = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const Condition& c : conditions) n += c.MatchingPositions(table).size();
      return n;
    });

    // --- value_bag --------------------------------------------------------
    g.bag_row = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const std::string& attr : attributes) {
        const size_t c = table.schema().AttributeIndex(attr);
        std::vector<Value> bag;
        bag.reserve(table.num_rows());
        for (const Row& row : row_store) bag.push_back(row[c]);
        n += bag.size();
      }
      return n;
    });
    g.bag_col = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const std::string& attr : attributes) {
        n += table.ValueBag(attr).size();
      }
      return n;
    });

    // --- view_materialize -------------------------------------------------
    g.mat_row = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const Condition& c : conditions) {
        Table copy(table.schema());
        for (size_t r : RowStoreScan(table.schema(), row_store, c)) {
          copy.AddRow(row_store[r]);
        }
        n += copy.num_rows();
      }
      return n;
    });
    g.mat_col = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const Condition& c : conditions) {
        n += TableView(table, c.MatchingPositions(table)).ToTable().num_rows();
      }
      return n;
    });

    // --- feature_extract --------------------------------------------------
    g.feat_row = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const Row& row : row_store) {
        if (row[label_col].is_null() || row[evidence_col].is_null()) continue;
        n += row[label_col].ToString().size();
      }
      return n;
    });
    // Mirrors ClusteredViewGen::RunCycle's coded fast path: string columns
    // read dictionary codes (kNullCode == NULL) and resolve the label text
    // through the dictionary; non-string columns fall back to boxed reads.
    g.feat_col = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      const Column& label_column = table.column(label_col);
      const Column& evidence_column = table.column(evidence_col);
      const bool l_coded = label_column.type() == ValueType::kString;
      const bool h_coded = evidence_column.type() == ValueType::kString;
      for (size_t r = 0; r < table.num_rows(); ++r) {
        if (l_coded) {
          const uint32_t code = label_column.codes()[r];
          if (code == kNullCode) continue;
          const bool h_null = h_coded
                                  ? evidence_column.codes()[r] == kNullCode
                                  : evidence_column.IsNull(r);
          if (h_null) continue;
          n += label_column.dictionary().value(code).size();
        } else {
          const Value label = table.ValueAt(r, label_col);
          if (label.is_null() || table.ValueAt(r, evidence_col).is_null()) {
            continue;
          }
          n += label.ToString().size();
        }
      }
      return n;
    });

    // --- scan_score: the candidate-view evaluation inner loop.  The
    // row-store engine materialized every candidate view before reading its
    // bags (ScoreCandidate called View::Materialize, then ValueBag on the
    // copy), so the baseline does exactly that. ------------------------------
    g.scan_score_row = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const Condition& c : conditions) {
        Table copy(table.schema());
        for (size_t r : RowStoreScan(table.schema(), row_store, c)) {
          copy.AddRow(row_store[r]);
        }
        for (const std::string& attr : attributes) {
          n += copy.ValueBag(attr).size();
        }
      }
      return n;
    });
    g.scan_score_col = TimeBest(reps, &sink, [&] {
      size_t n = 0;
      for (const Condition& c : conditions) {
        const TableView view(table, c.MatchingPositions(table));
        for (const std::string& attr : attributes) {
          n += view.ValueBag(attr).size();
        }
      }
      return n;
    });
    g.speedup =
        g.scan_score_col > 0 ? g.scan_score_row / g.scan_score_col : 0.0;

    out_table.AddRow({std::to_string(g.gamma), std::to_string(g.rows),
                      std::to_string(g.conditions),
                      ResultTable::Num(g.scan_row * 1e3, 3),
                      ResultTable::Num(g.scan_col * 1e3, 3),
                      ResultTable::Num(g.scan_score_row * 1e3, 3),
                      ResultTable::Num(g.scan_score_col * 1e3, 3),
                      ResultTable::Num(g.speedup, 2)});
    rows.push_back(g);
  }
  out_table.Print();
  std::printf("(times in the table are milliseconds, best of %zu reps)\n",
              reps);

  double min_speedup = 1e300;
  for (const GammaRow& g : rows) min_speedup = std::min(min_speedup, g.speedup);

  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_relational\",\n"
               "  \"figure_family\": \"Fig 15 cardinality workload\",\n"
               "  \"workload\": {\"dataset\": \"retail\", \"num_items\": "
               "2000, \"repetitions\": %zu, \"timing\": \"best_of_reps\"},\n"
               "  \"headline\": \"scan_score = candidate-view evaluation "
               "(condition scan + per-attribute bag reads)\",\n"
               "  \"min_scan_score_speedup\": %.2f,\n"
               "  \"rows\": [\n",
               reps, min_speedup);
  for (size_t i = 0; i < rows.size(); ++i) {
    const GammaRow& g = rows[i];
    std::fprintf(
        out,
        "    {\"gamma\": %zu, \"rows\": %zu, \"conditions\": %zu,\n"
        "     \"condition_scan\": {\"row_seconds\": %.6f, \"columnar_seconds\""
        ": %.6f},\n"
        "     \"value_bag\": {\"row_seconds\": %.6f, \"columnar_seconds\": "
        "%.6f},\n"
        "     \"view_materialize\": {\"row_seconds\": %.6f, "
        "\"columnar_seconds\": %.6f},\n"
        "     \"feature_extract\": {\"row_seconds\": %.6f, "
        "\"columnar_seconds\": %.6f},\n"
        "     \"scan_score\": {\"row_seconds\": %.6f, \"columnar_seconds\": "
        "%.6f, \"speedup\": %.2f}}%s\n",
        g.gamma, g.rows, g.conditions, g.scan_row, g.scan_col, g.bag_row,
        g.bag_col, g.mat_row, g.mat_col, g.feat_row, g.feat_col,
        g.scan_score_row, g.scan_score_col, g.speedup,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (min scan_score speedup %.2fx)\n", json_path.c_str(),
              min_speedup);
  return 0;
}
