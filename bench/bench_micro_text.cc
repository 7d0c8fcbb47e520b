// Microbenchmarks of the interned token kernel (text/gram.h) and the Naive
// Bayes kernel (ml/naive_bayes.h) against the map-of-strings baselines
// they replaced, on the Fig 19 grades workload (200 students x 5 exams;
// the evidence attribute "name" repeats each of the 200 distinct names
// five times — the distinct-value reuse that predicting each distinct
// value once exploits).
//
// Five operations are measured, each in two implementations:
//
//   tokenize         QGrams heap-string tokenization vs AppendPackedQGrams
//                    (packed uint32 gram ids, zero per-gram allocations)
//   profile_build    TokenProfile (std::map) accumulation vs
//                    GramProfileBuilder -> flat sorted (id, count) entries
//   nb_train         map-of-strings Naive Bayes training vs fitting the
//                    Naive Bayes kernel to one column of names per label
//                    (each distinct code tokenized once), as TgtClassInfer
//                    fits its string tagger to the target's columns
//   nb_classify      per-call map NB scoring of every row vs predicting
//                    the name column's distinct values with a fitted
//                    kernel whose items are already tokenized, then
//                    reading each row's label
//   nb_classify_cold the same baseline vs a fresh tagger: fitting the
//                    kernel, tokenizing each distinct name once and
//                    predicting it, then reading each row's label
//
// All kernel paths produce bit-identical scores to the baselines (enforced
// by FuzzTokenKernelEquivalence and FuzzEarlyDisjunctsEquivalence); this
// bench records the time.  Writes BENCH_token_kernel.json (or argv[1]).
// With CSM_BENCH_REQUIRE_SPEEDUP=1 the process fails unless every op is
// >= 1.0x and nb_classify >= 3.0x — the CI smoke regression gate.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "check/token_profile.h"
#include "ml/naive_bayes.h"
#include "text/gram.h"
#include "text/tokenizer.h"

namespace {

using namespace csm;
using namespace csm::bench;

/// Best-of-`reps` wall-clock seconds for `op()`; `op` returns a size_t that
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

/// The pre-kernel map-of-strings multinomial NB — per-label gram-string
/// count maps, per-call log sums — kept as the timing baseline.
class StringMapNaiveBayes {
 public:
  explicit StringMapNaiveBayes(size_t q, double smoothing = 1.0)
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

  size_t TrainingSize() const { return total_examples_; }

  std::string Classify(const std::string& text) const {
    if (labels_.empty()) return "";
    const std::string* best = nullptr;
    double best_score = -std::numeric_limits<double>::infinity();
    size_t best_frequency = 0;
    const double num_labels = static_cast<double>(labels_.size());
    const double vocab = static_cast<double>(vocabulary_.size());
    const std::vector<std::string> grams = QGrams(text, q_);
    for (const auto& [label, stats] : labels_) {
      double score = std::log(
          (static_cast<double>(stats.example_count) + smoothing_) /
          (static_cast<double>(total_examples_) + smoothing_ * num_labels));
      const double denom = stats.token_total + smoothing_ * (vocab + 1.0);
      for (const std::string& gram : grams) {
        auto it = stats.token_counts.find(gram);
        const double count =
            it == stats.token_counts.end() ? 0.0 : it->second;
        score += std::log((count + smoothing_) / denom);
      }
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

  size_t q_;
  double smoothing_;
  size_t total_examples_ = 0;
  std::map<std::string, LabelStats> labels_;
  std::set<std::string> vocabulary_;
};

struct OpRow {
  const char* op;
  double baseline = 0;
  double kernel = 0;
  double speedup = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_token_kernel.json";
  const size_t reps = GlobalBenchConfig().Repetitions(10);
  volatile size_t sink = 0;

  GradesOptions data_options;
  data_options.seed = 7;
  const GradesDataset data = MakeGradesDataset(data_options);
  const Table& table = data.source.tables().front();
  const size_t name_col = table.schema().AttributeIndex("name");
  const size_t exam_col = table.schema().AttributeIndex("examNum");

  // A grid cell's evidence stream: rendered name + exam-group label per
  // non-null row, and the same rows as one name column (a gather sharing
  // the table's dictionary) for the classifier paths.
  const Column& name_column = table.column(name_col);
  std::vector<std::string> names, labels;
  PosList kept;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (name_column.IsNull(r) || table.ValueAt(r, exam_col).is_null()) continue;
    names.push_back(table.ValueAt(r, name_col).ToString());
    labels.push_back(table.ValueAt(r, exam_col).ToString());
    kept.push_back(static_cast<RowId>(r));
  }
  const Column evidence = name_column.Gather(kept);
  // The kernel's labels: each label's rank in string order, the baseline's
  // map order, and one column of names per label, in that order.
  const std::set<std::string> label_set(labels.begin(), labels.end());
  std::vector<Column> label_columns(label_set.size(),
                                    Column(ValueType::kString));
  for (size_t i = 0; i < names.size(); ++i) {
    label_columns[static_cast<size_t>(std::distance(
                      label_set.begin(), label_set.find(labels[i])))]
        .AppendString(names[i]);
  }
  std::vector<const Column*> label_ptrs;
  for (const Column& column : label_columns) label_ptrs.push_back(&column);
  PosList rows(evidence.size());
  std::iota(rows.begin(), rows.end(), RowId{0});
  std::vector<size_t> rank_order(label_set.size());
  std::iota(rank_order.begin(), rank_order.end(), size_t{0});
  // Predicts every item of a fitted kernel once and sums each row's label.
  auto tag_rows = [&](const NaiveBayesCellModel& model,
                      const std::vector<uint32_t>& items) {
    std::vector<LabelId> predicted;
    model.PredictAll(rank_order, &predicted);
    size_t n = 0;
    for (uint32_t item : items) n += predicted[item];
    return n;
  };
  std::set<std::string> distinct(names.begin(), names.end());
  std::printf("grades workload: %zu rows, %zu distinct names, %zu labels\n",
              names.size(), distinct.size(), label_set.size());

  OpRow tokenize{"tokenize"}, profile{"profile_build"}, train{"nb_train"},
      classify{"nb_classify"}, classify_cold{"nb_classify_cold"};

  // --- tokenize -----------------------------------------------------------
  tokenize.baseline = TimeBest(reps, &sink, [&] {
    size_t n = 0;
    for (const std::string& name : names) n += QGrams(name, 3).size();
    return n;
  });
  tokenize.kernel = TimeBest(reps, &sink, [&] {
    size_t n = 0;
    std::string scratch;
    std::vector<GramId> ids;
    for (const std::string& name : names) {
      ids.clear();
      AppendPackedQGrams(name, 3, &scratch, &ids);
      n += ids.size();
    }
    return n;
  });

  // --- profile_build ------------------------------------------------------
  profile.baseline = TimeBest(reps, &sink, [&] {
    check::TokenProfile p;
    for (const std::string& name : names) p.AddAll(QGrams(name, 3));
    return p.num_distinct();
  });
  profile.kernel = TimeBest(reps, &sink, [&] {
    GramProfileBuilder builder;
    for (const std::string& name : names) builder.AddText(name);
    return builder.Build().num_distinct();
  });

  // --- nb_train -----------------------------------------------------------
  train.baseline = TimeBest(reps, &sink, [&] {
    StringMapNaiveBayes nb(3);
    for (size_t i = 0; i < names.size(); ++i) nb.Train(names[i], labels[i]);
    return nb.TrainingSize();
  });
  train.kernel = TimeBest(reps, &sink, [&] {
    std::vector<std::vector<uint32_t>> items;
    const NaiveBayesCellModel model(label_ptrs, {}, {}, &items);
    return model.num_items();
  });

  // --- nb_classify --------------------------------------------------------
  // Both classifiers are trained once outside the timed region, and the
  // kernel's items (the name column's distinct values) tokenized; the
  // kernel side predicts each item once and reads every row's label.
  StringMapNaiveBayes baseline_nb(3);
  for (size_t i = 0; i < names.size(); ++i) {
    baseline_nb.Train(names[i], labels[i]);
  }
  std::vector<std::vector<uint32_t>> warm_items;
  const NaiveBayesCellModel warm_model(label_ptrs, {&evidence}, rows,
                                       &warm_items);
  classify.baseline = TimeBest(reps, &sink, [&] {
    size_t n = 0;
    for (const std::string& name : names) {
      n += baseline_nb.Classify(name).size();
    }
    return n;
  });
  classify.kernel = TimeBest(reps, &sink, [&] {
    return tag_rows(warm_model, warm_items[0]);
  });

  // --- nb_classify_cold ---------------------------------------------------
  // A fresh tagger per rep: fit, tokenize every distinct name once, predict
  // it once, read every row's label.  The map baseline keeps nothing
  // between calls, so its cold pass is the nb_classify baseline.
  classify_cold.baseline = classify.baseline;
  classify_cold.kernel = TimeBest(reps, &sink, [&] {
    std::vector<std::vector<uint32_t>> items;
    const NaiveBayesCellModel model(label_ptrs, {&evidence}, rows, &items);
    return tag_rows(model, items[0]);
  });

  std::vector<OpRow*> ops = {&tokenize, &profile, &train, &classify,
                             &classify_cold};
  ResultTable out_table(
      "Micro: token kernel vs map-of-strings baselines (Grades, Fig 19)",
      {"op", "baseline_ms", "kernel_ms", "speedup"});
  for (OpRow* op : ops) {
    op->speedup = op->kernel > 0 ? op->baseline / op->kernel : 0.0;
    out_table.AddRow({op->op, ResultTable::Num(op->baseline * 1e3, 3),
                      ResultTable::Num(op->kernel * 1e3, 3),
                      ResultTable::Num(op->speedup, 2)});
  }
  out_table.Print();
  std::printf("(times in the table are milliseconds, best of %zu reps)\n",
              reps);

  double min_speedup = 1e300;
  for (const OpRow* op : ops) min_speedup = std::min(min_speedup, op->speedup);

  const size_t hardware = std::thread::hardware_concurrency();
  if (!SpeedupRecordWriteAllowed(json_path, hardware)) return 1;
  FILE* out = std::fopen(json_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"micro_text\",\n"
               "  \"figure_family\": \"Fig 19 grades workload\",\n"
               "  \"hardware_concurrency\": %zu,\n"
               "  \"workload\": {\"dataset\": \"grades\", \"rows\": %zu, "
               "\"distinct_values\": %zu, \"repetitions\": %zu, \"timing\": "
               "\"best_of_reps\"},\n"
               "  \"headline\": \"nb_classify = TgtClassInfer's string tagging "
               "(tokenize + log-sum per row vs a fitted Naive Bayes kernel "
               "predicting each distinct value once)\",\n"
               "  \"min_speedup\": %.2f,\n"
               "  \"nb_classify_speedup\": %.2f,\n"
               "  \"ops\": [\n",
               hardware, names.size(), distinct.size(), reps, min_speedup,
               classify.speedup);
  for (size_t i = 0; i < ops.size(); ++i) {
    std::fprintf(out,
                 "    {\"op\": \"%s\", \"baseline_seconds\": %.6f, "
                 "\"kernel_seconds\": %.6f, \"speedup\": %.2f}%s\n",
                 ops[i]->op, ops[i]->baseline, ops[i]->kernel,
                 ops[i]->speedup, i + 1 < ops.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote %s (min speedup %.2fx, nb_classify %.2fx)\n",
              json_path.c_str(), min_speedup, classify.speedup);

  const char* require = std::getenv("CSM_BENCH_REQUIRE_SPEEDUP");
  if (require != nullptr && *require != '\0' && *require != '0') {
    if (min_speedup < 1.0 || classify.speedup < 3.0) {
      std::fprintf(stderr,
                   "FAIL: kernel speedup regression (min %.2fx, nb_classify "
                   "%.2fx; required min >= 1.0 and nb_classify >= 3.0)\n",
                   min_speedup, classify.speedup);
      return 1;
    }
    std::printf("speedup gate passed (min >= 1.0, nb_classify >= 3.0)\n");
  }
  return 0;
}
