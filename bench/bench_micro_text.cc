// Microbenchmarks of the interned token kernel (text/gram.h) against the
// map-of-strings baselines it replaced, on the Fig 19 grades workload
// (200 students x 5 exams; the evidence attribute "name" repeats each of
// the 200 distinct names five times — exactly the distinct-value reuse the
// classifier memo exploits).
//
// Five operations are measured, each in two implementations:
//
//   tokenize         QGrams heap-string tokenization vs AppendPackedQGrams
//                    (packed uint32 gram ids, zero per-gram allocations)
//   profile_build    TokenProfile (std::map) accumulation vs
//                    GramProfileBuilder -> flat sorted (id, count) entries
//   nb_train         map-of-strings Naive Bayes training vs
//                    NaiveBayesClassifier::Train over the name column
//                    (per-(dictionary, code) token memo)
//   nb_classify      per-call map NB scoring vs
//                    NaiveBayesClassifier::Classify over the name column
//                    (memo-warm: every value was classified before)
//   nb_classify_cold the same baseline vs Classify over a column rebuilt
//                    with its own dictionary for each rep, so every
//                    distinct value misses the memo once and runs the
//                    gram-major scoring kernel, as a fresh tagger does
//
// All kernel paths produce bit-identical scores to the baselines (enforced
// by FuzzTokenKernelEquivalence); this bench records the time.  Writes
// BENCH_token_kernel.json (or argv[1]).  With CSM_BENCH_REQUIRE_SPEEDUP=1
// the process fails unless every op is >= 1.0x and nb_classify >= 3.0x —
// the CI smoke regression gate.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <map>
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

/// Best-of-`reps` wall-clock seconds for `op(rep)`; `op` returns a size_t
/// that is accumulated into a sink so the work cannot be optimized away.
template <typename Op>
double TimeBestOfReps(size_t reps, volatile size_t* sink, Op&& op) {
  double best = 1e300;
  for (size_t rep = 0; rep < reps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    *sink = *sink + op(rep);
    const auto stop = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double>(stop - start).count());
  }
  return best;
}

/// TimeBestOfReps for an `op()` that is the same in every rep.
template <typename Op>
double TimeBest(size_t reps, volatile size_t* sink, Op&& op) {
  return TimeBestOfReps(reps, sink, [&](size_t) { return op(); });
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
  // The kernel's label ids: each label's rank in string order, the
  // baseline's map order.
  const std::set<std::string> label_set(labels.begin(), labels.end());
  std::vector<LabelId> label_ids;
  for (const std::string& label : labels) {
    label_ids.push_back(static_cast<LabelId>(
        std::distance(label_set.begin(), label_set.find(label))));
  }
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
    NaiveBayesClassifier nb;
    for (size_t i = 0; i < label_ids.size(); ++i) {
      nb.Train(evidence, i, label_ids[i]);
    }
    return label_ids.size();
  });

  // --- nb_classify --------------------------------------------------------
  // Both classifiers are trained once outside the timed region; the kernel
  // side classifies the name column's cells, so repeated names hit the
  // per-distinct-value memo, as TgtClassInfer's taggers do.
  StringMapNaiveBayes baseline_nb(3);
  for (size_t i = 0; i < names.size(); ++i) {
    baseline_nb.Train(names[i], labels[i]);
  }
  NaiveBayesClassifier kernel_nb;
  for (size_t i = 0; i < label_ids.size(); ++i) {
    kernel_nb.Train(evidence, i, label_ids[i]);
  }
  classify.baseline = TimeBest(reps, &sink, [&] {
    size_t n = 0;
    for (const std::string& name : names) {
      n += baseline_nb.Classify(name).size();
    }
    return n;
  });
  classify.kernel = TimeBest(reps, &sink, [&] {
    size_t n = 0;
    for (size_t i = 0; i < evidence.size(); ++i) {
      n += kernel_nb.Classify(evidence, i);
    }
    return n;
  });

  // --- nb_classify_cold ---------------------------------------------------
  // One name column per rep, each with its own dictionary, built before the
  // timed region and kept alive: the memo is keyed by dictionary address, so
  // a freed dictionary's address must not come back.  The map baseline has
  // no memo, so its cold pass is the nb_classify baseline.
  std::vector<Column> cold_columns(reps, Column(ValueType::kString));
  for (Column& column : cold_columns) {
    for (const std::string& name : names) column.AppendString(name);
  }
  classify_cold.baseline = classify.baseline;
  classify_cold.kernel = TimeBestOfReps(reps, &sink, [&](size_t rep) {
    const Column& column = cold_columns[rep];
    size_t n = 0;
    for (size_t i = 0; i < column.size(); ++i) {
      n += kernel_nb.Classify(column, i);
    }
    return n;
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
               "  \"headline\": \"nb_classify = ClusteredViewGen doTesting "
               "inner loop (tokenize + log-sum per row vs per-distinct-value "
               "memo)\",\n"
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
