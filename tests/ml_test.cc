// Tests for src/ml: Naive Bayes, Gaussian classifier, evaluation machinery.

#include <gtest/gtest.h>

#include <limits>

#include "common/random.h"
#include "ml/evaluation.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeColumn;
using testing::N;
using testing::R;
using testing::S;

/// Labeled training examples held in one column, the only input a
/// classifier reads.  Declare it before the classifiers trained on it so it
/// outlives them (classifiers may memoize by dictionary address).
struct Examples {
  explicit Examples(ValueType type) : column(type) {}

  void Add(const Value& cell, std::string label) {
    column.Append(cell);
    labels.push_back(std::move(label));
  }

  void TrainInto(ValueClassifier& classifier) const {
    for (size_t r = 0; r < labels.size(); ++r) {
      classifier.Train(column, r, labels[r]);
    }
  }

  Column column;
  std::vector<std::string> labels;
};

// ------------------------------------------------------------ NaiveBayes

const Examples& BookCdExamples() {
  static const Examples* examples = [] {
    auto* out = new Examples(ValueType::kString);
    const char* books[] = {"the silent river", "a winter garden",
                           "the lost kingdom", "history of light",
                           "the paper ocean"};
    const char* cds[] = {"velvet thunder", "neon wolves live", "cobalt drift",
                         "static bloom remix", "echo parade"};
    for (const char* b : books) out->Add(S(b), "book");
    for (const char* c : cds) out->Add(S(c), "cd");
    return out;
  }();
  return *examples;
}

NaiveBayesClassifier TrainedBookCdClassifier() {
  NaiveBayesClassifier nb;
  BookCdExamples().TrainInto(nb);
  return nb;
}

TEST(NaiveBayesTest, ClassifiesTrainingLikeInputs) {
  const Column probes = MakeColumn(
      ValueType::kString, {S("the silent kingdom"), S("velvet drift")});
  NaiveBayesClassifier nb = TrainedBookCdClassifier();
  EXPECT_EQ(nb.Classify(probes, 0), "book");
  EXPECT_EQ(nb.Classify(probes, 1), "cd");
}

TEST(NaiveBayesTest, LabelsAndTrainingSize) {
  NaiveBayesClassifier nb = TrainedBookCdClassifier();
  EXPECT_EQ(nb.Labels(), (std::vector<std::string>{"book", "cd"}));
  EXPECT_EQ(nb.TrainingSize(), 10u);
}

TEST(NaiveBayesTest, UntrainedReturnsEmpty) {
  const Column probes = MakeColumn(ValueType::kString, {S("anything")});
  NaiveBayesClassifier nb;
  EXPECT_EQ(nb.Classify(probes, 0), "");
  EXPECT_TRUE(nb.Labels().empty());
}

TEST(NaiveBayesTest, NullInputsIgnored) {
  const Column cells = MakeColumn(ValueType::kString, {N(), S("abc")});
  const Column all_null = MakeColumn(ValueType::kNull, {N()});
  NaiveBayesClassifier nb;
  nb.Train(cells, 0, "x");
  nb.Train(all_null, 0, "x");
  EXPECT_EQ(nb.TrainingSize(), 0u);
  nb.Train(cells, 1, "x");
  EXPECT_EQ(nb.Classify(cells, 0), "");
  EXPECT_EQ(nb.Classify(all_null, 0), "");
}

TEST(NaiveBayesTest, LogScoreOrdersLabels) {
  const Column probes = MakeColumn(ValueType::kString, {S("the silent garden")});
  NaiveBayesClassifier nb = TrainedBookCdClassifier();
  EXPECT_GT(nb.LogScore(probes, 0, "book"), nb.LogScore(probes, 0, "cd"));
  EXPECT_EQ(nb.LogScore(probes, 0, "unknown_label"),
            -std::numeric_limits<double>::infinity());
}

TEST(NaiveBayesTest, UnseenInputGetsDeterministicTrainedLabel) {
  Examples examples(ValueType::kString);
  examples.Add(S("aaa"), "major");
  examples.Add(S("aab"), "major");
  examples.Add(S("aac"), "major");
  examples.Add(S("zzz"), "minor");
  const Column probes = MakeColumn(ValueType::kString, {S("qqq"), S("qqq")});
  NaiveBayesClassifier nb;
  examples.TrainInto(nb);
  // Input sharing no informative grams still classifies to some trained
  // label, deterministically (row 1 is a second cell of the same value).
  std::string first = nb.Classify(probes, 0);
  EXPECT_TRUE(first == "major" || first == "minor");
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(nb.Classify(probes, static_cast<size_t>(i % 2)), first);
  }
}

TEST(NaiveBayesTest, DeterministicClassification) {
  const Column probes = MakeColumn(
      ValueType::kString, {S("river"), S("thunder"), S("x"), S("the the the")});
  NaiveBayesClassifier a = TrainedBookCdClassifier();
  NaiveBayesClassifier b = TrainedBookCdClassifier();
  for (size_t r = 0; r < probes.size(); ++r) {
    EXPECT_EQ(a.Classify(probes, r), b.Classify(probes, r));
  }
}

TEST(NaiveBayesTest, ClassifyCodedMemoizesPerDistinctValue) {
  const Column cells =
      MakeColumn(ValueType::kString, {S("aaa"), S("zzz"), S("aab"), S("aab")});
  NaiveBayesClassifier nb;
  nb.Train(cells, 0, "a");
  nb.Train(cells, 1, "z");
  const std::string first = nb.Classify(cells, 2);
  const uint64_t hits_before =
      GlobalTokenKernelStats().nb_memo_hits.load(std::memory_order_relaxed);
  for (int i = 0; i < 10; ++i) {
    // Row 3 holds the same value (same code) as row 2.
    EXPECT_EQ(nb.Classify(cells, 2 + static_cast<size_t>(i % 2)), first);
  }
  const uint64_t hits_after =
      GlobalTokenKernelStats().nb_memo_hits.load(std::memory_order_relaxed);
  EXPECT_GE(hits_after - hits_before, 10u);
}

TEST(NaiveBayesTest, TrainingAfterClassifyInvalidatesMemo) {
  const Column cells = MakeColumn(ValueType::kString, {S("aaa"), S("aaz")});
  NaiveBayesClassifier nb;
  nb.Train(cells, 0, "a");
  EXPECT_EQ(nb.Classify(cells, 1), "a");
  // Flood a second label with the probe's own value; the classifier must
  // re-score, not replay the memoized "a".
  for (int i = 0; i < 20; ++i) nb.Train(cells, 1, "z");
  NaiveBayesClassifier fresh;
  fresh.Train(cells, 0, "a");
  for (int i = 0; i < 20; ++i) fresh.Train(cells, 1, "z");
  EXPECT_EQ(fresh.Classify(cells, 1), "z");
  EXPECT_EQ(nb.Classify(cells, 1), fresh.Classify(cells, 1));
}

TEST(NaiveBayesTest, NonStringColumnDies) {
  const Column numbers = MakeColumn(ValueType::kInt, {I(7)});
  NaiveBayesClassifier nb;
  EXPECT_DEATH(nb.Train(numbers, 0, "x"), "reads string columns");
}

// -------------------------------------------------------------- Gaussian

Examples GaussianExamples(double sigma, Rng& rng) {
  Examples examples(ValueType::kReal);
  for (int i = 0; i < 200; ++i) {
    examples.Add(R(rng.NextGaussian(10.0, sigma)), "low");
    examples.Add(R(rng.NextGaussian(50.0, sigma)), "high");
  }
  return examples;
}

TEST(GaussianTest, SeparatesWellSeparatedClasses) {
  Rng rng(17);
  const Examples examples = GaussianExamples(3.0, rng);
  const Column probes = MakeColumn(ValueType::kReal, {R(11.0), R(49.0)});
  const Column int_probes = MakeColumn(ValueType::kInt, {I(9)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.Classify(probes, 0), "low");
  EXPECT_EQ(g.Classify(probes, 1), "high");
  EXPECT_EQ(g.Classify(int_probes, 0), "low");  // ints widen
}

TEST(GaussianTest, MidpointGoesToCloserMean) {
  Rng rng(18);
  const Examples examples = GaussianExamples(3.0, rng);
  const Column probes = MakeColumn(ValueType::kReal, {R(20.0), R(40.0)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.Classify(probes, 0), "low");
  EXPECT_EQ(g.Classify(probes, 1), "high");
}

TEST(GaussianTest, PriorsMatterForImbalancedData) {
  Rng rng(19);
  Examples examples(ValueType::kReal);
  for (int i = 0; i < 900; ++i) {
    examples.Add(R(rng.NextGaussian(0.0, 10.0)), "common");
  }
  for (int i = 0; i < 10; ++i) {
    examples.Add(R(rng.NextGaussian(5.0, 10.0)), "rare");
  }
  const Column probes = MakeColumn(ValueType::kReal, {R(2.5)});
  GaussianClassifier g;
  examples.TrainInto(g);
  // Near the rare mean but the common prior dominates at equal likelihood
  // distance.
  EXPECT_EQ(g.Classify(probes, 0), "common");
}

TEST(GaussianTest, ConstantClassHandledByStdDevFloor) {
  Examples examples(ValueType::kReal);
  for (int i = 0; i < 10; ++i) examples.Add(R(5.0), "const");
  for (int i = 0; i < 10; ++i) {
    examples.Add(R(20.0 + static_cast<double>(i)), "spread");
  }
  const Column probes = MakeColumn(ValueType::kReal, {R(5.0), R(24.0)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.Classify(probes, 0), "const");
  EXPECT_EQ(g.Classify(probes, 1), "spread");
}

TEST(GaussianTest, LogScoreUnknownLabelIsMinusInfinity) {
  const Column cells = MakeColumn(ValueType::kReal, {R(1.0)});
  GaussianClassifier g;
  g.Train(cells, 0, "a");
  EXPECT_EQ(g.LogScore(1.0, "zzz"),
            -std::numeric_limits<double>::infinity());
}

TEST(GaussianTest, NanTrainingCellDoesNotSilenceItsLabel) {
  // A NaN among A's cells is skipped.  Folded into A's statistics it would
  // make A score NaN, which never wins a comparison, so a probe in A's
  // range would go to B.
  Examples examples(ValueType::kReal);
  for (double x : {1.0, 2.0, 3.0, std::numeric_limits<double>::quiet_NaN()}) {
    examples.Add(R(x), "A");
  }
  for (double x : {10.0, 11.0, 12.0}) examples.Add(R(x), "B");
  const Column probes = MakeColumn(ValueType::kReal, {R(2.0)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.TrainingSize(), 6u);
  EXPECT_EQ(g.Classify(probes, 0), "A");
}

TEST(GaussianTest, InfiniteTrainingCellDoesNotSilenceItsLabel) {
  Examples examples(ValueType::kReal);
  for (double x : {1.0, 2.0, 3.0}) examples.Add(R(x), "A");
  for (double x : {10.0, 11.0, 12.0, std::numeric_limits<double>::infinity()}) {
    examples.Add(R(x), "B");
  }
  const Column probes = MakeColumn(ValueType::kReal, {R(11.0)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.TrainingSize(), 6u);
  EXPECT_EQ(g.Classify(probes, 0), "B");
}

TEST(GaussianTest, NonFiniteCellClassifiesAsMissing) {
  Examples examples(ValueType::kReal);
  examples.Add(R(1.0), "A");
  examples.Add(R(10.0), "B");
  const Column probes = MakeColumn(
      ValueType::kReal, {R(std::numeric_limits<double>::quiet_NaN()),
                         R(-std::numeric_limits<double>::infinity()), N()});
  GaussianClassifier g;
  examples.TrainInto(g);
  for (size_t r = 0; r < probes.size(); ++r) {
    EXPECT_EQ(g.Classify(probes, r), "") << "row " << r;
  }
}

// ------------------------------------------------------------ Evaluation

TEST(EvaluationTest, AccuracyAndCounts) {
  ClassifierEvaluation e;
  e.Observe("a", "a");
  e.Observe("a", "b");
  e.Observe("b", "b");
  e.Observe("b", "b");
  EXPECT_EQ(e.total(), 4u);
  EXPECT_EQ(e.correct(), 3u);
  EXPECT_DOUBLE_EQ(e.Accuracy(), 0.75);
}

TEST(EvaluationTest, MicroAveragesEqualAccuracyForSingleLabel) {
  // Single-label multi-class: micro P == micro R == accuracy.
  ClassifierEvaluation e;
  e.Observe("a", "a");
  e.Observe("a", "b");
  e.Observe("b", "a");
  e.Observe("c", "c");
  EXPECT_DOUBLE_EQ(e.MicroPrecision(), e.Accuracy());
  EXPECT_DOUBLE_EQ(e.MicroRecall(), e.Accuracy());
  EXPECT_DOUBLE_EQ(e.MicroF(1.0), e.Accuracy());
}

TEST(EvaluationTest, PerLabelPrecisionRecall) {
  ClassifierEvaluation e;
  e.Observe("a", "a");  // a: TP
  e.Observe("a", "b");  // a: FN, b: FP
  e.Observe("b", "b");  // b: TP
  EXPECT_DOUBLE_EQ(e.LabelPrecision("a"), 1.0);
  EXPECT_DOUBLE_EQ(e.LabelRecall("a"), 0.5);
  EXPECT_DOUBLE_EQ(e.LabelPrecision("b"), 0.5);
  EXPECT_DOUBLE_EQ(e.LabelRecall("b"), 1.0);
  EXPECT_DOUBLE_EQ(e.LabelPrecision("zzz"), 0.0);
}

TEST(EvaluationTest, FBetaFormula) {
  EXPECT_DOUBLE_EQ(FBeta(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(FBeta(0.0, 0.0), 0.0);
  EXPECT_NEAR(FBeta(0.5, 1.0), 2.0 / 3.0, 1e-12);
  // beta = 2 weighs recall higher.
  EXPECT_GT(FBeta(0.5, 1.0, 2.0), FBeta(1.0, 0.5, 2.0));
}

TEST(EvaluationTest, MacroFAveragesLabels) {
  ClassifierEvaluation e;
  e.Observe("a", "a");
  e.Observe("b", "a");
  // a: P=0.5, R=1 -> F=2/3; b: P=0, R=0 -> F=0.
  EXPECT_NEAR(e.MacroF(1.0), (2.0 / 3.0) / 2.0, 1e-12);
}

TEST(EvaluationTest, ErrorPairsAreUnordered) {
  ClassifierEvaluation e;
  e.Observe("x", "y");
  e.Observe("y", "x");
  e.Observe("x", "z");
  const auto& pairs = e.error_pairs();
  EXPECT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs.at(MakeErrorPair("y", "x")), 2u);
  EXPECT_EQ(pairs.at(MakeErrorPair("x", "z")), 1u);
}

TEST(EvaluationTest, MakeErrorPairCanonicalizes) {
  EXPECT_EQ(MakeErrorPair("b", "a"), MakeErrorPair("a", "b"));
  EXPECT_EQ(MakeErrorPair("a", "b").first, "a");
}

TEST(EvaluationTest, NormalizedErrorPairsRankByRelativeConfusion) {
  ClassifierEvaluation e;
  // "big1"/"big2": 100 observations each, 10 confusions -> 10/200 = 0.05.
  for (int i = 0; i < 90; ++i) {
    e.Observe("big1", "big1");
    e.Observe("big2", "big2");
  }
  for (int i = 0; i < 10; ++i) {
    e.Observe("big1", "big2");
    e.Observe("big2", "big2");
  }
  // "small1"/"small2": 5 observations each, 3 confusions -> 3/10 = 0.3.
  for (int i = 0; i < 2; ++i) {
    e.Observe("small1", "small1");
    e.Observe("small2", "small2");
  }
  for (int i = 0; i < 3; ++i) {
    e.Observe("small1", "small2");
    e.Observe("small2", "small1");
  }
  auto ranked = e.NormalizedErrorPairs();
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].first, MakeErrorPair("small1", "small2"));
}

TEST(EvaluationTest, NoErrorsMeansEmptyPairs) {
  ClassifierEvaluation e;
  e.Observe("a", "a");
  EXPECT_TRUE(e.error_pairs().empty());
  EXPECT_TRUE(e.NormalizedErrorPairs().empty());
}

TEST(EvaluationTest, EmptyEvaluationIsZero) {
  ClassifierEvaluation e;
  EXPECT_DOUBLE_EQ(e.Accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(e.MicroF(1.0), 0.0);
  EXPECT_TRUE(e.Labels().empty());
}

// Parameterized sweep: NB accuracy should degrade gracefully as the two
// classes' vocabularies overlap more.
class NaiveBayesOverlapTest : public ::testing::TestWithParam<int> {};

TEST_P(NaiveBayesOverlapTest, AccuracyAboveChance) {
  const int shared = GetParam();  // shared tokens out of 10
  Rng rng(101 + static_cast<uint64_t>(shared));
  std::vector<std::string> vocab_a, vocab_b;
  for (int i = 0; i < 10; ++i) {
    vocab_a.push_back("worda" + std::to_string(i));
    vocab_b.push_back(i < shared ? vocab_a[static_cast<size_t>(i)]
                                 : "wordb" + std::to_string(i));
  }
  auto sentence = [&](const std::vector<std::string>& vocab) {
    std::string s;
    for (int w = 0; w < 3; ++w) {
      s += vocab[rng.NextBounded(vocab.size())] + " ";
    }
    return s;
  };
  Examples train(ValueType::kString), test(ValueType::kString);
  for (int i = 0; i < 60; ++i) {
    train.Add(Value::String(sentence(vocab_a)), "a");
    train.Add(Value::String(sentence(vocab_b)), "b");
  }
  for (int i = 0; i < 100; ++i) {
    test.Add(Value::String(sentence(vocab_a)), "a");
    test.Add(Value::String(sentence(vocab_b)), "b");
  }
  NaiveBayesClassifier nb;
  train.TrainInto(nb);
  ClassifierEvaluation eval;
  for (size_t r = 0; r < test.labels.size(); ++r) {
    eval.Observe(test.labels[r], nb.Classify(test.column, r));
  }
  // Even at 70% vocabulary overlap the classifier must beat chance.
  EXPECT_GT(eval.Accuracy(), 0.55) << "shared=" << shared;
}

INSTANTIATE_TEST_SUITE_P(OverlapSweep, NaiveBayesOverlapTest,
                         ::testing::Values(0, 3, 5, 7));

}  // namespace
}  // namespace csm
