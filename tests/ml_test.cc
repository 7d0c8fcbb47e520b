// Tests for src/ml's evaluation machinery, and for the Naive Bayes and
// Gaussian classifiers whose scores and ties the per-cell models reproduce
// (the references of check/reference_classifier.h).

#include <gtest/gtest.h>

#include <limits>

#include "check/reference_classifier.h"
#include "common/random.h"
#include "ml/evaluation.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using check::GaussianClassifier;
using check::NaiveBayesClassifier;
using check::ValueClassifier;
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

  void Add(const Value& cell, LabelId label) {
    column.Append(cell);
    labels.push_back(label);
  }

  void TrainInto(ValueClassifier& classifier) const {
    for (size_t r = 0; r < labels.size(); ++r) {
      classifier.Train(column, r, labels[r]);
    }
  }

  Column column;
  std::vector<LabelId> labels;
};

// ------------------------------------------------------------ NaiveBayes

constexpr LabelId kBook = 0;
constexpr LabelId kCd = 1;

const Examples& BookCdExamples() {
  static const Examples* examples = [] {
    auto* out = new Examples(ValueType::kString);
    const char* books[] = {"the silent river", "a winter garden",
                           "the lost kingdom", "history of light",
                           "the paper ocean"};
    const char* cds[] = {"velvet thunder", "neon wolves live", "cobalt drift",
                         "static bloom remix", "echo parade"};
    for (const char* b : books) out->Add(S(b), kBook);
    for (const char* c : cds) out->Add(S(c), kCd);
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
  EXPECT_EQ(nb.Classify(probes, 0), kBook);
  EXPECT_EQ(nb.Classify(probes, 1), kCd);
}

TEST(NaiveBayesTest, UntrainedReturnsEmpty) {
  const Column probes = MakeColumn(ValueType::kString, {S("anything")});
  NaiveBayesClassifier nb;
  EXPECT_EQ(nb.Classify(probes, 0), kNoLabel);
}

TEST(NaiveBayesTest, NullInputsIgnored) {
  const Column cells = MakeColumn(ValueType::kString, {N(), S("abc")});
  const Column all_null = MakeColumn(ValueType::kNull, {N()});
  NaiveBayesClassifier nb;
  nb.Train(cells, 0, 0);
  nb.Train(all_null, 0, 0);
  EXPECT_EQ(nb.Classify(cells, 1), kNoLabel) << "NULL cells trained nothing";
  nb.Train(cells, 1, 0);
  EXPECT_EQ(nb.Classify(cells, 1), 0u);
  EXPECT_EQ(nb.Classify(cells, 0), kNoLabel);
  EXPECT_EQ(nb.Classify(all_null, 0), kNoLabel);
}

TEST(NaiveBayesTest, LogScoreOrdersLabels) {
  const Column probes = MakeColumn(ValueType::kString, {S("the silent garden")});
  NaiveBayesClassifier nb = TrainedBookCdClassifier();
  EXPECT_GT(nb.LogScore(probes, 0, kBook), nb.LogScore(probes, 0, kCd));
  EXPECT_EQ(nb.LogScore(probes, 0, 7),
            -std::numeric_limits<double>::infinity());
}

TEST(NaiveBayesTest, ExactTieGoesToLowerId) {
  // Labels 5 and 3 train on the same two cells, so they score alike on
  // every probe, and both beat label 1 (one cell) on the trained text; the
  // lower id wins.  Ids 0, 2 and 4 were never trained and are no labels.
  const Column cells = MakeColumn(ValueType::kString, {S("same")});
  NaiveBayesClassifier nb;
  for (LabelId label : {5u, 3u, 1u, 5u, 3u}) nb.Train(cells, 0, label);
  EXPECT_EQ(nb.Classify(cells, 0), 3u);
  EXPECT_EQ(nb.LogScore(cells, 0, 3), nb.LogScore(cells, 0, 5));
  EXPECT_GT(nb.LogScore(cells, 0, 3), nb.LogScore(cells, 0, 1));
  EXPECT_EQ(nb.LogScore(cells, 0, 4),
            -std::numeric_limits<double>::infinity());
}

TEST(NaiveBayesTest, UnseenInputGetsDeterministicTrainedLabel) {
  Examples examples(ValueType::kString);
  constexpr LabelId kMajor = 0, kMinor = 1;
  examples.Add(S("aaa"), kMajor);
  examples.Add(S("aab"), kMajor);
  examples.Add(S("aac"), kMajor);
  examples.Add(S("zzz"), kMinor);
  const Column probes = MakeColumn(ValueType::kString, {S("qqq"), S("qqq")});
  NaiveBayesClassifier nb;
  examples.TrainInto(nb);
  // Input sharing no informative grams still classifies to some trained
  // label, deterministically (row 1 is a second cell of the same value).
  const LabelId first = nb.Classify(probes, 0);
  EXPECT_TRUE(first == kMajor || first == kMinor);
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

TEST(NaiveBayesTest, NonStringColumnDies) {
  const Column numbers = MakeColumn(ValueType::kInt, {I(7)});
  NaiveBayesClassifier nb;
  EXPECT_DEATH(nb.Train(numbers, 0, 0), "reads string columns");
}

// -------------------------------------------------------------- Gaussian

constexpr LabelId kLow = 0;
constexpr LabelId kHigh = 1;

Examples GaussianExamples(double sigma, Rng& rng) {
  Examples examples(ValueType::kReal);
  for (int i = 0; i < 200; ++i) {
    examples.Add(R(rng.NextGaussian(10.0, sigma)), kLow);
    examples.Add(R(rng.NextGaussian(50.0, sigma)), kHigh);
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
  EXPECT_EQ(g.Classify(probes, 0), kLow);
  EXPECT_EQ(g.Classify(probes, 1), kHigh);
  EXPECT_EQ(g.Classify(int_probes, 0), kLow);  // ints widen
}

TEST(GaussianTest, MidpointGoesToCloserMean) {
  Rng rng(18);
  const Examples examples = GaussianExamples(3.0, rng);
  const Column probes = MakeColumn(ValueType::kReal, {R(20.0), R(40.0)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.Classify(probes, 0), kLow);
  EXPECT_EQ(g.Classify(probes, 1), kHigh);
}

TEST(GaussianTest, PriorsMatterForImbalancedData) {
  Rng rng(19);
  constexpr LabelId kCommon = 0, kRare = 1;
  Examples examples(ValueType::kReal);
  for (int i = 0; i < 900; ++i) {
    examples.Add(R(rng.NextGaussian(0.0, 10.0)), kCommon);
  }
  for (int i = 0; i < 10; ++i) {
    examples.Add(R(rng.NextGaussian(5.0, 10.0)), kRare);
  }
  const Column probes = MakeColumn(ValueType::kReal, {R(2.5)});
  GaussianClassifier g;
  examples.TrainInto(g);
  // Near the rare mean but the common prior dominates at equal likelihood
  // distance.
  EXPECT_EQ(g.Classify(probes, 0), kCommon);
}

TEST(GaussianTest, ConstantClassHandledByStdDevFloor) {
  constexpr LabelId kConst = 0, kSpread = 1;
  Examples examples(ValueType::kReal);
  for (int i = 0; i < 10; ++i) examples.Add(R(5.0), kConst);
  for (int i = 0; i < 10; ++i) {
    examples.Add(R(20.0 + static_cast<double>(i)), kSpread);
  }
  const Column probes = MakeColumn(ValueType::kReal, {R(5.0), R(24.0)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.Classify(probes, 0), kConst);
  EXPECT_EQ(g.Classify(probes, 1), kSpread);
}

TEST(GaussianTest, LogScoreUnknownLabelIsMinusInfinity) {
  const Column cells = MakeColumn(ValueType::kReal, {R(1.0)});
  GaussianClassifier g;
  g.Train(cells, 0, 2);
  EXPECT_EQ(g.LogScore(1.0, 0), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(g.LogScore(1.0, 9), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(g.Classify(cells, 0), 2u);
}

TEST(GaussianTest, ExactTieGoesToLowerId) {
  // Labels 4 and 1 hold the same cells, so they score alike everywhere;
  // the lower id wins.
  const Column cells = MakeColumn(ValueType::kReal, {R(1.0), R(3.0)});
  GaussianClassifier g;
  for (LabelId label : {4u, 1u}) {
    g.Train(cells, 0, label);
    g.Train(cells, 1, label);
  }
  EXPECT_EQ(g.Classify(cells, 0), 1u);
  EXPECT_EQ(g.Classify(cells, 1), 1u);
}

TEST(GaussianTest, NanTrainingCellDoesNotSilenceItsLabel) {
  // A NaN among A's cells is skipped.  Folded into A's statistics it would
  // make A score NaN, which never wins a comparison, so a probe in A's
  // range would go to B.
  constexpr LabelId kA = 0, kB = 1;
  Examples examples(ValueType::kReal);
  for (double x : {1.0, 2.0, 3.0, std::numeric_limits<double>::quiet_NaN()}) {
    examples.Add(R(x), kA);
  }
  for (double x : {10.0, 11.0, 12.0}) examples.Add(R(x), kB);
  const Column probes = MakeColumn(ValueType::kReal, {R(2.0)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.Classify(probes, 0), kA);
}

TEST(GaussianTest, InfiniteTrainingCellDoesNotSilenceItsLabel) {
  constexpr LabelId kA = 0, kB = 1;
  Examples examples(ValueType::kReal);
  for (double x : {1.0, 2.0, 3.0}) examples.Add(R(x), kA);
  for (double x : {10.0, 11.0, 12.0, std::numeric_limits<double>::infinity()}) {
    examples.Add(R(x), kB);
  }
  const Column probes = MakeColumn(ValueType::kReal, {R(11.0)});
  GaussianClassifier g;
  examples.TrainInto(g);
  EXPECT_EQ(g.Classify(probes, 0), kB);
}

TEST(GaussianTest, NonFiniteCellClassifiesAsMissing) {
  Examples examples(ValueType::kReal);
  examples.Add(R(1.0), 0);
  examples.Add(R(10.0), 1);
  const Column probes = MakeColumn(
      ValueType::kReal, {R(std::numeric_limits<double>::quiet_NaN()),
                         R(-std::numeric_limits<double>::infinity()), N()});
  GaussianClassifier g;
  examples.TrainInto(g);
  for (size_t r = 0; r < probes.size(); ++r) {
    EXPECT_EQ(g.Classify(probes, r), kNoLabel) << "row " << r;
  }
}

// ------------------------------------------------------------ Evaluation

TEST(EvaluationTest, AccuracyAndCounts) {
  ClassifierEvaluation e;
  e.Observe(0, 0);
  e.Observe(0, 1);
  e.Observe(1, 1);
  e.Observe(1, 1);
  EXPECT_EQ(e.total(), 4u);
  EXPECT_EQ(e.correct(), 3u);
  EXPECT_EQ(e.actual_count(0), 2u);
  EXPECT_EQ(e.actual_count(1), 2u);
  EXPECT_EQ(e.actual_count(7), 0u);
}

TEST(EvaluationTest, MicroAveragesEqualAccuracyForSingleLabel) {
  // Single-label multi-class: micro P == micro R == accuracy, so F1 is
  // the accuracy too.
  ClassifierEvaluation e;
  e.Observe(0, 0);
  e.Observe(0, 1);
  e.Observe(1, 0);
  e.Observe(2, 2);
  EXPECT_DOUBLE_EQ(e.F1(), 0.5);
  EXPECT_EQ(e.F1(), FBeta(0.5, 0.5));
}

TEST(EvaluationTest, FBetaFormula) {
  EXPECT_DOUBLE_EQ(FBeta(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(FBeta(0.0, 0.0), 0.0);
  EXPECT_NEAR(FBeta(0.5, 1.0), 2.0 / 3.0, 1e-12);
  // beta = 2 weighs recall higher.
  EXPECT_GT(FBeta(0.5, 1.0, 2.0), FBeta(1.0, 0.5, 2.0));
}

TEST(EvaluationTest, ErrorPairsAreUnordered) {
  ClassifierEvaluation e;
  e.Observe(5, 3);
  e.Observe(3, 5);
  e.Observe(5, 9);
  const auto& pairs = e.error_pairs();
  EXPECT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs.at(LabelPair{3, 5}), 2u);
  EXPECT_EQ(pairs.at(LabelPair{5, 9}), 1u);
}

TEST(EvaluationTest, NoLabelPredictionIsAnErrorButNoPair) {
  ClassifierEvaluation e;
  e.Observe(0, kNoLabel);
  e.Observe(0, 0);
  EXPECT_EQ(e.total(), 2u);
  EXPECT_EQ(e.correct(), 1u);
  EXPECT_TRUE(e.error_pairs().empty());
  EXPECT_TRUE(e.RankedPairs().empty());
}

TEST(EvaluationTest, NormalizedErrorPairsRankByRelativeConfusion) {
  constexpr LabelId kBig1 = 0, kBig2 = 1, kSmall1 = 2, kSmall2 = 3;
  ClassifierEvaluation e;
  // big1/big2: 100 observations each, 10 confusions -> 10/200 = 0.05.
  for (int i = 0; i < 90; ++i) {
    e.Observe(kBig1, kBig1);
    e.Observe(kBig2, kBig2);
  }
  for (int i = 0; i < 10; ++i) {
    e.Observe(kBig1, kBig2);
    e.Observe(kBig2, kBig2);
  }
  // small1/small2: 5 observations each, 3 confusions -> 3/10 = 0.3.
  for (int i = 0; i < 2; ++i) {
    e.Observe(kSmall1, kSmall1);
    e.Observe(kSmall2, kSmall2);
  }
  for (int i = 0; i < 3; ++i) {
    e.Observe(kSmall1, kSmall2);
    e.Observe(kSmall2, kSmall1);
  }
  auto ranked = e.RankedPairs();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, (LabelPair{kSmall1, kSmall2}));
  EXPECT_DOUBLE_EQ(ranked[0].second, 0.6);
  EXPECT_EQ(ranked[1].first, (LabelPair{kBig1, kBig2}));
}

TEST(EvaluationTest, NormalizedErrorPairTiesGoToTheLowerPair) {
  ClassifierEvaluation e;
  e.Observe(4, 6);
  e.Observe(1, 2);
  e.Observe(6, 4);
  e.Observe(2, 1);
  auto ranked = e.RankedPairs();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, (LabelPair{1, 2}));
  EXPECT_EQ(ranked[1].first, (LabelPair{4, 6}));
}

TEST(EvaluationTest, NoErrorsMeansEmptyPairs) {
  ClassifierEvaluation e;
  e.Observe(0, 0);
  EXPECT_TRUE(e.error_pairs().empty());
  EXPECT_TRUE(e.RankedPairs().empty());
}

TEST(EvaluationTest, EmptyEvaluationIsZero) {
  ClassifierEvaluation e;
  EXPECT_EQ(e.total(), 0u);
  EXPECT_DOUBLE_EQ(e.F1(), 0.0);
  EXPECT_TRUE(e.error_pairs().empty());
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
    train.Add(Value::String(sentence(vocab_a)), 0);
    train.Add(Value::String(sentence(vocab_b)), 1);
  }
  for (int i = 0; i < 100; ++i) {
    test.Add(Value::String(sentence(vocab_a)), 0);
    test.Add(Value::String(sentence(vocab_b)), 1);
  }
  NaiveBayesClassifier nb;
  train.TrainInto(nb);
  ClassifierEvaluation eval;
  for (size_t r = 0; r < test.labels.size(); ++r) {
    eval.Observe(test.labels[r], nb.Classify(test.column, r));
  }
  // Even at 70% vocabulary overlap the classifier must beat chance.
  EXPECT_GT(static_cast<double>(eval.correct()) /
                static_cast<double>(eval.total()),
            0.55)
      << "shared=" << shared;
}

INSTANTIATE_TEST_SUITE_P(OverlapSweep, NaiveBayesOverlapTest,
                         ::testing::Values(0, 3, 5, 7));

}  // namespace
}  // namespace csm
