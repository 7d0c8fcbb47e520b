// Property-style sweeps over substrate invariants, driven by seeded random
// inputs (deterministic per seed).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "datagen/wordlists.h"
#include "ml/naive_bayes.h"
#include "relational/condition.h"
#include "relational/sample.h"
#include "relational/view.h"
#include "stats/distributions.h"
#include "text/profile.h"
#include "text/string_distance.h"
#include "text/tokenizer.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::S;

std::string RandomWord(Rng& rng, size_t max_len = 12) {
  std::string out;
  size_t len = 1 + rng.NextBounded(max_len);
  for (size_t i = 0; i < len; ++i) {
    out += static_cast<char>('a' + rng.NextBounded(26));
  }
  return out;
}

// ----------------------------------------------------- Seeded sweeps

class SeededPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededPropertyTest, QGramCountFormulaHolds) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    std::string text = RandomWord(rng, 30);
    // n + q - 1 padded grams for non-empty normalized text of length n.
    EXPECT_EQ(QGrams(text, 3).size(), text.size() + 2) << text;
  }
}

TEST_P(SeededPropertyTest, CosineBoundedAndReflexive) {
  Rng rng(GetParam() ^ 1);
  for (int i = 0; i < 30; ++i) {
    TokenProfile a, b;
    for (int t = 0; t < 20; ++t) {
      a.Add(RandomWord(rng, 6));
      b.Add(RandomWord(rng, 6));
    }
    double sim = CosineSimilarity(a, b);
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0 + 1e-12);
    EXPECT_NEAR(CosineSimilarity(a, a), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(sim, CosineSimilarity(b, a));
  }
}

TEST_P(SeededPropertyTest, LevenshteinMetricAxioms) {
  Rng rng(GetParam() ^ 2);
  for (int i = 0; i < 20; ++i) {
    std::string a = RandomWord(rng), b = RandomWord(rng), c = RandomWord(rng);
    EXPECT_EQ(LevenshteinDistance(a, a), 0u);
    EXPECT_EQ(LevenshteinDistance(a, b), LevenshteinDistance(b, a));
    EXPECT_LE(LevenshteinDistance(a, c),
              LevenshteinDistance(a, b) + LevenshteinDistance(b, c));
    // Distance bounded by the longer string.
    EXPECT_LE(LevenshteinDistance(a, b), std::max(a.size(), b.size()));
  }
}

TEST_P(SeededPropertyTest, NormalCdfQuantileInverse) {
  Rng rng(GetParam() ^ 3);
  for (int i = 0; i < 50; ++i) {
    double p = 0.001 + rng.NextDouble() * 0.998;
    EXPECT_NEAR(NormalCdf(NormalQuantile(p)), p, 1e-6);
  }
}

TEST_P(SeededPropertyTest, ViewFamilyFromAnyCategoricalPartitions) {
  Rng rng(GetParam() ^ 4);
  std::vector<Row> rows;
  size_t cardinality = 2 + rng.NextBounded(6);
  for (int i = 0; i < 100; ++i) {
    rows.push_back(
        {S(("v" + std::to_string(rng.NextBounded(cardinality))).c_str()),
         S(RandomWord(rng).c_str())});
  }
  Table t = MakeTable("t", {"label", "payload"}, rows);
  ViewFamily family = MakeSimpleViewFamily(t, "label");
  EXPECT_TRUE(family.IsWellFormed());
  size_t covered = 0;
  std::set<size_t> seen_rows;
  for (const View& v : family.views) {
    for (size_t r : v.MatchingRows(t)) {
      EXPECT_TRUE(seen_rows.insert(r).second);
      ++covered;
    }
  }
  EXPECT_EQ(covered, t.num_rows());
}

TEST_P(SeededPropertyTest, ConditionConjunctionIsIntersection) {
  Rng rng(GetParam() ^ 5);
  std::vector<Row> rows;
  for (int i = 0; i < 80; ++i) {
    rows.push_back({I(static_cast<int64_t>(rng.NextBounded(4))),
                    I(static_cast<int64_t>(rng.NextBounded(3)))});
  }
  Table t = MakeTable("t", {"a", "b"}, rows);
  Condition ca = Condition::In("a", {I(0), I(2)});
  Condition cb = Condition::Equals("b", I(1));
  Condition both = ca.Conjoin(cb);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool expectation = ca.Evaluate(t.schema(), t.row(r)) &&
                       cb.Evaluate(t.schema(), t.row(r));
    EXPECT_EQ(both.Evaluate(t.schema(), t.row(r)), expectation);
  }
}

TEST_P(SeededPropertyTest, TrainTestSplitIsExactPartition) {
  Rng data_rng(GetParam() ^ 6);
  std::vector<Row> rows;
  size_t n = 10 + data_rng.NextBounded(200);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back({I(static_cast<int64_t>(i))});
  }
  Table t = MakeTable("t", {"id"}, rows);
  Rng split_rng(GetParam() ^ 7);
  double fraction = data_rng.NextDouble();
  TrainTestSplit split = SplitTrainTest(t, fraction, split_rng);
  EXPECT_EQ(split.train.num_rows() + split.test.num_rows(), n);
  std::set<int64_t> ids;
  for (size_t r = 0; r < split.train.num_rows(); ++r) {
    ids.insert(split.train.ValueAt(r, 0).AsInt());
  }
  for (size_t r = 0; r < split.test.num_rows(); ++r) {
    EXPECT_TRUE(ids.insert(split.test.ValueAt(r, 0).AsInt()).second);
  }
  EXPECT_EQ(ids.size(), n);
}

TEST_P(SeededPropertyTest, NaiveBayesTrainingOrderInvariant) {
  Rng rng(GetParam() ^ 8);
  std::vector<std::pair<std::string, std::string>> examples;
  for (int i = 0; i < 40; ++i) {
    examples.emplace_back(MakeBookTitle(rng), "book");
    examples.emplace_back(MakeUpc(rng), "cd");
  }
  NaiveBayesClassifier forward(3), backward(3);
  for (const auto& [text, label] : examples) {
    forward.Train(Value::String(text), label);
  }
  for (auto it = examples.rbegin(); it != examples.rend(); ++it) {
    backward.Train(Value::String(it->first), it->second);
  }
  for (int i = 0; i < 20; ++i) {
    Value probe = Value::String(rng.NextBernoulli(0.5) ? MakeBookTitle(rng)
                                                       : MakeUpc(rng));
    EXPECT_EQ(forward.Classify(probe), backward.Classify(probe));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededPropertyTest,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

}  // namespace
}  // namespace csm
