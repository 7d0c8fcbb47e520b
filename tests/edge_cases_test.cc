// Additional edge-case and parameter-sweep coverage: significance
// threshold sensitivity, categorical-rule option sweeps, conjunctive
// staging corner cases, executor coercions, and selection bookkeeping.

#include <gtest/gtest.h>

#include <set>

#include "common/string_util.h"
#include "core/clustered_view_gen.h"
#include "core/match_engine.h"
#include "datagen/retail_gen.h"
#include "datagen/wordlists.h"
#include "mapping/executor.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"
#include "relational/categorical.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::R;
using testing::S;

ClassifierFactory SrcFactory() {
  return [](ValueType type) -> std::unique_ptr<ValueClassifier> {
    if (type == ValueType::kInt || type == ValueType::kReal) {
      return std::make_unique<GaussianClassifier>();
    }
    return std::make_unique<NaiveBayesClassifier>(3);
  };
}

/// A table where `type` clusters `text` with an adjustable noise fraction:
/// `noise_fraction` of the rows get the wrong-kind text.
Table NoisyClusteredFixture(double noise_fraction, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  for (int i = 0; i < 240; ++i) {
    bool is_book = rng.NextBernoulli(0.5);
    bool flip = rng.NextBernoulli(noise_fraction);
    bool text_book = flip ? !is_book : is_book;
    rows.push_back({S(is_book ? "book" : "cd"),
                    S(text_book ? MakeBookTitle(rng).c_str()
                                : MakeUpc(rng).c_str())});
  }
  return MakeTable("inv", {"type", "text"}, rows);
}

// --------------------------------------- Significance threshold sweeps

class SignificanceThresholdTest : public ::testing::TestWithParam<double> {};

TEST_P(SignificanceThresholdTest, CleanDataAcceptedNoisyDataRejected) {
  ClusteredViewGenOptions options;
  options.significance_threshold = GetParam();
  Rng rng(7);
  // Perfectly clustered: accepted at any reasonable threshold.
  Table clean = NoisyClusteredFixture(0.0, 1);
  EXPECT_FALSE(
      ClusteredViewGen(clean, SrcFactory(), options, {}, false, rng).empty());
  // Pure noise (labels independent of text): rejected.
  Table noisy = NoisyClusteredFixture(0.5, 2);
  EXPECT_TRUE(
      ClusteredViewGen(noisy, SrcFactory(), options, {}, false, rng).empty());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, SignificanceThresholdTest,
                         ::testing::Values(0.90, 0.95, 0.99));

TEST(SignificanceThresholdTest, ModerateNoiseStillDetected) {
  // 20% label noise: the correlation is weaker but still highly
  // significant over ~120 test rows.
  Rng rng(8);
  Table t = NoisyClusteredFixture(0.2, 3);
  auto families = ClusteredViewGen(t, SrcFactory(), {}, {}, false, rng);
  ASSERT_FALSE(families.empty());
  EXPECT_LT(families[0].classifier_f1, 1.0);
  EXPECT_GT(families[0].classifier_f1, 0.6);
}

// -------------------------------------------- Categorical option sweeps

class CategoricalFractionTest
    : public ::testing::TestWithParam<std::pair<double, bool>> {};

TEST_P(CategoricalFractionTest, TupleFractionControlsDetection) {
  auto [tuple_fraction, expect_categorical] = GetParam();
  // 20 values x 10 tuples each = 200 rows; each value covers 5% of tuples.
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({S(StrFormat("v%d", i % 20).c_str())});
  }
  Table t = MakeTable("t", {"k"}, rows);
  CategoricalOptions options;
  options.tuple_fraction = tuple_fraction;
  EXPECT_EQ(IsCategoricalAttribute(t, "k", options), expect_categorical);
}

INSTANTIATE_TEST_SUITE_P(
    Fractions, CategoricalFractionTest,
    ::testing::Values(std::make_pair(0.01, true),   // 5% > 1%
                      std::make_pair(0.04, true),   // 5% > 4%
                      std::make_pair(0.06, false),  // 5% < 6%
                      std::make_pair(0.10, false)));

// --------------------------------------------------- Conjunctive corners

// --------------------------------------- Degenerate-input validation
//
// Regression tests for the defensive guards: inputs with nothing to learn
// from must come back clean and empty, never crash or divide by zero.

using testing::N;

TEST(DegenerateInputTest, EmptyTableYieldsNoFamilies) {
  Table empty = MakeTable("empty", {"type", "text"}, {});
  Rng rng(1);
  EXPECT_TRUE(
      ClusteredViewGen(empty, SrcFactory(), {}, {}, false, rng).empty());
}

TEST(DegenerateInputTest, SingleRowTableYieldsNoFamilies) {
  Table one = MakeTable("one", {"type", "text"}, {{S("book"), S("dune")}});
  Rng rng(1);
  EXPECT_TRUE(
      ClusteredViewGen(one, SrcFactory(), {}, {}, false, rng).empty());
}

TEST(DegenerateInputTest, AllNullCategoricalColumnYieldsNoFamilies) {
  // The label column is entirely NULL; even named explicitly as a label
  // attribute it has no values to partition on.
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({N(), S(i % 2 == 0 ? "alpha" : "beta")});
  }
  Table t = MakeTable("nulls", {"type", "text"}, rows);
  Rng rng(1);
  EXPECT_TRUE(ClusteredViewGen(t, SrcFactory(), {}, {}, false, rng,
                               /*label_attributes=*/{"type"})
                  .empty());
}

TEST(DegenerateInputTest, LabelBelowSupportFloorYieldsNoFamilies) {
  // Every label value occurs exactly once: no value can appear in both the
  // train and test halves, so no cell can pass the significance gate.
  std::vector<Row> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({S(("label" + std::to_string(i)).c_str()),
                    S(i % 2 == 0 ? "left text" : "right text")});
  }
  Table t = MakeTable("sparse", {"type", "text"}, rows);
  Rng rng(1);
  EXPECT_TRUE(ClusteredViewGen(t, SrcFactory(), {}, {}, false, rng,
                               /*label_attributes=*/{"type"})
                  .empty());
}

TEST(DegenerateInputTest, InferenceOnEmptySampleReturnsNoCandidates) {
  // InferCandidateViews with accepted matches but an empty sample: the new
  // source_sample guard returns cleanly before touching the grid.
  ContextMatchOptions options;
  auto inference = MakeViewInference(ViewInferenceKind::kSrcClass, options);
  Table empty = MakeTable("empty", {"type", "text"}, {});
  Match accepted;
  accepted.source = {"empty", "text"};
  accepted.target = {"tgt", "title"};
  accepted.confidence = 0.9;
  MatchList matches{accepted};
  InferenceInput input;
  input.source_sample = empty;
  input.matches = &matches;
  Rng rng(1);
  EXPECT_TRUE(inference->InferCandidateViews(input, rng).empty());
}

TEST(ConjunctiveEdgeTest, ExtraStagesAreHarmlessWhenNothingToRefine) {
  RetailOptions d;
  d.num_items = 200;
  d.gamma = 2;
  d.seed = 91;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.seed = 92;
  ContextMatchResult one =
      MatchEngine(o)
          .Execute({.mode = MatchMode::kConjunctive,
                    .max_stages = 1,
                    .source = BorrowDatabase(data.source),
                    .target = BorrowDatabase(data.target)})
          .result;
  ContextMatchResult three =
      MatchEngine(o)
          .Execute({.mode = MatchMode::kConjunctive,
                    .max_stages = 3,
                    .source = BorrowDatabase(data.source),
                    .target = BorrowDatabase(data.target)})
          .result;
  // No second informative attribute exists, so deeper stages cannot select
  // conjunctive views; the simple views must survive unchanged.
  std::set<std::string> one_keys, three_simple_keys;
  for (const View& v : one.selected_views) {
    one_keys.insert(v.condition().ToString());
  }
  for (const View& v : three.selected_views) {
    if (v.condition().NumAttributes() == 1) {
      three_simple_keys.insert(v.condition().ToString());
    }
  }
  EXPECT_EQ(one_keys, three_simple_keys);
}

TEST(ConjunctiveEdgeTest, StageConditionsNeverRepeatAttributes) {
  RetailOptions d;
  d.num_items = 200;
  d.gamma = 4;
  d.correlated_attributes = 1;
  d.rho = 0.5;
  d.seed = 93;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.seed = 94;
  ContextMatchResult r =
      MatchEngine(o)
          .Execute({.mode = MatchMode::kConjunctive,
                    .max_stages = 3,
                    .source = BorrowDatabase(data.source),
                    .target = BorrowDatabase(data.target)})
          .result;
  for (const View& v : r.pool.candidate_views) {
    std::set<std::string> attrs;
    for (const std::string& a : v.condition().MentionedAttributes()) {
      EXPECT_TRUE(attrs.insert(a).second) << v.ToString();
    }
    EXPECT_LE(v.condition().NumAttributes(), 3u);
  }
}

// ----------------------------------------------------- Executor corners

TEST(ExecutorEdgeTest, CoercionsAndNulls) {
  Database db("src");
  db.AddTable(MakeTable("t", {"r", "s"},
                        {{R(3.0), S("x")}, {R(2.5), S("y")}}));
  Schema target("tgt");
  TableSchema out("out");
  out.AddAttribute("as_int", ValueType::kInt);
  target.AddTable(out);
  MatchList matches;
  Match m;
  m.source = {"t", "r"};
  m.target = {"out", "as_int"};
  m.confidence = 1.0;
  matches.push_back(m);
  auto queries = GenerateMappings(target, matches, {}, {});
  ASSERT_EQ(queries.size(), 1u);
  auto result = ExecuteMapping(queries[0], db, {}, target.GetTable("out"));
  ASSERT_TRUE(result.ok());
  // 3.0 coerces to int 3; 2.5 is lossy and becomes NULL.
  EXPECT_EQ(result->ValueAt(0, "as_int"), Value::Int(3));
  EXPECT_TRUE(result->ValueAt(1, "as_int").is_null());
}

TEST(ExecutorEdgeTest, DuplicateOutputRowsCollapse) {
  Database db("src");
  db.AddTable(MakeTable("t", {"v"}, {{S("same")}, {S("same")}, {S("other")}}));
  Schema target("tgt");
  TableSchema out("out");
  out.AddAttribute("v", ValueType::kString);
  target.AddTable(out);
  MatchList matches;
  Match m;
  m.source = {"t", "v"};
  m.target = {"out", "v"};
  m.confidence = 1.0;
  matches.push_back(m);
  auto queries = GenerateMappings(target, matches, {}, {});
  auto result = ExecuteMapping(queries[0], db, {}, target.GetTable("out"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(ExecutorEdgeTest, EmptyRelationListRejected) {
  Database db("src");
  MappingQuery query;
  query.target_table = "out";
  TableSchema out("out");
  out.AddAttribute("v", ValueType::kString);
  auto result = ExecuteMapping(query, db, {}, out);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------ Selection bookkeeping

TEST(SelectionBookkeepingTest, SelectedViewsMatchEmittedConditions) {
  RetailOptions d;
  d.num_items = 250;
  d.gamma = 4;
  d.seed = 95;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.early_disjuncts = false;
  o.seed = 96;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  std::set<std::string> selected_conditions;
  for (const View& v : r.selected_views) {
    selected_conditions.insert(v.condition().ToString());
  }
  for (const Match& m : r.matches) {
    if (m.condition.is_true()) continue;
    EXPECT_TRUE(selected_conditions.count(m.condition.ToString()))
        << m.ToString();
  }
}

TEST(SelectionBookkeepingTest, MatchesSortedByTargetThenConfidence) {
  RetailOptions d;
  d.num_items = 250;
  d.seed = 97;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.seed = 98;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  for (size_t i = 1; i < r.matches.size(); ++i) {
    const Match& prev = r.matches[i - 1];
    const Match& cur = r.matches[i];
    bool target_ordered = prev.target < cur.target || prev.target == cur.target;
    EXPECT_TRUE(target_ordered);
    if (prev.target == cur.target) {
      EXPECT_GE(prev.confidence, cur.confidence);
    }
  }
}

// ------------------------------------------------ Sample-size robustness

class SampleSizeRobustnessTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SampleSizeRobustnessTest, PipelineRunsAtAllSizes) {
  RetailOptions d;
  d.num_items = GetParam();
  d.seed = 99;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.seed = 100;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  MatchQuality q = EvaluateMatches(data.truth, r.matches);
  EXPECT_GE(q.precision, 0.0);  // completing cleanly is the main assertion
  if (GetParam() >= 200) {
    EXPECT_GT(q.fmeasure, 0.5);  // enough data: must actually work
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SampleSizeRobustnessTest,
                         ::testing::Values(2, 5, 10, 50, 200, 400));

}  // namespace
}  // namespace csm

namespace csm {
namespace {

// Ablation: the size-matched placebo correction (DESIGN.md) is what keeps
// wide noisy schemas from drowning real improvements.
TEST(PlaceboCorrectionTest, ImprovesWideSchemaFMeasure) {
  RetailOptions d;
  d.num_items = 200;
  d.extra_noncategorical = 8;
  d.extra_categorical = 2;
  d.seed = 101;
  double with_sum = 0.0, without_sum = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    RetailDataset data = MakeRetailDataset(d);
    const MatchRequest request{.source = BorrowDatabase(data.source),
                               .target = BorrowDatabase(data.target)};
    ContextMatchOptions o;
    o.omega = 0.1;
    o.seed = 102 + static_cast<uint64_t>(rep);
    o.placebo_correction = true;
    with_sum +=
        EvaluateMatches(data.truth, MatchEngine(o).Execute(request).matches)
            .fmeasure;
    o.placebo_correction = false;
    without_sum +=
        EvaluateMatches(data.truth, MatchEngine(o).Execute(request).matches)
            .fmeasure;
    d.seed += 10;
  }
  EXPECT_GT(with_sum, without_sum);
  EXPECT_GT(with_sum / 3.0, 0.3);
}

TEST(PlaceboCorrectionTest, DoesNotHurtCleanSchemas) {
  RetailOptions d;
  d.num_items = 300;
  d.seed = 111;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.1;
  o.seed = 112;
  o.placebo_correction = true;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  MatchQuality q =
      EvaluateMatches(data.truth, MatchEngine(o).Execute(request).matches);
  EXPECT_GT(q.fmeasure, 0.75);
}

}  // namespace
}  // namespace csm
