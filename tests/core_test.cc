// Tests for src/core: ClusteredViewGen, the three InferCandidateViews
// strategies, disjunct merging, SelectContextualMatches, and the
// ContextMatch driver.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/random.h"
#include "common/string_util.h"
#include "core/clustered_view_gen.h"
#include "core/match_engine.h"
#include "core/naive_infer.h"
#include "core/src_class_infer.h"
#include "core/tgt_class_infer.h"
#include "datagen/retail_gen.h"
#include "datagen/wordlists.h"
#include "ml/gaussian_classifier.h"
#include "ml/naive_bayes.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::R;
using testing::S;

/// A table whose `type` column genuinely clusters `text`, and whose `noise`
/// column is an uninformative categorical attribute.
Table ClusteredFixture(size_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> out;
  for (size_t i = 0; i < rows; ++i) {
    bool is_book = rng.NextBernoulli(0.5);
    out.push_back({S(is_book ? "book" : "cd"),
                   S(is_book ? MakeBookTitle(rng).c_str()
                             : MakeUpc(rng).c_str()),
                   S(rng.NextBernoulli(0.5) ? "hi" : "lo")});
  }
  return MakeTable("inv", {"type", "text", "noise"}, out);
}

ClassifierFactory SrcFactory() {
  return [](ValueType evidence_type) -> std::unique_ptr<ValueClassifier> {
    if (evidence_type == ValueType::kInt ||
        evidence_type == ValueType::kReal) {
      return std::make_unique<GaussianClassifier>();
    }
    return std::make_unique<NaiveBayesClassifier>(3);
  };
}

// ------------------------------------------------------ ClusteredViewGen

TEST(ClusteredViewGenTest, AcceptsInformativePartitionRejectsNoise) {
  Table t = ClusteredFixture(200, 1);
  Rng rng(2);
  auto families = ClusteredViewGen(t, SrcFactory(), {}, {}, false, rng);
  ASSERT_FALSE(families.empty());
  for (const ViewFamily& family : families) {
    EXPECT_EQ(family.label_attribute, "type")
        << "noise attribute accepted: " << family.ToString();
    EXPECT_TRUE(family.IsWellFormed());
    EXPECT_GT(family.significance, 0.95);
    EXPECT_GT(family.classifier_f1, 0.5);
    EXPECT_EQ(family.evidence_attribute, "text");
  }
}

TEST(ClusteredViewGenTest, FamilyPartitionsAllLabelValues) {
  Table t = ClusteredFixture(200, 3);
  Rng rng(4);
  auto families = ClusteredViewGen(t, SrcFactory(), {}, {}, false, rng);
  ASSERT_FALSE(families.empty());
  const ViewFamily& family = families[0];
  size_t covered = 0;
  for (const View& v : family.views) {
    covered += v.MatchingRows(t).size();
  }
  EXPECT_EQ(covered, t.num_rows());
}

TEST(ClusteredViewGenTest, ExplicitLabelListRestrictsSearch) {
  Table t = ClusteredFixture(200, 5);
  Rng rng(6);
  auto families =
      ClusteredViewGen(t, SrcFactory(), {}, {}, false, rng, {"noise"});
  EXPECT_TRUE(families.empty());  // noise cannot be predicted by text
}

TEST(ClusteredViewGenTest, HighCardinalityLabelSkipped) {
  Rng data_rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back({S(StrFormat("label%d", i % 60).c_str()),
                    S(MakeBookTitle(data_rng).c_str())});
  }
  Table t = MakeTable("t", {"many", "text"}, rows);
  ClusteredViewGenOptions options;
  options.max_label_cardinality = 50;
  Rng rng(8);
  auto families =
      ClusteredViewGen(t, SrcFactory(), options, {}, false, rng, {"many"});
  EXPECT_TRUE(families.empty());
}

TEST(ClusteredViewGenTest, TinySampleRejectedByMinTestSize) {
  Table t = ClusteredFixture(6, 9);
  ClusteredViewGenOptions options;
  options.min_test_size = 10;
  Rng rng(10);
  auto families = ClusteredViewGen(t, SrcFactory(), options, {}, false, rng);
  EXPECT_TRUE(families.empty());
}

TEST(ClusteredViewGenTest, EarlyDisjunctsMergeConfusedValues) {
  // Four labels where b1/b2 and c1/c2 are indistinguishable from the text:
  // early-disjunct merging should produce a family with merged conditions.
  Rng data_rng(11);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    bool is_book = data_rng.NextBernoulli(0.5);
    const char* label = is_book ? (data_rng.NextBernoulli(0.5) ? "b1" : "b2")
                                : (data_rng.NextBernoulli(0.5) ? "c1" : "c2");
    rows.push_back({S(label), S(is_book ? MakeBookTitle(data_rng).c_str()
                                        : MakeUpc(data_rng).c_str())});
  }
  Table t = MakeTable("inv", {"type", "text"}, rows);
  Rng rng(12);
  auto families = ClusteredViewGen(t, SrcFactory(), {}, {}, true, rng);
  bool found_merged = false;
  for (const ViewFamily& family : families) {
    for (const View& v : family.views) {
      const auto& values = v.condition().clauses()[0].values;
      if (values.size() == 2 &&
          ((values[0] == S("b1") && values[1] == S("b2")) ||
           (values[0] == S("c1") && values[1] == S("c2")))) {
        found_merged = true;
      }
      // No merge may ever mix a book label with a cd label.
      if (values.size() == 2) {
        bool has_b = values[0] == S("b1") || values[0] == S("b2") ||
                     values[1] == S("b1") || values[1] == S("b2");
        bool has_c = values[0] == S("c1") || values[0] == S("c2") ||
                     values[1] == S("c1") || values[1] == S("c2");
        EXPECT_FALSE(has_b && has_c) << v.ToString();
      }
    }
  }
  EXPECT_TRUE(found_merged);
}

TEST(ClusteredViewGenTest, DeterministicGivenSeed) {
  Table t = ClusteredFixture(150, 13);
  Rng rng1(14), rng2(14);
  auto a = ClusteredViewGen(t, SrcFactory(), {}, {}, true, rng1);
  auto b = ClusteredViewGen(t, SrcFactory(), {}, {}, true, rng2);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ToString(), b[i].ToString());
    EXPECT_DOUBLE_EQ(a[i].significance, b[i].significance);
  }
}

// ------------------------------------------------------------ NaiveInfer

TEST(NaiveInferTest, EmitsEveryValueOfEveryCategoricalAttribute) {
  Table t = ClusteredFixture(200, 15);
  NaiveInfer infer({}, 12, 50);
  MatchList matches(1);  // non-empty: inference must run
  InferenceInput input;
  input.source_sample = t;
  input.matches = &matches;
  Rng rng(16);
  auto candidates = infer.InferCandidateViews(input, rng);
  std::set<std::string> conditions;
  for (const auto& c : candidates) {
    conditions.insert(c.view.condition().ToString());
  }
  // type has 2 values, noise has 2 values: all four simple conditions.
  EXPECT_TRUE(conditions.count("type = 'book'"));
  EXPECT_TRUE(conditions.count("type = 'cd'"));
  EXPECT_TRUE(conditions.count("noise = 'hi'"));
  EXPECT_TRUE(conditions.count("noise = 'lo'"));
}

TEST(NaiveInferTest, NoMatchesMeansNoCandidates) {
  Table t = ClusteredFixture(200, 17);
  NaiveInfer infer({}, 12, 50);
  MatchList empty;
  InferenceInput input;
  input.source_sample = t;
  input.matches = &empty;
  Rng rng(18);
  EXPECT_TRUE(infer.InferCandidateViews(input, rng).empty());
}

TEST(NaiveInferTest, EarlyDisjunctsEnumerateSubsets) {
  // A 4-valued categorical attribute with early disjuncts: singletons plus
  // all subsets of size 2..3 = 4 + 10 = 14 conditions.
  std::vector<Row> rows;
  for (int i = 0; i < 80; ++i) {
    rows.push_back({S(StrFormat("v%d", i % 4).c_str())});
  }
  Table t = MakeTable("t", {"k"}, rows);
  NaiveInfer infer({}, 12, 50);
  MatchList matches(1);
  InferenceInput input;
  input.source_sample = t;
  input.matches = &matches;
  input.early_disjuncts = true;
  Rng rng(19);
  auto candidates = infer.InferCandidateViews(input, rng);
  EXPECT_EQ(candidates.size(), 14u);
}

TEST(NaiveInferTest, DisjunctLimitGuardsExponentialBlowup) {
  std::vector<Row> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back({S(StrFormat("v%d", i % 8).c_str())});
  }
  Table t = MakeTable("t", {"k"}, rows);
  NaiveInfer limited({}, /*disjunct_limit=*/4, 50);
  MatchList matches(1);
  InferenceInput input;
  input.source_sample = t;
  input.matches = &matches;
  input.early_disjuncts = true;
  Rng rng(20);
  // Cardinality 8 > limit 4: only the 8 singleton conditions.
  EXPECT_EQ(limited.InferCandidateViews(input, rng).size(), 8u);
}

TEST(NaiveInferTest, ExcludedAttributesSkipped) {
  Table t = ClusteredFixture(200, 21);
  NaiveInfer infer({}, 12, 50);
  MatchList matches(1);
  InferenceInput input;
  input.source_sample = t;
  input.matches = &matches;
  input.excluded_partition_attributes = {"type"};
  Rng rng(22);
  for (const auto& c : infer.InferCandidateViews(input, rng)) {
    EXPECT_FALSE(c.view.condition().MentionsAttribute("type"));
  }
}

// --------------------------------------------------- Src/Tgt class infer

TEST(SrcClassInferTest, ProposesOnlyInformativeFamilies) {
  Table t = ClusteredFixture(200, 23);
  Database target("tgt");  // SrcClassInfer ignores the target
  SrcClassInfer infer({}, {});
  MatchList matches(1);
  InferenceInput input;
  input.source_sample = t;
  input.target_sample = &target;
  input.matches = &matches;
  Rng rng(24);
  auto candidates = infer.InferCandidateViews(input, rng);
  ASSERT_FALSE(candidates.empty());
  for (const auto& c : candidates) {
    EXPECT_TRUE(c.view.condition().MentionsAttribute("type"))
        << c.view.ToString();
    EXPECT_GT(c.family_significance, 0.95);
  }
}

TEST(TgtTagClassifierTest, TBagScoreAndBestCat) {
  TgtTagClassifier classifier(nullptr);  // every input tags as ""
  classifier.Train(S("x"), "1");
  classifier.Train(S("y"), "1");
  classifier.Train(S("z"), "2");
  // Tag "" was seen 3 times; label 1 twice, label 2 once.
  // score("", "1") = (2/3)*(2/2) = 0.667; score("", "2") = (1/3)*(1/1).
  EXPECT_NEAR(classifier.Score("", "1"), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(classifier.Score("", "2"), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(classifier.BestCat(""), "1");
  EXPECT_EQ(classifier.BestCat("never_seen_tag"), "1");  // most common
  EXPECT_EQ(classifier.Classify(S("anything")), "1");
}

TEST(TgtTagClassifierTest, DistinctTagsSeparateLabels) {
  // Hand-built tagger: a trained NB that maps book-ish text to "Book.Title"
  // and digits to "Music.UPC".
  auto tagger = std::make_shared<NaiveBayesClassifier>(3);
  Rng rng(25);
  for (int i = 0; i < 30; ++i) {
    tagger->Train(S(MakeBookTitle(rng).c_str()), "Book.Title");
    tagger->Train(S(MakeUpc(rng).c_str()), "Music.UPC");
  }
  TgtTagClassifier classifier(tagger);
  for (int i = 0; i < 30; ++i) {
    classifier.Train(S(MakeBookTitle(rng).c_str()), "book");
    classifier.Train(S(MakeUpc(rng).c_str()), "cd");
  }
  EXPECT_EQ(classifier.Classify(S(MakeBookTitle(rng).c_str())), "book");
  EXPECT_EQ(classifier.Classify(S(MakeUpc(rng).c_str())), "cd");
}

TEST(CreateTargetClassifierTest, TrainsOnMatchingTypeOnly) {
  Database target("tgt");
  target.AddTable(MakeTable("books", {"title", "cost"},
                            {{S("the silent river"), R(12.0)},
                             {S("a winter garden"), R(15.0)}}));
  auto string_classifier = CreateTargetClassifier(ValueType::kString, target);
  ASSERT_NE(string_classifier, nullptr);
  EXPECT_EQ(string_classifier->Labels(),
            (std::vector<std::string>{"books.title"}));
  auto numeric_classifier = CreateTargetClassifier(ValueType::kReal, target);
  ASSERT_NE(numeric_classifier, nullptr);
  EXPECT_EQ(numeric_classifier->Labels(),
            (std::vector<std::string>{"books.cost"}));
}

TEST(CreateTargetClassifierTest, NullWhenNoAttributeOfType) {
  Database target("tgt");
  target.AddTable(MakeTable("t", {"s"}, {{S("x")}}));
  EXPECT_EQ(CreateTargetClassifier(ValueType::kReal, target), nullptr);
}

TEST(ViewInferenceTest, FactoryProducesRequestedKind) {
  ContextMatchOptions options;
  EXPECT_EQ(MakeViewInference(ViewInferenceKind::kNaive, options)->Name(),
            "NaiveInfer");
  EXPECT_EQ(MakeViewInference(ViewInferenceKind::kSrcClass, options)->Name(),
            "SrcClassInfer");
  EXPECT_EQ(MakeViewInference(ViewInferenceKind::kTgtClass, options)->Name(),
            "TgtClassInfer");
}

TEST(ViewInferenceTest, DeduplicateKeepsFirst) {
  CandidateView a, b, c;
  a.view = View("v1", "t", Condition::Equals("x", I(1)));
  a.family_f1 = 0.9;
  b.view = View("v1_again", "t", Condition::Equals("x", I(1)));
  b.family_f1 = 0.1;
  c.view = View("v2", "t", Condition::Equals("x", I(2)));
  auto out = DeduplicateCandidates({a, b, c});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].family_f1, 0.9);
}

// ------------------------------------------------ SelectContextualMatches

Match MkMatch(const char* stable, const char* sattr, const char* ttable,
              const char* tattr, double conf, Condition cond = {}) {
  Match m;
  m.source = {stable, sattr};
  m.target = {ttable, tattr};
  m.condition = std::move(cond);
  m.confidence = conf;
  m.score = conf;
  return m;
}

TEST(SelectMatchesTest, MultiTablePicksBestPerTargetAttribute) {
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("s1", "a", "t", "x", 0.6));
  pool.base_matches.push_back(MkMatch("s2", "b", "t", "x", 0.8));
  SelectionResult r = SelectMultiTable(pool, 0.0);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].source.table, "s2");
}

TEST(SelectMatchesTest, MultiTableViewNeedsOmegaImprovement) {
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("s", "a", "t", "x", 0.6));
  Condition cond = Condition::Equals("k", I(1));
  pool.view_matches.push_back(MkMatch("s", "a", "t", "x", 0.7, cond));
  pool.candidate_views.emplace_back("v", "s", cond);
  // omega 0.2: 0.7 < 0.6 + 0.2, view not eligible.
  SelectionResult strict = SelectMultiTable(pool, 0.2);
  ASSERT_EQ(strict.matches.size(), 1u);
  EXPECT_TRUE(strict.matches[0].is_standard());
  // omega 0.05: view eligible and wins.
  SelectionResult loose = SelectMultiTable(pool, 0.05);
  ASSERT_EQ(loose.matches.size(), 1u);
  EXPECT_FALSE(loose.matches[0].is_standard());
  EXPECT_EQ(loose.selected_views.size(), 1u);
}

TEST(SelectMatchesTest, QualTableKeepsBaseWhenNoViewImproves) {
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("s", "a", "t", "x", 0.8));
  Condition cond = Condition::Equals("k", I(1));
  pool.view_matches.push_back(MkMatch("s", "a", "t", "x", 0.82, cond));
  pool.candidate_views.emplace_back("v", "s", cond);
  SelectionResult r = SelectQualTable(pool, 0.15, true, 0.5);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_TRUE(r.matches[0].is_standard());
  EXPECT_TRUE(r.selected_views.empty());
}

TEST(SelectMatchesTest, QualTablePicksBestSourceTableFirst) {
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("weak", "a", "t", "x", 0.55));
  pool.base_matches.push_back(MkMatch("strong", "a", "t", "x", 0.7));
  pool.base_matches.push_back(MkMatch("strong", "b", "t", "y", 0.7));
  SelectionResult r = SelectQualTable(pool, 0.15, true, 0.5);
  ASSERT_EQ(r.matches.size(), 2u);
  for (const Match& m : r.matches) {
    EXPECT_EQ(m.source.table, "strong");
  }
}

TEST(SelectMatchesTest, QualTableEarlySelectsSingleBestView) {
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("s", "a", "t", "x", 0.5));
  Condition c1 = Condition::Equals("k", I(1));
  Condition c2 = Condition::Equals("k", I(2));
  pool.view_matches.push_back(MkMatch("s", "a", "t", "x", 0.9, c1));
  pool.view_matches.push_back(MkMatch("s", "a", "t", "x", 0.8, c2));
  pool.candidate_views.emplace_back("v1", "s", c1);
  pool.candidate_views.emplace_back("v2", "s", c2);
  SelectionResult early = SelectQualTable(pool, 0.15, true, 0.5);
  EXPECT_EQ(early.selected_views.size(), 1u);
  EXPECT_EQ(early.selected_views[0].name(), "v1");
  SelectionResult late = SelectQualTable(pool, 0.15, false, 0.5);
  EXPECT_EQ(late.selected_views.size(), 2u);
}

TEST(SelectMatchesTest, QualTableEmitsBestTargetPerSourceAttribute) {
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("s", "a", "t", "x", 0.5));
  Condition cond = Condition::Equals("k", I(1));
  pool.view_matches.push_back(MkMatch("s", "a", "t", "x", 0.9, cond));
  pool.view_matches.push_back(MkMatch("s", "a", "t", "y", 0.7, cond));
  pool.candidate_views.emplace_back("v", "s", cond);
  SelectionResult r = SelectQualTable(pool, 0.15, true, 0.5);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].target.attribute, "x");
}

// Regression for the BaseConfidenceIndex that replaced the per-view-match
// linear scan over base_matches: on duplicate (source, target) pairs the
// old scan took the *first* match's confidence, so the index must too.
TEST(SelectMatchesTest, MultiTableBaseConfidenceKeepsFirstDuplicate) {
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("s", "a", "t", "x", 0.3));
  pool.base_matches.push_back(MkMatch("s", "a", "t", "x", 0.9));
  Condition cond = Condition::Equals("k", I(1));
  pool.view_matches.push_back(MkMatch("s", "a", "t", "x", 0.95, cond));
  pool.candidate_views.emplace_back("v", "s", cond);
  // Eligibility gates on the FIRST duplicate (0.3): 0.95 >= 0.3 + 0.1.
  // Against the second duplicate it would fail (0.95 < 0.9 + 0.1) and the
  // 0.9 base match would win instead.
  SelectionResult r = SelectMultiTable(pool, 0.1);
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_FALSE(r.matches[0].is_standard());
  EXPECT_DOUBLE_EQ(r.matches[0].confidence, 0.95);
  EXPECT_EQ(r.selected_views.size(), 1u);
}

// Large randomized pool: the indexed selection must emit exactly what the
// brute-force first-match scan it replaced would have.
TEST(SelectMatchesTest, MultiTableIndexedSelectionMatchesLinearScan) {
  const double omega = 0.05;
  ScoredPool pool;
  Rng rng(99);
  // Confidences on a coarse grid so equal-confidence ties actually occur,
  // and ~1 in 6 base matches is a duplicate pair with a new confidence.
  auto conf = [&rng] { return rng.NextBounded(21) / 20.0; };
  std::vector<Condition> conds = {Condition::Equals("k", I(1)),
                                  Condition::Equals("k", I(2)),
                                  Condition::Equals("g", I(7))};
  for (int i = 0; i < 300; ++i) {
    const std::string st = "s" + std::to_string(rng.NextBounded(4));
    const std::string sa = "a" + std::to_string(rng.NextBounded(6));
    const std::string ta = "x" + std::to_string(rng.NextBounded(8));
    pool.base_matches.push_back(
        MkMatch(st.c_str(), sa.c_str(), "t", ta.c_str(), conf()));
    if (rng.NextBounded(6) == 0) {
      pool.base_matches.push_back(
          MkMatch(st.c_str(), sa.c_str(), "t", ta.c_str(), conf()));
    }
  }
  for (int i = 0; i < 200; ++i) {
    const std::string st = "s" + std::to_string(rng.NextBounded(4));
    const std::string sa = "a" + std::to_string(rng.NextBounded(6));
    const std::string ta = "x" + std::to_string(rng.NextBounded(8));
    pool.view_matches.push_back(MkMatch(st.c_str(), sa.c_str(), "t",
                                        ta.c_str(), conf(),
                                        conds[rng.NextBounded(3)]));
  }

  // Reference: the pre-index algorithm, duplicated verbatim — linear
  // first-match base-confidence scan, then best-per-target with the same
  // consideration order (all base matches, then eligible view matches).
  auto linear_base = [&pool](const Match& vm) {
    for (const Match& b : pool.base_matches) {
      if (b.source == vm.source && b.target == vm.target) {
        return b.confidence;
      }
    }
    return 0.0;
  };
  std::map<AttributeRef, const Match*> best;
  auto consider = [&best](const Match& m) {
    auto [it, inserted] = best.try_emplace(m.target, &m);
    if (!inserted && m.confidence > it->second->confidence) it->second = &m;
  };
  for (const Match& m : pool.base_matches) consider(m);
  for (const Match& vm : pool.view_matches) {
    if (vm.confidence >= linear_base(vm) + omega) consider(vm);
  }
  std::multiset<std::string> expected;
  for (const auto& [target, m] : best) expected.insert(m->ToString());

  SelectionResult r = SelectMultiTable(pool, omega);
  std::multiset<std::string> actual;
  for (const Match& m : r.matches) actual.insert(m.ToString());
  EXPECT_EQ(actual, expected);
}

TEST(SelectMatchesTest, QualTableTauRefilter) {
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("s", "a", "t", "x", 0.5));
  pool.base_matches.push_back(MkMatch("s", "b", "t", "y", 0.5));
  Condition cond = Condition::Equals("k", I(1));
  pool.view_matches.push_back(MkMatch("s", "a", "t", "x", 0.95, cond));
  pool.view_matches.push_back(MkMatch("s", "b", "t", "y", 0.3, cond));
  pool.candidate_views.emplace_back("v", "s", cond);
  SelectionResult r = SelectQualTable(pool, 0.1, true, 0.5);
  // Only the confident pair survives the tau refilter.
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].source.attribute, "a");
}

TEST(SelectMatchesTest, EmptyPoolYieldsEmptyResult) {
  ScoredPool pool;
  EXPECT_TRUE(SelectQualTable(pool, 0.1, true, 0.5).matches.empty());
  EXPECT_TRUE(SelectMultiTable(pool, 0.1).matches.empty());
}

// ---------------------------------------------------------- ContextMatch

TEST(ContextMatchTest, FindsCorrectViewsOnRetail) {
  RetailOptions d;
  d.num_items = 300;
  d.gamma = 2;
  d.seed = 31;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.early_disjuncts = true;
  o.omega = 0.05;
  o.seed = 32;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  ASSERT_EQ(r.selected_views.size(), 2u);
  std::set<std::string> conditions;
  for (const View& v : r.selected_views) {
    conditions.insert(v.condition().ToString());
  }
  EXPECT_TRUE(conditions.count("ItemType = 'Book1'"));
  EXPECT_TRUE(conditions.count("ItemType = 'CD1'"));
  MatchQuality q = EvaluateMatches(data.truth, r.matches);
  EXPECT_GT(q.fmeasure, 0.8);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
}

TEST(ContextMatchTest, PhaseTimersPopulated) {
  RetailOptions d;
  d.num_items = 150;
  d.seed = 33;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.seed = 34;
  o.omega = 0.1;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  EXPECT_GT(r.phases.Seconds("standard_match"), 0.0);
  EXPECT_GT(r.TotalSeconds(), 0.0);
}

TEST(ContextMatchTest, DeterministicGivenSeeds) {
  RetailOptions d;
  d.num_items = 150;
  d.seed = 35;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.seed = 36;
  o.omega = 0.1;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult a = MatchEngine(o).Execute(request).result;
  ContextMatchResult b = MatchEngine(o).Execute(request).result;
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].ToString(), b.matches[i].ToString());
  }
}

TEST(ContextMatchTest, PoolContainsConditionalVersionsOfAcceptedMatches) {
  RetailOptions d;
  d.num_items = 200;
  d.seed = 37;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.seed = 38;
  o.omega = 0.1;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  ASSERT_FALSE(r.pool.candidate_views.empty());
  // Every view match corresponds to some base match's attribute pair.
  for (const Match& vm : r.pool.view_matches) {
    bool found = false;
    for (const Match& base : r.pool.base_matches) {
      if (base.source == vm.source && base.target == vm.target) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << vm.ToString();
  }
  // Expected cardinality: per candidate view, one rescored match per base
  // match of its table.
  EXPECT_EQ(r.pool.view_matches.size(),
            r.pool.candidate_views.size() * r.pool.base_matches.size());
}

TEST(ConjunctiveContextMatchTest, FindsTwoAttributeCondition) {
  // Source: inventory with type (book/cd) and fiction flag; target:
  // a fiction-books table and a music table.  The correct condition for the
  // fiction table is type='book' AND fiction=1, discoverable only at
  // stage 2.
  Rng rng(39);
  std::vector<Row> src_rows, fiction_rows, music_rows;
  for (int i = 0; i < 300; ++i) {
    bool is_book = rng.NextBernoulli(0.5);
    bool fiction = rng.NextBernoulli(0.5);
    std::string title = is_book ? MakeBookTitle(rng) : MakeAlbumTitle(rng);
    // Fiction titles carry a distinctive marker vocabulary.
    if (is_book && fiction) title += " saga of dragons";
    if (is_book && !fiction) title += " a practical handbook";
    src_rows.push_back({S(is_book ? "book" : "cd"), I(fiction ? 1 : 0),
                        S(title.c_str()),
                        S(is_book ? MakePersonName(rng).c_str()
                                  : MakeBandName(rng).c_str())});
  }
  for (int i = 0; i < 150; ++i) {
    fiction_rows.push_back(
        {S((MakeBookTitle(rng) + " saga of dragons").c_str()),
         S(MakePersonName(rng).c_str())});
    music_rows.push_back(
        {S(MakeAlbumTitle(rng).c_str()), S(MakeBandName(rng).c_str())});
  }
  Database source("src");
  source.AddTable(
      MakeTable("inv", {"type", "fiction", "title", "creator"}, src_rows));
  Database target("tgt");
  target.AddTable(MakeTable("fiction_books", {"title", "author"},
                            fiction_rows));
  target.AddTable(MakeTable("music", {"album", "artist"}, music_rows));

  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.early_disjuncts = false;
  o.omega = 0.05;
  o.seed = 40;
  ContextMatchResult staged =
      MatchEngine(o)
          .Execute({.mode = MatchMode::kConjunctive,
                    .max_stages = 2,
                    .source = BorrowDatabase(source),
                    .target = BorrowDatabase(target)})
          .result;
  bool found_conjunction = false;
  for (const View& v : staged.selected_views) {
    if (v.condition().NumAttributes() == 2 &&
        v.condition().MentionsAttribute("type") &&
        v.condition().MentionsAttribute("fiction")) {
      found_conjunction = true;
    }
  }
  EXPECT_TRUE(found_conjunction)
      << "selected views: " << staged.selected_views.size();
}

TEST(ConjunctiveContextMatchTest, SingleStageEqualsContextMatch) {
  RetailOptions d;
  d.num_items = 150;
  d.seed = 41;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.seed = 42;
  o.omega = 0.1;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult a = MatchEngine(o).Execute(request).result;
  ContextMatchResult b =
      MatchEngine(o)
          .Execute({.mode = MatchMode::kConjunctive,
                    .max_stages = 1,
                    .source = BorrowDatabase(data.source),
                    .target = BorrowDatabase(data.target)})
          .result;
  ASSERT_EQ(a.matches.size(), b.matches.size());
  for (size_t i = 0; i < a.matches.size(); ++i) {
    EXPECT_EQ(a.matches[i].ToString(), b.matches[i].ToString());
  }
}

TEST(OptionEnumsTest, Names) {
  EXPECT_STREQ(ViewInferenceKindToString(ViewInferenceKind::kNaive),
               "NaiveInfer");
  EXPECT_STREQ(SelectionPolicyToString(SelectionPolicy::kQualTable),
               "QualTable");
  EXPECT_STREQ(SelectionPolicyToString(SelectionPolicy::kMultiTable),
               "MultiTable");
}

}  // namespace
}  // namespace csm
