// Tests for src/core: ClusteredViewGen, the three InferCandidateViews
// strategies, disjunct merging, SelectContextualMatches, and the
// ContextMatch driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "check/reference.h"
#include "common/random.h"
#include "common/string_util.h"
#include "core/clustered_view_gen.h"
#include "core/match_engine.h"
#include "core/naive_infer.h"
#include "core/src_class_infer.h"
#include "core/tgt_class_infer.h"
#include "datagen/retail_gen.h"
#include "datagen/wordlists.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeColumn;
using testing::MakeTable;
using testing::N;
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

ClassifierFactory SrcFactory() { return SrcClassifierFactory(); }

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
    covered += v.Positions(t).size();
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

/// Three well-separated numeric clusters; `missing` replaces the evidence
/// cell of every fifth "lo" row.
Table NumericEvidenceFixture(const Value& missing) {
  Rng rng(41);
  const char* labels[] = {"lo", "mid", "hi"};
  std::vector<Row> rows;
  for (int i = 0; i < 240; ++i) {
    const int k = i % 3;
    Value x = R(rng.NextGaussian(10.0 + 40.0 * k, 2.0));
    if (k == 0 && i % 5 == 0) x = missing;
    rows.push_back({S(labels[k]), x});
  }
  return MakeTable("t", {"type", "x"}, rows);
}

TEST(ClusteredViewGenTest, NonFiniteEvidenceCellsActLikeNull) {
  // A NaN evidence cell must be skipped like NULL.  Trained on, it would
  // make its label's mean NaN, so the label would never be predicted; as
  // a test row it would classify as "" and count as an error.
  const Table with_nan =
      NumericEvidenceFixture(R(std::numeric_limits<double>::quiet_NaN()));
  const Table with_null = NumericEvidenceFixture(N());
  for (bool early : {false, true}) {
    Rng rng_nan(42), rng_null(42);
    auto a = ClusteredViewGen(with_nan, SrcFactory(), {}, {}, early, rng_nan);
    auto b =
        ClusteredViewGen(with_null, SrcFactory(), {}, {}, early, rng_null);
    ASSERT_FALSE(b.empty());
    ASSERT_EQ(a.size(), b.size()) << "early=" << early;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ToString(), b[i].ToString());
      EXPECT_EQ(a[i].classifier_f1, b[i].classifier_f1);
      EXPECT_EQ(a[i].significance, b[i].significance);
    }
  }
}

TEST(ClusteredViewGenTest, SeparatorByteInLabelKeepsGroupsApart) {
  // "a" and "b" share their evidence, so EarlyDisjuncts merges them.  The
  // merged group {a, b} must stay a different classifier label from the
  // value "a\x1fb", whose rendering holds the byte that joins group members.
  const Value joined = Value::String(std::string("a") + '\x1f' + "b");
  Rng data_rng(31);
  std::vector<Row> rows;
  for (int i = 0; i < 120; ++i) {
    const int k = i % 3;
    rows.push_back({k == 2 ? joined : S(k == 0 ? "a" : "b"),
                    Value::String(k == 2 ? MakeUpc(data_rng)
                                         : MakeBookTitle(data_rng))});
  }
  Table t = MakeTable("t", {"label", "text"}, rows);
  Rng rng(32);
  auto families = ClusteredViewGen(t, SrcFactory(), {}, {}, true, rng);
  const std::set<std::vector<Value>> expected = {{S("a"), S("b")}, {joined}};
  bool found = false;
  for (const ViewFamily& family : families) {
    std::set<std::vector<Value>> groups;
    for (const View& v : family.views) {
      groups.insert(v.condition().clauses()[0].values);
    }
    if (groups == expected) found = true;
  }
  EXPECT_TRUE(found);
}

/// A label value as its integer rendering, whatever type stores it.
std::string IntegerText(const Value& v) {
  return v.IsNumeric() ? std::to_string(static_cast<int64_t>(v.AsNumeric()))
                       : v.AsString();
}

TEST(ClusteredViewGenTest, LabelTypeDoesNotChangeFamilies) {
  // One five-value label column stored as int, as real and as string.
  // Values 4 and 5 share their evidence (string and real columns) and every
  // seventh label is NULL.  Partitions, F1 and significance must not depend
  // on the label type.
  Rng data_rng(41);
  std::vector<int> labels;
  std::vector<std::string> texts;
  std::vector<double> prices;
  for (int i = 0; i < 250; ++i) {
    const int label = i % 7 == 6 ? 0 : 1 + i % 5;  // 0 = NULL
    const int kind = std::min(label, 4);
    labels.push_back(label);
    texts.push_back(kind == 1   ? MakeBookTitle(data_rng)
                    : kind == 2 ? MakeUpc(data_rng)
                    : kind == 3 ? MakeAlbumTitle(data_rng)
                                : MakePersonName(data_rng));
    prices.push_back(data_rng.NextGaussian(10.0 * kind, 2.0));
  }
  auto run = [&](ValueType label_type) {
    std::vector<Row> rows;
    for (size_t i = 0; i < labels.size(); ++i) {
      const int l = labels[i];
      const Value label = l == 0                          ? N()
                          : label_type == ValueType::kInt ? I(l)
                          : label_type == ValueType::kReal
                              ? R(l)
                              : Value::String(std::to_string(l));
      rows.push_back({label, Value::String(texts[i]), R(prices[i])});
    }
    Table t = MakeTable("t", {"label", "text", "price"}, rows);
    EXPECT_EQ(t.schema().attribute(0).type, label_type);
    Rng rng(42);
    std::vector<std::string> out;
    for (const ViewFamily& family :
         ClusteredViewGen(t, SrcFactory(), {}, {}, true, rng, {"label"},
                          {"text", "price"})) {
      std::string line = family.evidence_attribute + ":";
      for (const View& view : family.views) {
        line += " {";
        for (const Value& v : view.condition().clauses()[0].values) {
          line += IntegerText(v) + ",";
        }
        line += "}";
      }
      line += StrFormat(" f1=%.17g sig=%.17g", family.classifier_f1,
                        family.significance);
      out.push_back(line);
    }
    return out;
  };
  const std::vector<std::string> as_int = run(ValueType::kInt);
  ASSERT_FALSE(as_int.empty());
  EXPECT_TRUE(std::any_of(as_int.begin(), as_int.end(), [](const auto& line) {
    return line.find("{4,5,}") != std::string::npos;
  }));
  EXPECT_EQ(run(ValueType::kReal), as_int);
  EXPECT_EQ(run(ValueType::kString), as_int);
}

TEST(ClusteredViewGenTest, RealsThatRenderAlikeAreTwoLabels) {
  // 0.1234561 and 0.1234564 both render "0.123456" but are two values of
  // l.  They share their evidence (book titles), so the classifier confuses
  // them and EarlyDisjuncts merges them into one view; 0.5 (UPCs) stays
  // apart.  Were the two one classifier label, they would never be
  // confused and never merged.
  const Value lo = R(0.1234561), hi = R(0.1234564), half = R(0.5);
  ASSERT_EQ(lo.ToString(), hi.ToString());
  Rng data_rng(33);
  std::vector<Row> rows;
  for (int i = 0; i < 240; ++i) {
    const int k = i % 3;
    rows.push_back({k == 0 ? lo : k == 1 ? hi : half,
                    Value::String(k == 2 ? MakeUpc(data_rng)
                                         : MakeBookTitle(data_rng))});
  }
  Table t = MakeTable("t", {"w", "text"}, rows);
  Rng rng(34);
  auto families = ClusteredViewGen(t, SrcFactory(), {}, {}, true, rng);
  const std::set<std::vector<Value>> expected = {{lo, hi}, {half}};
  bool found = false;
  for (const ViewFamily& family : families) {
    std::set<std::vector<Value>> groups;
    for (const View& v : family.views) {
      groups.insert(v.condition().clauses()[0].values);
    }
    if (groups == expected) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ClusteredViewGenTest, ExactTieBetweenNineAndTenGoesToTen) {
  // Groups are numbered by their members' renderings: "10" < "9", so {10}
  // gets the lower label and wins an exact classifier tie, although 9
  // precedes 10 in Value order (atom 0).
  const LabelAtoms atoms({I(9), I(10)});
  const std::vector<AtomGroup> groups = {{0}, {1}};
  const std::vector<LabelId> labels = NumberGroups(atoms, groups);
  EXPECT_EQ(labels, (std::vector<LabelId>{1, 0}));
  const Column cells = MakeColumn(ValueType::kString, {S("same")});
  check::NaiveBayesClassifier nb;
  for (size_t g = 0; g < groups.size(); ++g) nb.Train(cells, 0, labels[g]);
  const LabelId winner = nb.Classify(cells, 0);
  ASSERT_EQ(winner, labels[1]);
  EXPECT_EQ(atoms.value(groups[1][0]), I(10));
}

TEST(ClusteredViewGenTest, GroupOrderFollowsRenderingsThenValues) {
  // Renderings order element by element with a prefix first; groups whose
  // renderings are all equal fall back to Value order.
  const LabelAtoms atoms({R(0.1234561), R(0.1234564), I(1), I(9), I(10)});
  EXPECT_LT(atoms.Key({2}), atoms.Key({2, 3}));  // "1" before "1","9"
  EXPECT_LT(atoms.Key({2, 3}), atoms.Key({4}));  // "1" before "10"
  EXPECT_LT(atoms.Key({4}), atoms.Key({3}));     // "10" before "9"
  EXPECT_LT(atoms.Key({0}), atoms.Key({1}));     // alike: Value order
  EXPECT_EQ(atoms.Key({0, 1}), atoms.Key({0, 1}));
  EXPECT_EQ(MakeFamilyKey("l", atoms, {{3}, {2, 4}}),
            MakeFamilyKey("l", atoms, {{2, 4}, {3}}));
  EXPECT_LT(MakeFamilyKey("l", atoms, {{2}, {3, 4}}),
            MakeFamilyKey("l", atoms, {{2, 4}, {3}}));
}

// ------------------------------------------- per-cell models (CellModel)

/// A hand-built cell over one evidence column: cells appended in order,
/// each a train or test row of an atom.
struct HandCell {
  Column h;
  CellRows rows;

  explicit HandCell(ValueType type) : h(type) {}

  void Add(const Value& cell, AtomId atom, bool train, size_t copies = 1) {
    for (size_t k = 0; k < copies; ++k) {
      (train ? rows.train : rows.test)
          .push_back({static_cast<RowId>(h.size()), atom});
      h.Append(cell);
    }
  }
};

/// TgtClassInfer's models where the target has no column of the evidence's
/// type: every cell tags kNoLabel.
ClassifierFactory TgtModelsWithoutTagger() {
  return [](const Column& h, const CellRows& rows, size_t num_atoms) {
    return std::make_unique<BestCatCellModel>(
        std::vector<LabelId>(h.size(), kNoLabel), rows, num_atoms);
  };
}

TEST(CellModelTest, GroupWithoutTrainRowsHasNoModelEntry) {
  // Atom 1 ("m") shows up only in test rows: it gets no Naive Bayes column
  // and no share of the prior's label count (two trained groups, not
  // three), no Gaussian and no bestCAT frequency, so no test row is ever
  // predicted as it; every cycle matches a classifier retrained on the
  // same rows.
  const LabelAtoms atoms({S("a"), S("m"), S("z")});
  HandCell text(ValueType::kString);
  text.Add(S("apple pie"), 0, true, 3);
  text.Add(S("zebra"), 2, true, 2);
  text.Add(S("apple"), 1, false, 2);
  text.Add(S("zebra crossing"), 1, false);
  text.Add(S("apple pie"), 0, false);
  text.Add(S("zebra"), 2, false);
  HandCell numbers(ValueType::kReal);
  numbers.Add(R(1.5), 0, true);
  numbers.Add(R(2.5), 0, true);
  numbers.Add(R(9.0), 2, true);
  numbers.Add(R(8.5), 1, false);
  numbers.Add(R(2.0), 0, false);
  for (const HandCell* cell : {&text, &numbers}) {
    const std::unique_ptr<CellModel> model =
        SrcClassifierFactory()(cell->h, cell->rows, atoms.size());
    std::vector<LabelId> predicted;
    model->PredictAll({0, 1, 2}, &predicted);
    for (uint32_t item = 0; item < model->num_items(); ++item) {
      EXPECT_EQ(model->Score(item, 1),
                -std::numeric_limits<double>::infinity());
      EXPECT_NE(predicted[item], 1u);
    }
    const Status status = check::CompareCellModelCycles(
        cell->h, cell->rows, atoms, SrcClassifierFactory(),
        check::ReferenceSrcClassifiers(), true);
    EXPECT_TRUE(status.ok()) << status.ToString();
    const Status tags = check::CompareCellModelCycles(
        cell->h, cell->rows, atoms, TgtModelsWithoutTagger(),
        check::ReferenceTgtClassifiers(nullptr, nullptr), true);
    EXPECT_TRUE(tags.ok()) << tags.ToString();
  }
  // The prior of "a" counts two trained labels: log((3 + 1) / (5 + 2)).
  check::NaiveBayesClassifier nb;
  for (const AtomRow& row : text.rows.train) {
    nb.Train(text.h, row.pos, row.atom == 0 ? 0 : 1);
  }
  const std::unique_ptr<CellModel> model =
      SrcClassifierFactory()(text.h, text.rows, atoms.size());
  EXPECT_EQ(model->Score(0, 0), nb.LogScore(text.h, model->item_row(0), 0));
}

TEST(CellModelTest, EvidenceOnlyMissingAtomMatchesTheReferenceLoop) {
  // Every "c" row's evidence is NULL, so "c" trains and tests nowhere; the
  // emitted families equal the retrain-per-cycle loop's, Late and Early.
  std::vector<Row> rows;
  for (int i = 0; i < 60; ++i) {
    const char* label = i % 3 == 0 ? "a" : i % 3 == 1 ? "b" : "c";
    const bool missing = i % 3 == 2;
    rows.push_back({S(label),
                    missing ? N() : S(StrFormat("%s%d", label, i % 4).c_str()),
                    missing ? N() : R(i % 3 + 0.25 * (i % 5))});
  }
  const Table t = MakeTable("t", {"l", "text", "x"}, rows);
  for (bool early : {false, true}) {
    Rng rng(5);
    Rng reference_rng(5);
    const auto families = ClusteredViewGen(t, SrcClassifierFactory(), {}, {},
                                           early, rng, {"l"}, {"text", "x"});
    const auto expected = check::ReferenceClusteredViewGen(
        t, check::ReferenceSrcClassifiers(), {}, {}, early, reference_rng,
        {"l"}, {"text", "x"});
    ASSERT_EQ(families.size(), expected.size());
    for (size_t f = 0; f < families.size(); ++f) {
      EXPECT_EQ(families[f].evidence_attribute,
                expected[f].evidence_attribute);
      EXPECT_EQ(families[f].views.size(), expected[f].views.size());
      EXPECT_EQ(std::bit_cast<uint64_t>(families[f].classifier_f1),
                std::bit_cast<uint64_t>(expected[f].classifier_f1));
      EXPECT_EQ(std::bit_cast<uint64_t>(families[f].significance),
                std::bit_cast<uint64_t>(expected[f].significance));
    }
  }
}

TEST(CellModelTest, MergedTieGoesToTheMoreFrequentGroup) {
  // "a1" (no train row) and "a2" (one "b") merge first: a1's "b" test rows
  // go to a2.  The merged group {a1, a2} (label 0: 1 example, "b") and "z"
  // (label 1: 3 "cde" and 12 gram-free "!" examples) then score alike on
  // one-letter probes (3 unseen grams): log(2/17) - 3 log 12 equals
  // log(16/17) - 3 log 24.  The tie goes to the more frequent "z".
  const LabelAtoms atoms({S("a1"), S("a2"), S("z")});
  HandCell cell(ValueType::kString);
  cell.Add(S("b"), 1, true);
  cell.Add(S("cde"), 2, true, 3);
  cell.Add(S("!"), 2, true, 12);
  cell.Add(S("b"), 0, false, 3);
  cell.Add(S("cde"), 2, false);
  cell.Add(S("f"), 0, false);
  cell.Add(S("g"), 2, false);
  const Status status = check::CompareCellModelCycles(
      cell.h, cell.rows, atoms, SrcClassifierFactory(),
      check::ReferenceSrcClassifiers(), true);
  EXPECT_TRUE(status.ok()) << status.ToString();
  const std::unique_ptr<CellModel> model =
      SrcClassifierFactory()(cell.h, cell.rows, atoms.size());
  model->Merge(0, 1);  // the merge the loop makes: {a1, a2}, {z}
  const uint32_t probe = model->num_items() - 2;
  ASSERT_EQ(cell.h.GetValue(model->item_row(probe)), S("f"));
  EXPECT_EQ(model->Score(probe, 0), model->Score(probe, 1));
  std::vector<LabelId> predicted;
  model->PredictAll({0, 1}, &predicted);
  EXPECT_EQ(predicted[probe], 1u);
}

TEST(CellModelTest, MergedTieOfEqualGroupsGoesToTheLowerGroupKey) {
  // Atoms 9, 10, 11 render "9" last, so the labels are 10 -> 0, 11 -> 1,
  // 9 -> 2.  9 and 11 each train one "y" and tie, so 9's test row goes to
  // 11 and {9, 11} merges at group index 0, leaving {10} at index 1.  The
  // two groups then tie exactly (two 3-gram examples each) on an unseen
  // probe, and the tie goes to {10}: the lower GroupKey rank (label 0),
  // though the higher group index.
  const LabelAtoms atoms({I(9), I(10), I(11)});
  HandCell cell(ValueType::kString);
  cell.Add(S("y"), 0, true);
  cell.Add(S("x"), 1, true, 2);
  cell.Add(S("y"), 2, true);
  cell.Add(S("y"), 0, false);
  cell.Add(S("y"), 2, false);
  cell.Add(S("x"), 1, false);
  cell.Add(S("z"), 0, false);
  const Status status = check::CompareCellModelCycles(
      cell.h, cell.rows, atoms, SrcClassifierFactory(),
      check::ReferenceSrcClassifiers(), true);
  EXPECT_TRUE(status.ok()) << status.ToString();
  std::vector<AtomGroup> groups = {{0}, {1}, {2}};
  MergeGroups(0, 2, &groups);
  EXPECT_EQ(NumberGroups(atoms, groups), (std::vector<LabelId>{1, 0}));
  const std::unique_ptr<CellModel> model =
      SrcClassifierFactory()(cell.h, cell.rows, atoms.size());
  model->Merge(0, 2);
  const uint32_t probe = model->num_items() - 1;
  EXPECT_EQ(model->Score(probe, 0), model->Score(probe, 1));
  std::vector<LabelId> predicted;
  model->PredictAll({1, 0}, &predicted);  // label 0 is group 1, {10}
  EXPECT_EQ(predicted[probe], 0u);
}

TEST(CellModelTest, GaussianMergeRefoldsRowsInTrainOrder) {
  // Atoms 0 and 1 interleave in train-row order.  Folding the merged
  // group's values in that order (what a retrained classifier does) gives
  // other bits than DescriptiveStats::Merge of the two atoms' folds; the
  // model refolds, so its scores equal the retrained classifier's.
  const double values[] = {0.1, 0.1, 0.1, 0.3, 1.1, 0.35};
  const AtomId atom_of[] = {0, 1, 0, 1, 0, 2};
  HandCell cell(ValueType::kReal);
  DescriptiveStats parts[2];
  DescriptiveStats refold;
  for (size_t k = 0; k < std::size(values); ++k) {
    cell.Add(R(values[k]), atom_of[k], true);
    if (atom_of[k] < 2) {
      parts[atom_of[k]].Add(values[k]);
      refold.Add(values[k]);
    }
  }
  cell.Add(R(0.5), 0, false);
  cell.Add(R(0.4), 2, false);
  DescriptiveStats merged = parts[0];
  merged.Merge(parts[1]);
  EXPECT_NE(std::bit_cast<uint64_t>(merged.SampleStdDev()),
            std::bit_cast<uint64_t>(refold.SampleStdDev()));
  EXPECT_NE(std::bit_cast<uint64_t>(merged.Mean()),
            std::bit_cast<uint64_t>(refold.Mean()));

  const std::unique_ptr<CellModel> model =
      SrcClassifierFactory()(cell.h, cell.rows, 3);
  model->Merge(0, 1);
  check::GaussianClassifier retrained;
  for (const AtomRow& row : cell.rows.train) {
    retrained.Train(cell.h, row.pos, row.atom < 2 ? 0 : 1);
  }
  for (uint32_t item = 0; item < model->num_items(); ++item) {
    const double x = cell.h.reals()[model->item_row(item)];
    for (LabelId group = 0; group < 2; ++group) {
      EXPECT_EQ(std::bit_cast<uint64_t>(model->Score(item, group)),
                std::bit_cast<uint64_t>(retrained.LogScore(x, group)));
    }
    const double merged_score =
        GaussianLabel::Of(merged, cell.rows.train.size()).LogScore(x);
    EXPECT_NE(std::bit_cast<uint64_t>(model->Score(item, 0)),
              std::bit_cast<uint64_t>(merged_score));
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

TEST(NaiveInferTest, KeepsRealViewsThatRenderAlike) {
  // Both values render as "0.123456"; they are two values and two views.
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({R(i % 2 == 0 ? 0.1234561 : 0.1234564)});
  }
  Table t = MakeTable("t", {"w"}, rows);
  NaiveInfer infer({}, 12, 50);
  MatchList matches(1);
  InferenceInput input;
  input.source_sample = t;
  input.matches = &matches;
  Rng rng(23);
  const auto candidates = infer.InferCandidateViews(input, rng);
  ASSERT_EQ(candidates.size(), 2u);
  EXPECT_EQ(candidates[0].view.condition().ToString(),
            candidates[1].view.condition().ToString());
  EXPECT_EQ(candidates[0].view.Positions(t).size(), 20u);
  EXPECT_EQ(candidates[1].view.Positions(t).size(), 20u);
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
  const Column cells = MakeColumn(ValueType::kString,
                                  {S("x"), S("y"), S("z"), S("anything")});
  check::TgtTagClassifier classifier(nullptr);  // every input tags as kNoLabel
  classifier.Train(cells, 0, 1);
  classifier.Train(cells, 1, 1);
  classifier.Train(cells, 2, 2);
  // The tag was seen 3 times; label 1 twice, label 2 once.
  // score(tag, 1) = (2/3)*(2/2) = 0.667; score(tag, 2) = (1/3)*(1/1).
  EXPECT_NEAR(classifier.Score(kNoLabel, 1), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(classifier.Score(kNoLabel, 2), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(classifier.Score(kNoLabel, 0), 0.0);
  EXPECT_EQ(classifier.BestCat(kNoLabel), 1u);
  EXPECT_EQ(classifier.BestCat(7), 1u);  // unseen tag: most common
  EXPECT_EQ(classifier.Classify(cells, 3), 1u);
}

TEST(TgtTagClassifierTest, UnseenTagTieGoesToLowerId) {
  const Column cells = MakeColumn(ValueType::kString, {S("x")});
  check::TgtTagClassifier classifier(nullptr);
  EXPECT_EQ(classifier.Classify(cells, 0), kNoLabel);  // untrained
  for (LabelId label : {6u, 4u, 6u, 4u}) classifier.Train(cells, 0, label);
  EXPECT_EQ(classifier.BestCat(3), 4u);
}

TEST(TgtTagClassifierTest, DistinctTagsSeparateLabels) {
  // Hand-built tagger: a trained NB that tags book-ish text 0 and digits 1.
  // Even rows hold book titles, odd rows UPCs: rows 0..59 train the
  // tagger, rows 60..119 the wrapper, 120..121 probe.
  constexpr LabelId kBook = 0, kCd = 1;
  Rng rng(25);
  Column text(ValueType::kString);
  for (int i = 0; i < 61; ++i) {
    text.Append(Value::String(MakeBookTitle(rng)));
    text.Append(Value::String(MakeUpc(rng)));
  }
  auto tagger = std::make_shared<check::NaiveBayesClassifier>();
  for (size_t r = 0; r < 60; ++r) tagger->Train(text, r, r % 2);
  check::TgtTagClassifier classifier(tagger);
  for (size_t r = 60; r < 120; ++r) {
    classifier.Train(text, r, r % 2 == 0 ? kBook : kCd);
  }
  EXPECT_EQ(classifier.Classify(text, 120), kBook);
  EXPECT_EQ(classifier.Classify(text, 121), kCd);
}

/// The tags TargetTags gives the cells of `source`'s attributes `evidence`,
/// by attribute then row.
std::vector<std::vector<LabelId>> TagsOf(
    const Table& source, const std::vector<std::string>& evidence,
    const Database& target) {
  const TargetTags tags(source, evidence, target);
  std::vector<std::vector<LabelId>> out;
  for (const std::string& name : evidence) {
    out.push_back(
        tags.Of(source.column(source.schema().AttributeIndex(name))));
  }
  return out;
}

TEST(CreateTargetClassifierTest, TrainsOnMatchingTypeOnly) {
  // Labels rank the columns of each type family by "table.attr":
  // albums.name (0) < books.title (1), albums.year (0) < books.cost (1).
  Database target("tgt");
  target.AddTable(MakeTable("books", {"title", "cost"},
                            {{S("the silent river"), R(12.0)},
                             {S("a winter garden"), R(15.0)}}));
  target.AddTable(MakeTable("albums", {"name", "year"},
                            {{S("velvet thunder"), I(1990)},
                             {S("neon wolves"), I(1994)}}));
  const Table source =
      MakeTable("src", {"text", "number"},
                {{S("the silent garden"), R(13.0)},
                 {S("velvet wolves"), R(1992.0)},
                 {N(), R(std::numeric_limits<double>::quiet_NaN())}});
  const auto tags = TagsOf(source, {"text", "number"}, target);
  EXPECT_EQ(tags[0], (std::vector<LabelId>{1, 0, kNoLabel}));
  EXPECT_EQ(tags[1], (std::vector<LabelId>{1, 0, kNoLabel}));
}

TEST(CreateTargetClassifierTest, ColumnsWhoseNamesCoincideAreTwoLabels) {
  // "a.b" + "c" and "a" + "b.c" both name "a.b.c"; they stay two labels,
  // numbered in table order.
  Rng rng(26);
  std::vector<Row> titles, upcs;
  for (int i = 0; i < 30; ++i) {
    titles.push_back({Value::String(MakeBookTitle(rng))});
    upcs.push_back({Value::String(MakeUpc(rng))});
  }
  Database target("tgt");
  target.AddTable(MakeTable("a.b", {"c"}, titles));
  target.AddTable(MakeTable("a", {"b.c"}, upcs));
  const Table source =
      MakeTable("src", {"text"},
                {{Value::String(MakeBookTitle(rng))},
                 {Value::String(MakeUpc(rng))}});
  EXPECT_EQ(TagsOf(source, {"text"}, target)[0],
            (std::vector<LabelId>{0, 1}));
}

TEST(CreateTargetClassifierTest, NullWhenNoAttributeOfType) {
  // No numeric target column: every numeric evidence cell tags kNoLabel.
  Database target("tgt");
  target.AddTable(MakeTable("t", {"s"}, {{S("x")}}));
  const Table source = MakeTable("src", {"number"}, {{R(1.5)}, {R(2.5)}});
  EXPECT_EQ(TagsOf(source, {"number"}, target)[0],
            (std::vector<LabelId>{kNoLabel, kNoLabel}));
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

TEST(ViewInferenceTest, DeduplicateKeepsQuotedInListsApart) {
  // The first IN-list holds the single value "a', 'b"; the two conditions
  // select different rows and must both survive.
  CandidateView quoted, plain;
  quoted.view = View("v1", "t", Condition::In("x", {S("a', 'b"), S("c")}));
  plain.view = View("v2", "t", Condition::In("x", {S("a"), S("b"), S("c")}));
  EXPECT_EQ(DeduplicateCandidates({quoted, plain}).size(), 2u);
}

TEST(ViewInferenceTest, DeduplicateKeepsRealsThatRenderAlike) {
  CandidateView a, b;
  a.view = View("v1", "t", Condition::Equals("w", R(0.1234561)));
  b.view = View("v2", "t", Condition::Equals("w", R(0.1234564)));
  ASSERT_EQ(a.view.condition().ToString(), b.view.condition().ToString());
  EXPECT_EQ(DeduplicateCandidates({a, b}).size(), 2u);
}

TEST(ViewInferenceTest, DeduplicateMergesSignedZeros) {
  // -0.0 == 0.0: one condition, rendered two ways.
  CandidateView a, b;
  a.view = View("v1", "t", Condition::Equals("x", R(-0.0)));
  b.view = View("v2", "t", Condition::Equals("x", R(0.0)));
  ASSERT_NE(a.view.condition().ToString(), b.view.condition().ToString());
  const auto out = DeduplicateCandidates({a, b});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].view.name(), "v1");
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

TEST(SelectMatchesTest, QualTableEarlyExactTieFallsToViewIdOrder) {
  // Same total, same rows: the typed order picks k = 9, which renders
  // after "k = 10".
  ScoredPool pool;
  pool.base_matches.push_back(MkMatch("s", "a", "t", "x", 0.5));
  for (int64_t k : {10, 9}) {
    Condition cond = Condition::Equals("k", I(k));
    pool.view_matches.push_back(MkMatch("s", "a", "t", "x", 0.9, cond));
    pool.candidate_views.emplace_back("v" + std::to_string(k), "s", cond);
    pool.view_row_counts[ViewId{"s", cond}] = 12;
  }
  SelectionResult r = SelectQualTable(pool, 0.15, true, 0.5);
  ASSERT_EQ(r.selected_views.size(), 1u);
  EXPECT_EQ(r.selected_views[0].name(), "v9");
  ASSERT_EQ(r.matches.size(), 1u);
  EXPECT_EQ(r.matches[0].condition, Condition::Equals("k", I(9)));
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
