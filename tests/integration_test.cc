// Integration and property tests: end-to-end pipelines over both paper
// workloads, plus parameterized invariant sweeps.

#include <gtest/gtest.h>

#include <set>
#include <type_traits>

#include "core/match_engine.h"
#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"
#include "mapping/clio.h"

namespace csm {
namespace {

// ------------------------------------------------- End-to-end: Retail

TEST(IntegrationTest, RetailEndToEndAllTargets) {
  for (RetailTarget target : {RetailTarget::kRyanEyers,
                              RetailTarget::kAaronDay,
                              RetailTarget::kBarrettArney}) {
    RetailOptions d;
    d.num_items = 300;
    d.gamma = 2;
    d.target = target;
    d.seed = 51;
    RetailDataset data = MakeRetailDataset(d);
    ContextMatchOptions o;
    o.omega = 0.05;
    o.inference = ViewInferenceKind::kSrcClass;
    o.seed = 52;
    const MatchRequest request{.source = BorrowDatabase(data.source),
                               .target = BorrowDatabase(data.target)};
    ContextMatchResult r = MatchEngine(o).Execute(request).result;
    MatchQuality q = EvaluateMatches(data.truth, r.matches);
    EXPECT_GT(q.fmeasure, 0.6) << RetailTargetToString(target);
    EXPECT_GT(q.precision, 0.8) << RetailTargetToString(target);
  }
}

TEST(IntegrationTest, RetailTgtClassInferAlsoWorks) {
  RetailOptions d;
  d.num_items = 300;
  d.gamma = 4;
  d.seed = 53;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.inference = ViewInferenceKind::kTgtClass;
  o.early_disjuncts = true;
  o.seed = 54;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  MatchQuality q = EvaluateMatches(data.truth, r.matches);
  EXPECT_GT(q.fmeasure, 0.7);
}

TEST(IntegrationTest, CorrelatedChameleonsNeverEnterGroundTruth) {
  RetailOptions d;
  d.num_items = 300;
  d.correlated_attributes = 3;
  d.rho = 0.95;
  d.seed = 55;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.seed = 56;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  // Any match conditioned on a CorrType attribute must be judged incorrect.
  for (const Match& m : r.matches) {
    if (m.condition.is_true()) continue;
    if (m.condition.MentionsAttribute("CorrType1") ||
        m.condition.MentionsAttribute("CorrType2") ||
        m.condition.MentionsAttribute("CorrType3")) {
      EXPECT_FALSE(IsCorrectMatch(data.truth, m));
    }
  }
}

// ------------------------------------------------- End-to-end: Grades

TEST(IntegrationTest, GradesAttributeNormalizationEndToEnd) {
  GradesOptions g;
  g.num_students = 100;
  g.sigma = 4.0;
  g.seed = 57;
  GradesDataset data = MakeGradesDataset(g);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.early_disjuncts = false;  // one view per exam must survive
  o.inference = ViewInferenceKind::kSrcClass;
  o.seed = 58;
  ClioQualTableResult r = ClioQualTable(data.source, data.target, o);

  // Match quality.
  MatchQuality q = EvaluateMatches(data.truth, r.match_result.matches);
  EXPECT_GT(q.fmeasure, 0.8);

  // The mapping must join the selected exam views on name via join 1.
  ASSERT_FALSE(r.mapping.queries.empty());
  bool has_multi_view_query = false;
  for (const MappingQuery& query : r.mapping.queries) {
    if (query.logical.relations.size() >= 2) {
      has_multi_view_query = true;
      for (const JoinEdge& edge : query.logical.joins) {
        EXPECT_EQ(edge.rule, JoinRuleKind::kJoin1);
        EXPECT_EQ(edge.left_attributes, std::vector<std::string>{"name"});
      }
    }
  }
  EXPECT_TRUE(has_multi_view_query);

  // Executing the mapping yields one row per student with the selected
  // exams' grades promoted to columns.
  auto executed = ExecuteMappings(r.mapping.queries, data.source,
                                  r.mapping.views, data.target.GetSchema());
  ASSERT_TRUE(executed.ok());
  const Table& wide = executed->GetTable("grades_wide");
  EXPECT_EQ(wide.num_rows(), 100u);
  // At least 4 of the 5 grade columns populated for the first row.
  size_t populated = 0;
  for (size_t c = 1; c < wide.schema().num_attributes(); ++c) {
    if (!wide.ValueAt(0, c).is_null()) ++populated;
  }
  EXPECT_GE(populated, 4u);
}

TEST(IntegrationTest, GradesViewsCarryCorrectPerExamMatches) {
  GradesOptions g;
  g.num_students = 120;
  g.sigma = 3.0;
  g.seed = 59;
  GradesDataset data = MakeGradesDataset(g);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.early_disjuncts = false;
  o.seed = 60;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  // Every emitted grade->gradeN match must condition on examNum = N.
  for (const Match& m : r.matches) {
    if (m.condition.is_true() || m.source.attribute != "grade") continue;
    const std::string& target_attr = m.target.attribute;  // "gradeN"
    ASSERT_EQ(m.condition.NumAttributes(), 1u);
    ASSERT_EQ(m.condition.clauses()[0].values.size(), 1u);
    int64_t exam = m.condition.clauses()[0].values[0].AsInt();
    EXPECT_EQ(target_attr, "grade" + std::to_string(exam)) << m.ToString();
  }
}

// ----------------------------------------------------- Property sweeps

/// Invariant: the selected matches are always a subset of the scored pool,
/// selected views are among the candidates, and evaluation metrics are in
/// range — across a grid of option combinations.
struct PipelineParam {
  ViewInferenceKind inference;
  SelectionPolicy selection;
  // An int, not a bool: gtest names each case after the parameter's bytes,
  // and a struct with no padding bytes prints the same on every run.
  int early;
};
static_assert(std::has_unique_object_representations_v<PipelineParam>);

class PipelinePropertyTest : public ::testing::TestWithParam<PipelineParam> {};

TEST_P(PipelinePropertyTest, InvariantsHold) {
  PipelineParam p = GetParam();
  RetailOptions d;
  d.num_items = 200;
  d.gamma = 4;
  d.seed = 61;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.inference = p.inference;
  o.selection = p.selection;
  o.early_disjuncts = p.early;
  o.omega = 0.05;
  o.seed = 62;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;

  std::set<std::string> candidate_keys;
  for (const View& v : r.pool.candidate_views) {
    candidate_keys.insert(v.base_table() + "|" + v.condition().ToString());
  }
  for (const View& v : r.selected_views) {
    EXPECT_TRUE(candidate_keys.count(v.base_table() + "|" +
                                     v.condition().ToString()))
        << v.ToString();
  }
  for (const Match& m : r.matches) {
    EXPECT_GE(m.confidence, 0.0);
    EXPECT_LE(m.confidence, 1.0);
    if (!m.condition.is_true()) {
      EXPECT_TRUE(candidate_keys.count(m.source.table + "|" +
                                       m.condition.ToString()))
          << m.ToString();
    }
  }
  MatchQuality q = EvaluateMatches(data.truth, r.matches);
  EXPECT_GE(q.accuracy, 0.0);
  EXPECT_LE(q.accuracy, 1.0);
  EXPECT_GE(q.precision, 0.0);
  EXPECT_LE(q.precision, 1.0);
  EXPECT_LE(q.correct_matches, q.view_matches);
}

INSTANTIATE_TEST_SUITE_P(
    OptionGrid, PipelinePropertyTest,
    ::testing::Values(
        PipelineParam{ViewInferenceKind::kNaive, SelectionPolicy::kQualTable,
                      true},
        PipelineParam{ViewInferenceKind::kNaive, SelectionPolicy::kMultiTable,
                      false},
        PipelineParam{ViewInferenceKind::kSrcClass,
                      SelectionPolicy::kQualTable, true},
        PipelineParam{ViewInferenceKind::kSrcClass,
                      SelectionPolicy::kQualTable, false},
        PipelineParam{ViewInferenceKind::kSrcClass,
                      SelectionPolicy::kMultiTable, true},
        PipelineParam{ViewInferenceKind::kTgtClass,
                      SelectionPolicy::kQualTable, true},
        PipelineParam{ViewInferenceKind::kTgtClass,
                      SelectionPolicy::kQualTable, false}));

/// Invariant: whatever omega is, raising it never *adds* selected views.
class OmegaMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(OmegaMonotonicityTest, HigherOmegaSelectsFewerOrEqualViews) {
  double omega = GetParam();
  RetailOptions d;
  d.num_items = 200;
  d.seed = 63;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions lo;
  lo.omega = omega;
  lo.seed = 64;
  ContextMatchOptions hi = lo;
  hi.omega = omega + 0.1;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r_lo = MatchEngine(lo).Execute(request).result;
  ContextMatchResult r_hi = MatchEngine(hi).Execute(request).result;
  EXPECT_GE(r_lo.selected_views.size(), r_hi.selected_views.size());
}

INSTANTIATE_TEST_SUITE_P(OmegaSweep, OmegaMonotonicityTest,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2, 0.4));

/// Invariant: the materialized views of a selected family never overlap and
/// never exceed the base table.
TEST(IntegrationTest, SelectedViewsPartitionTheirLabelSlices) {
  RetailOptions d;
  d.num_items = 250;
  d.gamma = 4;
  d.seed = 65;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.omega = 0.05;
  o.early_disjuncts = true;
  o.seed = 66;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  const Table& inv = data.source.GetTable("inventory");
  std::set<size_t> claimed;
  for (const View& v : r.selected_views) {
    for (RowId row : v.Positions(inv)) {
      EXPECT_TRUE(claimed.insert(row).second)
          << "row " << row << " claimed twice";
    }
  }
  EXPECT_LE(claimed.size(), inv.num_rows());
}

/// Failure injection: empty source tables and all-null columns must not
/// crash the pipeline.
TEST(IntegrationTest, DegenerateInputsAreHandled) {
  TableSchema schema("empty_table");
  schema.AddAttribute("a", ValueType::kString);
  schema.AddAttribute("b", ValueType::kInt);
  Database source("src");
  source.AddTable(Table(schema));
  TableSchema nulls_schema("nulls");
  nulls_schema.AddAttribute("x", ValueType::kString);
  Table nulls(nulls_schema);
  for (int i = 0; i < 10; ++i) nulls.AddRow({Value::Null()});
  source.AddTable(std::move(nulls));

  RetailOptions d;
  d.num_items = 50;
  d.seed = 67;
  RetailDataset data = MakeRetailDataset(d);

  ContextMatchOptions o;
  o.seed = 68;
  const MatchRequest request{.source = BorrowDatabase(source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  EXPECT_TRUE(r.matches.empty());
}

TEST(IntegrationTest, SingleRowSourceDoesNotCrash) {
  RetailOptions d;
  d.num_items = 1;
  d.seed = 69;
  RetailDataset data = MakeRetailDataset(d);
  ContextMatchOptions o;
  o.seed = 70;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;
  (void)r;  // completing without CHECK failure is the assertion
}

}  // namespace
}  // namespace csm

// Appended: Example 1.2 of the paper — the price table with a prccode
// column ("reg" / "sale") whose rows normalize into separate price and
// sale-price columns of the target music table.
#include "datagen/wordlists.h"

namespace csm {
namespace {

TEST(IntegrationTest, Example12PriceNormalization) {
  Rng rng(71);
  // Source: music items plus a price table with one row per (item, code).
  TableSchema items_schema("items");
  items_schema.AddAttribute("iid", ValueType::kInt);
  items_schema.AddAttribute("title", ValueType::kString);
  Table items(items_schema);
  TableSchema price_schema("price");
  price_schema.AddAttribute("pid", ValueType::kInt);
  price_schema.AddAttribute("prccode", ValueType::kString);
  price_schema.AddAttribute("price", ValueType::kReal);
  Table price(price_schema);
  for (int64_t i = 0; i < 150; ++i) {
    items.AddRow({Value::Int(i), Value::String(MakeAlbumTitle(rng))});
    double regular = 10.0 + rng.NextDouble() * 10.0;
    price.AddRow({Value::Int(i), Value::String("reg"), Value::Real(regular)});
    price.AddRow({Value::Int(i), Value::String("sale"),
                  Value::Real(regular * 0.5)});
  }
  Database source("src");
  source.AddTable(std::move(items));
  source.AddTable(std::move(price));

  // Target: one music table with separate price and saleprice columns.
  TableSchema music_schema("music");
  music_schema.AddAttribute("mid", ValueType::kInt);
  music_schema.AddAttribute("name", ValueType::kString);
  music_schema.AddAttribute("price", ValueType::kReal);
  music_schema.AddAttribute("saleprice", ValueType::kReal);
  Table music(music_schema);
  for (int64_t i = 0; i < 150; ++i) {
    double regular = 10.0 + rng.NextDouble() * 10.0;
    music.AddRow({Value::Int(i), Value::String(MakeAlbumTitle(rng)),
                  Value::Real(regular), Value::Real(regular * 0.5)});
  }
  Database target("tgt");
  target.AddTable(std::move(music));

  ContextMatchOptions o;
  o.tau = 0.45;  // the sale edge is the paper's false-negative example
  o.omega = 0.025;
  o.early_disjuncts = false;
  // QualTable picks a single best source table per target table (§3.4), so
  // the supplementary price table would lose to items for the music target;
  // MultiTable's per-target-attribute selection is the right policy when a
  // table *supplements* another (as Fig. 4 supplements Rs).
  o.selection = SelectionPolicy::kMultiTable;
  o.seed = 72;
  const MatchRequest request{.source = BorrowDatabase(source),
                             .target = BorrowDatabase(target)};
  ContextMatchResult r = MatchEngine(o).Execute(request).result;

  bool reg_to_price = false, sale_to_saleprice = false;
  for (const Match& m : r.matches) {
    if (m.condition.is_true() || m.source.attribute != "price") continue;
    ASSERT_EQ(m.condition.NumAttributes(), 1u);
    const auto& clause = m.condition.clauses()[0];
    EXPECT_EQ(clause.attribute, "prccode");
    if (clause.Matches(Value::String("reg")) &&
        m.target.attribute == "price") {
      reg_to_price = true;
    }
    if (clause.Matches(Value::String("sale")) &&
        m.target.attribute == "saleprice") {
      sale_to_saleprice = true;
    }
  }
  EXPECT_TRUE(reg_to_price);
  EXPECT_TRUE(sale_to_saleprice);
}

}  // namespace
}  // namespace csm
