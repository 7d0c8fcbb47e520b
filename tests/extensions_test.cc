// Tests for the extension features: target-side contextual matching
// (Section 7 future work) and CSV schema inference (CLI tool substrate).

#include <gtest/gtest.h>

#include <set>

#include "core/match_engine.h"
#include "datagen/retail_gen.h"
#include "relational/csv.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::S;

// ---------------------------------------------- MatchMode::kTargetContext

/// Reversed retail: separate Book/Music sources, combined inventory target.
struct ReversedRetail {
  Database source;  // the retail target (Book, Music)
  Database target;  // the retail source (combined inventory)

  explicit ReversedRetail(uint64_t seed) {
    RetailOptions options;
    options.num_items = 300;
    options.gamma = 2;
    options.seed = seed;
    RetailDataset data = MakeRetailDataset(options);
    source = std::move(data.target);
    target = std::move(data.source);
  }
};

TEST(TargetContextMatchTest, FindsConditionsOnTargetTables) {
  ReversedRetail data(81);
  ContextMatchOptions options;
  options.omega = 0.05;
  options.inference = ViewInferenceKind::kSrcClass;
  options.seed = 82;
  const MatchResponse response =
      MatchEngine(options).Execute({.mode = MatchMode::kTargetContext,
                                    .source = BorrowDatabase(data.source),
                                    .target = BorrowDatabase(data.target)});

  ASSERT_FALSE(response.selected_views.empty());
  for (const View& v : response.selected_views) {
    EXPECT_EQ(v.base_table(), "inventory");
    EXPECT_TRUE(v.condition().MentionsAttribute("ItemType"))
        << v.ToString();
  }
  // Matches are flipped into source -> target orientation, with the
  // condition flagged as living on the target table.
  bool found_book_title = false;
  for (const Match& m : response.matches) {
    EXPECT_EQ(m.target.table, "inventory");
    if (!m.condition.is_true()) {
      EXPECT_TRUE(m.condition_on_target);
      EXPECT_NE(m.ToString().find("[target: "), std::string::npos);
    }
    if (m.source == (AttributeRef{"Book", "BookTitle"}) &&
        m.target == (AttributeRef{"inventory", "Title"}) &&
        m.condition == Condition::Equals("ItemType", S("Book1"))) {
      found_book_title = true;
    }
  }
  EXPECT_TRUE(found_book_title);
}

TEST(TargetContextMatchTest, ReversedDiagnosticsPreserved) {
  ReversedRetail data(83);
  ContextMatchOptions options;
  options.omega = 0.05;
  options.seed = 84;
  const MatchResponse response =
      MatchEngine(options).Execute({.mode = MatchMode::kTargetContext,
                                    .source = BorrowDatabase(data.source),
                                    .target = BorrowDatabase(data.target)});
  EXPECT_EQ(response.matches.size(), response.result.matches.size());
  for (size_t i = 0; i < response.matches.size(); ++i) {
    EXPECT_EQ(response.matches[i].source, response.result.matches[i].target);
    EXPECT_EQ(response.matches[i].target, response.result.matches[i].source);
    EXPECT_DOUBLE_EQ(response.matches[i].confidence,
                     response.result.matches[i].confidence);
  }
}

TEST(TargetContextMatchTest, StandardMatchesAreNotFlaggedTargetConditioned) {
  ReversedRetail data(85);
  ContextMatchOptions options;
  options.omega = 5.0;  // nothing improves: only base matches survive
  options.seed = 86;
  const MatchResponse response =
      MatchEngine(options).Execute({.mode = MatchMode::kTargetContext,
                                    .source = BorrowDatabase(data.source),
                                    .target = BorrowDatabase(data.target)});
  for (const Match& m : response.matches) {
    EXPECT_TRUE(m.condition.is_true());
    EXPECT_FALSE(m.condition_on_target);
  }
}

// ------------------------------------------------------ CSV inference

TEST(CsvInferenceTest, InfersIntRealString) {
  auto table = TableFromCsvInferred(
      "t", "id,price,name\n1,2.5,abc\n2,3,def\n3,4.25,ghi\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kInt);
  EXPECT_EQ(table->schema().attribute(1).type, ValueType::kReal);
  EXPECT_EQ(table->schema().attribute(2).type, ValueType::kString);
  EXPECT_EQ(table->ValueAt(0, "id"), Value::Int(1));
  EXPECT_EQ(table->ValueAt(1, "price"), Value::Real(3.0));
}

TEST(CsvInferenceTest, OneBadCellDemotesColumn) {
  auto table = TableFromCsvInferred("t", "x\n1\n2\noops\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kString);
  EXPECT_EQ(table->ValueAt(0, "x"), Value::String("1"));
}

TEST(CsvInferenceTest, EmptyCellsAreNullAndDoNotAffectType) {
  auto table = TableFromCsvInferred("t", "x\n1\n\n3\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(0).type, ValueType::kInt);
  EXPECT_TRUE(table->ValueAt(1, "x").is_null());
}

TEST(CsvInferenceTest, AllEmptyColumnDefaultsToString) {
  auto table = TableFromCsvInferred("t", "a,b\n1,\n2,\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->schema().attribute(1).type, ValueType::kString);
}

TEST(CsvInferenceTest, RoundTripThroughWriter) {
  Table original = testing::MakeTable(
      "roundtrip", {"n", "r", "s"},
      {{Value::Int(1), Value::Real(1.5), Value::String("x,y")},
       {Value::Int(2), Value::Real(2.5), Value::String("z")}});
  auto parsed = TableFromCsvInferred("roundtrip", TableToCsv(original));
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->num_rows(), 2u);
  EXPECT_EQ(parsed->ValueAt(0, "n"), Value::Int(1));
  EXPECT_EQ(parsed->ValueAt(0, "r"), Value::Real(1.5));
  EXPECT_EQ(parsed->ValueAt(0, "s"), Value::String("x,y"));
}

TEST(CsvInferenceTest, ArityMismatchRejected) {
  EXPECT_FALSE(TableFromCsvInferred("t", "a,b\n1\n").ok());
}

TEST(CsvInferenceTest, FileVariantReadsFromDisk) {
  Table t = testing::MakeTable("disk", {"v"}, {{Value::Int(9)}});
  std::string path = ::testing::TempDir() + "/csm_infer_test.csv";
  ASSERT_TRUE(WriteCsvFile(t, path).ok());
  auto parsed = ReadCsvFileInferred("disk", path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->ValueAt(0, "v"), Value::Int(9));
}

}  // namespace
}  // namespace csm

// Appended: constraint-validation tests (Section 7's target-constraint
// checking method).
#include "datagen/grades_gen.h"
#include "mapping/clio.h"
#include "mapping/validation.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::N;

TEST(ValidationTest, CleanInstanceHasNoViolations) {
  Database db("d");
  db.AddTable(MakeTable("t", {"id", "ref"}, {{I(1), I(10)}, {I(2), I(10)}}));
  db.AddTable(MakeTable("u", {"uid"}, {{I(10)}, {I(11)}}));
  ConstraintSet constraints;
  constraints.Add(Key{"t", {"id"}});
  constraints.Add(Key{"u", {"uid"}});
  constraints.Add(ForeignKey{"t", {"ref"}, "u", {"uid"}});
  EXPECT_TRUE(CheckConstraints(db, constraints).empty());
}

TEST(ValidationTest, KeyViolationReported) {
  Database db("d");
  db.AddTable(MakeTable("t", {"id"}, {{I(1)}, {I(1)}, {I(2)}}));
  ConstraintSet constraints;
  constraints.Add(Key{"t", {"id"}});
  auto violations = CheckConstraints(db, constraints);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].ToString().find("t[id] -> t"), std::string::npos);
}

TEST(ValidationTest, ForeignKeyViolationReported) {
  Database db("d");
  db.AddTable(MakeTable("t", {"ref"}, {{I(10)}, {I(99)}}));
  db.AddTable(MakeTable("u", {"uid"}, {{I(10)}}));
  ConstraintSet constraints;
  constraints.Add(ForeignKey{"t", {"ref"}, "u", {"uid"}});
  auto violations = CheckConstraints(db, constraints);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].detail.find("(99)"), std::string::npos);
}

TEST(ValidationTest, NullForeignKeysReferenceNothing) {
  Database db("d");
  db.AddTable(MakeTable("t", {"ref"}, {{N()}, {I(10)}}));
  db.AddTable(MakeTable("u", {"uid"}, {{I(10)}}));
  ConstraintSet constraints;
  constraints.Add(ForeignKey{"t", {"ref"}, "u", {"uid"}});
  EXPECT_TRUE(CheckConstraints(db, constraints).empty());
}

TEST(ValidationTest, ContextualForeignKeyChecked) {
  Database db("d");
  db.AddTable(MakeTable("project", {"name", "assign"},
                        {{S("ann"), I(0)}, {S("bob"), I(0)}}));
  std::vector<View> views = {
      View("V0", "project", Condition::Equals("assign", I(0)), {"name"})};
  ConstraintSet constraints;
  // Correct contextual FK: V0[name, assign=0] ⊆ project[name, assign].
  constraints.Add(ContextualForeignKey{
      "V0", {"name"}, "assign", I(0), "project", {"name"}, "assign"});
  EXPECT_TRUE(CheckConstraints(db, constraints, views).empty());
  // Wrong context value: every V0 row is a violation.
  ConstraintSet wrong;
  wrong.Add(ContextualForeignKey{
      "V0", {"name"}, "assign", I(7), "project", {"name"}, "assign"});
  EXPECT_EQ(CheckConstraints(db, wrong, views).size(), 2u);
}

TEST(ValidationTest, ViolationCapRespected) {
  Database db("d");
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({I(1)});
  db.AddTable(MakeTable("t", {"id"}, rows));
  ConstraintSet constraints;
  constraints.Add(Key{"t", {"id"}});
  EXPECT_EQ(CheckConstraints(db, constraints, {}, 3).size(), 3u);
  EXPECT_EQ(CheckConstraints(db, constraints, {}, 0).size(), 19u);
}

TEST(ValidationTest, UnknownRelationsAndAttributesSkipped) {
  Database db("d");
  db.AddTable(MakeTable("t", {"id"}, {{I(1)}}));
  ConstraintSet constraints;
  constraints.Add(Key{"missing_table", {"id"}});
  constraints.Add(Key{"t", {"missing_attr"}});
  EXPECT_TRUE(CheckConstraints(db, constraints).empty());
}

TEST(ValidationTest, ExecutedGradesMappingSatisfiesWideKey) {
  // End-to-end: the executed attribute-normalization mapping keeps `name`
  // a key of the wide table.
  GradesOptions g;
  g.num_students = 40;
  g.sigma = 3.0;
  g.seed = 121;
  GradesDataset data = MakeGradesDataset(g);
  ContextMatchOptions o;
  o.tau = 0.45;
  o.omega = 0.025;
  o.early_disjuncts = false;
  o.seed = 122;
  ClioQualTableResult r = ClioQualTable(data.source, data.target, o);
  auto executed = ExecuteMappings(r.mapping.queries, data.source,
                                  r.mapping.views, data.target.GetSchema());
  ASSERT_TRUE(executed.ok());
  ConstraintSet target_constraints;
  target_constraints.Add(Key{"grades_wide", {"name"}});
  EXPECT_TRUE(CheckConstraints(*executed, target_constraints).empty());
}

}  // namespace
}  // namespace csm
