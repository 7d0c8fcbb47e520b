// Tests for src/mapping: constraints, mining, propagation rules, join
// rules / logical tables, query generation, and execution.

#include <gtest/gtest.h>

#include <set>

#include "mapping/association.h"
#include "mapping/clio.h"
#include "mapping/constraint_mining.h"
#include "mapping/constraints.h"
#include "mapping/executor.h"
#include "mapping/propagation.h"
#include "mapping/query_gen.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::N;
using testing::R;
using testing::S;

// The running example of Sections 4.1-4.3: student/project.
Table StudentTable() {
  return MakeTable("student", {"name", "email", "address"},
                   {{S("ann"), S("ann@u"), S("12 elm")},
                    {S("bob"), S("bob@u"), S("9 oak")},
                    {S("cat"), S("cat@u"), S("4 fir")}});
}

Table ProjectTable() {
  // (name, assign, grade, instructor); key (name, assign).
  return MakeTable("project", {"name", "assign", "grade", "instructor"},
                   {{S("ann"), I(0), S("A"), S("prof x")},
                    {S("ann"), I(1), S("B"), S("prof y")},
                    {S("bob"), I(0), S("B"), S("prof x")},
                    {S("bob"), I(1), S("A"), S("prof y")},
                    {S("cat"), I(0), S("C"), S("prof x")},
                    {S("cat"), I(1), S("A"), S("prof y")}});
}

Database StudentDb() {
  Database db("src");
  db.AddTable(StudentTable());
  db.AddTable(ProjectTable());
  return db;
}

View AssignView(int i) {
  return View("V" + std::to_string(i), "project",
              Condition::Equals("assign", I(i)), {"name", "grade"});
}

// ------------------------------------------------------------ Constraints

TEST(ConstraintsTest, ToStringRendering) {
  Key k{"project", {"name", "assign"}};
  EXPECT_EQ(k.ToString(), "project[name, assign] -> project");
  ForeignKey fk{"project", {"name"}, "student", {"name"}};
  EXPECT_EQ(fk.ToString(), "project[name] ⊆ student[name]");
  ContextualForeignKey cfk{"V0",       {"name"},  "assign", Value::Int(0),
                           "project",  {"name"},  "assign"};
  EXPECT_EQ(cfk.ToString(), "V0[name, assign = 0] ⊆ project[name, assign]");
}

TEST(ConstraintsTest, AddDeduplicates) {
  ConstraintSet set;
  set.Add(Key{"t", {"a"}});
  set.Add(Key{"t", {"a"}});
  set.Add(ForeignKey{"t", {"a"}, "u", {"b"}});
  set.Add(ForeignKey{"t", {"a"}, "u", {"b"}});
  EXPECT_EQ(set.keys.size(), 1u);
  EXPECT_EQ(set.foreign_keys.size(), 1u);
  EXPECT_EQ(set.size(), 2u);
}

TEST(ConstraintsTest, HasKeyChecksCoverage) {
  ConstraintSet set;
  set.Add(Key{"t", {"a", "b"}});
  EXPECT_TRUE(set.HasKey("t", {"a", "b", "c"}));  // superset covers
  EXPECT_FALSE(set.HasKey("t", {"a"}));
  EXPECT_FALSE(set.HasKey("u", {"a", "b"}));
  EXPECT_EQ(set.KeysOf("t").size(), 1u);
}

TEST(ConstraintsTest, MergeCombines) {
  ConstraintSet a, b;
  a.Add(Key{"t", {"x"}});
  b.Add(Key{"t", {"x"}});
  b.Add(Key{"u", {"y"}});
  a.Merge(b);
  EXPECT_EQ(a.keys.size(), 2u);
}

// ----------------------------------------------------------------- Mining

TEST(MiningTest, SingleAttributeKeys) {
  auto keys = MineKeys(StudentTable());
  // name, email, address all unique in the sample.
  EXPECT_EQ(keys.size(), 3u);
  for (const Key& k : keys) EXPECT_EQ(k.attributes.size(), 1u);
}

TEST(MiningTest, CompositeKeysWhenNoSingleKey) {
  auto keys = MineKeys(ProjectTable());
  bool found_name_assign = false;
  for (const Key& k : keys) {
    if (k.attributes == std::vector<std::string>{"name", "assign"}) {
      found_name_assign = true;
    }
    // Minimality: no single-attribute key exists in this table except none.
    EXPECT_LE(k.attributes.size(), 2u);
  }
  EXPECT_TRUE(found_name_assign);
}

TEST(MiningTest, NullColumnsAreNotKeys) {
  Table t = MakeTable("t", {"a"}, {{I(1)}, {N()}});
  EXPECT_TRUE(MineKeys(t).empty());
}

TEST(MiningTest, DuplicatesAreNotKeys) {
  Table t = MakeTable("t", {"a", "b"},
                      {{I(1), I(1)}, {I(1), I(2)}, {I(2), I(1)}});
  auto keys = MineKeys(t);
  ASSERT_EQ(keys.size(), 1u);  // only the pair (a, b)
  EXPECT_EQ(keys[0].attributes.size(), 2u);
}

TEST(MiningTest, MinimalKeysOnlySuppressesSupersets) {
  Table t = MakeTable("t", {"id", "x"},
                      {{I(1), S("a")}, {I(2), S("a")}, {I(3), S("b")}});
  MiningOptions options;
  auto keys = MineKeys(t, options);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0].attributes, std::vector<std::string>{"id"});
  options.minimal_keys_only = false;
  auto all = MineKeys(t, options);
  EXPECT_EQ(all.size(), 2u);  // id and (id, x)
}

TEST(MiningTest, ForeignKeyDiscoveredFromInclusion) {
  Database db = StudentDb();
  ConstraintSet constraints = MineConstraints(db);
  bool found = false;
  for (const ForeignKey& fk : constraints.foreign_keys) {
    if (fk.referencing == "project" && fk.fk_attributes[0] == "name" &&
        fk.referenced == "student" && fk.key_attributes[0] == "name") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << constraints.ToString();
}

TEST(MiningTest, FkRequiresMinDistinctValues) {
  Database db("d");
  db.AddTable(MakeTable("ref", {"k"}, {{I(1)}, {I(2)}, {I(3)}}));
  db.AddTable(MakeTable("one", {"v"}, {{I(2)}, {I(2)}}));
  MiningOptions options;
  options.min_fk_distinct_values = 2;
  ConstraintSet constraints = MineConstraints(db, options);
  // "one.v" has a single distinct value: no FK mined.
  EXPECT_TRUE(constraints.foreign_keys.empty());
}

// ------------------------------------------------------------ Propagation

TEST(PropagationTest, ContextualPropagationDerivesViewKey) {
  Database db = StudentDb();
  PropagationInput input;
  input.views = {AssignView(0), AssignView(1)};
  input.base_constraints.Add(Key{"project", {"name", "assign"}});
  input.source_sample = &db;
  ConstraintSet derived = PropagateConstraints(input);
  // V_i[name] -> V_i from contextual propagation.
  EXPECT_TRUE(derived.HasKey("V0", {"name"}));
  EXPECT_TRUE(derived.HasKey("V1", {"name"}));
}

TEST(PropagationTest, ContextualConstraintDerivesContextualFk) {
  Database db = StudentDb();
  PropagationInput input;
  input.views = {AssignView(0)};
  input.base_constraints.Add(Key{"project", {"name", "assign"}});
  input.source_sample = &db;
  ConstraintSet derived = PropagateConstraints(input);
  ASSERT_EQ(derived.contextual_foreign_keys.size(), 1u);
  const ContextualForeignKey& cfk = derived.contextual_foreign_keys[0];
  EXPECT_EQ(cfk.view, "V0");
  EXPECT_EQ(cfk.fk_attributes, std::vector<std::string>{"name"});
  EXPECT_EQ(cfk.context_attribute, "assign");
  EXPECT_EQ(cfk.context_value, Value::Int(0));
  EXPECT_EQ(cfk.referenced, "project");
}

TEST(PropagationTest, FkPropagation) {
  // project[name] ⊆ student[name] propagates to the view (Example 4.2).
  Database db = StudentDb();
  PropagationInput input;
  input.views = {AssignView(0)};
  input.base_constraints.Add(Key{"project", {"name", "assign"}});
  input.base_constraints.Add(Key{"student", {"name"}});
  input.base_constraints.Add(
      ForeignKey{"project", {"name"}, "student", {"name"}});
  input.source_sample = &db;
  ConstraintSet derived = PropagateConstraints(input);
  bool found = false;
  for (const ForeignKey& fk : derived.foreign_keys) {
    if (fk.referencing == "V0" && fk.referenced == "student") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(PropagationTest, KeyProjectionRequiresAttributesInView) {
  Database db = StudentDb();
  PropagationInput input;
  // View projects name+instructor: the (name, assign) key does NOT project.
  input.views = {View("U0", "project", Condition::Equals("assign", I(0)),
                      {"name", "instructor"})};
  input.base_constraints.Add(Key{"project", {"name", "assign"}});
  input.source_sample = &db;
  ConstraintSet derived = PropagateConstraints(input);
  EXPECT_TRUE(derived.HasKey("U0", {"name"}));  // contextual propagation
  // The full base key (name, assign) must NOT be declared on the view,
  // since `assign` is projected away.
  for (const Key* key : derived.KeysOf("U0")) {
    EXPECT_EQ(key->attributes, std::vector<std::string>{"name"});
  }
}

TEST(PropagationTest, ViewReferencingNeedsFullDomain) {
  Database db = StudentDb();
  PropagationInput input;
  // Select-* views so the whole key projects.
  input.views = {
      View("Vall", "project", Condition::In("assign", {I(0), I(1)})),
      View("Vpart", "project", Condition::Equals("assign", I(0)))};
  input.base_constraints.Add(Key{"project", {"name", "assign"}});
  input.source_sample = &db;
  ConstraintSet derived = PropagateConstraints(input);
  bool full_domain_fk = false, partial_fk = false;
  for (const ForeignKey& fk : derived.foreign_keys) {
    if (fk.referencing == "project" && fk.referenced == "Vall") {
      full_domain_fk = true;
    }
    if (fk.referencing == "project" && fk.referenced == "Vpart") {
      partial_fk = true;
    }
  }
  EXPECT_TRUE(full_domain_fk);   // {0,1} covers assign's sample domain
  EXPECT_FALSE(partial_fk);      // {0} does not
}

TEST(PropagationTest, NoRulesFireWithoutBaseKeys) {
  Database db = StudentDb();
  PropagationInput input;
  input.views = {AssignView(0)};
  input.source_sample = &db;
  ConstraintSet derived = PropagateConstraints(input);
  EXPECT_EQ(derived.size(), 0u);
}

// ------------------------------------------------------------ Association

ConstraintSet GradesLikeConstraints(const std::vector<View>& views) {
  ConstraintSet constraints;
  constraints.Add(Key{"project", {"name", "assign"}});
  PropagationInput input;
  input.views = views;
  input.base_constraints = constraints;
  Database db = StudentDb();
  input.source_sample = &db;
  ConstraintSet derived = PropagateConstraints(input);
  constraints.Merge(derived);
  return constraints;
}

TEST(AssociationTest, Join1BetweenSameAttributeViews) {
  std::vector<View> views = {AssignView(0), AssignView(1)};
  ConstraintSet constraints = GradesLikeConstraints(views);
  auto edges = DeriveJoinEdges({"V0", "V1"}, views, constraints);
  bool found = false;
  for (const JoinEdge& e : edges) {
    if (e.rule == JoinRuleKind::kJoin1) {
      found = true;
      EXPECT_EQ(e.left_attributes, std::vector<std::string>{"name"});
    }
  }
  EXPECT_TRUE(found);
}

TEST(AssociationTest, Join2BetweenDifferentAttributeViewsSameCondition) {
  // V0 projects (name, grade), U0 projects (name, instructor), same
  // condition assign = 0: join 2 (Example 4.5).
  std::vector<View> views = {
      AssignView(0), View("U0", "project", Condition::Equals("assign", I(0)),
                          {"name", "instructor"})};
  ConstraintSet constraints = GradesLikeConstraints(views);
  auto edges = DeriveJoinEdges({"V0", "U0"}, views, constraints);
  bool join2 = false;
  for (const JoinEdge& e : edges) {
    if (e.rule == JoinRuleKind::kJoin2) join2 = true;
  }
  EXPECT_TRUE(join2);
}

TEST(AssociationTest, NoJoin2AcrossDifferentConditions) {
  // V0 and U1 (different assign values, different attributes): Example 4.5
  // says joining them is not logical.
  std::vector<View> views = {
      AssignView(0), View("U1", "project", Condition::Equals("assign", I(1)),
                          {"name", "instructor"})};
  ConstraintSet constraints = GradesLikeConstraints(views);
  auto edges = DeriveJoinEdges({"V0", "U1"}, views, constraints);
  for (const JoinEdge& e : edges) {
    EXPECT_NE(e.rule, JoinRuleKind::kJoin2) << e.ToString();
    EXPECT_NE(e.rule, JoinRuleKind::kJoin1) << e.ToString();
  }
}

TEST(AssociationTest, Join3FromContextualForeignKey) {
  std::vector<View> views = {AssignView(0)};
  ConstraintSet constraints = GradesLikeConstraints(views);
  auto edges = DeriveJoinEdges({"V0", "project"}, views, constraints);
  bool join3 = false;
  for (const JoinEdge& e : edges) {
    if (e.rule == JoinRuleKind::kJoin3) {
      join3 = true;
      EXPECT_EQ(e.right, "project");
      ASSERT_TRUE(e.filter_attribute.has_value());
      EXPECT_EQ(*e.filter_attribute, "assign");
      EXPECT_EQ(e.filter_value, Value::Int(0));
    }
  }
  EXPECT_TRUE(join3);
}

TEST(AssociationTest, ForeignKeyEdgeBetweenBaseTables) {
  ConstraintSet constraints;
  constraints.Add(Key{"student", {"name"}});
  constraints.Add(ForeignKey{"project", {"name"}, "student", {"name"}});
  auto edges = DeriveJoinEdges({"project", "student"}, {}, constraints);
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].rule, JoinRuleKind::kForeignKey);
}

TEST(AssociationTest, AssembleConnectedComponents) {
  JoinEdge ab;
  ab.left = "a";
  ab.right = "b";
  ab.left_attributes = {"k"};
  ab.right_attributes = {"k"};
  std::vector<LogicalTable> tables =
      AssembleLogicalTables({"a", "b", "c"}, {ab});
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].relations, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(tables[0].joins.size(), 1u);
  EXPECT_EQ(tables[1].relations, (std::vector<std::string>{"c"}));
}

TEST(AssociationTest, AssembleDropsCycleEdges) {
  auto edge = [](const char* l, const char* r) {
    JoinEdge e;
    e.left = l;
    e.right = r;
    e.left_attributes = {"k"};
    e.right_attributes = {"k"};
    return e;
  };
  std::vector<LogicalTable> tables = AssembleLogicalTables(
      {"a", "b", "c"}, {edge("a", "b"), edge("b", "c"), edge("c", "a")});
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].joins.size(), 2u);  // spanning tree only
}

// -------------------------------------------------------------- Query gen

MatchList GradesMatches(size_t num_views) {
  MatchList matches;
  for (size_t i = 0; i < num_views; ++i) {
    Match name;
    name.source = {"project", "name"};
    name.target = {"projs", "name"};
    name.condition = Condition::Equals("assign", I(static_cast<int64_t>(i)));
    name.confidence = 0.9;
    matches.push_back(name);
    Match grade;
    grade.source = {"project", "grade"};
    grade.target = {"projs", "grade" + std::to_string(i)};
    grade.condition = Condition::Equals("assign", I(static_cast<int64_t>(i)));
    grade.confidence = 0.9;
    matches.push_back(grade);
  }
  return matches;
}

Schema ProjsTarget(size_t num_grades) {
  Schema schema("tgt");
  TableSchema projs("projs");
  projs.AddAttribute("name", ValueType::kString);
  for (size_t i = 0; i < num_grades; ++i) {
    projs.AddAttribute("grade" + std::to_string(i), ValueType::kString);
  }
  projs.AddAttribute("advisor", ValueType::kString);  // unmapped
  schema.AddTable(projs);
  return schema;
}

TEST(QueryGenTest, MatchRelationResolvesViews) {
  std::vector<View> views = {AssignView(0)};
  Match m;
  m.source = {"project", "grade"};
  m.target = {"projs", "grade0"};
  m.condition = Condition::Equals("assign", I(0));
  EXPECT_EQ(MatchRelation(m, views), "V0");
  m.condition = Condition::True();
  EXPECT_EQ(MatchRelation(m, views), "project");
  m.condition = Condition::Equals("assign", I(9));
  EXPECT_EQ(MatchRelation(m, views), "");  // no such view
}

TEST(QueryGenTest, GeneratesOneQueryJoiningAllViews) {
  std::vector<View> views = {AssignView(0), AssignView(1)};
  ConstraintSet constraints = GradesLikeConstraints(views);
  auto queries =
      GenerateMappings(ProjsTarget(2), GradesMatches(2), views, constraints);
  ASSERT_EQ(queries.size(), 1u);
  const MappingQuery& q = queries[0];
  EXPECT_EQ(q.target_table, "projs");
  EXPECT_EQ(q.logical.relations.size(), 2u);
  EXPECT_EQ(q.logical.joins.size(), 1u);
  // grade0 maps from V0, grade1 from V1, advisor is a Skolem.
  for (const TargetAttrMapping& m : q.attr_mappings) {
    if (m.target_attribute == "grade0") {
      ASSERT_TRUE(m.source.has_value());
      EXPECT_EQ(m.source->first, "V0");
    } else if (m.target_attribute == "grade1") {
      ASSERT_TRUE(m.source.has_value());
      EXPECT_EQ(m.source->first, "V1");
    } else if (m.target_attribute == "advisor") {
      EXPECT_FALSE(m.source.has_value());
      EXPECT_TRUE(m.skolem);
    }
  }
}

TEST(QueryGenTest, DisconnectedRelationsYieldSeparateQueries) {
  std::vector<View> views = {AssignView(0), AssignView(1)};
  // No constraints at all: no join edges, two singleton logical tables.
  auto queries =
      GenerateMappings(ProjsTarget(2), GradesMatches(2), views, {});
  EXPECT_EQ(queries.size(), 2u);
}

TEST(QueryGenTest, SqlRenderingMentionsViewsAndJoins) {
  std::vector<View> views = {AssignView(0), AssignView(1)};
  ConstraintSet constraints = GradesLikeConstraints(views);
  auto queries =
      GenerateMappings(ProjsTarget(2), GradesMatches(2), views, constraints);
  ASSERT_EQ(queries.size(), 1u);
  std::string sql = queries[0].ToSql(views);
  EXPECT_NE(sql.find("insert into projs"), std::string::npos);
  EXPECT_NE(sql.find("full outer join"), std::string::npos);
  EXPECT_NE(sql.find("select name, grade from project where assign = 0"),
            std::string::npos);
  EXPECT_NE(sql.find("sk_projs_advisor"), std::string::npos);
}

// --------------------------------------------------------------- Executor

TEST(ExecutorTest, AttributeNormalizationJoinsOnName) {
  Database db = StudentDb();
  std::vector<View> views = {AssignView(0), AssignView(1)};
  ConstraintSet constraints = GradesLikeConstraints(views);
  auto queries =
      GenerateMappings(ProjsTarget(2), GradesMatches(2), views, constraints);
  ASSERT_EQ(queries.size(), 1u);
  Schema target = ProjsTarget(2);
  auto result = ExecuteMapping(queries[0], db, views, target.GetTable("projs"));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 3u);  // one per student
  for (size_t r = 0; r < result->num_rows(); ++r) {
    // Every student got both grades promoted into one row.
    EXPECT_FALSE(result->ValueAt(r, 1).is_null());
    EXPECT_FALSE(result->ValueAt(r, 2).is_null());
  }
  // Spot-check ann: grades A (assign 0) and B (assign 1).
  bool found_ann = false;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    if (result->ValueAt(r, "name") == S("ann")) {
      found_ann = true;
      EXPECT_EQ(result->ValueAt(r, "grade0"), S("A"));
      EXPECT_EQ(result->ValueAt(r, "grade1"), S("B"));
      EXPECT_EQ(result->ValueAt(r, "advisor").AsString(),
                "sk_projs_advisor(ann,A,B)");
    }
  }
  EXPECT_TRUE(found_ann);
}

TEST(ExecutorTest, FullOuterJoinKeepsUnmatchedRows) {
  // A student with only assign 0: the assign-1 side is NULL.
  Database db("src");
  db.AddTable(MakeTable("project", {"name", "assign", "grade", "instructor"},
                        {{S("ann"), I(0), S("A"), S("x")},
                         {S("ann"), I(1), S("B"), S("y")},
                         {S("solo"), I(0), S("C"), S("x")}}));
  std::vector<View> views = {AssignView(0), AssignView(1)};
  ConstraintSet constraints;
  constraints.Add(Key{"project", {"name", "assign"}});
  PropagationInput pi;
  pi.views = views;
  pi.base_constraints = constraints;
  pi.source_sample = &db;
  constraints.Merge(PropagateConstraints(pi));
  auto queries =
      GenerateMappings(ProjsTarget(2), GradesMatches(2), views, constraints);
  ASSERT_EQ(queries.size(), 1u);
  Schema target = ProjsTarget(2);
  auto result = ExecuteMapping(queries[0], db, views, target.GetTable("projs"));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  for (size_t r = 0; r < result->num_rows(); ++r) {
    if (result->ValueAt(r, "name") == S("solo")) {
      EXPECT_EQ(result->ValueAt(r, "grade0"), S("C"));
      EXPECT_TRUE(result->ValueAt(r, "grade1").is_null());
    }
  }
}

TEST(ExecutorTest, Join3FilterRestrictsReferencedSide) {
  Database db = StudentDb();
  std::vector<View> views = {AssignView(0)};
  ConstraintSet constraints = GradesLikeConstraints(views);
  // Map (V0.name, project.instructor) into a target; join 3 connects V0 to
  // project with the assign = 0 filter.
  Schema target("tgt");
  TableSchema t("report");
  t.AddAttribute("who", ValueType::kString);
  t.AddAttribute("prof", ValueType::kString);
  target.AddTable(t);
  MatchList matches;
  Match m1;
  m1.source = {"project", "name"};
  m1.target = {"report", "who"};
  m1.condition = Condition::Equals("assign", I(0));
  m1.confidence = 0.9;
  Match m2;
  m2.source = {"project", "instructor"};
  m2.target = {"report", "prof"};
  m2.confidence = 0.9;
  matches = {m1, m2};
  auto queries = GenerateMappings(target, matches, views, constraints);
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(queries[0].logical.relations.size(), 2u);
  auto result =
      ExecuteMapping(queries[0], db, views, target.GetTable("report"));
  ASSERT_TRUE(result.ok());
  // 3 students x 1 (assign 0) instructor each.
  EXPECT_EQ(result->num_rows(), 3u);
  // Only the assign-0 instructor.
  for (size_t r = 0; r < result->num_rows(); ++r) {
    EXPECT_EQ(result->ValueAt(r, 1), S("prof x"));
  }
}

TEST(ExecutorTest, MissingViewIsAnError) {
  Database db = StudentDb();
  MappingQuery query;
  query.target_table = "projs";
  query.logical.relations = {"no_such_view"};
  Schema target = ProjsTarget(1);
  auto result = ExecuteMapping(query, db, {}, target.GetTable("projs"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ExecutorTest, TypeCoercionInProjection) {
  Database db("src");
  db.AddTable(MakeTable("t", {"num"}, {{I(5)}, {I(7)}}));
  Schema target("tgt");
  TableSchema out("out");
  out.AddAttribute("as_string", ValueType::kString);
  target.AddTable(out);
  MatchList matches;
  Match m;
  m.source = {"t", "num"};
  m.target = {"out", "as_string"};
  m.confidence = 1.0;
  matches.push_back(m);
  auto queries = GenerateMappings(target, matches, {}, {});
  ASSERT_EQ(queries.size(), 1u);
  auto result = ExecuteMapping(queries[0], db, {}, target.GetTable("out"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ValueAt(0, "as_string"), S("5"));
}

TEST(ExecutorTest, ExecuteMappingsUnionsPerTargetTable) {
  Database db = StudentDb();
  std::vector<View> views = {AssignView(0), AssignView(1)};
  // No join constraints: two disconnected queries into the same table.
  auto queries = GenerateMappings(ProjsTarget(2), GradesMatches(2), views, {});
  ASSERT_EQ(queries.size(), 2u);
  Schema target = ProjsTarget(2);
  auto result = ExecuteMappings(queries, db, views, target);
  ASSERT_TRUE(result.ok());
  // Union of both queries' rows (3 students x 2 queries, deduplicated per
  // query but not across queries).
  EXPECT_EQ(result->GetTable("projs").num_rows(), 6u);
}

// ---------------------------------------------------------------- Facade

TEST(ClioTest, BuildSchemaMappingMinesPropagatesAndGenerates) {
  Database db = StudentDb();
  std::vector<View> views = {AssignView(0), AssignView(1)};
  MatchList matches = GradesMatches(2);
  SchemaMappingResult result =
      BuildSchemaMapping(db, ProjsTarget(2), matches, views);
  EXPECT_FALSE(result.constraints.keys.empty());
  EXPECT_FALSE(result.constraints.contextual_foreign_keys.empty());
  ASSERT_EQ(result.queries.size(), 1u);
  EXPECT_EQ(result.queries[0].logical.relations.size(), 2u);
}

}  // namespace
}  // namespace csm
