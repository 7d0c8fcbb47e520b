// Tests for src/mapping: constraints, mining, propagation rules, join
// rules / logical tables, query generation, and execution.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>

#include "check/reference.h"
#include "common/random.h"
#include "mapping/association.h"
#include "mapping/clio.h"
#include "mapping/constraint_mining.h"
#include "mapping/constraints.h"
#include "mapping/executor.h"
#include "mapping/propagation.h"
#include "mapping/query_gen.h"
#include "relational/csv.h"
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

/// Maps `target_attribute` of the query's target table from
/// `relation`.`attribute`.
TargetAttrMapping MappedFrom(const std::string& relation,
                             const std::string& attribute,
                             const std::string& target_attribute) {
  TargetAttrMapping mapping;
  mapping.target_attribute = target_attribute;
  mapping.source = std::make_pair(relation, attribute);
  return mapping;
}

/// A target table of string attributes named `attributes`.
TableSchema StringTarget(const std::vector<std::string>& attributes) {
  TableSchema out("out");
  for (const std::string& name : attributes) {
    out.AddAttribute(name, ValueType::kString);
  }
  return out;
}

// The two rows differ, but joining each row's renderings with a separator
// byte and no lengths made their fingerprints equal.
TEST(ExecutorTest, DedupKeepsRowsWhoseRenderingsHoldSeparators) {
  Database db("src");
  db.AddTable(MakeTable("t", {"a", "b"},
                        {{S("p\x1f" "3:q"), S("r")},
                         {S("p"), S("q\x1f" "3:r")}}));
  MappingQuery query;
  query.target_table = "out";
  query.logical.relations = {"t"};
  query.attr_mappings = {MappedFrom("t", "a", "a"), MappedFrom("t", "b", "b")};
  auto result = ExecuteMapping(query, db, {}, StringTarget({"a", "b"}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->ValueAt(0, "a"), S("p\x1f" "3:q"));
  EXPECT_EQ(result->ValueAt(1, "a"), S("p"));
}

// The same ambiguity on a two-attribute join key made unequal keys join.
TEST(ExecutorTest, JoinKeysWhoseRenderingsHoldSeparatorsDoNotCollide) {
  Database db("src");
  db.AddTable(MakeTable("L", {"k1", "k2", "tag"},
                        {{S("p\x1f" "3:q"), S("r"), S("left")}}));
  db.AddTable(MakeTable("R", {"k1", "k2", "tag"},
                        {{S("p"), S("q\x1f" "3:r"), S("right")}}));
  MappingQuery query;
  query.target_table = "out";
  query.logical.relations = {"L", "R"};
  JoinEdge edge;
  edge.left = "L";
  edge.right = "R";
  edge.left_attributes = {"k1", "k2"};
  edge.right_attributes = {"k1", "k2"};
  query.logical.joins = {edge};
  query.attr_mappings = {MappedFrom("L", "tag", "l"),
                         MappedFrom("R", "tag", "r")};
  auto result = ExecuteMapping(query, db, {}, StringTarget({"l", "r"}));
  ASSERT_TRUE(result.ok());
  // Full outer join of two non-matching rows: (left, NULL), (NULL, right).
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(result->ValueAt(0, "l"), S("left"));
  EXPECT_TRUE(result->ValueAt(0, "r").is_null());
  EXPECT_TRUE(result->ValueAt(1, "l").is_null());
  EXPECT_EQ(result->ValueAt(1, "r"), S("right"));
}

// Equality is (type, rendering): 0.1+0.2 and 0.3 both render "0.3", the two
// large reals both render "1.23457e+06", and -0.0 renders "-0.0".  The first
// of each collapsed pair survives with its own bits.
TEST(ExecutorTest, RealsCollapseByRendering) {
  Database db("src");
  db.AddTable(MakeTable("t", {"v"},
                        {{R(0.1 + 0.2)}, {R(0.3)}, {R(1234567.25)},
                         {R(1234567.5)}, {R(-0.0)}, {R(0.0)}}));
  TableSchema out("out");
  out.AddAttribute("v", ValueType::kReal);
  MappingQuery query;
  query.target_table = "out";
  query.logical.relations = {"t"};
  query.attr_mappings = {MappedFrom("t", "v", "v")};
  auto result = ExecuteMapping(query, db, {}, out);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 4u);
  EXPECT_EQ(result->ValueAt(0, "v").AsReal(), 0.1 + 0.2);
  EXPECT_EQ(result->ValueAt(1, "v").AsReal(), 1234567.25);
  EXPECT_TRUE(std::signbit(result->ValueAt(2, "v").AsReal()));
  EXPECT_FALSE(std::signbit(result->ValueAt(3, "v").AsReal()));
}

// Casting a NaN or out-of-range double to int64 is undefined behavior; the
// coercion tests the range first and yields NULL.
TEST(ExecutorTest, RealsOutsideInt64CoerceToNull) {
  const double kInf = std::numeric_limits<double>::infinity();
  const double kTwo63 = 9223372036854775808.0;
  const std::vector<double> reals = {
      1e20, -1e20, kTwo63, std::numeric_limits<double>::quiet_NaN(), kInf,
      -kInf, 3.0, -kTwo63};
  std::vector<Row> rows;
  for (size_t i = 0; i < reals.size(); ++i) {
    rows.push_back({I(static_cast<int64_t>(i)), R(reals[i])});
  }
  Database db("src");
  db.AddTable(MakeTable("t", {"id", "r"}, rows));
  TableSchema out("out");
  out.AddAttribute("id", ValueType::kInt);
  out.AddAttribute("as_int", ValueType::kInt);
  MappingQuery query;
  query.target_table = "out";
  query.logical.relations = {"t"};
  query.attr_mappings = {MappedFrom("t", "id", "id"),
                         MappedFrom("t", "r", "as_int")};
  for (const bool reference : {false, true}) {
    SCOPED_TRACE(reference ? "reference executor" : "columnar executor");
    auto result = reference ? check::ReferenceExecuteMapping(query, db, {}, out)
                            : ExecuteMapping(query, db, {}, out);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_rows(), reals.size());
    for (size_t r = 0; r < 6; ++r) {
      EXPECT_TRUE(result->ValueAt(r, "as_int").is_null()) << reals[r];
    }
    EXPECT_EQ(result->ValueAt(6, "as_int"), I(3));
    EXPECT_EQ(result->ValueAt(7, "as_int"),
              I(std::numeric_limits<int64_t>::min()));
  }
}

// ------------------------------------------------- Join configuration matrix
//
// Every configuration runs through ExecuteMapping and ExecuteMappings and is
// diffed against the row-at-a-time reference executor (check/reference.h),
// in the manner of Hyrise's join test runner: input kinds x sizes x key
// kinds x the join-3 filter.

enum class JoinInput { kBaseTable, kSelectView, kSpView };
enum class JoinKey {
  kSameDictionaryString,
  kCrossDictionaryString,
  kInt,
  kRenderingEqualReal,
  kNullKeys,
  kTwoAttributes,
};

std::string JoinInputName(JoinInput input) {
  switch (input) {
    case JoinInput::kBaseTable:
      return "BaseTable";
    case JoinInput::kSelectView:
      return "SelectView";
    case JoinInput::kSpView:
      return "SpView";
  }
  return "";
}

std::string JoinKeyName(JoinKey key) {
  switch (key) {
    case JoinKey::kSameDictionaryString:
      return "SameDictionaryString";
    case JoinKey::kCrossDictionaryString:
      return "CrossDictionaryString";
    case JoinKey::kInt:
      return "Int";
    case JoinKey::kRenderingEqualReal:
      return "RenderingEqualReal";
    case JoinKey::kNullKeys:
      return "NullKeys";
    case JoinKey::kTwoAttributes:
      return "TwoAttributes";
  }
  return "";
}

/// Base table `name` of `rows` rows.  Each row draws a key from about
/// rows/3 values, so every key kind fans out about threefold: string key s,
/// int key i (mostly the same key, so (s, i) pairs match too), real key r
/// (the key halved, or a rendering-equal pair, -0.0 or 0.0), string key n
/// (half NULL), the join-3 filter attribute tag, a payload, and an
/// attribute SP views drop.
Table JoinMatrixTable(const std::string& name, size_t rows, uint64_t seed) {
  static const double kReals[] = {0.1 + 0.2, 0.3,  1234567.25, 1234567.5,
                                  -0.0,      0.0};
  Rng rng(seed);
  const int64_t distinct = static_cast<int64_t>(rows / 3 + 1);
  TableSchema schema(name);
  schema.AddAttribute("s", ValueType::kString);
  schema.AddAttribute("i", ValueType::kInt);
  schema.AddAttribute("r", ValueType::kReal);
  schema.AddAttribute("n", ValueType::kString);
  schema.AddAttribute("tag", ValueType::kInt);
  schema.AddAttribute("payload", ValueType::kString);
  schema.AddAttribute("extra", ValueType::kInt);
  Table table(schema);
  for (size_t r = 0; r < rows; ++r) {
    const int64_t key = rng.NextInt(0, distinct - 1);
    const std::string k = std::to_string(key);
    table.AddRow(
        {Value::String("k" + k),
         I(rng.NextBounded(5) == 0 ? rng.NextInt(0, distinct - 1) : key),
         R(rng.NextBounded(10) == 0 ? kReals[rng.NextBounded(std::size(kReals))]
                                    : static_cast<double>(key) / 2.0),
         rng.NextBounded(2) == 0 ? N() : Value::String("n" + k),
         I(rng.NextInt(0, 2)), Value::String(name + std::to_string(r)),
         I(static_cast<int64_t>(r))});
  }
  return table;
}

/// Cell types and bits, row order, and TableToCsv bytes.
void ExpectSameTable(const Table& expected, const Table& actual) {
  ASSERT_EQ(actual.schema().ToString(), expected.schema().ToString());
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  for (size_t r = 0; r < expected.num_rows(); ++r) {
    for (size_t c = 0; c < expected.schema().num_attributes(); ++c) {
      const Value e = expected.ValueAt(r, c);
      const Value a = actual.ValueAt(r, c);
      ASSERT_EQ(a.type(), e.type()) << "row " << r << " col " << c;
      if (e.type() == ValueType::kReal) {
        const double ed = e.AsReal(), ad = a.AsReal();
        ASSERT_EQ(std::memcmp(&ed, &ad, sizeof(ed)), 0)
            << "row " << r << " col " << c;
      } else {
        ASSERT_EQ(a, e) << "row " << r << " col " << c;
      }
    }
  }
  EXPECT_EQ(TableToCsv(actual), TableToCsv(expected));
}

class JoinMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<JoinInput, size_t, JoinKey, bool>> {};

TEST_P(JoinMatrixTest, MatchesReferenceExecutor) {
  const auto [input, rows, key, filter] = GetParam();
  Database db("src");
  db.AddTable(JoinMatrixTable("A", rows, 11 + rows));
  db.AddTable(JoinMatrixTable("B", rows, 23 + rows));
  const std::string right_base =
      key == JoinKey::kSameDictionaryString ? "A" : "B";

  // Left relation over A, right relation over A (same dictionary) or B.
  std::vector<View> views;
  auto relation = [&](const std::string& base, const std::string& name) {
    switch (input) {
      case JoinInput::kBaseTable:
        if (name == "L" || base != "A") return base;
        views.emplace_back(name, base, Condition::True());
        return name;
      case JoinInput::kSelectView:
        views.emplace_back(name, base, Condition::In("tag", {I(0), I(1)}));
        return name;
      case JoinInput::kSpView:
        views.emplace_back(
            name, base, Condition::In("tag", {I(0), I(1)}),
            std::vector<std::string>{"payload", "n", "r", "tag", "i", "s"});
        return name;
    }
    return name;
  };
  const std::string left = relation("A", "L");
  const std::string right = relation(right_base, "R");

  JoinEdge edge;
  edge.left = left;
  edge.right = right;
  switch (key) {
    case JoinKey::kSameDictionaryString:
    case JoinKey::kCrossDictionaryString:
      edge.left_attributes = edge.right_attributes = {"s"};
      break;
    case JoinKey::kInt:
      edge.left_attributes = edge.right_attributes = {"i"};
      break;
    case JoinKey::kRenderingEqualReal:
      edge.left_attributes = edge.right_attributes = {"r"};
      break;
    case JoinKey::kNullKeys:
      edge.left_attributes = edge.right_attributes = {"n"};
      break;
    case JoinKey::kTwoAttributes:
      edge.left_attributes = edge.right_attributes = {"s", "i"};
      break;
  }
  if (filter) {
    edge.rule = JoinRuleKind::kJoin3;
    edge.filter_attribute = "tag";
    edge.filter_value = I(1);
  }

  Schema target("tgt");
  TableSchema out("out");
  out.AddAttribute("lp", ValueType::kString);
  out.AddAttribute("rp", ValueType::kString);
  out.AddAttribute("lk", ValueType::kString);
  out.AddAttribute("rr", ValueType::kString);  // real rendered to string
  out.AddAttribute("sk", ValueType::kString);
  target.AddTable(out);
  MappingQuery query;
  query.target_table = "out";
  query.logical.relations = {left, right};
  query.logical.joins = {edge};
  TargetAttrMapping skolem;
  skolem.target_attribute = "sk";
  skolem.skolem = true;
  query.attr_mappings = {MappedFrom(left, "payload", "lp"),
                         MappedFrom(right, "payload", "rp"),
                         MappedFrom(left, edge.left_attributes[0], "lk"),
                         MappedFrom(right, "r", "rr"), skolem};

  auto expected = check::ReferenceExecuteMapping(query, db, views, out);
  auto actual = ExecuteMapping(query, db, views, out);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();
  ExpectSameTable(*expected, *actual);

  auto expected_db = check::ReferenceExecuteMappings({query}, db, views, target);
  auto actual_db = ExecuteMappings({query}, db, views, target);
  ASSERT_TRUE(expected_db.ok() && actual_db.ok());
  const Table& e = expected_db->GetTable("out");
  const Table& a = actual_db->GetTable("out");
  ExpectSameTable(e, a);
  for (size_t c = 0; c < e.schema().num_attributes(); ++c) {
    EXPECT_EQ(a.column(c).codes(), e.column(c).codes()) << "col " << c;
    EXPECT_EQ(a.column(c).dictionary().values(),
              e.column(c).dictionary().values())
        << "col " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, JoinMatrixTest,
    ::testing::Combine(
        ::testing::Values(JoinInput::kBaseTable, JoinInput::kSelectView,
                          JoinInput::kSpView),
        ::testing::Values(size_t{0}, size_t{1}, size_t{17}, size_t{1000}),
        ::testing::Values(JoinKey::kSameDictionaryString,
                          JoinKey::kCrossDictionaryString, JoinKey::kInt,
                          JoinKey::kRenderingEqualReal, JoinKey::kNullKeys,
                          JoinKey::kTwoAttributes),
        ::testing::Bool()),
    [](const ::testing::TestParamInfo<JoinMatrixTest::ParamType>& info) {
      return JoinInputName(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "_" +
             JoinKeyName(std::get<2>(info.param)) +
             (std::get<3>(info.param) ? "_Filtered" : "_Unfiltered");
    });

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

TEST(ClioTest, ViewsThatShareANameBindAsTwoRelations) {
  // 0.1234561 and 0.1234564 both render "0.123456", so both selected views
  // are named t[w=0.123456].  The mapping must still read each view's own
  // rows: the second relation is renamed, not bound to the first view.
  Database db("src");
  db.AddTable(MakeTable("t", {"w", "name"},
                        {{R(0.1234561), S("ann")},
                         {R(0.1234564), S("bob")},
                         {R(0.5), S("cy")}}));
  const std::vector<View> views = {
      View("t[w=0.123456]", "t", Condition::Equals("w", R(0.1234561))),
      View("t[w=0.123456]", "t", Condition::Equals("w", R(0.1234564)))};
  Schema target("tgt");
  TableSchema out("out");
  out.AddAttribute("name", ValueType::kString);
  target.AddTable(out);
  MatchList matches;
  for (const View& view : views) {
    Match m;
    m.source = {"t", "name"};
    m.target = {"out", "name"};
    m.condition = view.condition();
    m.confidence = 0.9;
    matches.push_back(m);
  }
  const SchemaMappingResult mapping =
      BuildSchemaMapping(db, target, matches, views);
  ASSERT_EQ(mapping.views.size(), 2u);
  EXPECT_EQ(mapping.views[0].name(), "t[w=0.123456]");
  EXPECT_EQ(mapping.views[1].name(), "t[w=0.123456]#2");
  auto executed = ExecuteMappings(mapping.queries, db, mapping.views, target);
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  std::set<std::string> names;
  const Table& rows = executed->GetTable("out");
  for (size_t r = 0; r < rows.num_rows(); ++r) {
    names.insert(rows.ValueAt(r, 0).ToString());
  }
  EXPECT_EQ(names, (std::set<std::string>{"ann", "bob"}));
}

}  // namespace
}  // namespace csm
