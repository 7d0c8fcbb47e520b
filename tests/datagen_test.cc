// Tests for src/datagen: wordlists, ground-truth evaluation, retail and
// grades generators; src/harness: reporting + repetition; and the figure
// claim predicates of bench/paper_claims.h on hand-built series.

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "bench/paper_claims.h"
#include "datagen/grades_gen.h"
#include "datagen/ground_truth.h"
#include "datagen/retail_gen.h"
#include "datagen/wordlists.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "relational/categorical.h"

namespace csm {
namespace {

// ------------------------------------------------------------- Wordlists

TEST(WordlistsTest, PoolsAreNonEmptyAndDistinct) {
  EXPECT_GT(BookTitleWords().size(), 30u);
  EXPECT_GT(FirstNames().size(), 30u);
  EXPECT_GT(LastNames().size(), 30u);
  EXPECT_GT(BandNameWords().size(), 20u);
  std::set<std::string_view> unique(BookTitleWords().begin(),
                                    BookTitleWords().end());
  EXPECT_EQ(unique.size(), BookTitleWords().size());
}

TEST(WordlistsTest, GeneratorsAreDeterministic) {
  Rng a(5), b(5);
  EXPECT_EQ(MakeBookTitle(a), MakeBookTitle(b));
  EXPECT_EQ(MakePersonName(a), MakePersonName(b));
  EXPECT_EQ(MakeBandName(a), MakeBandName(b));
  EXPECT_EQ(MakeAlbumTitle(a), MakeAlbumTitle(b));
  EXPECT_EQ(MakeIsbn(a), MakeIsbn(b));
  EXPECT_EQ(MakeUpc(a), MakeUpc(b));
}

TEST(WordlistsTest, CodesHaveExpectedShape) {
  Rng rng(6);
  std::string upc = MakeUpc(rng);
  EXPECT_EQ(upc.size(), 12u);
  for (char c : upc) EXPECT_TRUE(c >= '0' && c <= '9');
  std::string isbn = MakeIsbn(rng);
  EXPECT_EQ(std::count(isbn.begin(), isbn.end(), '-'), 3);
}

// ----------------------------------------------------------- GroundTruth

GroundTruth OneEntryTruth() {
  GroundTruth truth;
  truth.entries.push_back(TruthEntry{
      "s", "a", "t", "x", "k",
      {Value::String("v1"), Value::String("v2")}});
  return truth;
}

Match ViewMatch(const char* sattr, const char* tattr,
                std::vector<Value> values, const char* label_attr = "k") {
  Match m;
  m.source = {"s", sattr};
  m.target = {"t", tattr};
  m.condition = Condition::In(label_attr, std::move(values));
  m.confidence = 0.9;
  return m;
}

TEST(GroundTruthTest, CorrectMatchDetection) {
  GroundTruth truth = OneEntryTruth();
  EXPECT_TRUE(IsCorrectMatch(truth, ViewMatch("a", "x", {Value::String("v1")})));
  EXPECT_TRUE(IsCorrectMatch(
      truth, ViewMatch("a", "x", {Value::String("v1"), Value::String("v2")})));
  // Wrong value, wrong attribute pairing, wrong label attribute.
  EXPECT_FALSE(
      IsCorrectMatch(truth, ViewMatch("a", "x", {Value::String("zz")})));
  EXPECT_FALSE(
      IsCorrectMatch(truth, ViewMatch("a", "y", {Value::String("v1")})));
  EXPECT_FALSE(IsCorrectMatch(
      truth, ViewMatch("a", "x", {Value::String("v1")}, "other")));
}

TEST(GroundTruthTest, StandardMatchesIgnored) {
  GroundTruth truth = OneEntryTruth();
  Match standard;
  standard.source = {"s", "a"};
  standard.target = {"t", "x"};
  EXPECT_FALSE(IsCorrectMatch(truth, standard));
  MatchQuality q = EvaluateMatches(truth, {standard});
  EXPECT_EQ(q.view_matches, 0u);
  EXPECT_DOUBLE_EQ(q.accuracy, 0.0);
}

TEST(GroundTruthTest, PartialCoverageEarnsFractionalAccuracy) {
  GroundTruth truth = OneEntryTruth();
  MatchQuality q =
      EvaluateMatches(truth, {ViewMatch("a", "x", {Value::String("v1")})});
  EXPECT_DOUBLE_EQ(q.accuracy, 0.5);  // one of two allowed values covered
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  MatchQuality full = EvaluateMatches(
      truth, {ViewMatch("a", "x", {Value::String("v1")}),
              ViewMatch("a", "x", {Value::String("v2")})});
  EXPECT_DOUBLE_EQ(full.accuracy, 1.0);
}

TEST(GroundTruthTest, IncorrectMatchesHurtPrecision) {
  GroundTruth truth = OneEntryTruth();
  MatchQuality q = EvaluateMatches(
      truth, {ViewMatch("a", "x", {Value::String("v1"), Value::String("v2")}),
              ViewMatch("a", "y", {Value::String("v1")})});
  EXPECT_DOUBLE_EQ(q.accuracy, 1.0);
  EXPECT_DOUBLE_EQ(q.precision, 0.5);
  EXPECT_NEAR(q.fmeasure, 2.0 / 3.0, 1e-12);
}

TEST(GroundTruthTest, ConjunctiveConditionsNotCredited) {
  GroundTruth truth = OneEntryTruth();
  Match m = ViewMatch("a", "x", {Value::String("v1")});
  m.condition = m.condition.Conjoin(Condition::Equals("extra", Value::Int(1)));
  EXPECT_FALSE(IsCorrectMatch(truth, m));
}

// ---------------------------------------------------------------- Retail

TEST(RetailGenTest, SchemaShapeAndDeterminism) {
  RetailOptions options;
  options.num_items = 100;
  options.seed = 3;
  RetailDataset a = MakeRetailDataset(options);
  RetailDataset b = MakeRetailDataset(options);
  const Table& inv = a.source.GetTable("inventory");
  EXPECT_EQ(inv.num_rows(), 100u);
  EXPECT_TRUE(inv.schema().HasAttribute("ItemType"));
  EXPECT_TRUE(inv.schema().HasAttribute("StockStatus"));
  EXPECT_EQ(a.target.tables().size(), 2u);
  // Deterministic.
  EXPECT_EQ(inv.ToString(5), b.source.GetTable("inventory").ToString(5));
}

TEST(RetailGenTest, GammaControlsLabelCardinality) {
  for (size_t gamma : {2u, 4u, 8u}) {
    RetailOptions options;
    options.num_items = 200;
    options.gamma = gamma;
    options.seed = 4;
    RetailDataset data = MakeRetailDataset(options);
    auto counts = data.source.GetTable("inventory").ValueCounts("ItemType");
    EXPECT_EQ(counts.size(), gamma);
    EXPECT_EQ(data.book_labels.size(), gamma / 2);
    EXPECT_EQ(data.cd_labels.size(), gamma / 2);
  }
}

TEST(RetailGenTest, ItemTypeIsCategoricalTitleIsNot) {
  RetailOptions options;
  options.num_items = 300;
  options.seed = 5;
  RetailDataset data = MakeRetailDataset(options);
  const Table& inv = data.source.GetTable("inventory");
  EXPECT_TRUE(IsCategoricalAttribute(inv, "ItemType"));
  EXPECT_TRUE(IsCategoricalAttribute(inv, "StockStatus"));
  EXPECT_FALSE(IsCategoricalAttribute(inv, "Title"));
  EXPECT_FALSE(IsCategoricalAttribute(inv, "Code"));
}

TEST(RetailGenTest, CorrelatedAttributesTrackRho) {
  RetailOptions options;
  options.num_items = 1000;
  options.correlated_attributes = 1;
  options.rho = 0.8;
  options.seed = 6;
  RetailDataset data = MakeRetailDataset(options);
  const Table& inv = data.source.GetTable("inventory");
  size_t agree = 0;
  for (size_t r = 0; r < inv.num_rows(); ++r) {
    if (inv.ValueAt(r, "CorrType1") == inv.ValueAt(r, "ItemType")) ++agree;
  }
  // rho + (1-rho)/gamma chance agreement: 0.8 + 0.2/4 = 0.85.
  EXPECT_NEAR(static_cast<double>(agree) / 1000.0, 0.85, 0.05);
}

TEST(RetailGenTest, SchemaExpansionAddsAttributesEverywhere) {
  RetailOptions options;
  options.num_items = 100;
  options.extra_noncategorical = 3;
  options.extra_categorical = 2;
  options.seed = 7;
  RetailDataset data = MakeRetailDataset(options);
  const Table& inv = data.source.GetTable("inventory");
  EXPECT_TRUE(inv.schema().HasAttribute("Extra3"));
  EXPECT_TRUE(inv.schema().HasAttribute("NoiseCat2"));
  for (const Table& t : data.target.tables()) {
    EXPECT_EQ(t.schema().num_attributes(), 6u + 3u);
  }
}

TEST(RetailGenTest, GroundTruthExcludesIds) {
  RetailOptions options;
  options.num_items = 50;
  options.seed = 8;
  RetailDataset data = MakeRetailDataset(options);
  EXPECT_EQ(data.truth.entries.size(), 10u);  // 5 attrs x 2 tables
  for (const TruthEntry& e : data.truth.entries) {
    EXPECT_NE(e.source_attribute, "ItemID");
    EXPECT_EQ(e.label_attribute, "ItemType");
  }
}

TEST(RetailGenTest, TargetVariantsHaveDistinctNames) {
  std::set<std::string> names;
  for (RetailTarget t : {RetailTarget::kRyanEyers, RetailTarget::kAaronDay,
                         RetailTarget::kBarrettArney}) {
    RetailOptions options;
    options.num_items = 30;
    options.target = t;
    options.seed = 9;
    RetailDataset data = MakeRetailDataset(options);
    for (const Table& table : data.target.tables()) {
      EXPECT_TRUE(names.insert(table.name()).second);
    }
  }
  EXPECT_EQ(names.size(), 6u);
}

TEST(RetailGenTest, BooksAndCdsHaveDistinctPriceRanges) {
  RetailOptions options;
  options.num_items = 500;
  options.gamma = 2;
  options.seed = 10;
  RetailDataset data = MakeRetailDataset(options);
  const Table& inv = data.source.GetTable("inventory");
  DescriptiveStats book_prices, cd_prices;
  for (size_t r = 0; r < inv.num_rows(); ++r) {
    if (inv.ValueAt(r, "ItemType") == data.book_labels[0]) {
      book_prices.Add(inv.ValueAt(r, "Price").AsNumeric());
    } else {
      cd_prices.Add(inv.ValueAt(r, "Price").AsNumeric());
    }
  }
  EXPECT_GT(book_prices.Mean(), cd_prices.Mean());
  EXPECT_LE(cd_prices.Max(), 20.0 + 1e-9);
}

// ---------------------------------------------------------------- Grades

TEST(GradesGenTest, ShapeAndRowCounts) {
  GradesOptions options;
  options.num_students = 50;
  options.num_exams = 5;
  options.seed = 11;
  GradesDataset data = MakeGradesDataset(options);
  EXPECT_EQ(data.source.GetTable("grades_narrow").num_rows(), 250u);
  EXPECT_EQ(data.target.GetTable("grades_wide").num_rows(), 50u);
  EXPECT_EQ(data.target.GetTable("grades_wide").schema().num_attributes(),
            6u);
}

TEST(GradesGenTest, ExamMeansFollowFormula) {
  GradesOptions options;
  options.num_students = 400;
  options.sigma = 3.0;
  options.seed = 12;
  GradesDataset data = MakeGradesDataset(options);
  const Table& narrow = data.source.GetTable("grades_narrow");
  std::map<int64_t, DescriptiveStats> per_exam;
  for (size_t r = 0; r < narrow.num_rows(); ++r) {
    per_exam[narrow.ValueAt(r, "examNum").AsInt()].Add(
        narrow.ValueAt(r, "grade").AsNumeric());
  }
  ASSERT_EQ(per_exam.size(), 5u);
  for (const auto& [exam, stats] : per_exam) {
    EXPECT_NEAR(stats.Mean(), 40.0 + 10.0 * static_cast<double>(exam - 1),
                1.0)
        << "exam " << exam;
    EXPECT_NEAR(stats.SampleStdDev(), 3.0, 0.5);
  }
}

TEST(GradesGenTest, NamesAreUniqueWithinEachSchema) {
  GradesOptions options;
  options.num_students = 300;
  options.seed = 13;
  GradesDataset data = MakeGradesDataset(options);
  const Table& wide = data.target.GetTable("grades_wide");
  std::set<std::string> names;
  for (size_t r = 0; r < wide.num_rows(); ++r) {
    EXPECT_TRUE(names.insert(wide.ValueAt(r, "name").AsString()).second);
  }
}

TEST(GradesGenTest, ExamNumIsTheOnlyCategoricalAttribute) {
  GradesOptions options;
  options.seed = 14;
  GradesDataset data = MakeGradesDataset(options);
  EXPECT_EQ(CategoricalAttributes(data.source.GetTable("grades_narrow")),
            (std::vector<std::string>{"examNum"}));
}

TEST(GradesGenTest, TruthHasOneEntryPerExamPlusName) {
  GradesOptions options;
  options.num_exams = 7;
  options.seed = 15;
  GradesDataset data = MakeGradesDataset(options);
  EXPECT_EQ(data.truth.entries.size(), 8u);
  EXPECT_EQ(data.truth.entries[0].source_attribute, "name");
  EXPECT_EQ(data.truth.entries[0].allowed_values.size(), 7u);
  EXPECT_EQ(data.truth.entries[3].allowed_values.size(), 1u);
}

TEST(GradesGenTest, GradesAreClampedToScale) {
  GradesOptions options;
  options.sigma = 50.0;  // extreme noise
  options.seed = 16;
  GradesDataset data = MakeGradesDataset(options);
  const Table& narrow = data.source.GetTable("grades_narrow");
  for (size_t r = 0; r < narrow.num_rows(); ++r) {
    double g = narrow.ValueAt(r, "grade").AsNumeric();
    EXPECT_GE(g, 0.0);
    EXPECT_LE(g, 100.0);
  }
}

// --------------------------------------------------------------- Harness

TEST(ReportTest, AlignedRenderingAndCsv) {
  ResultTable table("Fig X", {"param", "value"});
  table.AddRow({"1", ResultTable::Num(0.5)});
  table.AddRow({"20", ResultTable::Num(1.0 / 3.0)});
  std::string text = table.ToString();
  EXPECT_NE(text.find("== Fig X =="), std::string::npos);
  EXPECT_NE(text.find("0.500"), std::string::npos);
  EXPECT_NE(text.find("0.333"), std::string::npos);
  EXPECT_EQ(table.ToCsv(), "param,value\n1,0.500\n20,0.333\n");
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(ReportTest, NumDecimals) {
  EXPECT_EQ(ResultTable::Num(1.23456, 2), "1.23");
  EXPECT_EQ(ResultTable::Num(2.0, 0), "2");
}

TEST(ExperimentTest, RunRepeatedAggregates) {
  AggregatedMetrics agg = RunRepeated(5, 100, [](uint64_t seed) {
    MetricMap m;
    m["seed_derived"] = static_cast<double>(seed - 100);
    m["constant"] = 7.0;
    return m;
  });
  EXPECT_DOUBLE_EQ(agg.Mean("seed_derived"), 3.0);  // mean of 1..5
  EXPECT_DOUBLE_EQ(agg.Mean("constant"), 7.0);
  EXPECT_DOUBLE_EQ(agg.StdDev("constant"), 0.0);
  EXPECT_EQ(agg.metrics.count("seconds"), 1u);
  EXPECT_EQ(agg.metrics.count("nope"), 0u);
  EXPECT_DOUBLE_EQ(agg.Mean("nope"), 0.0);
}

TEST(ExperimentTest, StopwatchMeasuresElapsed) {
  Stopwatch watch;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(watch.Seconds(), 0.0);
  EXPECT_LT(watch.Seconds(), 1.0);
}

TEST(ExperimentTest, BenchConfigFromEnv) {
  unsetenv("CSM_BENCH_REPS");
  unsetenv("CSM_BENCH_THREADS");
  unsetenv("CSM_BENCH_TRACE");
  unsetenv("CSM_BENCH_CLIENTS");
  unsetenv("CSM_BENCH_REQUESTS");
  BenchConfig config = BenchConfig::FromEnv();
  EXPECT_EQ(config.Repetitions(8), 8u);
  EXPECT_EQ(config.Threads(1), 1u);
  EXPECT_EQ(config.TracePrefix(), nullptr);
  EXPECT_EQ(config.clients, 0u);

  setenv("CSM_BENCH_REPS", "3", 1);
  // An explicit THREADS=0 means "all hardware threads", distinct from unset.
  setenv("CSM_BENCH_THREADS", "0", 1);
  setenv("CSM_BENCH_TRACE", "/tmp/trace", 1);
  setenv("CSM_BENCH_CLIENTS", "12", 1);
  setenv("CSM_BENCH_REQUESTS", "240", 1);
  config = BenchConfig::FromEnv();
  EXPECT_EQ(config.Repetitions(8), 3u);
  EXPECT_TRUE(config.threads_set);
  EXPECT_EQ(config.Threads(1), 0u);
  EXPECT_STREQ(config.TracePrefix(), "/tmp/trace");
  EXPECT_EQ(config.clients, 12u);
  EXPECT_EQ(config.requests, 240u);

  // Malformed values read as unset.
  setenv("CSM_BENCH_REPS", "junk", 1);
  setenv("CSM_BENCH_THREADS", "-2", 1);
  config = BenchConfig::FromEnv();
  EXPECT_EQ(config.Repetitions(8), 8u);
  EXPECT_FALSE(config.threads_set);

  // So do a trailing suffix and a value that overflows a long.
  setenv("CSM_BENCH_REPS", "5x", 1);
  setenv("CSM_BENCH_THREADS", "99999999999999999999", 1);
  config = BenchConfig::FromEnv();
  EXPECT_EQ(config.Repetitions(8), 8u);
  EXPECT_FALSE(config.threads_set);
  EXPECT_EQ(config.Threads(1), 1u);

  unsetenv("CSM_BENCH_REPS");
  unsetenv("CSM_BENCH_THREADS");
  unsetenv("CSM_BENCH_TRACE");
  unsetenv("CSM_BENCH_CLIENTS");
  unsetenv("CSM_BENCH_REQUESTS");
}

// ---------------------------------------------------------- Paper claims

using bench::Series;

TEST(PaperClaimsTest, OnePointPlateauIsNarrowerThanFourPoints) {
  const Series xs = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};
  // One point at the maximum (its neighbours sit 0.02 below, outside the
  // tolerance) against four adjacent points within 0.01 of theirs.
  const Series one = {0.80, 0.80, 0.93, 0.95, 0.93, 0.50};
  const Series four = {0.70, 0.945, 0.95, 0.95, 0.941, 0.60};
  const bench::Plateau p1 = bench::MaxPlateau(xs, one, 0.01);
  const bench::Plateau p4 = bench::MaxPlateau(xs, four, 0.01);
  EXPECT_DOUBLE_EQ(p1.lo, 0.3);
  EXPECT_DOUBLE_EQ(p1.width(), 0.0);
  EXPECT_DOUBLE_EQ(p4.lo, 0.1);
  EXPECT_DOUBLE_EQ(p4.hi, 0.4);
  EXPECT_GE(p4.width(), p1.width());
  EXPECT_FALSE(p1.width() >= p4.width());
}

TEST(PaperClaimsTest, TieAtTheMaximumTakesTheLongestThenLowestRun) {
  const Series xs = {1, 2, 3, 4, 5, 6, 7};
  // Two runs reach the maximum: the longer one is the plateau...
  EXPECT_DOUBLE_EQ(bench::MaxPlateau(xs, {1, 1, 0, 1, 1, 1, 0}, 0.0).lo, 4);
  // ...and of two equally long runs, the lower-x one.
  const bench::Plateau tie =
      bench::MaxPlateau(xs, {1, 1, 0, 0, 0, 1, 1}, 0.0);
  EXPECT_DOUBLE_EQ(tie.lo, 1);
  EXPECT_DOUBLE_EQ(tie.hi, 2);
  // A tie between two series at their maximum is neither a win nor a loss.
  EXPECT_EQ(bench::Wins({0.9, 0.9}, {0.9, 0.5}), 1u);
  EXPECT_TRUE(bench::Dominates({0.9, 0.9}, {0.9, 0.5}));
}

TEST(PaperClaimsTest, NonMonotoneRatioDoesNotClimb) {
  EXPECT_TRUE(bench::Climbs({1.3, 2.0, 4.4, 15.0, 48.0}, 0.0));
  EXPECT_FALSE(bench::Climbs({0.94, 0.88, 0.94, 0.80, 1.00}, 0.0));
  // A dip within the tolerance still climbs; a flat series does not.
  EXPECT_TRUE(bench::Climbs({0.0, 0.0, 0.78, 0.9, 0.895}, 0.01));
  EXPECT_FALSE(bench::Climbs({0.9, 0.9, 0.9}, 0.01));
}

TEST(PaperClaimsTest, DominatingAllButOnePointIsNotDominance) {
  const Series early = {0.95, 0.95, 0.95, 0.78, 0.44, 0.08};
  const Series late = {0.95, 0.89, 0.73, 0.40, 0.37, 0.39};
  EXPECT_FALSE(bench::Dominates(early, late));  // late ahead at the last
  EXPECT_EQ(bench::Wins(late, early), 1u);
  EXPECT_TRUE(bench::Dominates({0.95, 0.95, 0.79}, {0.95, 0.89, 0.40}));
  // "Ahead on most points": 2 of 3 is most, 1 of 3 is not.
  EXPECT_EQ(bench::Wins({0.44, 0.13, 0.53}, {0.33, 0.24, 0.36}), 2u);
  EXPECT_EQ(bench::Wins({0.33, 0.24, 0.36}, {0.44, 0.13, 0.53}), 1u);
}

TEST(PaperClaimsTest, EndsLowerAndFirstDrop) {
  const Series xs = {0.0, 0.2, 0.4, 0.6, 0.8};
  EXPECT_TRUE(bench::EndsLower({0.95, 0.57, 0.51, 0.35}, 0.01));
  EXPECT_FALSE(bench::EndsLower({0.87, 0.93, 0.92, 0.93}, 0.01));
  EXPECT_FALSE(bench::EndsLower({0.95, 0.5, 0.945}, 0.01));
  EXPECT_DOUBLE_EQ(bench::FirstDrop(xs, {0.95, 0.95, 0.95, 0.78, 0.4}, 0.01),
                   0.6);
  EXPECT_DOUBLE_EQ(bench::FirstDrop(xs, {0.95, 0.89, 0.73, 0.4, 0.4}, 0.01),
                   0.2);
  EXPECT_EQ(bench::FirstDrop(xs, {0.5, 0.6, 0.495, 0.7, 0.5}, 0.01),
            std::numeric_limits<double>::infinity());
}

TEST(PaperClaimsTest, CollapsesAboveTheCut) {
  const Series xs = {0.3, 0.5, 0.6, 0.7, 0.8};
  EXPECT_TRUE(bench::CollapsesAbove(xs, {0.73, 1.0, 0.75, 0.38, 0.10}, 0.65));
  // One late recovery above the lowest point below the cut breaks it.
  EXPECT_FALSE(bench::CollapsesAbove(xs, {0.85, 0.95, 0.67, 0.46, 0.72},
                                     0.65));
  // Without a point on both sides of the cut nothing collapses.
  EXPECT_FALSE(bench::CollapsesAbove(xs, {1, 1, 1, 0, 0}, 0.9));
}

}  // namespace
}  // namespace csm
