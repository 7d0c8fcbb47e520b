// Tests for src/match: matchers, score normalization, the match session,
// and restricted-bag rescoring.

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "datagen/wordlists.h"
#include "match/matchers.h"
#include "match/session.h"
#include "relational/sample.h"
#include "tests/test_util.h"

namespace csm {
namespace {

using testing::I;
using testing::MakeTable;
using testing::N;
using testing::R;
using testing::S;

AttributeSample StringSample(const char* table, const char* attr,
                             std::vector<std::string> values) {
  std::vector<Value> bag;
  for (auto& v : values) bag.push_back(Value::String(std::move(v)));
  return AttributeSample(AttributeRef{table, attr}, ValueType::kString,
                         std::move(bag));
}

AttributeSample NumericSample(const char* table, const char* attr,
                              std::vector<double> values) {
  std::vector<Value> bag;
  for (double v : values) bag.push_back(Value::Real(v));
  return AttributeSample(AttributeRef{table, attr}, ValueType::kReal,
                         std::move(bag));
}

// ------------------------------------------------------- AttributeSample

TEST(AttributeSampleTest, NonNullCountAndProfiles) {
  AttributeSample s(AttributeRef{"t", "a"}, ValueType::kString,
                    {S("ab"), N(), S("cd")});
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.NonNullCount(), 2u);
  EXPECT_FALSE(s.QGramProfile().empty());
  EXPECT_EQ(s.WordProfile().num_distinct(), 2u);
}

TEST(AttributeSampleTest, NumericStatsSkipStrings) {
  AttributeSample s(AttributeRef{"t", "a"}, ValueType::kString,
                    {S("x"), R(4.0), I(2)});
  EXPECT_EQ(s.NumericStats().count(), 2u);
  EXPECT_DOUBLE_EQ(s.NumericStats().Mean(), 3.0);
  EXPECT_FALSE(s.MostlyNumeric(0.9));
  EXPECT_TRUE(s.MostlyNumeric(0.5));
}

TEST(AttributeSampleTest, FromTable) {
  Table t = MakeTable("t", {"x"}, {{I(1)}, {I(2)}});
  AttributeSample s = AttributeSample::FromTable(t, "x");
  EXPECT_EQ(s.ref().ToString(), "t.x");
  EXPECT_EQ(s.declared_type(), ValueType::kInt);
  EXPECT_EQ(s.size(), 2u);
}

// ---------------------------------------------------------- NameMatcher

TEST(NameMatcherTest, TokensSplitCamelAndUnderscore) {
  EXPECT_EQ(NameMatcher::NameTokens("ItemType"),
            (std::vector<std::string>{"item", "type"}));
  EXPECT_EQ(NameMatcher::NameTokens("year_published"),
            (std::vector<std::string>{"year", "published"}));
  EXPECT_EQ(NameMatcher::NameTokens("bk_title2"),
            (std::vector<std::string>{"bk", "title", "2"}));
  EXPECT_TRUE(NameMatcher::NameTokens("").empty());
}

TEST(NameMatcherTest, IdenticalNamesScoreOne) {
  NameMatcher m;
  auto a = StringSample("s", "title", {"x"});
  auto b = StringSample("t", "title", {"y"});
  EXPECT_DOUBLE_EQ(m.Score(a, b), 1.0);
}

TEST(NameMatcherTest, SharedTokenScoresHigh) {
  NameMatcher m;
  auto a = StringSample("s", "Title", {"x"});
  auto b = StringSample("t", "BookTitle", {"y"});
  auto c = StringSample("t", "ZzQq", {"y"});
  EXPECT_GT(m.Score(a, b), m.Score(a, c));
  EXPECT_GE(m.Score(a, b), 2.0 / 3.0);  // dice of {title} vs {book,title}
}

// ---------------------------------------------------------- QGramMatcher

TEST(QGramMatcherTest, SimilarTextScoresHigherThanDissimilar) {
  QGramMatcher m;
  Rng rng(3);
  std::vector<std::string> titles_a, titles_b, codes;
  for (int i = 0; i < 40; ++i) {
    titles_a.push_back(MakeBookTitle(rng));
    titles_b.push_back(MakeBookTitle(rng));
    codes.push_back(MakeUpc(rng));
  }
  auto sa = StringSample("s", "a", titles_a);
  auto sb = StringSample("t", "b", titles_b);
  auto sc = StringSample("t", "c", codes);
  EXPECT_GT(m.Score(sa, sb), 0.8);
  EXPECT_GT(m.Score(sa, sb), m.Score(sa, sc));
}

TEST(QGramMatcherTest, InapplicableOnEmptyBags) {
  QGramMatcher m;
  auto sa = StringSample("s", "a", {"x"});
  AttributeSample empty(AttributeRef{"t", "b"}, ValueType::kString, {});
  EXPECT_FALSE(m.Applicable(sa, empty));
  EXPECT_TRUE(m.Applicable(sa, sa));
}

TEST(QGramMatcherTest, ScoreSymmetricAndBounded) {
  QGramMatcher m;
  auto sa = StringSample("s", "a", {"hello world", "foo"});
  auto sb = StringSample("t", "b", {"hello there", "bar"});
  double ab = m.Score(sa, sb);
  EXPECT_DOUBLE_EQ(ab, m.Score(sb, sa));
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0);
}

// ---------------------------------------------------------- TfIdfMatcher

TEST(TfIdfMatcherTest, PrepareDiscountsUbiquitousTokens) {
  TfIdfTokenMatcher m;
  auto shared1 = StringSample("t", "x", {"the alpha", "the beta"});
  auto shared2 = StringSample("t", "y", {"the gamma", "the delta"});
  auto probe = StringSample("s", "p", {"the alpha"});
  m.Prepare({&shared1, &shared2});
  // "the" appears in every target doc, so overlap via "alpha" dominates.
  EXPECT_GT(m.Score(probe, shared1), m.Score(probe, shared2));
}

TEST(TfIdfMatcherTest, InapplicableWithoutWords) {
  TfIdfTokenMatcher m;
  AttributeSample empty(AttributeRef{"t", "b"}, ValueType::kString, {});
  auto sa = StringSample("s", "a", {"x"});
  EXPECT_FALSE(m.Applicable(sa, empty));
}

// -------------------------------------------------------- NumericMatcher

TEST(NumericMatcherTest, ApplicabilityRequiresNumericBothSides) {
  NumericMatcher m;
  auto nums = NumericSample("s", "a", {1, 2, 3});
  auto text = StringSample("t", "b", {"x", "y"});
  EXPECT_TRUE(m.Applicable(nums, nums));
  EXPECT_FALSE(m.Applicable(nums, text));
  EXPECT_FALSE(m.Applicable(text, nums));
}

TEST(NumericMatcherTest, IdenticalDistributionsScoreNearOne) {
  NumericMatcher m;
  Rng rng(5);
  std::vector<double> a, b;
  for (int i = 0; i < 500; ++i) {
    a.push_back(rng.NextGaussian(50, 5));
    b.push_back(rng.NextGaussian(50, 5));
  }
  EXPECT_GT(m.Score(NumericSample("s", "a", a), NumericSample("t", "b", b)),
            0.9);
}

TEST(NumericMatcherTest, SeparatedMeansScoreLow) {
  NumericMatcher m;
  Rng rng(6);
  std::vector<double> a, b;
  for (int i = 0; i < 200; ++i) {
    a.push_back(rng.NextGaussian(10, 2));
    b.push_back(rng.NextGaussian(100, 2));
  }
  EXPECT_LT(m.Score(NumericSample("s", "a", a), NumericSample("t", "b", b)),
            0.1);
}

TEST(NumericMatcherTest, WideMixtureScoresBelowMatchedSpread) {
  NumericMatcher m;
  Rng rng(7);
  std::vector<double> narrow, narrow2, mixture;
  for (int i = 0; i < 300; ++i) {
    narrow.push_back(rng.NextGaussian(60, 5));
    narrow2.push_back(rng.NextGaussian(60, 5));
    // Mixture over 5 means, same overall center.
    mixture.push_back(rng.NextGaussian(40 + 10 * (i % 5), 5));
  }
  auto target = NumericSample("t", "g3", narrow);
  double matched =
      m.Score(NumericSample("s", "n", narrow2), target);
  double mixed = m.Score(NumericSample("s", "m", mixture), target);
  EXPECT_GT(matched, mixed);
}

TEST(NumericMatcherTest, ScoresMonotoneInMeanDistance) {
  NumericMatcher m;
  Rng rng(8);
  std::vector<double> base;
  for (int i = 0; i < 300; ++i) base.push_back(rng.NextGaussian(50, 5));
  auto target = NumericSample("t", "x", base);
  double prev = 2.0;
  for (double mean : {50.0, 60.0, 70.0, 80.0}) {
    std::vector<double> probe;
    for (int i = 0; i < 300; ++i) probe.push_back(rng.NextGaussian(mean, 5));
    double score = m.Score(NumericSample("s", "p", probe), target);
    EXPECT_LT(score, prev) << "mean=" << mean;
    prev = score;
  }
}

// --------------------------------------------------------------- Session

/// Small but realistic source/target fixture: a combined inventory vs a
/// books table and a music table.
struct SessionFixture {
  Database target;
  Table source;

  SessionFixture() {
    Rng rng(11);
    std::vector<Row> src_rows, book_rows, music_rows;
    for (int i = 0; i < 60; ++i) {
      bool is_book = (i % 2 == 0);
      src_rows.push_back(
          {S(is_book ? "B" : "C"),
           S(is_book ? MakeBookTitle(rng).c_str() : MakeAlbumTitle(rng).c_str()),
           R(is_book ? 20.0 + rng.NextDouble() * 20 : 10.0 + rng.NextDouble() * 5)});
      book_rows.push_back({S(MakeBookTitle(rng).c_str()),
                           R(20.0 + rng.NextDouble() * 20)});
      music_rows.push_back({S(MakeAlbumTitle(rng).c_str()),
                            R(10.0 + rng.NextDouble() * 5)});
    }
    source = MakeTable("inv", {"kind", "title", "price"}, src_rows);
    target = Database("tgt");
    target.AddTable(MakeTable("books", {"name", "cost"}, book_rows));
    target.AddTable(MakeTable("music", {"album", "price"}, music_rows));
  }
};

TEST(SessionTest, AcceptedMatchesAreSortedAndThresholded) {
  SessionFixture fx;
  TableMatchSession session(fx.source, fx.target, DefaultMatcherSuite());
  MatchList matches = session.AcceptedMatches(0.5);
  ASSERT_FALSE(matches.empty());
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].confidence, matches[i].confidence);
  }
  for (const Match& m : matches) {
    EXPECT_GE(m.confidence, 0.5);
    EXPECT_TRUE(m.is_standard());
  }
}

TEST(SessionTest, TitleMatchesBothNameColumns) {
  SessionFixture fx;
  TableMatchSession session(fx.source, fx.target, DefaultMatcherSuite());
  MatchScore to_books =
      session.PairScore("title", AttributeRef{"books", "name"});
  MatchScore to_music =
      session.PairScore("title", AttributeRef{"music", "album"});
  EXPECT_GT(to_books.confidence, 0.5);
  EXPECT_GT(to_music.confidence, 0.3);
  MatchScore to_cost =
      session.PairScore("title", AttributeRef{"books", "cost"});
  EXPECT_LT(to_cost.confidence, to_books.confidence);
}

TEST(SessionTest, RestrictedBagShiftsConfidence) {
  SessionFixture fx;
  TableMatchSession session(fx.source, fx.target, DefaultMatcherSuite());
  // Books-only restriction of `title`.
  std::vector<Value> books_only, music_only;
  for (size_t r = 0; r < fx.source.num_rows(); ++r) {
    if (fx.source.ValueAt(r, "kind") == S("B")) {
      books_only.push_back(fx.source.ValueAt(r, "title"));
    } else {
      music_only.push_back(fx.source.ValueAt(r, "title"));
    }
  }
  AttributeRef book_name{"books", "name"};
  double base = session.PairScore("title", book_name).confidence;
  double restricted_good =
      session.ScoreRestricted("title", books_only, book_name).confidence;
  double restricted_bad =
      session.ScoreRestricted("title", music_only, book_name).confidence;
  EXPECT_GT(restricted_good, base);
  EXPECT_LT(restricted_bad, base);
}

TEST(SessionTest, EmptyRestrictionScoresZero) {
  SessionFixture fx;
  TableMatchSession session(fx.source, fx.target, DefaultMatcherSuite());
  MatchScore ms =
      session.ScoreRestricted("title", {}, AttributeRef{"books", "name"});
  EXPECT_EQ(ms.matchers_used, 0u);
  EXPECT_DOUBLE_EQ(ms.confidence, 0.0);
}

TEST(SessionTest, BlendAblationChangesConfidences) {
  SessionFixture fx;
  MatchOptions blended;
  MatchOptions pure;
  pure.blend_raw_score = false;
  TableMatchSession with(fx.source, fx.target, DefaultMatcherSuite(), blended);
  TableMatchSession without(fx.source, fx.target, DefaultMatcherSuite(), pure);
  // Pure z-normalization saturates: the kind column (2 distinct letters)
  // still gets a confident best target, while the blend keeps it low.
  double best_with = 0, best_without = 0;
  for (const AttributeRef& ref : with.target_refs()) {
    best_with = std::max(best_with, with.PairScore("kind", ref).confidence);
    best_without =
        std::max(best_without, without.PairScore("kind", ref).confidence);
  }
  EXPECT_LT(best_with, best_without);
}

TEST(SessionTest, TargetRefsEnumerateAllTargetAttributes) {
  SessionFixture fx;
  TableMatchSession session(fx.source, fx.target, DefaultMatcherSuite());
  EXPECT_EQ(session.target_refs().size(), 4u);
  EXPECT_EQ(session.source_attributes(),
            (std::vector<std::string>{"kind", "title", "price"}));
}

TEST(SessionTest, StandardMatchHelperAgreesWithSession) {
  SessionFixture fx;
  MatchList helper = StandardMatch(fx.source, fx.target, 0.5);
  TableMatchSession session(fx.source, fx.target, DefaultMatcherSuite());
  MatchList direct = session.AcceptedMatches(0.5);
  ASSERT_EQ(helper.size(), direct.size());
  for (size_t i = 0; i < helper.size(); ++i) {
    EXPECT_TRUE(SameCorrespondence(helper[i], direct[i]));
    EXPECT_DOUBLE_EQ(helper[i].confidence, direct[i].confidence);
  }
}

// The max_training_rows cap must be *exactly* "run the session on the
// deterministically sampled tables": build the capped session, then build
// an uncapped session over tables pre-sampled with the same
// DeriveTableSampleSeed/ReservoirSampleRows draw, and require identical
// matches bit for bit.
TEST(SessionTest, TrainingCapEquivalentToPreSampledTables) {
  SessionFixture fx;
  MatchOptions capped;
  capped.max_training_rows = 20;  // < 60 rows, so every table gets sampled

  auto sampled = [&](const Table& table) {
    Rng rng(DeriveTableSampleSeed(capped.training_sample_seed, table.name()));
    return ReservoirSampleRows(table, capped.max_training_rows, rng);
  };
  Database sampled_target("tgt");
  for (const Table& table : fx.target.tables()) {
    sampled_target.AddTable(sampled(table));
  }

  MatchList capped_matches = StandardMatch(fx.source, fx.target, 0.0, capped);
  MatchList manual_matches =
      StandardMatch(sampled(fx.source), sampled_target, 0.0);
  ASSERT_EQ(capped_matches.size(), manual_matches.size());
  for (size_t i = 0; i < capped_matches.size(); ++i) {
    EXPECT_TRUE(SameCorrespondence(capped_matches[i], manual_matches[i]));
    EXPECT_EQ(capped_matches[i].confidence, manual_matches[i].confidence);
    EXPECT_EQ(capped_matches[i].score, manual_matches[i].score);
  }
}

// Tables at or under the cap must be completely unaffected by it.
TEST(SessionTest, TrainingCapNoOpWhenTablesFit) {
  SessionFixture fx;
  MatchOptions capped;
  capped.max_training_rows = 60;  // == fixture table size
  MatchList with_cap = StandardMatch(fx.source, fx.target, 0.0, capped);
  MatchList without = StandardMatch(fx.source, fx.target, 0.0);
  ASSERT_EQ(with_cap.size(), without.size());
  for (size_t i = 0; i < with_cap.size(); ++i) {
    EXPECT_TRUE(SameCorrespondence(with_cap[i], without[i]));
    EXPECT_EQ(with_cap[i].confidence, without[i].confidence);
  }
}

TEST(MatchTypesTest, ToStringAndCorrespondence) {
  Match m;
  m.source = {"inv", "Title"};
  m.target = {"Book", "BookTitle"};
  m.score = 0.5;
  m.confidence = 0.75;
  EXPECT_NE(m.ToString().find("inv.Title -> Book.BookTitle"),
            std::string::npos);
  EXPECT_TRUE(m.is_standard());
  Match c = m;
  c.condition = Condition::Equals("ItemType", S("Book1"));
  EXPECT_FALSE(c.is_standard());
  EXPECT_NE(c.ToString().find("[ItemType = 'Book1']"), std::string::npos);
  EXPECT_FALSE(SameCorrespondence(m, c));
  c.condition = Condition::True();
  EXPECT_TRUE(SameCorrespondence(m, c));
}

}  // namespace
}  // namespace csm

namespace csm {
namespace {

// Appended: ValueOverlapMatcher coverage.
TEST(ValueOverlapMatcherTest, FractionOfSharedDistinctValues) {
  ValueOverlapMatcher m;
  auto a = StringSample("s", "a", {"x", "y", "z", "x"});
  auto b = StringSample("t", "b", {"y", "z", "q"});
  // Distinct source {x,y,z}; {y,z} appear in target -> 2/3.
  EXPECT_NEAR(m.Score(a, b), 2.0 / 3.0, 1e-12);
  // Asymmetric by design: target {y,z,q}, {y,z} in source -> 2/3 too here.
  EXPECT_NEAR(m.Score(b, a), 2.0 / 3.0, 1e-12);
}

TEST(ValueOverlapMatcherTest, DisjointAndIdenticalExtremes) {
  ValueOverlapMatcher m;
  auto a = StringSample("s", "a", {"1", "2"});
  auto b = StringSample("t", "b", {"3", "4"});
  EXPECT_DOUBLE_EQ(m.Score(a, b), 0.0);
  EXPECT_DOUBLE_EQ(m.Score(a, a), 1.0);
}

TEST(ValueOverlapMatcherTest, ApplicabilityNeedsValues) {
  ValueOverlapMatcher m;
  AttributeSample empty(AttributeRef{"t", "e"}, ValueType::kString, {});
  auto a = StringSample("s", "a", {"x"});
  EXPECT_FALSE(m.Applicable(a, empty));
  EXPECT_TRUE(m.Applicable(a, a));
}

TEST(ValueOverlapMatcherTest, CrossTypeValuesCompareByRendering) {
  ValueOverlapMatcher m;
  AttributeSample ints(AttributeRef{"s", "i"}, ValueType::kInt,
                       {Value::Int(1), Value::Int(2)});
  auto strings = StringSample("t", "s", {"1", "9"});
  EXPECT_NEAR(m.Score(ints, strings), 0.5, 1e-12);
}

}  // namespace
}  // namespace csm
