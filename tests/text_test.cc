// Tests for src/text: tokenizer, profiles & similarities, string distances,
// TF-IDF.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "check/token_profile.h"
#include "text/gram.h"
#include "text/string_distance.h"
#include "text/tfidf.h"
#include "text/tokenizer.h"

namespace csm {
namespace {

// The map-based profiles and TF-IDF are the fuzzers' reference
// (check/token_profile.h); the ProfileTest cases pin its semantics.
using check::ReferenceTfIdfCorpus;
using check::TokenProfile;

// ------------------------------------------------------------- Tokenizer

TEST(TokenizerTest, NormalizeText) {
  EXPECT_EQ(NormalizeText("Lance Armstrong's War!"), "lance armstrong s war");
  EXPECT_EQ(NormalizeText("  A--B  "), "a b");
  EXPECT_EQ(NormalizeText(""), "");
  EXPECT_EQ(NormalizeText("!!!"), "");
  EXPECT_EQ(NormalizeText("abc123"), "abc123");
}

TEST(TokenizerTest, WordCharactersAreAsciiForEveryByte) {
  // The class and lowercase of all 256 bytes, whatever the process locale:
  // exactly [0-9A-Za-z] are word characters and only 'A'-'Z' change case.
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool upper = b >= 'A' && b <= 'Z';
    const bool word = (b >= '0' && b <= '9') || upper || (b >= 'a' && b <= 'z');
    EXPECT_EQ(IsWordChar(c), word) << "byte " << b;
    EXPECT_EQ(ToLowerChar(c), upper ? static_cast<char>(b - 'A' + 'a') : c)
        << "byte " << b;
    // Every tokenizer follows the same class: one lowercase token or none.
    const std::string text(1, c);
    const std::string lowered(1, ToLowerChar(c));
    EXPECT_EQ(NormalizeText(text), word ? lowered : "") << "byte " << b;
    EXPECT_EQ(WordTokens(text),
              word ? std::vector<std::string>{lowered}
                   : std::vector<std::string>{})
        << "byte " << b;
    std::string scratch;
    std::vector<uint32_t> ranks;
    AppendQGramRanks(text, &scratch, &ranks);
    EXPECT_EQ(ranks.size(), word ? 3u : 0u) << "byte " << b;
  }
}

TEST(TokenizerTest, WordTokens) {
  EXPECT_EQ(WordTokens("The Quick, Brown Fox."),
            (std::vector<std::string>{"the", "quick", "brown", "fox"}));
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("---").empty());
  EXPECT_EQ(WordTokens("x"), (std::vector<std::string>{"x"}));
}

TEST(TokenizerTest, QGramsPaddedAndOrdered) {
  std::vector<std::string> grams = QGrams("ab", 3);
  EXPECT_EQ(grams, (std::vector<std::string>{"##a", "#ab", "ab#", "b##"}));
}

TEST(TokenizerTest, QGramsNormalizeFirst) {
  EXPECT_EQ(QGrams("A-B", 3), QGrams("a b", 3));
}

TEST(TokenizerTest, QGramsEdgeCases) {
  EXPECT_TRUE(QGrams("", 3).empty());
  EXPECT_TRUE(QGrams("!!!", 3).empty());
  EXPECT_TRUE(QGrams("abc", 0).empty());
  // q=1: no padding beyond the string itself.
  EXPECT_EQ(QGrams("ab", 1), (std::vector<std::string>{"a", "b"}));
}

TEST(TokenizerTest, QGramCountMatchesFormula) {
  // Padded length = n + 2(q-1); gram count = padded - q + 1 = n + q - 1.
  std::string text = "hello";
  EXPECT_EQ(QGrams(text, 3).size(), text.size() + 2);
}

// --------------------------------------------------------------- Profile

TokenProfile ProfileOf(const std::vector<std::string>& tokens) {
  TokenProfile p;
  p.AddAll(tokens);
  return p;
}

TEST(ProfileTest, CountsAndTotals) {
  TokenProfile p = ProfileOf({"a", "b", "a"});
  EXPECT_EQ(p.num_distinct(), 2u);
  EXPECT_DOUBLE_EQ(p.total(), 3.0);
  EXPECT_DOUBLE_EQ(p.Count("a"), 2.0);
  EXPECT_DOUBLE_EQ(p.Count("z"), 0.0);
}

TEST(ProfileTest, NormAndDot) {
  TokenProfile p = ProfileOf({"a", "a", "b"});  // (2,1)
  TokenProfile q = ProfileOf({"a", "b", "b"});  // (1,2)
  EXPECT_DOUBLE_EQ(p.Norm(), std::sqrt(5.0));
  EXPECT_DOUBLE_EQ(p.Dot(q), 4.0);
  EXPECT_EQ(p.IntersectionSize(q), 2u);
}

TEST(ProfileTest, CosineIdenticalIsOne) {
  TokenProfile p = ProfileOf({"x", "y", "x"});
  EXPECT_NEAR(CosineSimilarity(p, p), 1.0, 1e-12);
}

TEST(ProfileTest, CosineDisjointIsZero) {
  EXPECT_DOUBLE_EQ(
      CosineSimilarity(ProfileOf({"a"}), ProfileOf({"b"})), 0.0);
}

TEST(ProfileTest, CosineEmptyIsZero) {
  TokenProfile empty;
  EXPECT_DOUBLE_EQ(CosineSimilarity(empty, ProfileOf({"a"})), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(empty, empty), 0.0);
}

TEST(ProfileTest, CosineIsSymmetric) {
  TokenProfile p = ProfileOf({"a", "b", "c", "a"});
  TokenProfile q = ProfileOf({"b", "c", "d"});
  EXPECT_DOUBLE_EQ(CosineSimilarity(p, q), CosineSimilarity(q, p));
}

TEST(ProfileTest, DiceOfPartialOverlap) {
  TokenProfile p = ProfileOf({"a", "b", "c"});
  TokenProfile q = ProfileOf({"b", "c", "d", "e"});
  // 2 shared of 3 + 4 distinct.
  EXPECT_DOUBLE_EQ(DiceSimilarity(p, q), 2.0 * 2.0 / 7.0);
}

TEST(ProfileTest, SimilaritiesBounded) {
  TokenProfile p = ProfileOf({"a", "b"});
  TokenProfile q = ProfileOf({"a", "b"});
  EXPECT_DOUBLE_EQ(DiceSimilarity(p, q), 1.0);
  EXPECT_NEAR(CosineSimilarity(p, q), 1.0, 1e-12);
}

// ------------------------------------------------------ String distances

TEST(StringDistanceTest, JaroKnownValues) {
  EXPECT_DOUBLE_EQ(JaroSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(JaroSimilarity("martha", "marhta"), 0.9444, 1e-3);
  EXPECT_NEAR(JaroSimilarity("dixon", "dicksonx"), 0.7667, 1e-3);
}

TEST(StringDistanceTest, JaroWinklerBoostsCommonPrefix) {
  double jaro = JaroSimilarity("martha", "marhta");
  double jw = JaroWinklerSimilarity("martha", "marhta");
  EXPECT_GT(jw, jaro);
  EXPECT_NEAR(jw, 0.9611, 1e-3);
  // No common prefix: equal to Jaro.
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "xbc"),
                   JaroSimilarity("abc", "xbc"));
}

TEST(StringDistanceTest, JaroWinklerBounded) {
  EXPECT_LE(JaroWinklerSimilarity("prefixes", "prefixed"), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("same", "same"), 1.0);
}

// ----------------------------------------------------------------- TFIDF

WordProfile WordsOf(const std::vector<std::string>& tokens) {
  WordProfileBuilder builder;
  for (const std::string& token : tokens) builder.Add(token);
  return builder.Build();
}

TEST(TfIdfTest, IdfDiscountsCommonTokens) {
  const WordProfile d1 = WordsOf({"the", "cat"});
  const WordProfile d2 = WordsOf({"the", "dog"});
  const WordProfile d3 = WordsOf({"the", "fox"});
  const TfIdfCorpus corpus({&d1, &d2, &d3});
  EXPECT_EQ(corpus.num_documents(), 3u);
  EXPECT_LT(corpus.Idf("the"), corpus.Idf("cat"));
  EXPECT_GT(corpus.Idf("never_seen"), corpus.Idf("cat"));

  // The IDF table holds exactly the reference's per-lookup logarithms.
  ReferenceTfIdfCorpus reference;
  for (const auto& tokens : std::vector<std::vector<std::string>>{
           {"the", "cat"}, {"the", "dog"}, {"the", "fox"}}) {
    TokenProfile d;
    d.AddAll(tokens);
    reference.AddDocument(d);
  }
  for (const char* token : {"the", "cat", "dog", "fox", "never_seen"}) {
    EXPECT_EQ(corpus.Idf(token), reference.Idf(token)) << token;
  }
}

TEST(TfIdfTest, WeightScalesCounts) {
  ReferenceTfIdfCorpus corpus;
  TokenProfile d;
  d.AddAll({"rare", "common", "common"});
  corpus.AddDocument(d);
  TokenProfile w = corpus.Weight(d);
  EXPECT_DOUBLE_EQ(w.Count("rare"), 1.0 * corpus.Idf("rare"));
  EXPECT_DOUBLE_EQ(w.Count("common"), 2.0 * corpus.Idf("common"));
}

TEST(TfIdfTest, WeightedCosinePrefersDistinctiveOverlap) {
  // Documents share "the"; only d1/d2 share "cat".  The weighted cosine of
  // (d1, d2) must exceed that of (d1, d3) by more than the raw cosine does,
  // because "the" is discounted.
  const WordProfile d1 = WordsOf({"the", "cat", "sat"});
  const WordProfile d2 = WordsOf({"the", "cat", "ran"});
  const WordProfile d3 = WordsOf({"the", "dog", "ran"});
  const WordProfile d4 = WordsOf({"the", "owl", "hid"});
  const TfIdfCorpus corpus({&d1, &d2, &d3, &d4});
  double w12 = corpus.WeightedCosine(d1, d2);
  double w14 = corpus.WeightedCosine(d1, d4);
  EXPECT_GT(w12, w14);
}

TEST(TfIdfTest, QueriesKeepTheirNormButAreNotDocuments) {
  const WordProfile d1 = WordsOf({"the", "cat", "sat"});
  const WordProfile d2 = WordsOf({"the", "dog"});
  const WordProfile query = WordsOf({"cat", "cat", "owl", "the"});
  const TfIdfCorpus documents_only({&d1, &d2});
  const TfIdfCorpus corpus({&d1, &d2}, {&query, &d1});
  // A query counts toward no document frequency, and d1 stays a document.
  EXPECT_EQ(corpus.num_documents(), 2u);
  for (const char* token : {"the", "cat", "owl", "sat"}) {
    EXPECT_EQ(corpus.Idf(token), documents_only.Idf(token)) << token;
  }
  // Its stored norm and cosines are the looked-up ones, bit for bit.
  const WordProfile copy = query;
  EXPECT_EQ(corpus.WeightedNorm(query), corpus.WeightedNorm(copy));
  EXPECT_EQ(corpus.WeightedNorm(d1), documents_only.WeightedNorm(d1));
  for (const WordProfile* document : {&d1, &d2}) {
    EXPECT_EQ(corpus.WeightedCosine(query, *document),
              corpus.WeightedCosine(copy, *document));
    EXPECT_EQ(corpus.WeightedCosine(*document, query),
              corpus.WeightedCosine(*document, copy));
  }
}

// A row scatters one profile and scores it against many: every cosine is
// WeightedCosine's bit for bit, against documents (the dense walk) and
// against a query or a stranger (the merge fallback), for a document, a
// query, a stranger holding a token no document has, and an empty profile.
TEST(TfIdfTest, CosineRowMatchesWeightedCosine) {
  const WordProfile d1 = WordsOf({"the", "cat", "sat", "cat", "mat"});
  const WordProfile d2 = WordsOf({"the", "dog", "dog", "ran"});
  const WordProfile d3 = WordsOf({"a", "cat", "and", "a", "dog"});
  const WordProfile query = WordsOf({"cat", "cat", "owl", "the", "dog"});
  const WordProfile stranger = WordsOf({"zebra", "mat", "the", "the"});
  const WordProfile empty;
  const TfIdfCorpus corpus({&d1, &d2, &d3}, {&query});
  for (const WordProfile* a : {&d1, &query, &stranger, &empty}) {
    const TfIdfCorpus::CosineRow row(corpus, *a);
    for (const WordProfile* b : {&d1, &d2, &d3, &query, &stranger, &empty}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(row.Cosine(*b)),
                std::bit_cast<uint64_t>(corpus.WeightedCosine(*a, *b)));
    }
  }
}

// A corpus with more tokens than a thread keeps scratch for scores its
// rows in a private array, with the same cosines.
TEST(TfIdfTest, CosineRowOverALargeCorpus) {
  std::vector<std::string> many;
  for (size_t k = 0; k <= ZeroedScratch::kMaxThreadDoubles; ++k) {
    many.push_back("w" + std::to_string(k));
  }
  const WordProfile big = WordsOf(many);
  const WordProfile d = WordsOf({"w7", "w7", "x", "w65536"});
  const WordProfile query = WordsOf({"w65536", "w7", "y"});
  const TfIdfCorpus corpus({&big, &d}, {&query});
  for (const WordProfile* a : {&query, &d}) {
    const TfIdfCorpus::CosineRow row(corpus, *a);
    for (const WordProfile* b : {&big, &d}) {
      EXPECT_EQ(std::bit_cast<uint64_t>(row.Cosine(*b)),
                std::bit_cast<uint64_t>(corpus.WeightedCosine(*a, *b)));
    }
  }
}

TEST(TfIdfTest, EmptyCorpusStillWorks) {
  const TfIdfCorpus corpus;
  const WordProfile d = WordsOf({"a"});
  EXPECT_GT(corpus.Idf("a"), 0.0);
  EXPECT_NEAR(corpus.WeightedCosine(d, d), 1.0, 1e-12);
}

// ------------------------------------------------------------ Gram kernel

TEST(GramKernelTest, PackUnpackRoundTrip) {
  for (size_t q = 1; q <= kMaxPackedGramQ; ++q) {
    for (const std::string text : {"hello", "a", "x9 z", "the end"}) {
      for (const std::string& gram : QGrams(text, q)) {
        EXPECT_EQ(UnpackGram(PackGram(gram), q), gram);
      }
    }
  }
}

TEST(GramKernelTest, PackedOrderIsLexOrder) {
  // Big-endian packing: numeric id order == lexicographic gram order for a
  // fixed q (what lets sorted flat profiles replace the sorted map).
  std::vector<std::string> grams = QGrams("schema matching", 3);
  std::sort(grams.begin(), grams.end());
  for (size_t g = 1; g < grams.size(); ++g) {
    EXPECT_LE(PackGram(grams[g - 1]), PackGram(grams[g]));
    if (grams[g - 1] != grams[g]) {
      EXPECT_LT(PackGram(grams[g - 1]), PackGram(grams[g]));
    }
  }
}

TEST(GramKernelTest, AppendPackedMatchesStringGrams) {
  std::string scratch;
  for (size_t q = 1; q <= kMaxPackedGramQ; ++q) {
    for (const std::string text :
         {"", "!!!", "ab", "Hello, World", "caf\xc3\xa9 menu", "42.5"}) {
      const std::vector<std::string> grams = QGrams(text, q);
      std::vector<GramId> ids;
      AppendPackedQGrams(text, q, &scratch, &ids);
      ASSERT_EQ(ids.size(), grams.size()) << "q=" << q << " \"" << text << '"';
      for (size_t g = 0; g < grams.size(); ++g) {
        EXPECT_EQ(ids[g], PackGram(grams[g]));
      }
    }
  }
}

TEST(GramKernelTest, EmptyAndSeparatorOnlyTextsProduceNoGrams) {
  std::string scratch;
  std::vector<GramId> ids;
  AppendPackedQGrams("", 3, &scratch, &ids);
  EXPECT_TRUE(ids.empty());
  AppendPackedQGrams("?!,", 3, &scratch, &ids);
  EXPECT_TRUE(ids.empty());
}

TEST(GramKernelTest, MultiByteUtf8ActsAsSeparator) {
  // NormalizeText maps bytes >= 0x80 to separators, so multi-byte UTF-8
  // never reaches the packer and packed ids stay injective.
  EXPECT_EQ(QGrams("caf\xc3\xa9", 3), QGrams("caf", 3));
  std::string scratch;
  std::vector<GramId> ids, ascii_ids;
  AppendPackedQGrams("caf\xc3\xa9", 3, &scratch, &ids);
  AppendPackedQGrams("caf", 3, &scratch, &ascii_ids);
  EXPECT_EQ(ids, ascii_ids);
}

TEST(GramKernelTest, DenseRanksKeepGramIdOrder) {
  // Rank order is packed-id (= lexicographic) order over the whole
  // 38-symbol alphabet, so GramOfRank is injective.
  GramId previous = 0;
  for (uint32_t rank = 0; rank < kNumGramRanks; ++rank) {
    const GramId id = GramOfRank(rank);
    if (rank > 0) {
      ASSERT_LT(previous, id) << rank;
    }
    previous = id;
  }
  EXPECT_EQ(GramOfRank(0), PackGram("   "));
  EXPECT_EQ(GramOfRank(kNumGramRanks - 1), PackGram("zzz"));

  std::string scratch;
  std::vector<uint32_t> ranks;
  AppendQGramRanks("Ab 9", &scratch, &ranks);
  const std::vector<std::string> grams = QGrams("Ab 9", 3);
  ASSERT_EQ(ranks.size(), grams.size());
  for (size_t g = 0; g < grams.size(); ++g) {
    EXPECT_EQ(GramOfRank(ranks[g]), PackGram(grams[g])) << grams[g];
  }
}

TEST(GramKernelTest, RankOfGramInvertsGramOfRank) {
  for (uint32_t rank = 0; rank < kNumGramRanks; ++rank) {
    ASSERT_EQ(RankOfGram(GramOfRank(rank)), rank);
  }
  EXPECT_EQ(RankOfGram(PackGram("abcd")), kNumGramRanks);
  EXPECT_EQ(RankOfGram(PackGram("a!b")), kNumGramRanks);
}

// A row's cosines are CosineSimilarity's bit for bit, rows nest on one
// thread, and each leaves the thread's scratch zero for the next.
TEST(GramKernelTest, CosineRowMatchesCosineSimilarity) {
  auto profile = [](std::vector<std::pair<std::string, double>> texts) {
    GramProfileBuilder builder;
    for (const auto& [text, count] : texts) builder.AddText(text, count);
    return builder.Build();
  };
  const std::vector<GramProfile> profiles = {
      profile({{"The Cat sat", 3}, {"on the mat", 1}}),
      profile({{"dog days", 2}, {"the cat", 5}}),
      profile({{"zz top", 1}}),
      profile({{"---", 4}}),  // no word character: an empty profile
      profile({{"Ab 9", 7}, {"the cat sat on the mat", 2}})};
  for (const GramProfile& a : profiles) {
    const GramCosineRow row(a);
    for (const GramProfile& b : profiles) {
      const GramCosineRow nested(b);
      EXPECT_EQ(std::bit_cast<uint64_t>(row.Cosine(b)),
                std::bit_cast<uint64_t>(CosineSimilarity(a, b)));
      EXPECT_EQ(std::bit_cast<uint64_t>(nested.Cosine(a)),
                std::bit_cast<uint64_t>(CosineSimilarity(b, a)));
    }
  }
}

TEST(GramKernelTest, RankSlotsVisitInRankOrderAndNest) {
  GramRankSlots outer;
  EXPECT_EQ(outer.Touch(500), 0u);
  EXPECT_EQ(outer.Touch(7), 1u);
  EXPECT_EQ(outer.Touch(500), 0u);
  {
    // A second borrower on this thread gets its own table.
    GramRankSlots inner;
    EXPECT_EQ(inner.Touch(7), 0u);
    EXPECT_EQ(inner.size(), 1u);
  }
  EXPECT_EQ(outer.Touch(kNumGramRanks - 1), 2u);
  std::vector<std::pair<uint32_t, uint32_t>> visited;
  outer.ForEachInRankOrder(
      [&](uint32_t rank, uint32_t slot) { visited.emplace_back(rank, slot); });
  EXPECT_EQ(visited, (std::vector<std::pair<uint32_t, uint32_t>>{
                         {7, 1}, {500, 0}, {kNumGramRanks - 1, 2}}));
  outer.Clear();
  EXPECT_EQ(outer.size(), 0u);
  EXPECT_EQ(outer.Touch(500), 0u);
}

TEST(GramKernelTest, TokenInternerFirstSeenOrder) {
  TokenInterner interner;
  EXPECT_EQ(interner.GetOrAdd("beta"), 0u);
  EXPECT_EQ(interner.GetOrAdd("alpha"), 1u);
  EXPECT_EQ(interner.GetOrAdd("beta"), 0u);
  EXPECT_EQ(interner.value(0), "beta");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(GramKernelTest, FlatProfilesMatchMapProfiles) {
  const std::vector<std::string> texts = {"the silent river", "a winter",
                                          "the paper ocean", ""};
  TokenProfile ref_q, ref_w;
  GramProfileBuilder gram_builder;
  WordProfileBuilder word_builder;
  for (const std::string& text : texts) {
    ref_q.AddAll(QGrams(text, 3));
    ref_w.AddAll(WordTokens(text));
    gram_builder.AddText(text);
    word_builder.AddText(text);
  }
  const GramProfile gp = gram_builder.Build();
  const WordProfile wp = word_builder.Build();
  EXPECT_EQ(gp.num_distinct(), ref_q.num_distinct());
  EXPECT_EQ(gp.total(), ref_q.total());
  EXPECT_EQ(gp.Norm(), ref_q.Norm());
  EXPECT_EQ(gp.Dot(gp), ref_q.Dot(ref_q));
  EXPECT_EQ(wp.num_distinct(), ref_w.num_distinct());
  EXPECT_EQ(wp.total(), ref_w.total());
  EXPECT_EQ(CosineSimilarity(gp, gp), CosineSimilarity(ref_q, ref_q));
  EXPECT_EQ(DiceSimilarity(wp, wp), DiceSimilarity(ref_w, ref_w));
}

TEST(GramKernelTest, WeightedProfileCountsScale) {
  // AddText(text, count) must equal adding the text `count` times.
  GramProfileBuilder once_builder, scaled_builder;
  for (int rep = 0; rep < 5; ++rep) once_builder.AddText("abc");
  scaled_builder.AddText("abc", 5.0);
  const GramProfile repeated = once_builder.Build();
  const GramProfile scaled = scaled_builder.Build();
  EXPECT_EQ(repeated.total(), scaled.total());
  EXPECT_EQ(repeated.Norm(), scaled.Norm());
  EXPECT_EQ(repeated.num_distinct(), scaled.num_distinct());
}

}  // namespace
}  // namespace csm
