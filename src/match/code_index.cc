#include "match/code_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"
#include "text/tokenizer.h"

namespace csm {
namespace {

/// Merge's dense accumulator, borrowed per thread as GramRankSlots borrows
/// its rank table: each slot's sum and the touched-slot bitset, all zero
/// between calls, grown to the largest vocabulary the thread has merged.
struct MergeScratch {
  std::vector<double> sums;
  std::vector<uint64_t> touched;
};

MergeScratch& LocalMergeScratch(size_t vocab_size) {
  thread_local MergeScratch scratch;
  if (scratch.sums.size() < vocab_size) {
    scratch.sums.resize(vocab_size, 0.0);
    scratch.touched.resize((vocab_size + 63) / 64, 0);
  }
  return scratch;
}

}  // namespace

void BuildCodePartials(const std::vector<uint32_t>& raw_offsets,
                       const std::vector<uint32_t>& raw, size_t vocab_size,
                       std::vector<uint32_t>* offsets,
                       std::vector<CodePartial>* partials) {
  // last_code[v]: the last code whose row held index v, and at[v] its term
  // in that row, so each occurrence either opens a term or adds to one.
  constexpr uint32_t kNoCode = ~uint32_t{0};
  std::vector<uint32_t> last_code(vocab_size, kNoCode);
  std::vector<uint32_t> at(vocab_size);
  offsets->assign(1, 0);
  offsets->reserve(raw_offsets.size());
  partials->clear();
  for (uint32_t c = 0; c + 1 < raw_offsets.size(); ++c) {
    for (uint32_t k = raw_offsets[c]; k < raw_offsets[c + 1]; ++k) {
      const uint32_t v = raw[k];
      if (last_code[v] != c) {
        last_code[v] = c;
        at[v] = static_cast<uint32_t>(partials->size());
        partials->push_back({v, 1});
      } else {
        ++(*partials)[at[v]].count;
      }
    }
    offsets->push_back(static_cast<uint32_t>(partials->size()));
  }
}

CodeTokenIndex::CodeTokenIndex(const Column& column)
    : row_codes_(column.size(), kNullCode) {
  // Codes: distinct non-null values in first-seen row order.
  PosList first_rows;
  auto assign = [&](auto key) {
    std::unordered_map<decltype(key(0)), uint32_t> code_of;
    for (size_t r = 0; r < column.size(); ++r) {
      if (column.IsNull(r)) continue;
      auto [it, inserted] = code_of.try_emplace(
          key(r), static_cast<uint32_t>(first_rows.size()));
      if (inserted) first_rows.push_back(static_cast<RowId>(r));
      row_codes_[r] = it->second;
    }
  };
  switch (column.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      assign([&](size_t r) { return column.ints()[r]; });
      break;
    case ValueType::kReal:
      assign([&](size_t r) {
        return std::bit_cast<uint64_t>(column.reals()[r]);
      });
      break;
    case ValueType::kString:
      assign([&](size_t r) { return column.codes()[r]; });
      break;
  }
  representatives_ = column.Gather(first_rows);

  // Tokenize each code's rendering once: each gram's first-touch slot of
  // its dense rank and interned word ids, CSR over codes.
  GramRankSlots gram_slots;
  auto interner = std::make_shared<TokenInterner>();
  std::vector<uint32_t> raw_gram_offsets{0}, raw_word_offsets{0};
  std::vector<uint32_t> raw_grams, raw_words, ranks;
  std::string rendering, padded;
  std::vector<std::string> words;
  for (size_t c = 0; c < first_rows.size(); ++c) {
    std::string_view text;
    if (representatives_.type() == ValueType::kString) {
      const uint32_t dictionary_code = representatives_.codes()[c];
      text = representatives_.dictionary().values()[dictionary_code];
    } else {
      rendering.clear();
      representatives_.AppendRendering(c, &rendering);
      text = rendering;
    }
    ranks.clear();
    AppendQGramRanks(text, &padded, &ranks);
    for (uint32_t rank : ranks) raw_grams.push_back(gram_slots.Touch(rank));
    raw_gram_offsets.push_back(static_cast<uint32_t>(raw_grams.size()));
    WordTokens(text, &words);
    for (const std::string& word : words) {
      raw_words.push_back(interner->GetOrAdd(word));
    }
    raw_word_offsets.push_back(static_cast<uint32_t>(raw_words.size()));
  }

  // Vocabularies in emission order, then partials over vocabulary indices.
  // The gram vocabulary is the touched ranks walked in rank (= id) order;
  // raw grams hold first-touch slots, renumbered to vocabulary indices.
  std::vector<uint32_t> vocab_index(gram_slots.size());
  gram_vocab_.reserve(gram_slots.size());
  gram_slots.ForEachInRankOrder([&](uint32_t rank, uint32_t first_touch) {
    vocab_index[first_touch] = static_cast<uint32_t>(gram_vocab_.size());
    gram_vocab_.push_back(GramOfRank(rank));
  });
  for (uint32_t& gram : raw_grams) gram = vocab_index[gram];
  BuildCodePartials(raw_gram_offsets, raw_grams, gram_vocab_.size(),
                    &gram_offsets_, &gram_partials_);

  // The interner takes no more adds: its views are final.
  std::vector<GramId> by_token(interner->size());
  std::iota(by_token.begin(), by_token.end(), GramId{0});
  std::sort(by_token.begin(), by_token.end(), [&](GramId a, GramId b) {
    return interner->value(a) < interner->value(b);
  });
  std::vector<uint32_t> rank(by_token.size());
  word_vocab_.reserve(by_token.size());
  for (size_t k = 0; k < by_token.size(); ++k) {
    rank[by_token[k]] = static_cast<uint32_t>(k);
    word_vocab_.push_back(interner->value(by_token[k]));
  }
  for (uint32_t& word : raw_words) word = rank[word];
  BuildCodePartials(raw_word_offsets, raw_words, word_vocab_.size(),
                    &word_offsets_, &word_partials_);
  words_ = std::move(interner);
}

CodeTokenIndex::CodeCounts CodeTokenIndex::Count(
    const PosList& positions) const {
  // The thread's per-code counters, zero between calls and grown to the
  // most codes the thread has counted; only the counted codes are reset.
  thread_local std::vector<uint32_t> count;
  if (count.size() < num_codes()) count.resize(num_codes(), 0);
  CodeCounts out;
  out.reserve(std::min(positions.size(), num_codes()));
  for (RowId p : positions) {
    CSM_CHECK_LT(p, row_codes_.size());
    const uint32_t code = row_codes_[p];
    if (code == kNullCode) continue;
    if (count[code]++ == 0) out.emplace_back(code, 0);
  }
  for (auto& [code, n] : out) {
    n = count[code];
    count[code] = 0;
  }
  return out;
}

void CodeTokenIndex::AppendRendering(uint32_t code, std::string* out) const {
  representatives_.AppendRendering(code, out);
}

SlotTerms CodeTokenIndex::Merge(const std::vector<uint32_t>& offsets,
                                const std::vector<CodePartial>& partials,
                                size_t vocab_size,
                                const CodeCounts& counts) const {
  MergeScratch& scratch = LocalMergeScratch(vocab_size);
  double* sums = scratch.sums.data();
  uint64_t* touched = scratch.touched.data();
  for (const auto& [code, n] : counts) {
    const double weight = static_cast<double>(n);
    for (uint32_t k = offsets[code]; k < offsets[code + 1]; ++k) {
      const CodePartial& p = partials[k];
      sums[p.index] += weight * static_cast<double>(p.count);
      touched[p.index / 64] |= uint64_t{1} << (p.index % 64);
    }
  }
  // Emit in slot order, returning each touched slot and bitset word to 0,
  // into terms sized once from the touched-slot count.
  const size_t words = (vocab_size + 63) / 64;
  size_t touched_slots = 0;
  for (size_t w = 0; w < words; ++w) touched_slots += std::popcount(touched[w]);
  SlotTerms terms;
  terms.reserve(touched_slots);
  for (size_t w = 0; w < words; ++w) {
    if (touched[w] == 0) continue;
    for (uint64_t bits = touched[w]; bits != 0; bits &= bits - 1) {
      const uint32_t v =
          static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
      terms.push_back({v, sums[v]});
      sums[v] = 0.0;
    }
    touched[w] = 0;
  }
  return terms;
}

SlotTerms CodeTokenIndex::MergeQGrams(const CodeCounts& counts) const {
  return Merge(gram_offsets_, gram_partials_, gram_vocab_.size(), counts);
}

SlotTerms CodeTokenIndex::MergeWords(const CodeCounts& counts) const {
  return Merge(word_offsets_, word_partials_, word_vocab_.size(), counts);
}

namespace {

/// Sum of the terms' counts: exact integers below 2^53, so equal to the
/// per-occurrence total of a built profile.
double TotalOf(const SlotTerms& terms) {
  double total = 0.0;
  for (const SlotTerm& t : terms) total += t.count;
  return total;
}

}  // namespace

GramProfile CodeTokenIndex::QGramProfileOf(const SlotTerms& terms) const {
  std::vector<GramProfile::Entry> entries;
  entries.reserve(terms.size());
  for (const SlotTerm& t : terms) {
    entries.push_back({gram_vocab_[t.slot], t.count});
  }
  return GramProfile(std::move(entries), TotalOf(terms));
}

WordProfile CodeTokenIndex::WordProfileOf(const SlotTerms& terms) const {
  std::vector<WordProfile::Entry> entries;
  entries.reserve(terms.size());
  for (const SlotTerm& t : terms) {
    entries.push_back({word_vocab_[t.slot], t.count});
  }
  return WordProfile(words_, std::move(entries), TotalOf(terms));
}

void CodeTokenIndex::AlignQGrams(const GramProfile& target,
                                 IndexAlignment* alignment) const {
  CSM_CHECK(alignment->index == this);
  alignment->gram_counts.assign(gram_vocab_.size(), 0.0);
  auto e = target.entries().begin();
  for (size_t v = 0; v < gram_vocab_.size(); ++v) {
    while (e != target.entries().end() && e->id < gram_vocab_[v]) ++e;
    if (e == target.entries().end()) break;
    if (e->id == gram_vocab_[v]) alignment->gram_counts[v] = e->count;
  }
  alignment->gram_norm = target.Norm();
}

void CodeTokenIndex::AlignWords(const WordProfile& target,
                                const TfIdfCorpus& corpus,
                                IndexAlignment* alignment) const {
  CSM_CHECK(alignment->index == this);
  alignment->word_idf.resize(word_vocab_.size());
  alignment->word_weights.assign(word_vocab_.size(), 0.0);
  auto e = target.entries().begin();
  for (size_t v = 0; v < word_vocab_.size(); ++v) {
    const double idf = corpus.Idf(word_vocab_[v]);
    alignment->word_idf[v] = idf;
    while (e != target.entries().end() && e->token < word_vocab_[v]) ++e;
    if (e != target.entries().end() && e->token == word_vocab_[v]) {
      alignment->word_weights[v] = e->count * idf;
    }
  }
  alignment->word_norm = corpus.WeightedNorm(target);
}

double IndexAlignment::GramCosine(const SlotTerms& terms) const {
  // CosineSimilarity: 0 for an empty side (an empty target has norm 0;
  // a nonempty one has every count >= 1), else Dot / (Norm * Norm) with
  // both sums in id (= slot) order.  A slot the target lacks adds
  // count x 0 = +0.0, an exact no-op on the non-negative dot.
  if (terms.empty()) return 0.0;
  double sum_sq = 0.0;
  double dot = 0.0;
  for (const SlotTerm& t : terms) {
    sum_sq += t.count * t.count;
    dot += t.count * gram_counts[t.slot];
  }
  const double denom = std::sqrt(sum_sq) * gram_norm;
  if (denom == 0.0) return 0.0;
  return dot / denom;
}

double IndexAlignment::WeightedCosine(const SlotTerms& terms) const {
  // TfIdfCorpus::WeightedCosine with the subset as `a`: the same weights
  // (count x IDF), squares and products, in token (= slot) order.
  if (terms.empty()) return 0.0;
  double sum_sq = 0.0;
  double dot = 0.0;
  for (const SlotTerm& t : terms) {
    const double w = t.count * word_idf[t.slot];
    sum_sq += w * w;
    dot += w * word_weights[t.slot];
  }
  const double denom = std::sqrt(sum_sq) * word_norm;
  if (denom == 0.0) return 0.0;
  return dot / denom;
}

}  // namespace csm
