#include "match/code_index.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"
#include "text/tokenizer.h"

namespace csm {
namespace {

/// Replaces each raw token id of `raw` (CSR over codes by `raw_offsets`)
/// with its vocabulary index `to_index(id)` and run-length encodes each
/// code's row into (index, count) terms sorted by index.
template <typename Partial, typename ToIndex>
void BuildPartials(const std::vector<uint32_t>& raw_offsets,
                   const std::vector<GramId>& raw, ToIndex to_index,
                   std::vector<uint32_t>* offsets,
                   std::vector<Partial>* partials) {
  offsets->assign(1, 0);
  offsets->reserve(raw_offsets.size());
  std::vector<uint32_t> indices;
  for (size_t c = 0; c + 1 < raw_offsets.size(); ++c) {
    indices.clear();
    for (uint32_t k = raw_offsets[c]; k < raw_offsets[c + 1]; ++k) {
      indices.push_back(to_index(raw[k]));
    }
    std::sort(indices.begin(), indices.end());
    for (size_t k = 0; k < indices.size();) {
      size_t run = k + 1;
      while (run < indices.size() && indices[run] == indices[k]) ++run;
      partials->push_back({indices[k], static_cast<uint32_t>(run - k)});
      k = run;
    }
    offsets->push_back(static_cast<uint32_t>(partials->size()));
  }
}

}  // namespace

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

  // Tokenize each code's rendering once: raw gram ids and interned word
  // ids, CSR over codes.
  auto interner = std::make_shared<TokenInterner>();
  std::vector<uint32_t> raw_gram_offsets{0}, raw_word_offsets{0};
  std::vector<GramId> raw_grams, raw_words;
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
    AppendPackedQGrams(text, 3, &padded, &raw_grams);
    raw_gram_offsets.push_back(static_cast<uint32_t>(raw_grams.size()));
    WordTokens(text, &words);
    for (const std::string& word : words) {
      raw_words.push_back(interner->GetOrAdd(word));
    }
    raw_word_offsets.push_back(static_cast<uint32_t>(raw_words.size()));
  }

  // Vocabularies in emission order, then partials over vocabulary indices.
  gram_vocab_ = raw_grams;
  std::sort(gram_vocab_.begin(), gram_vocab_.end());
  gram_vocab_.erase(std::unique(gram_vocab_.begin(), gram_vocab_.end()),
                    gram_vocab_.end());
  BuildPartials(
      raw_gram_offsets, raw_grams,
      [&](GramId id) {
        return static_cast<uint32_t>(
            std::lower_bound(gram_vocab_.begin(), gram_vocab_.end(), id) -
            gram_vocab_.begin());
      },
      &gram_offsets_, &gram_partials_);

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
  BuildPartials(
      raw_word_offsets, raw_words, [&](GramId id) { return rank[id]; },
      &word_offsets_, &word_partials_);
  words_ = std::move(interner);
}

CodeTokenIndex::CodeCounts CodeTokenIndex::Count(
    const PosList& positions) const {
  std::vector<uint32_t> count(num_codes(), 0);
  CodeCounts out;
  for (RowId p : positions) {
    CSM_CHECK_LT(p, row_codes_.size());
    const uint32_t code = row_codes_[p];
    if (code == kNullCode) continue;
    if (count[code]++ == 0) out.emplace_back(code, 0);
  }
  for (auto& [code, n] : out) n = count[code];
  return out;
}

template <typename Emit>
double CodeTokenIndex::Merge(const std::vector<uint32_t>& offsets,
                             const std::vector<Partial>& partials,
                             size_t vocab_size, const CodeCounts& counts,
                             Emit&& emit) const {
  std::vector<double> sums(vocab_size, 0.0);
  std::vector<uint64_t> touched((vocab_size + 63) / 64, 0);
  double total = 0.0;
  for (const auto& [code, n] : counts) {
    const double weight = static_cast<double>(n);
    for (uint32_t k = offsets[code]; k < offsets[code + 1]; ++k) {
      const Partial& p = partials[k];
      const double add = weight * static_cast<double>(p.count);
      sums[p.index] += add;
      touched[p.index / 64] |= uint64_t{1} << (p.index % 64);
      total += add;
    }
  }
  for (size_t w = 0; w < touched.size(); ++w) {
    for (uint64_t bits = touched[w]; bits != 0; bits &= bits - 1) {
      const size_t v = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      emit(v, sums[v]);
    }
  }
  return total;
}

GramProfile CodeTokenIndex::MergeQGrams(const CodeCounts& counts) const {
  std::vector<GramProfile::Entry> entries;
  const double total =
      Merge(gram_offsets_, gram_partials_, gram_vocab_.size(), counts,
            [&](size_t v, double n) { entries.push_back({gram_vocab_[v], n}); });
  return GramProfile(std::move(entries), total);
}

WordProfile CodeTokenIndex::MergeWords(const CodeCounts& counts) const {
  std::vector<WordProfile::Entry> entries;
  const double total =
      Merge(word_offsets_, word_partials_, word_vocab_.size(), counts,
            [&](size_t v, double n) { entries.push_back({word_vocab_[v], n}); });
  return WordProfile(words_, std::move(entries), total);
}

}  // namespace csm
