#include "match/matcher.h"

#include <bit>
#include <cstdint>
#include <unordered_map>

#include "common/logging.h"
#include "common/string_util.h"
#include "text/tokenizer.h"

namespace csm {
namespace {

/// The non-null values of a numeric `column` (int or real; any other type
/// folds nothing) at `*positions`, or at every row when null, added in
/// that order: DescriptiveStats is order-sensitive.
DescriptiveStats FoldNumeric(const Column& column, const PosList* positions) {
  DescriptiveStats stats;
  const bool is_int = column.type() == ValueType::kInt;
  if (!is_int && column.type() != ValueType::kReal) return stats;
  auto add = [&](size_t r) {
    if (column.IsNull(r)) return;
    stats.Add(is_int ? static_cast<double>(column.ints()[r])
                     : column.reals()[r]);
  };
  if (positions == nullptr) {
    for (size_t r = 0; r < column.size(); ++r) add(r);
  } else {
    for (RowId p : *positions) add(p);
  }
  return stats;
}

}  // namespace

AttributeSample AttributeSample::FromTable(const Table& instance,
                                           std::string_view attribute) {
  return AttributeSample(
      AttributeRef{instance.name(), std::string(attribute)},
      instance.column(instance.schema().AttributeIndex(attribute)));
}

AttributeSample AttributeSample::Indexed(const Table& instance,
                                         std::string_view attribute) {
  AttributeSample sample = FromTable(instance, attribute);
  sample.index_ = std::make_shared<const CodeTokenIndex>(sample.column_);
  return sample;
}

AttributeSample AttributeSample::Restrict(const PosList& positions) const {
  CSM_CHECK(index_ != nullptr && !code_counts_.has_value())
      << "Restrict needs an Indexed whole-table sample of "
      << ref_.ToString();
  AttributeSample out(ref_, Column());
  out.type_ = type_;
  out.size_ = positions.size();
  out.index_ = index_;
  out.code_counts_ = index_->Count(positions);
  // Numeric stats fold the values in position order, as a gathered column
  // would; every other reader answers from the code counts.
  if (type_ == ValueType::kInt || type_ == ValueType::kReal) {
    std::call_once(out.caches_->numeric_once, [&] {
      out.caches_->numeric_stats = FoldNumeric(column_, &positions);
    });
  }
  return out;
}

const AttributeSample::NameForm& AttributeSample::Name() const {
  std::call_once(caches_->name_once, [this] {
    WordProfileBuilder builder;
    for (const std::string& token : NameTokens(ref_.attribute)) {
      builder.Add(token);
    }
    caches_->name = NameForm{ToLower(ref_.attribute), builder.Build()};
  });
  return *caches_->name;
}

size_t AttributeSample::NonNullCount() const {
  std::call_once(caches_->non_null_once, [this] {
    size_t n = 0;
    if (code_counts_.has_value()) {
      for (const auto& [code, count] : *code_counts_) n += count;
    } else {
      for (size_t r = 0; r < column_.size(); ++r) {
        if (!column_.IsNull(r)) ++n;
      }
    }
    caches_->non_null_count = n;
  });
  return caches_->non_null_count;
}

const std::vector<std::pair<std::string, double>>&
AttributeSample::DistinctRenders() const {
  std::call_once(caches_->distinct_once, [this] {
    std::vector<std::pair<std::string, double>> out;
    if (code_counts_.has_value()) {
      // A code is a distinct value of the whole-table grouping below.
      for (const auto& [code, count] : *code_counts_) {
        std::string text;
        index_->AppendRendering(code, &text);
        out.emplace_back(std::move(text), static_cast<double>(count));
      }
      caches_->distinct = std::move(out);
      return;
    }
    auto render = [&](size_t r) {
      return column_.type() == ValueType::kString
                 ? column_.dictionary().value(column_.codes()[r])
                 : column_.GetValue(r).ToString();
    };
    // Groups the non-null rows by `key(r)` and renders each group once.
    auto group_by = [&](auto key) {
      std::unordered_map<decltype(key(0)), size_t> index;
      for (size_t r = 0; r < column_.size(); ++r) {
        if (column_.IsNull(r)) continue;
        auto [it, inserted] = index.try_emplace(key(r), out.size());
        if (inserted) out.emplace_back(render(r), 0.0);
        out[it->second].second += 1.0;
      }
    };
    switch (column_.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt:
        group_by([&](size_t r) { return column_.ints()[r]; });
        break;
      case ValueType::kReal:
        // Group by bit pattern: identical bits render identically, and
        // every distinct NaN/zero encoding just forms its own group.
        group_by([&](size_t r) {
          return std::bit_cast<uint64_t>(column_.reals()[r]);
        });
        break;
      case ValueType::kString:
        group_by([&](size_t r) { return column_.codes()[r]; });
        break;
    }
    caches_->distinct = std::move(out);
  });
  return *caches_->distinct;
}

const SlotTerms& AttributeSample::GramTerms() const {
  CSM_CHECK(code_counts_.has_value())
      << "GramTerms needs a restriction of " << ref_.ToString();
  std::call_once(caches_->gram_terms_once, [this] {
    caches_->gram_terms = index_->MergeQGrams(*code_counts_);
  });
  return *caches_->gram_terms;
}

const SlotTerms& AttributeSample::WordTerms() const {
  CSM_CHECK(code_counts_.has_value())
      << "WordTerms needs a restriction of " << ref_.ToString();
  std::call_once(caches_->word_terms_once, [this] {
    caches_->word_terms = index_->MergeWords(*code_counts_);
  });
  return *caches_->word_terms;
}

bool AttributeSample::HasWordTokens() const {
  return code_counts_.has_value() ? !WordTerms().empty()
                                  : !WordProfile().empty();
}

const GramProfile& AttributeSample::QGramProfile() const {
  std::call_once(caches_->qgram_once, [this] {
    if (code_counts_.has_value()) {
      caches_->qgram_profile = index_->QGramProfileOf(GramTerms());
      return;
    }
    GramProfileBuilder builder;
    for (const auto& [text, count] : DistinctRenders()) {
      builder.AddText(text, count);
    }
    caches_->qgram_profile = builder.Build();
  });
  return *caches_->qgram_profile;
}

const csm::WordProfile& AttributeSample::WordProfile() const {
  std::call_once(caches_->word_once, [this] {
    if (code_counts_.has_value()) {
      caches_->word_profile = index_->WordProfileOf(WordTerms());
      return;
    }
    // One distinct value is about one distinct token: size the interner
    // once instead of doubling it up from 16 slots.
    WordProfileBuilder builder;
    builder.Reserve(DistinctRenders().size());
    for (const auto& [text, count] : DistinctRenders()) {
      builder.AddText(text, count);
    }
    caches_->word_profile = builder.Build();
  });
  return *caches_->word_profile;
}

const DescriptiveStats& AttributeSample::NumericStats() const {
  // A numeric restriction folded its values when it was made; any other
  // restriction's column is not numeric and folds nothing.
  std::call_once(caches_->numeric_once, [this] {
    caches_->numeric_stats = FoldNumeric(column_, nullptr);
  });
  return *caches_->numeric_stats;
}

bool AttributeSample::MostlyNumeric() const {
  const size_t non_null = NonNullCount();
  return non_null > 0 && static_cast<double>(NumericStats().count()) >=
                             0.5 * static_cast<double>(non_null);
}

}  // namespace csm
