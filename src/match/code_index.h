// The per-code token index behind candidate-view scoring.
//
// ContextMatch rescores every accepted match on every candidate view and on
// each view's placebo draws, so one source attribute is sampled at many
// different row subsets of the same table.  Token profiles are linear in
// value multiplicities: the q-gram (or word) profile of a bag is the sum,
// over its distinct values, of each value's own profile times the value's
// count.  The index therefore groups a column's rows by distinct value
// ("code"), renders and tokenizes each code once into a partial profile,
// and lets a subset's profiles be merged from its code counts — no
// rendering, tokenizing, hash aggregation or gram sort per subset.
//
// Codes are the distinct non-null values in first-seen row order: one per
// string dictionary entry, int value or real bit pattern (the grouping
// AttributeSample::DistinctRenders uses, so NaN payloads and -0.0 keep
// their own codes).  Partials are CSR rows of (vocabulary index, count);
// the q-gram vocabulary is sorted by GramId and the word vocabulary
// lexicographically, so a merge emits entries in exactly the order the
// profile builders sort them into.  Counts are exact integers below 2^53,
// so merged profiles are bit-identical to built ones.
//
// Immutable once built; concurrent readers need no lock.  See DESIGN.md
// "Columnar storage & zero-copy views" for why an index lives only for one
// pipeline run.

#ifndef CSM_MATCH_CODE_INDEX_H_
#define CSM_MATCH_CODE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "relational/column.h"
#include "text/gram.h"

namespace csm {

class CodeTokenIndex {
 public:
  /// (code, count) of every code present in a row subset, in first-seen
  /// order of the subset.
  using CodeCounts = std::vector<std::pair<uint32_t, uint32_t>>;

  /// Groups `column`'s rows by code and tokenizes each code's rendering
  /// once (padded 3-grams and word tokens).
  explicit CodeTokenIndex(const Column& column);

  /// The codes at `positions` (rows of the indexed column; NULL rows are
  /// skipped) with their multiplicities.
  CodeCounts Count(const PosList& positions) const;

  /// The padded 3-gram profile of the counted rows.
  GramProfile MergeQGrams(const CodeCounts& counts) const;

  /// The word-token profile of the counted rows; its token bytes live in
  /// the index's interner, which the profile shares.
  WordProfile MergeWords(const CodeCounts& counts) const;

 private:
  /// One (vocabulary index, count) term of a code's partial profile.
  struct Partial {
    uint32_t index;
    uint32_t count;
  };

  /// Adds count x partial for every counted code into a dense accumulator
  /// and calls emit(vocabulary index, summed count) for the touched entries
  /// in vocabulary order; returns the profile total.
  template <typename Emit>
  double Merge(const std::vector<uint32_t>& offsets,
               const std::vector<Partial>& partials, size_t vocab_size,
               const CodeCounts& counts, Emit&& emit) const;

  size_t num_codes() const { return representatives_.size(); }

  /// Code of every row; kNullCode for NULL rows.
  std::vector<uint32_t> row_codes_;
  /// One cell per code, the code's first row (string columns share the
  /// dictionary, so string renderings are borrowed, not copied).
  Column representatives_;

  std::vector<uint32_t> gram_offsets_;  // code c: [offsets[c], offsets[c+1])
  std::vector<Partial> gram_partials_;
  std::vector<GramId> gram_vocab_;      // sorted by id

  std::vector<uint32_t> word_offsets_;
  std::vector<Partial> word_partials_;
  std::shared_ptr<const TokenInterner> words_;  // owns the token bytes
  std::vector<std::string_view> word_vocab_;    // sorted lexicographically
};

}  // namespace csm

#endif  // CSM_MATCH_CODE_INDEX_H_
