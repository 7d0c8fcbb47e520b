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
// their own codes).  Partials are CSR rows of (vocabulary slot, count),
// built without a sort by stamping each slot with the last code that held
// it; the q-gram vocabulary is sorted by GramId (built by dense 3-gram
// rank, text/gram.h) and the word vocabulary lexicographically, so a merge
// emits terms in exactly the order the profile builders sort their entries
// into.
// Counts are exact integers below 2^53, so merged profiles are
// bit-identical to built ones.
//
// A subset is scored without a profile: an IndexAlignment lays a target
// attribute's profiles over the index's vocabularies once (its count, and
// for words its TF-IDF weight, per slot), and a cosine is then one pass
// over the subset's merged (slot, count) terms, adding the same doubles in
// the same order as the profile cosines (DESIGN.md 6e).
//
// Immutable once built; concurrent readers need no lock.  See DESIGN.md
// "Columnar storage & zero-copy views" for why an index (and its
// alignments) lives only for one pipeline run.

#ifndef CSM_MATCH_CODE_INDEX_H_
#define CSM_MATCH_CODE_INDEX_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "relational/column.h"
#include "text/gram.h"
#include "text/tfidf.h"

namespace csm {

class CodeTokenIndex;

/// One merged term of a subset's profile: a vocabulary slot and its summed
/// count.  Terms of one subset are sorted by slot.
struct SlotTerm {
  uint32_t slot;
  double count;
};
using SlotTerms = std::vector<SlotTerm>;

/// One (vocabulary index, count) term of a code's partial profile.
struct CodePartial {
  uint32_t index;
  uint32_t count;
};

/// Run-length encodes each code's row of `raw` (CSR over codes by
/// `raw_offsets`; every entry a vocabulary index below `vocab_size`) into
/// one (index, count) term per distinct index of the row, in the order the
/// indices first occur in it, CSR over codes by `*offsets`.  A per-index
/// last-code stamp finds a term already opened in the row: no sort.
void BuildCodePartials(const std::vector<uint32_t>& raw_offsets,
                       const std::vector<uint32_t>& raw, size_t vocab_size,
                       std::vector<uint32_t>* offsets,
                       std::vector<CodePartial>* partials);

/// A target attribute's whole-table profiles laid over one index's
/// vocabularies, for scoring that index's subsets against the target: built
/// once per (indexed source attribute, target attribute) pair for a run.
/// Each matcher that scores subsets this way fills its part
/// (AttributeMatcher::Align).  Read-only while scoring.
struct IndexAlignment {
  /// The index whose slots the vectors are laid over.
  const CodeTokenIndex* index = nullptr;
  /// The target attribute's position in the aligning session.
  size_t target = std::numeric_limits<size_t>::max();

  /// Name similarity of the attribute pair (a restriction keeps its name).
  double name_score = 0.0;

  /// Q-gram cosine: the target's count at each gram slot (0 where it lacks
  /// the gram) and its whole profile's norm.
  std::vector<double> gram_counts;
  double gram_norm = 0.0;

  /// TF-IDF cosine: each word slot's IDF in the target's corpus, the
  /// target's count x IDF at each word slot (0 where it lacks the token),
  /// and its whole IDF-weighted norm.
  std::vector<double> word_idf;
  std::vector<double> word_weights;
  double word_norm = 0.0;

  /// CosineSimilarity(subset q-gram profile, target q-gram profile), bit
  /// for bit, from the subset's merged gram terms.
  double GramCosine(const SlotTerms& terms) const;

  /// TfIdfCorpus::WeightedCosine(subset word profile, target word profile),
  /// bit for bit, from the subset's merged word terms.
  double WeightedCosine(const SlotTerms& terms) const;
};

class CodeTokenIndex {
 public:
  /// (code, count) of every code present in a row subset, in first-seen
  /// order of the subset.
  using CodeCounts = std::vector<std::pair<uint32_t, uint32_t>>;

  /// Groups `column`'s rows by code and tokenizes each code's rendering
  /// once (padded 3-grams and word tokens).
  explicit CodeTokenIndex(const Column& column);

  /// The codes at `positions` (rows of the indexed column; NULL rows are
  /// skipped) with their multiplicities, counted in the calling thread's
  /// scratch.
  CodeCounts Count(const PosList& positions) const;

  /// Appends the rendering of code `code`'s value (Value::ToString) to
  /// `*out`.
  void AppendRendering(uint32_t code, std::string* out) const;

  /// The padded 3-gram terms of the counted rows, sorted by slot.
  SlotTerms MergeQGrams(const CodeCounts& counts) const;

  /// The word-token terms of the counted rows, sorted by slot.
  SlotTerms MergeWords(const CodeCounts& counts) const;

  /// The profiles the terms stand for.  A word profile's token bytes live
  /// in the index's interner, which the profile shares.
  GramProfile QGramProfileOf(const SlotTerms& terms) const;
  WordProfile WordProfileOf(const SlotTerms& terms) const;

  /// Fills `alignment`'s q-gram part from the target's whole-table profile.
  void AlignQGrams(const GramProfile& target, IndexAlignment* alignment) const;

  /// Fills `alignment`'s TF-IDF part from the target's whole-table word
  /// profile and the corpus it is scored in.
  void AlignWords(const WordProfile& target, const TfIdfCorpus& corpus,
                  IndexAlignment* alignment) const;

 private:
  /// Adds count x partial for every counted code into the thread's dense
  /// accumulator and returns the touched slots' sums in slot order, leaving
  /// the accumulator zero again (only the touched slots and bitset words
  /// are written).
  SlotTerms Merge(const std::vector<uint32_t>& offsets,
                  const std::vector<CodePartial>& partials, size_t vocab_size,
                  const CodeCounts& counts) const;

  size_t num_codes() const { return representatives_.size(); }

  /// Code of every row; kNullCode for NULL rows.
  std::vector<uint32_t> row_codes_;
  /// One cell per code, the code's first row (string columns share the
  /// dictionary, so string renderings are borrowed, not copied).
  Column representatives_;

  std::vector<uint32_t> gram_offsets_;  // code c: [offsets[c], offsets[c+1])
  std::vector<CodePartial> gram_partials_;
  std::vector<GramId> gram_vocab_;      // sorted by id

  std::vector<uint32_t> word_offsets_;
  std::vector<CodePartial> word_partials_;
  std::shared_ptr<const TokenInterner> words_;  // owns the token bytes
  std::vector<std::string_view> word_vocab_;    // sorted lexicographically
};

}  // namespace csm

#endif  // CSM_MATCH_CODE_INDEX_H_
