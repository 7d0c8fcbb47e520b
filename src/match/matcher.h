// The base matcher framework of Section 2.3: a standard instance-based
// schema matching system employs a variety of "matchers" that each compute
// a raw similarity score for a (source attribute, target attribute) pair.

#ifndef CSM_MATCH_MATCHER_H_
#define CSM_MATCH_MATCHER_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "match/code_index.h"
#include "relational/column.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "stats/descriptive.h"
#include "text/gram.h"

namespace csm {

/// The evidence a matcher sees for one attribute: its identity, type and
/// value bag v(R, a).  Token profiles and numeric statistics are built
/// lazily and cached, so a sample kept alive across many Score() calls
/// (e.g., a target attribute compared against many candidate views) pays
/// the tokenization cost once, for its values and for its attribute name.
///
/// The bag has no per-row boxing.  There are two ways to get one:
///   * FromTable: a whole table's column.  Its profile builders tokenize
///     each *distinct* rendered value once, scaled by its multiplicity.
///   * Indexed(...).Restrict(positions): the code counts of a candidate
///     view's or placebo draw's rows, with the profiles merged from the
///     whole column's per-code token index (match/code_index.h) instead of
///     tokenized again.  Scoring reads its merged slot terms against an
///     IndexAlignment (AttributeMatcher::ScoreAligned) and never builds
///     the profiles themselves.
/// Both are bit-identical to per-row tokenization, because the counts are
/// exact integers and every profile is emitted in sorted order.
///
/// Thread safety: the lazy caches are built under std::call_once, so a
/// sample shared across ParallelFor workers (a TableMatchSession's target
/// samples during parallel candidate-view scoring) may be read from any
/// number of threads concurrently.  Copies share the cache block — the
/// values are identical, so the derived profiles are too.
class AttributeSample {
 public:
  /// Builds a sample for one attribute of `instance`: the column itself,
  /// sharing the string dictionary.
  static AttributeSample FromTable(const Table& instance,
                                   std::string_view attribute);

  /// FromTable plus the column's per-code token index, which Restrict
  /// reads.  The index holds every distinct value's tokens, so build it
  /// only for the samples a run restricts and drop it with them.
  static AttributeSample Indexed(const Table& instance,
                                 std::string_view attribute);

  /// The sample at `positions` (rows of the indexed table, e.g. a view's
  /// MatchingPositions or a placebo draw): the count of each code at the
  /// positions, from which both token profiles merge the index's per-code
  /// partials and DistinctRenders renders each code once, and, for a
  /// numeric column, its values folded into NumericStats in position
  /// order.  No column is copied.  Equal, bit for bit, to FromTable over
  /// the rows at `positions` materialized as a table.
  /// CHECK-fails unless this sample was built by Indexed.
  AttributeSample Restrict(const PosList& positions) const;

  const AttributeRef& ref() const { return ref_; }
  ValueType declared_type() const { return type_; }
  size_t size() const { return size_; }

  /// The attribute name as NameMatcher compares it: lowercased, and as the
  /// word profile of its NameTokens.
  struct NameForm {
    std::string lowercase;
    csm::WordProfile tokens;
  };

  /// The attribute name's NameForm (cached), so a sample scored against
  /// many others tokenizes its name once.
  const NameForm& Name() const;

  /// Number of non-null values (cached).
  size_t NonNullCount() const;

  /// Distinct rendered (ToString) non-null values with multiplicities —
  /// the shared input of both token profile builders (cached).  Order is
  /// unspecified, and a rendering may repeat when distinct cells render
  /// alike (e.g., NaN payloads); consumers aggregate by text.
  const std::vector<std::pair<std::string, double>>& DistinctRenders() const;

  /// Cached padded 3-gram profile over all non-null values.
  const GramProfile& QGramProfile() const;

  /// Cached word-token profile over all non-null values.
  const csm::WordProfile& WordProfile() const;

  /// Whether any non-null value holds a word token; a restriction answers
  /// from its merged word terms, without building the profile.
  bool HasWordTokens() const;

  /// Whether this sample was built by Restrict.
  bool restricted() const { return code_counts_.has_value(); }

  /// The per-code index of an Indexed sample or restriction, else null.
  const CodeTokenIndex* index() const { return index_.get(); }

  /// Restrictions only (CHECK-fails otherwise): the cached merged q-gram
  /// and word terms in the index's vocabulary slots — the profiles' entries
  /// before slots are mapped back to grams and tokens.
  const SlotTerms& GramTerms() const;
  const SlotTerms& WordTerms() const;

  /// Cached numeric stats over the numeric values in row order; empty
  /// accumulator when the attribute has no numeric values.
  const DescriptiveStats& NumericStats() const;

  /// True if at least half of the non-null values are numeric.
  bool MostlyNumeric() const;

 private:
  /// Lazily built caches guarded by once-flags (which are neither copyable
  /// nor movable, hence the shared heap block).
  struct Caches {
    std::once_flag name_once;
    std::once_flag non_null_once;
    std::once_flag distinct_once;
    std::once_flag qgram_once;
    std::once_flag word_once;
    std::once_flag gram_terms_once;
    std::once_flag word_terms_once;
    std::once_flag numeric_once;
    size_t non_null_count = 0;
    std::optional<NameForm> name;
    std::optional<std::vector<std::pair<std::string, double>>> distinct;
    std::optional<SlotTerms> gram_terms;
    std::optional<SlotTerms> word_terms;
    std::optional<GramProfile> qgram_profile;
    std::optional<csm::WordProfile> word_profile;
    std::optional<DescriptiveStats> numeric_stats;
  };

  AttributeSample(AttributeRef ref, Column column)
      : ref_(std::move(ref)),
        type_(column.type()),
        size_(column.size()),
        column_(std::move(column)) {}

  AttributeRef ref_;
  ValueType type_;
  /// Number of values: the bag's rows, or a restriction's positions.
  size_t size_;
  /// The bag of a whole-table sample (dictionary shared with the source
  /// table, copy-on-write); empty in a restriction.
  Column column_;
  /// The whole column's per-code token index: set on Indexed samples and
  /// on their restrictions.
  std::shared_ptr<const CodeTokenIndex> index_;
  /// Restrictions only: the code counts at their positions.
  std::optional<CodeTokenIndex::CodeCounts> code_counts_;
  std::shared_ptr<Caches> caches_ = std::make_shared<Caches>();
};

/// One matching heuristic.  Implementations must be stateless with respect
/// to individual Score() calls (Prepare() may set up corpus-level state).
class AttributeMatcher {
 public:
  virtual ~AttributeMatcher() = default;

  /// Short identifier ("qgram", "name", ...).
  virtual std::string Name() const = 0;

  /// Relative weight in the combined confidence (default 1).
  virtual double Weight() const { return 1.0; }

  /// Whether this matcher can meaningfully score the pair (e.g., the
  /// numeric matcher requires numeric bags on both sides).
  virtual bool Applicable(const AttributeSample& source,
                          const AttributeSample& target) const {
    (void)source;
    (void)target;
    return true;
  }

  /// Corpus-level preparation before a batch of Score() calls; the default
  /// does nothing.  `targets` are all target attribute samples in play and
  /// `sources` the whole-table source samples that will be scored against
  /// them (empty when none will, as in a restored session); all must
  /// outlive the matcher's Score calls.
  virtual void Prepare(const std::vector<const AttributeSample*>& sources,
                       const std::vector<const AttributeSample*>& targets) {
    (void)sources;
    (void)targets;
  }

  /// Raw similarity in [0, 1].
  virtual double Score(const AttributeSample& source,
                       const AttributeSample& target) const = 0;

  /// Score(source, *targets[k]) into scores[k] for every k, the same
  /// doubles: one row of a session's score grid.  The default scores each
  /// pair; a matcher whose Score merges two profiles overrides it to
  /// scatter `source`'s profile once and walk each target's.
  virtual void ScoreRow(const AttributeSample& source,
                        const std::vector<const AttributeSample*>& targets,
                        double* scores) const {
    for (size_t k = 0; k < targets.size(); ++k) {
      scores[k] = Score(source, *targets[k]);
    }
  }

  /// Restrictions of one Indexed sample, scored in its index's vocabulary.
  /// Align fills the part of `alignment` (laid over `indexed`'s index) this
  /// matcher reads, from `target` — once per (source attribute, target
  /// attribute) pair per run; `indexed` is the Indexed sample or any
  /// restriction of it, which share the name and the index.  ScoreAligned
  /// then scores a restriction of that index against `target` from it,
  /// returning exactly Score's double.  The defaults fill nothing and call
  /// Score.
  virtual void Align(const AttributeSample& indexed,
                     const AttributeSample& target,
                     IndexAlignment* alignment) const {
    (void)indexed;
    (void)target;
    (void)alignment;
  }
  virtual double ScoreAligned(const AttributeSample& restricted,
                              const AttributeSample& target,
                              const IndexAlignment& alignment) const {
    (void)alignment;
    return Score(restricted, target);
  }
};

}  // namespace csm

#endif  // CSM_MATCH_MATCHER_H_
