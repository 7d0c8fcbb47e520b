// Row-at-a-time and string-keyed reference implementations of production
// paths.
//
// Each function here is the implementation a production path replaced,
// kept only so a differential fuzzer (fuzz.h) can diff the production path
// against it: the mapping executor that boxed every joined row into Values
// and keyed joins and duplicate rows on rendered strings, the CSV writer
// that boxed every cell with ValueAt, the CSV reader that split each
// record into std::string fields and boxed every cell with Value::Parse,
// the escaped group tokens that once labelled ClusteredViewGen's
// classifiers and keyed its family dedup, ClusteredViewGen's merge loop
// that retrained a fresh classifier every cycle, with TgtClassInfer's TBag
// classifier (the classifiers: check/reference_classifier.h), the hash-set
// Floyd sampler, the ordered-map categorical rule and NameMatcher's
// per-pair name tokenizing.
// Nothing in the product links them.

#ifndef CSM_CHECK_REFERENCE_H_
#define CSM_CHECK_REFERENCE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "check/reference_classifier.h"
#include "common/random.h"
#include "common/status.h"
#include "core/context_options.h"
#include "mapping/query_gen.h"
#include "ml/classifier.h"
#include "relational/categorical.h"
#include "relational/table.h"
#include "relational/table_view.h"
#include "relational/view.h"

namespace csm::check {

/// ExecuteMapping (mapping/executor.h) row at a time: materialize every
/// relation, full-outer-join boxed rows on length-prefixed key renderings,
/// project and coerce cell by cell, collapse duplicates on row encodings.
StatusOr<Table> ReferenceExecuteMapping(const MappingQuery& query,
                                        const Database& source,
                                        const std::vector<View>& views,
                                        const TableSchema& target_schema);

/// ExecuteMappings over ReferenceExecuteMapping.
StatusOr<Database> ReferenceExecuteMappings(
    const std::vector<MappingQuery>& queries, const Database& source,
    const std::vector<View>& views, const Schema& target_schema);

/// TableFromCsvParallel (relational/csv.h) in one serial pass: each record
/// split character by character into std::string fields, each cell boxed
/// by Value::Parse and appended with Table::AddRow.  Same statuses and
/// messages, cells and dictionary codes.
StatusOr<Table> ReferenceTableFromCsv(const TableSchema& schema,
                                      std::string_view csv);

/// TableToCsv (relational/csv.h) through ValueAt(...).ToString() per cell.
std::string ReferenceTableToCsv(const Table& instance);

/// The boxed writer's quoting of one field: wrapped in quotes, embedded
/// quotes doubled, when it holds a comma, a quote, CR or LF.
std::string ReferenceQuoteField(const std::string& field);

/// SampleRowPositions (relational/sample.h) as it was: Floyd's draws with
/// the picks in a std::unordered_set, then a std::sort.  The same draws,
/// positions and RNG state afterwards.
PosList ReferenceSampleRowPositions(size_t num_rows, size_t sample_size,
                                    Rng& rng);

/// IsCategoricalAttribute (relational/categorical.h) over the ordered
/// std::map<Value, size_t> of TableView::ValueCounts.
bool ReferenceIsCategoricalAttribute(const TableView& instance,
                                     std::string_view attribute,
                                     const CategoricalOptions& options = {});

/// NameMatcher::Score (match/matchers.h) of two attribute names, with both
/// names lowercased and tokenized on every call and the token Dice taken
/// over map profiles: the per-pair path a sample's cached NameForm
/// replaced.
double ReferenceNameScore(std::string_view source_attribute,
                          std::string_view target_attribute);

/// Canonical token of a group of label values: member renderings joined by
/// '\x1f', each byte '\x1b'..'\x1f' inside a rendering prefixed by '\x1b'.
/// The escape makes the token injective, so no label value can forge a join
/// (or a FamilyPartitionKey separator) and two groups never share a token;
/// renderings without those bytes appear verbatim.
std::string GroupToken(const std::vector<Value>& members);

/// Dedup key of a family: its label attribute plus the partition its views'
/// conditions induce (one GroupToken per view, sorted).
std::string FamilyPartitionKey(const ViewFamily& family);

/// TgtClassInfer's TBag / bestCAT classifier as a ValueClassifier whose
/// labels are groups of categorical values, driven by a shared per-type
/// target classifier: the classifier the merge loop retrained every cycle
/// before BestCatCellModel (core/tgt_class_infer.h).
class TgtTagClassifier : public ValueClassifier {
 public:
  /// `tagger` assigns target-column tags to the cells this classifier is
  /// given.  May be null (every cell tags as kNoLabel, so everything maps
  /// to the most common label).
  explicit TgtTagClassifier(std::shared_ptr<const ValueClassifier> tagger)
      : tagger_(std::move(tagger)) {}

  /// Tags the cell with the shared tagger and counts (tag, label) in the
  /// TBag.
  void Train(const Column& column, size_t row, LabelId label) override;
  /// bestCAT of the cell's tag.
  LabelId Classify(const Column& column, size_t row) const override;

  /// bestCAT for a raw tag; kNoLabel when untrained.
  LabelId BestCat(LabelId tag) const;

  /// score(g, v) = P(v|g) * P(g|v); 0 when unseen.
  double Score(LabelId tag, LabelId label) const;

  /// The tag the shared tagger gives the cell.
  LabelId Tag(const Column& column, size_t row) const;

 private:
  /// One tag's row of the TBag: its (tag, label) counts by label id.
  struct TagCounts {
    size_t total = 0;
    std::vector<size_t> per_label;
  };

  std::shared_ptr<const ValueClassifier> tagger_;
  std::map<LabelId, TagCounts> tbag_;
  std::vector<size_t> label_totals_;  // indexed by label id
  size_t total_ = 0;
};

/// Builds a fresh classifier for evidence values of `evidence_type`.
using ReferenceClassifierFactory =
    std::function<std::unique_ptr<ValueClassifier>(ValueType evidence_type)>;

/// SrcClassInfer's classifiers: NaiveBayesClassifier for text evidence,
/// GaussianClassifier for numeric evidence.
ReferenceClassifierFactory ReferenceSrcClassifiers();

/// TgtClassInfer's: a TgtTagClassifier over `numeric_tagger` for numeric
/// evidence and over `string_tagger` otherwise (either may be null).
ReferenceClassifierFactory ReferenceTgtClassifiers(
    std::shared_ptr<const ValueClassifier> string_tagger,
    std::shared_ptr<const ValueClassifier> numeric_tagger);

/// ClusteredViewGen (core/clustered_view_gen.h), serial, as it ran before
/// per-cell models: every cell resolves its rows' atoms through its own
/// Condition::In scans, and every cycle of its merge loop trains a fresh
/// classifier from `factory` on every train row under that cycle's labels
/// and classifies every test row.  The grid, the cells' RNG streams, the
/// gate, the merge rule, the dedup and the output order are
/// ClusteredViewGen's.
std::vector<ViewFamily> ReferenceClusteredViewGen(
    const TableView& source_sample, const ReferenceClassifierFactory& factory,
    const ClusteredViewGenOptions& options,
    const CategoricalOptions& categorical, bool early_disjuncts, Rng& rng,
    std::vector<std::string> label_attributes = {},
    std::vector<std::string> evidence_attributes = {});

}  // namespace csm::check

#endif  // CSM_CHECK_REFERENCE_H_
