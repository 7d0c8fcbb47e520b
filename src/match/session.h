// TableMatchSession: one standard-match run of a source table against a
// target database, retaining the per-matcher score distributions so that
// restricted (view) value bags can be re-scored consistently — exactly the
// contract ContextMatch's ScoreMatch step needs (Section 3.1).
//
// Score -> confidence normalization (Section 2.3): "for a single matcher m
// and source attribute a, the distribution of scores to all target
// attributes are treated as samples of a normal distribution, allowing the
// raw scores given by m for a to be converted into confidence scores"; the
// per-matcher confidences are then combined by weight.

#ifndef CSM_MATCH_SESSION_H_
#define CSM_MATCH_SESSION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "match/match_types.h"
#include "match/matcher.h"
#include "match/sample_store.h"
#include "relational/table.h"
#include "stats/descriptive.h"

namespace csm {

/// Tuning knobs for a match session.
struct MatchOptions {
  /// Attributes whose bags have fewer non-null values than this never
  /// produce matches (too little evidence).
  size_t min_non_null_values = 1;
  /// Blend the relative confidence Phi(z) with the absolute raw score as
  /// sqrt(Phi(z) * raw).  Pure z-normalization makes every source
  /// attribute's best target look confident even when the raw evidence is
  /// weak (an attribute of random codes still has *some* best target); the
  /// blend keeps weak-evidence pairs below threshold.  Disable to ablate.
  bool blend_raw_score = true;
  /// Upper bound on the rows used to build each table's attribute samples
  /// (the classifier-training value bags).  0 = every row.  When a table
  /// exceeds the cap its bags come from a deterministic uniform row sample
  /// (ReservoirSampleRows seeded by DeriveTableSampleSeed(
  /// training_sample_seed, table name)), so session construction cost is
  /// bounded by the cap, not by table size — the paper's matchers train on
  /// *samples* of instance data, and this knob is what keeps that true at
  /// 10^6+ rows.  The draw is a function of the table, so the restore path
  /// (and a SampleStore entry shared across sessions) holds the identical
  /// sample, and cold-tier round trips stay bit-exact.
  size_t max_training_rows = 0;
  /// Seed for the per-table training-sample draws; folded with each table
  /// name so every table samples an independent reproducible stream.
  uint64_t training_sample_seed = 0x5eed0f5a4d704e65ULL;
};

/// The attribute samples a session reads: its source table's and every
/// target table's, in target database order.  The engine resolves them
/// from its SampleStore, so sessions over the same tables share them;
/// Of builds private ones.
struct SessionSamples {
  std::shared_ptr<const TableSamples> source;
  std::vector<std::shared_ptr<const TableSamples>> targets;

  /// Unshared samples of `source` and of every table of `target` under
  /// `options`' training cap and seed.
  static SessionSamples Of(const Table& source, const Database& target,
                           const MatchOptions& options);
};

/// Combined (score, confidence) for one attribute pair.
struct MatchScore {
  double score = 0.0;
  double confidence = 0.0;
  /// Number of matchers that were applicable.
  size_t matchers_used = 0;
};

class TableMatchSession {
 public:
  /// The raw score matrix of a previously built session, parsed back from
  /// its serialized form: raw[m][s][t] is matcher m's score of source
  /// attribute s against target attribute t, NaN where inapplicable.  See
  /// AppendSerializedScores / the restore constructor below.
  struct RestoredScores {
    std::vector<std::vector<std::vector<double>>> raw;
  };

  /// The dimensions of a session's raw score matrix: the matcher suite's
  /// size, the source table's attribute count and the target database's
  /// attribute count over all its tables.
  struct ScoreGridShape {
    size_t matchers = 0;
    size_t sources = 0;
    size_t targets = 0;
  };

  /// Runs the matcher suite for `source` against every table of `target`.
  /// The session keeps references into neither table; it copies the value
  /// bags it needs (SessionSamples::Of).  `matchers` is owned by the
  /// session.
  TableMatchSession(const Table& source, const Database& target,
                    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
                    MatchOptions options = {});

  /// Runs the matcher suite over `samples`, which must have been built
  /// under `options`' training cap and seed (CHECK-fails otherwise) and
  /// which the session keeps alive.  Each (matcher, source attribute) row
  /// of the grid is scored in one AttributeMatcher::ScoreRow call.
  TableMatchSession(SessionSamples samples,
                    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
                    MatchOptions options);

  /// Restore path for the engine's cold session tier: reads the attribute
  /// samples of the tables exactly like the scoring constructor, but
  /// installs `scores.raw` instead of running the matcher scoring loop and
  /// replays the per-(matcher, source attribute) score distributions from
  /// it in the same order the scoring loop recorded them — so a restored
  /// session is bit-identical to the one that produced the scores, given
  /// content-equal tables, the same matcher suite and the same options.
  /// CHECK-fails when the score dimensions do not fit (callers validate via
  /// the parse step first).
  TableMatchSession(const Table& source, const Database& target,
                    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
                    const MatchOptions& options, RestoredScores scores);
  TableMatchSession(SessionSamples samples,
                    std::vector<std::unique_ptr<AttributeMatcher>> matchers,
                    const MatchOptions& options, RestoredScores scores);

  /// Appends the raw score matrix to `out` as deterministic text: a header
  /// line "scores <matchers> <sources> <targets>" followed by one line per
  /// (matcher, source) with hexfloat scores ("nan" where inapplicable).
  /// Hexfloat round-trips doubles exactly, so serialize -> parse -> restore
  /// reproduces the session bit-for-bit.  The samples and distributions are
  /// deliberately NOT serialized: samples are rebuilt from the request's
  /// tables (content-equal by fingerprint) and distributions replay from
  /// the scores, which keeps the cold-tier blob proportional to the score
  /// grid rather than the data.
  void AppendSerializedScores(std::string* out) const;

  /// Parses what AppendSerializedScores wrote, consuming the header and
  /// score lines from `pos` (advanced past them).  A header whose
  /// dimensions are not `shape` is rejected before anything is allocated.
  /// Dimension/format errors return non-OK and leave the blob unusable
  /// (callers fall back to a fresh build).
  static StatusOr<RestoredScores> ParseSerializedScores(
      const std::string& blob, size_t* pos, const ScoreGridShape& shape);

  /// The standard matches with confidence >= tau, best-confidence first.
  MatchList AcceptedMatches(double tau) const;

  /// The combined score/confidence of (source attribute, target attribute);
  /// zero MatchScore when never scored (inapplicable everywhere).
  MatchScore PairScore(std::string_view source_attribute,
                       const AttributeRef& target) const;

  /// ContextMatch's ScoreMatch (Section 3): re-scores a restricted sample
  /// against `target`, converting raw scores with the distributions
  /// recorded during construction, per the strawman discussion in Section
  /// 3.  The sample is a candidate view's (or placebo draw's) values of one
  /// source attribute: a whole-table sample of the view materialized as a
  /// table, scored like the session's own samples, or a restriction
  /// (AttributeSample::Restrict over the source table's Indexed sample),
  /// scored by the matchers in its index's vocabulary (ScoreAligned) — the
  /// same doubles either way.  The sample's attribute name selects the
  /// distributions.  A restriction is scored against `alignment`, which
  /// must be AlignRestricted of its index and `target`; without one, this
  /// call aligns the pair itself.  Callers scoring many restrictions of
  /// one attribute align each target once and pass the alignment; build
  /// each restriction once per (view, attribute) — its merged token terms
  /// are cached inside.  A matcher whose raw score is NaN counts as
  /// inapplicable, here as everywhere in the session.
  MatchScore ScoreRestrictedSample(
      const AttributeSample& sample, const AttributeRef& target,
      const IndexAlignment* alignment = nullptr) const;

  /// `target` laid over the vocabularies of `indexed` (an Indexed
  /// whole-table sample of a source attribute, or a restriction of one —
  /// they share the index) by every matcher, for ScoreRestrictedSample on
  /// restrictions of that index.  Build it once per (source attribute,
  /// target) pair for one run; it holds copies, not references, of the
  /// session's target state, but points at the index, which must outlive
  /// it.
  IndexAlignment AlignRestricted(const AttributeSample& indexed,
                                 const AttributeRef& target) const;

  /// All target attribute refs the session scored against.
  const std::vector<AttributeRef>& target_refs() const { return target_refs_; }

  /// Source attribute names in schema order.
  std::vector<std::string> source_attributes() const;

  const std::string& source_table() const {
    return samples_.source->table_name();
  }

 private:
  struct DistributionKey {
    size_t matcher_index;
    size_t source_index;
    friend bool operator<(const DistributionKey& a, const DistributionKey& b) {
      if (a.matcher_index != b.matcher_index) {
        return a.matcher_index < b.matcher_index;
      }
      return a.source_index < b.source_index;
    }
  };

  /// Shared constructor prologue: checks `samples_` against the options,
  /// lays the target tables' samples out in target order, then runs
  /// matcher Prepare over the target samples and, when `score_sources`
  /// (the scoring constructor), the source samples.
  void PrepareSamples(bool score_sources);

  const std::vector<AttributeSample>& sources() const {
    return samples_.source->attributes();
  }

  /// Builds distributions_ from raw_scores_ by adding the non-NaN scores of
  /// each (matcher, source) row in target order.  Both constructors end
  /// with it, so a restored session's accumulators are bit-identical to
  /// the scored one's by construction.
  void ReplayDistributions();

  /// Converts a raw score into a confidence using the stored distribution
  /// for (matcher, source attribute).
  double Confidence(size_t matcher_index, size_t source_index,
                    double raw_score) const;

  MatchScore CombineForBag(const AttributeSample& source_sample,
                           size_t source_index, size_t target_index,
                           const IndexAlignment* alignment) const;

  size_t SourceIndex(std::string_view attribute) const;
  size_t TargetIndex(const AttributeRef& target) const;

  MatchOptions options_;
  std::vector<std::unique_ptr<AttributeMatcher>> matchers_;
  SessionSamples samples_;
  /// Every target table's samples, in target order.
  std::vector<const AttributeSample*> targets_;
  std::vector<AttributeRef> target_refs_;

  /// raw_scores_[m][s][t]: score of matcher m for source attr s vs target
  /// attr t; NaN when inapplicable.
  std::vector<std::vector<std::vector<double>>> raw_scores_;
  /// Normal model of each (matcher, source attr) score row.
  std::map<DistributionKey, DescriptiveStats> distributions_;
};

/// Convenience: run a default-suite session and return matches >= tau.
MatchList StandardMatch(const Table& source, const Database& target,
                        double tau, MatchOptions options = {});

}  // namespace csm

#endif  // CSM_MATCH_SESSION_H_
