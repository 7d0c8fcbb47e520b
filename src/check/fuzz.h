// Deterministic structured fuzzers.
//
// Each fuzzer runs `iterations` independent trials; trial i derives its own
// seed IterationSeed(options.seed, i) (generators.h), so a failure replays
// exactly by re-running the same fuzzer with the same FuzzOptions — every
// failure Status embeds "replay: seed=<S> iteration=<I>".  The fuzz_smoke
// test binary wires these to the CSM_FUZZ_SEED / CSM_FUZZ_ITERS environment
// knobs; CI runs them with fixed seeds under CSM_CHECKS=ON + ASan, so a
// violated invariant aborts and a divergence returns a replayable Status.
//
//   * FuzzCsvRoundTrip       random hostile tables through
//                            TableToCsv -> one-chunk TableFromCsvParallel,
//                            plus a re-rendered variant with randomized
//                            \n / \r\n / \r record terminators through the
//                            same parser; TableToCsv's bytes against the
//                            boxed reference writer (check/reference.h),
//                            also on tables holding NaN, +-inf and -0.0
//   * FuzzCsvChunkedParse     random hostile tables rendered with mixed
//                            record terminators through the chunked
//                            parallel parser, and as files through
//                            ReadCsvFileInferred, at hostile chunk sizes
//                            (down to 1 byte) x several thread counts;
//                            checks chunk-scan invariants plus
//                            bit-identical tables (inferred schema
//                            included) *and* dictionary code assignment
//                            against the one-chunk parse / read
//   * FuzzCsvScanEquivalence  random CSV text, not only writer output
//                            (quotes in mid-field, "" escapes, open quotes,
//                            CR-only and CRLF records, blank lines, long
//                            quoted fields, NUL, 0x1b-0x1f and UTF-8),
//                            through TableFromCsvParallel as one chunk and
//                            at random chunk sizes x thread counts under an
//                            all-string and a mixed typed schema, against
//                            the std::string-field reference reader
//                            (check/reference.h): same status and message,
//                            cells bit for bit, same dictionary codes;
//                            plus random GetOrAdd / GetOrAddFrom / Find /
//                            Reserve / copy sequences on StringDictionary
//                            against an unordered_map + vector model
//   * FuzzConditionEvaluation random conditions: View::Materialize and
//                            View::Positions against per-row
//                            Condition::Evaluate ground truth
//   * FuzzViewIdentity       random view identities (tables holding 0x1d;
//                            attribute names holding " = ", " and ", "{",
//                            "'"; strings holding quotes and each byte
//                            0x1b-0x1f; ints; reals that render alike;
//                            +-0.0 and NaNs of other bits; conjunctions
//                            in both clause orders): ViewId == against a
//                            typed reference equality, < irreflexive,
//                            asymmetric and transitive over every drawn
//                            triple with equivalence == equality, and
//                            DeduplicateCandidates keeping the first of
//                            each equal group
//   * FuzzLabelOrder         random label atoms (ints around 9/10 and
//                            99/100, negatives, reals that render alike,
//                            +-0.0, NaN, +-inf, strings holding quotes,
//                            prefixes of one another, "" and bytes
//                            0x01-0x1f) in random groups and partitions:
//                            GroupKey and FamilyKey (core/clustered_view_
//                            gen.h) are strict weak orders whose
//                            equivalence is set / partition equality, and
//                            where no rendering holds a byte <= 0x1f and
//                            none repeats, the group order, NumberGroups'
//                            labels and the family-key order equal the
//                            string order of the reference GroupToken /
//                            FamilyPartitionKey (check/reference.h)
//   * FuzzPipeline           random database pairs through MatchEngine;
//                            checks result invariants (confidence bounds,
//                            row-count conservation, selection contracts)
//   * FuzzDifferential       random database pairs through every
//                            differential oracle (differential.h) at
//                            threads 1/2/4
//   * FuzzRowColumnarEquivalence
//                            random hostile tables: the columnar store's
//                            typed segments, dictionary codes, CellHash,
//                            Condition::MatchingPositions and TableView
//                            gather/reads against boxed row-at-a-time
//                            ground truth (bit-identical fingerprints)
//   * FuzzExecutorEquivalence
//                            random source databases, select and SP views
//                            and mapping queries (chains of 1-4 joins on
//                            1-2 key attributes, join-3 filters, NULL and
//                            cross-dictionary keys, rendering-equal reals,
//                            Skolem terms, every coercion pair) through
//                            ExecuteMapping(s) against the row-at-a-time
//                            reference executor: statuses, schemas, row
//                            order, every cell's type and bits, TableToCsv
//                            bytes and output dictionaries
//   * FuzzTokenKernelEquivalence
//                            random hostile tables, plus texts holding
//                            every byte 0x00-0xff, through the interned
//                            token kernel (text/gram.h): packed gram ids,
//                            dense 3-gram ranks, the q = 3 profile builder
//                            (every entry in order), flat profiles (every
//                            gram and word entry, q-gram cosine, word
//                            Dice), TF-IDF
//                            weighted cosine (stored document side and
//                            computed side), the
//                            gram-major Naive Bayes classifier and the
//                            Naive Bayes kernel fitted as TgtClassInfer's
//                            tagger (labels and log scores over trained,
//                            held-out and second-dictionary string cells,
//                            before and after a second training batch
//                            grows the vocabulary, plus exact score ties
//                            between labels of different frequency) and
//                            column-only AttributeSamples (whole
//                            columns and random row draws) against
//                            map-of-strings / boxed-bag reference
//                            implementations — every score bit-identical;
//                            plus the flat TokenInterner against the
//                            node-based reference (every id, then every
//                            token's bytes) and BuildCodePartials against
//                            the sorting partial builder (check/
//                            token_profile.h)
//   * FuzzViewProfileEquivalence
//                            random tables of repeated renderings (control
//                            bytes, quotes, NaN, +-inf, -0.0, NULL-only and
//                            empty columns) restricted to random
//                            conditions' rows, Floyd draws and the empty
//                            and full lists: AttributeSample::Restrict's
//                            merged profiles against boxed bags and the
//                            map-of-strings reference (counts, renderings,
//                            every profile entry, moments, q-gram cosine /
//                            word Dice / TF-IDF), and ScoreRestrictedSample
//                            (in the index's vocabulary against targets of
//                            two sessions' alignments, one with tokens no
//                            index holds; also on each column's NULL-only
//                            and single-row restrictions) against the same
//                            call on the materialized view — every double
//                            bit-identical
//   * FuzzEarlyDisjunctsEquivalence
//                            random tables of string, int and real
//                            evidence (NULL, NaN, +-inf, "" and evidence
//                            shared across labels) over label attributes
//                            of 2 to max_label_cardinality atoms (rare
//                            atoms hold one row or no train row), with
//                            random target databases for TgtClassInfer's
//                            taggers (NULL, NaN, +-inf and all-NULL
//                            columns, coinciding "table.attr" names, no
//                            column of a type, exact score ties): every
//                            evidence cell's up-front tag against the
//                            reference tagger's Classify
//                            (check/reference_classifier.h); every cell's
//                            per-cell model
//                            (SrcClassInfer and TgtClassInfer) against a
//                            classifier retrained on every cycle's
//                            grouping — each test item's score of every
//                            label and its predicted label bit for bit,
//                            the weighted evaluation against one
//                            observation per row — plus an exact Naive
//                            Bayes tie after a merge; and
//                            ClusteredViewGen's families, Late and Early
//                            at every thread count, against the
//                            retrain-per-cycle reference loop
//                            (check/reference.h): order, views, evidence
//                            attribute, F1 and significance bits
//   * FuzzSamplerEquivalence SampleRowPositions against the hash-set Floyd
//                            sampler (check/reference.h): positions and
//                            the next RNG draw at n = 0, 1, 2, on both
//                            sides of 2^8, 2^16 and 2^24, at 3e9 and 2^32
//                            and at random n, with k = 0, 1, n - 1, n,
//                            n + 1 and random k, on 1 thread and
//                            concurrently on pools of each thread count
//   * FuzzSessionScoreEquivalence
//                            random source tables and target databases
//                            (camelCase, underscored and digit-bearing
//                            attribute names; random non-null floors,
//                            blending and training caps): a
//                            TableMatchSession's raw score matrix against
//                            per-pair scoring with both names tokenized and
//                            both TF-IDF norms summed on every pair, every
//                            matcher bit for bit; then a session restored
//                            from those scores against the fresh one (the
//                            matrix, pair scores, accepted matches and
//                            restricted-sample scores with either
//                            session's alignment or none); and sessions
//                            over one SampleStore built concurrently on a
//                            pool (a second source over the same target, a
//                            target holding a content-equal copy of the
//                            source, the iteration's training cap), fresh
//                            and restored, against the per-pair reference

#ifndef CSM_CHECK_FUZZ_H_
#define CSM_CHECK_FUZZ_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "check/reference.h"
#include "common/status.h"
#include "core/clustered_view_gen.h"

namespace csm::check {

struct FuzzOptions {
  /// Harness seed; trial i uses IterationSeed(seed, i).
  uint64_t seed = 1;
  size_t iterations = 100;
  /// Thread counts the pipeline fuzzers sweep.
  std::vector<size_t> thread_counts = {1, 2, 4};
};

Status FuzzCsvRoundTrip(const FuzzOptions& options);
Status FuzzCsvChunkedParse(const FuzzOptions& options);
Status FuzzCsvScanEquivalence(const FuzzOptions& options);
Status FuzzConditionEvaluation(const FuzzOptions& options);
Status FuzzViewIdentity(const FuzzOptions& options);
Status FuzzLabelOrder(const FuzzOptions& options);
Status FuzzPipeline(const FuzzOptions& options);
Status FuzzDifferential(const FuzzOptions& options);
Status FuzzRowColumnarEquivalence(const FuzzOptions& options);
Status FuzzTokenKernelEquivalence(const FuzzOptions& options);
Status FuzzExecutorEquivalence(const FuzzOptions& options);
Status FuzzViewProfileEquivalence(const FuzzOptions& options);
Status FuzzEarlyDisjunctsEquivalence(const FuzzOptions& options);
Status FuzzSamplerEquivalence(const FuzzOptions& options);
Status FuzzSessionScoreEquivalence(const FuzzOptions& options);

/// Drives one grid cell's merge loop through the model `models` fits and,
/// at every cycle, through a classifier from `reference` trained afresh on
/// the cell's train rows under that cycle's labels.  Fails at the first
/// test item whose score of some group or whose predicted label differs in
/// bits, or the first cycle whose weighted evaluation differs from one
/// observation per test row.  Merges follow the top error pair; without
/// `early_disjuncts` one cycle runs.
Status CompareCellModelCycles(const Column& h, const CellRows& rows,
                              const LabelAtoms& atoms,
                              const ClassifierFactory& models,
                              const ReferenceClassifierFactory& reference,
                              bool early_disjuncts);

}  // namespace csm::check

#endif  // CSM_CHECK_FUZZ_H_
