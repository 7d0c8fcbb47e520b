// Seeded structured-input generators for the correctness fuzzers.
//
// Everything here is a pure function of the Rng handed in: replaying a
// failing iteration means re-seeding an Rng with the iteration's derived
// seed (fuzz.h prints it on failure) and calling the same generator again.
// Two generator families:
//
//   * Hostile tables (RandomHostileTable): arbitrary schemas whose string
//     cells exercise every CSV escape path — commas, quotes, CR, LF, CRLF,
//     empty fields, multi-byte UTF-8, leading/trailing blanks.  Feed these
//     through WriteCsv -> ParseCsv round trips.
//
//   * Matchable database pairs (RandomDatabasePair): small source/target
//     databases drawing attribute names and cell values from shared,
//     low-cardinality domain pools, so the full ContextMatch pipeline finds
//     base matches, infers candidate views and exercises selection instead
//     of trivially returning nothing.

#ifndef CSM_CHECK_GENERATORS_H_
#define CSM_CHECK_GENERATORS_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "relational/condition.h"
#include "relational/table.h"

namespace csm::check {

/// Derives the per-iteration seed the fuzzers use (splitmix-style fold of
/// the harness seed and the iteration index); exposed so a failure message
/// "seed=S iteration=I" can be replayed as RandomX(Rng(IterationSeed(S, I))).
uint64_t IterationSeed(uint64_t seed, uint64_t iteration);

/// One string cell drawn from the hostile pool: plain words, embedded
/// commas/quotes/newlines/CRs, UTF-8 runs, leading/trailing blanks.  Never
/// empty and never whitespace-only (both of those parse back as NULL by
/// design; the generator emits real NULLs instead).
std::string RandomHostileCell(Rng& rng);

struct HostileTableOptions {
  size_t min_rows = 0;
  size_t max_rows = 16;
  size_t min_attributes = 1;
  size_t max_attributes = 6;
  /// Probability that any one cell is NULL.
  double null_probability = 0.1;
  /// Draw about a third of the real cells from NaN, +-inf, -0.0 and values
  /// whose "%g" rendering drops digits (their text no longer round trips,
  /// so use these tables for writer checks, not parse round trips).
  bool special_reals = false;
};

/// Random table mixing int / real / string columns; string cells come from
/// RandomHostileCell, reals are exact binary fractions (k/8) so text round
/// trips cannot lose precision.
Table RandomHostileTable(const std::string& name, Rng& rng,
                         const HostileTableOptions& options = {});

/// Random condition over `table`'s attributes: 0-2 clauses on distinct
/// attributes, each an IN over a mix of values present in the column and
/// values absent from it ("true" when 0 clauses).
Condition RandomCondition(const Table& table, Rng& rng);

struct DatabasePairOptions {
  size_t min_source_tables = 1;
  size_t max_source_tables = 2;
  size_t min_target_tables = 1;
  size_t max_target_tables = 2;
  size_t min_rows = 12;
  size_t max_rows = 28;
};

struct DatabasePair {
  Database source;
  Database target;
};

/// Small source/target databases over shared attribute-name and value-domain
/// pools: every table gets at least one low-cardinality categorical column
/// (so view inference has labels to partition on) plus a few domain-typed
/// value columns that overlap between source and target.
DatabasePair RandomDatabasePair(Rng& rng,
                                const DatabasePairOptions& options = {});

}  // namespace csm::check

#endif  // CSM_CHECK_GENERATORS_H_
