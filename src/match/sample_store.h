// Attribute samples built once per table content and shared by sessions.
//
// A TableMatchSession reads one AttributeSample per attribute of its source
// table and of every target table: the column, its name forms, its q-gram
// and word profiles and its numeric statistics.  Building them (rendering
// and tokenizing every distinct value) is most of phase 1, and the same
// table recurs across sessions: every source table of a request reads the
// same target tables, and a request and its reverse-role request
// (MatchMode::kTargetContext) read the same two databases in swapped roles.
// A TableSamples holds one table's samples, identical in either role, and a
// SampleStore hands out one shared, immutable TableSamples per (table
// content fingerprint, training cap, training seed) while some holder keeps
// it alive.
//
// The store holds its entries weakly: sessions own them, so an entry lives
// exactly as long as some session (or caller) reads its table, and the
// store's memory is bounded by whatever bounds the sessions.  It has no
// lock: resolve entries on one thread, then hand them to sessions built on
// any number of threads (the samples' lazy caches are built under
// std::call_once).  See DESIGN.md 6f.

#ifndef CSM_MATCH_SAMPLE_STORE_H_
#define CSM_MATCH_SAMPLE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "match/matcher.h"
#include "relational/table.h"

namespace csm {

/// One table's attribute samples as a session trains on them: every
/// attribute of the table, or of its capped training draw, in schema
/// order.  Immutable once built.
class TableSamples {
 public:
  /// Samples every attribute of `table`.  When `max_training_rows` > 0 and
  /// the table has more rows, the samples come from the deterministic draw
  /// ReservoirSampleRows seeded by DeriveTableSampleSeed(
  /// `training_sample_seed`, table name), so equal inputs give equal
  /// samples.
  TableSamples(const Table& table, size_t max_training_rows,
               uint64_t training_sample_seed);

  const std::string& table_name() const { return table_name_; }
  size_t max_training_rows() const { return max_training_rows_; }
  uint64_t training_sample_seed() const { return training_sample_seed_; }

  /// One sample per attribute, in schema order.
  const std::vector<AttributeSample>& attributes() const {
    return attributes_;
  }

 private:
  std::string table_name_;
  size_t max_training_rows_;
  uint64_t training_sample_seed_;
  std::vector<AttributeSample> attributes_;
};

/// Content-addressed TableSamples, held weakly.  Not synchronized: call
/// Resolve from one thread at a time.
class SampleStore {
 public:
  /// The live entry for (`fingerprint`, cap, seed) if some holder still
  /// keeps one (a hit), else a new TableSamples of `table` (a miss).
  /// `fingerprint` must identify `table`'s name, schema and cells (the
  /// engine passes FingerprintTableContent); the store trusts it.
  std::shared_ptr<const TableSamples> Resolve(uint64_t fingerprint,
                                              const Table& table,
                                              size_t max_training_rows,
                                              uint64_t training_sample_seed);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

  /// Keys currently mapped, live or not yet swept (for tests).
  size_t num_keys() const { return entries_.size(); }

 private:
  using Key = std::tuple<uint64_t, size_t, uint64_t>;
  std::map<Key, std::weak_ptr<const TableSamples>> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace csm

#endif  // CSM_MATCH_SAMPLE_STORE_H_
