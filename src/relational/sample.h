// Sampling helpers: random train/test partitioning of a table's rows (used
// by ClusteredViewGen's doTraining/doTesting) and uniform subsampling (used
// by session training caps and the sample-size experiments).
//
// The subsampling path is built on SampleRowPositions, a bounded-cost
// uniform index sampler (Floyd's algorithm): drawing k of n rows costs
// O(k) time and O(k) memory regardless of n, so samplers stay cheap on
// million-row tables.  ReservoirSampleRows gathers exactly the positions
// SampleRowPositions picks.

#ifndef CSM_RELATIONAL_SAMPLE_H_
#define CSM_RELATIONAL_SAMPLE_H_

#include <utility>

#include "common/random.h"
#include "relational/table.h"
#include "relational/table_view.h"

namespace csm {

/// A zero-copy train/test split: two position-list views over the same base
/// table, each side in ascending row order.
struct TrainTestViewSplit {
  TableView train;
  TableView test;
};

/// Randomly partitions `instance` rows into train/test with `train_fraction`
/// of rows (rounded, at least 1 of each when the table has >= 2 rows) going
/// to train.  No rows are copied; `instance`'s base table must outlive the
/// returned views.  Deterministic given `rng`.
TrainTestViewSplit SplitTrainTestView(const TableView& instance,
                                      double train_fraction, Rng& rng);

/// Uniformly samples `sample_size` distinct row positions from
/// [0, num_rows), returned ascending.  Floyd's algorithm: exactly
/// sample_size RNG draws when sample_size < num_rows, picks tracked in a
/// flat open-addressing set and ordered by byte-radix passes (one per byte
/// of num_rows - 1), in O(sample_size) time and memory — the cost never
/// scales with num_rows, which is what lets a 500-row training sample stay
/// 500-rows cheap on a 10^7-row table.  Returns all positions, drawing
/// nothing, when sample_size >= num_rows.  Deterministic given `rng`;
/// uses the calling thread's scratch, so concurrent calls are safe.
PosList SampleRowPositions(size_t num_rows, size_t sample_size, Rng& rng);

/// Bounded-cost uniform row sample without replacement: a columnar gather
/// of the rows at SampleRowPositions(...).  The k-slot reservoir is filled
/// by index sampling instead of a full-table scan, so building the sample
/// costs O(k) plus the gather — independent of instance size.  Order
/// of kept rows is preserved; returns a copy of `instance` when
/// sample_size >= num_rows.
Table ReservoirSampleRows(const Table& instance, size_t sample_size, Rng& rng);

/// Deterministic per-table seed for training-sample draws: folds
/// `table_name` into `seed` so every table of a database samples from an
/// independent but reproducible stream (used by TableMatchSession's
/// max_training_rows cap; restore paths rebuild the identical sample).
uint64_t DeriveTableSampleSeed(uint64_t seed, std::string_view table_name);

}  // namespace csm

#endif  // CSM_RELATIONAL_SAMPLE_H_
