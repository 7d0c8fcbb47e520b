// Million-row instance generation for the scale path (DESIGN.md "Streaming
// ingest & sampling").
//
// The Section 5 generators (retail_gen, grades_gen) draw every row from one
// serial RNG stream, which is fine at 400 items but not at 10^7.  The scale
// generators here produce the same *shapes* — the retail inventory/Book/
// Music schemas with the Ryan_Eyers attribute names, and the grades
// narrow/wide pair — but generate rows in fixed-size chunks, each chunk
// seeded independently from (seed, table name, chunk index), so generation
// parallelizes over the exec pool and the output is bit-identical at every
// thread count.  Ground truth has the same entry structure as the small
// generators, so EvaluateMatches works unchanged.

#ifndef CSM_DATAGEN_SCALE_GEN_H_
#define CSM_DATAGEN_SCALE_GEN_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"

namespace csm {

namespace exec {
class ThreadPool;
}  // namespace exec

struct ScaleRetailOptions {
  /// Rows of the source inventory table (10^6..10^7 is the intended range).
  size_t source_rows = 1'000'000;
  /// Rows per target table (0 = source_rows / 2 each).
  size_t target_rows_per_table = 0;
  /// Total Book*/CD* labels; must be even and >= 2.
  size_t gamma = 4;
  uint64_t seed = 1;
  /// Generation workers; 0 = one per hardware thread, 1 = serial.
  size_t threads = 0;
  /// Optional borrowed pool (overrides `threads`).
  exec::ThreadPool* pool = nullptr;
};

struct ScaleGradesOptions {
  size_t num_students = 200'000;
  size_t num_exams = 5;
  double sigma = 5.0;
  uint64_t seed = 1;
  size_t threads = 0;
  exec::ThreadPool* pool = nullptr;
};

/// Generates a scale retail instance (Ryan_Eyers target variant).
/// Deterministic given options.seed at every thread count: rows come in
/// independently seeded chunks of a fixed size (scale_gen.cc).
RetailDataset MakeScaleRetailDataset(const ScaleRetailOptions& options);

/// Generates a scale grades instance.  Student names are made unique with a
/// "#<index>" suffix instead of the small generator's global collision set,
/// so chunks need no shared state.  Deterministic given options.seed at
/// every thread count.
GradesDataset MakeScaleGradesDataset(const ScaleGradesOptions& options);

/// Writes every table of `source` and `target` as "<dir>/<table>.csv" plus
/// a "<dir>/truth.tsv" listing the ground-truth entries (one per line:
/// source_table, source_attr, target_table, target_attr, label_attribute,
/// comma-joined allowed values — tab-separated).  `dir` must exist.
Status WriteScaleDatasetCsv(const Database& source, const Database& target,
                            const GroundTruth& truth, const std::string& dir);

}  // namespace csm

#endif  // CSM_DATAGEN_SCALE_GEN_H_
