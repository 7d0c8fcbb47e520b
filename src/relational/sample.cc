#include "relational/sample.h"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/logging.h"

namespace csm {
namespace {

/// Shared index selection: shuffles 0..n-1, clamps the train size, and
/// returns both sides sorted ascending.  Both split flavors call this so
/// their row selection is draw-for-draw identical.
std::pair<PosList, PosList> SplitPositions(size_t n, double train_fraction,
                                           Rng& rng) {
  CSM_CHECK_GE(train_fraction, 0.0);
  CSM_CHECK_LE(train_fraction, 1.0);
  PosList indices(n);
  std::iota(indices.begin(), indices.end(), RowId{0});
  rng.Shuffle(indices);

  size_t train_size =
      static_cast<size_t>(train_fraction * static_cast<double>(n) + 0.5);
  if (n >= 2) {
    train_size = std::clamp<size_t>(train_size, 1, n - 1);
  } else {
    train_size = n;
  }

  PosList train(indices.begin(), indices.begin() + train_size);
  PosList test(indices.begin() + train_size, indices.end());
  // Preserve original row order within each side for determinism of
  // downstream order-sensitive consumers.
  std::sort(train.begin(), train.end());
  std::sort(test.begin(), test.end());
  return {std::move(train), std::move(test)};
}

}  // namespace

TrainTestSplit SplitTrainTest(const Table& instance, double train_fraction,
                              Rng& rng) {
  auto [train, test] = SplitPositions(instance.num_rows(), train_fraction, rng);
  return TrainTestSplit{instance.SelectRows(train), instance.SelectRows(test)};
}

TrainTestViewSplit SplitTrainTestView(const TableView& instance,
                                      double train_fraction, Rng& rng) {
  auto [train, test] = SplitPositions(instance.num_rows(), train_fraction, rng);
  return TrainTestViewSplit{instance.Select(std::move(train)),
                            instance.Select(std::move(test))};
}

PosList SampleRowPositions(size_t num_rows, size_t sample_size, Rng& rng) {
  // PosList entries are 32-bit; Table::AddRow enforces the same bound.
  CSM_CHECK_LE(num_rows, static_cast<size_t>(RowId{0} - 1) + 1);
  if (sample_size >= num_rows) {
    PosList all(num_rows);
    std::iota(all.begin(), all.end(), RowId{0});
    return all;
  }
  // Floyd's sampling: for j in [n-k, n), draw t uniform on [0, j]; take t
  // unless already taken, else take j.  Every k-subset is equally likely,
  // with exactly k draws and a k-entry set — no n-sized allocation, no
  // full shuffle.
  PosList out;
  out.reserve(sample_size);
  std::unordered_set<RowId> chosen;
  chosen.reserve(sample_size * 2);
  for (size_t j = num_rows - sample_size; j < num_rows; ++j) {
    const RowId t = static_cast<RowId>(rng.NextBounded(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      // j itself is fresh: every prior pick is <= the prior j < this j.
      chosen.insert(static_cast<RowId>(j));
      out.push_back(static_cast<RowId>(j));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Table ReservoirSampleRows(const Table& instance, size_t sample_size,
                          Rng& rng) {
  if (sample_size >= instance.num_rows()) return instance;
  return instance.SelectRows(
      SampleRowPositions(instance.num_rows(), sample_size, rng));
}

uint64_t DeriveTableSampleSeed(uint64_t seed, std::string_view table_name) {
  // FNV-1a over the name, folded into the caller's seed; stable across
  // platforms so cold-tier restores rebuild the identical sample.
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (char c : table_name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace csm
