#include "relational/sample.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>
#include <vector>

#include "common/logging.h"

namespace csm {

TrainTestViewSplit SplitTrainTestView(const TableView& instance,
                                      double train_fraction, Rng& rng) {
  CSM_CHECK_GE(train_fraction, 0.0);
  CSM_CHECK_LE(train_fraction, 1.0);
  const size_t n = instance.num_rows();
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
  return TrainTestViewSplit{instance.Select(std::move(train)),
                            instance.Select(std::move(test))};
}

namespace {

/// SampleRowPositions' per-thread scratch, grown to the largest draw the
/// thread has made: the picks' open-addressing set and the two buffers the
/// radix passes alternate between.
struct SamplerScratch {
  std::vector<uint64_t> slots;  // pick + 1; 0 marks an empty slot
  PosList picks;
  PosList spare;
};

SamplerScratch& LocalSamplerScratch() {
  thread_local SamplerScratch scratch;
  return scratch;
}

}  // namespace

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
  // with exactly k draws — no n-sized allocation, no full shuffle.  The
  // picks live in a linear-probing set of at least 2k slots, hashed by
  // multiplying with 2^64 / phi and keeping the top bits.  The scratch is
  // the thread's, so concurrent draws share nothing.
  SamplerScratch& scratch = LocalSamplerScratch();
  const int log_slots = static_cast<int>(std::bit_width(2 * sample_size | 1));
  scratch.slots.assign(size_t{1} << log_slots, 0);
  const uint64_t mask = (uint64_t{1} << log_slots) - 1;
  // Inserts `pick` unless present; true when it was new.
  auto insert = [&](uint64_t pick) {
    uint64_t slot = (pick * 0x9e3779b97f4a7c15ULL) >> (64 - log_slots);
    while (scratch.slots[slot] != 0) {
      if (scratch.slots[slot] == pick + 1) return false;
      slot = (slot + 1) & mask;
    }
    scratch.slots[slot] = pick + 1;
    return true;
  };
  PosList& picks = scratch.picks;
  picks.clear();
  for (size_t j = num_rows - sample_size; j < num_rows; ++j) {
    const uint64_t t = rng.NextBounded(j + 1);
    if (insert(t)) {
      picks.push_back(static_cast<RowId>(t));
    } else {
      // j itself is fresh: every prior pick is <= the prior j < this j.
      insert(j);
      picks.push_back(static_cast<RowId>(j));
    }
  }

  // Ascending order by least-significant-byte radix passes, one per byte
  // of the largest position n - 1; the last pass writes the result.
  const int passes = std::max(
      1, static_cast<int>(std::bit_width(uint64_t{num_rows - 1}) + 7) / 8);
  PosList out(sample_size);
  scratch.spare.resize(sample_size);
  const RowId* from = picks.data();
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = 8 * pass;
    RowId* to = pass + 1 == passes ? out.data()
                : from == picks.data() ? scratch.spare.data()
                                       : picks.data();
    std::array<size_t, 257> starts{};
    for (size_t i = 0; i < sample_size; ++i) {
      ++starts[((from[i] >> shift) & 0xffu) + 1];
    }
    for (size_t b = 1; b < starts.size(); ++b) starts[b] += starts[b - 1];
    for (size_t i = 0; i < sample_size; ++i) {
      to[starts[(from[i] >> shift) & 0xffu]++] = from[i];
    }
    from = to;
  }
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
