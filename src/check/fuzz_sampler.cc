// FuzzSamplerEquivalence: SampleRowPositions against the hash-set Floyd
// sampler it replaced (check/reference.h).

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "check/generators.h"
#include "check/reference.h"
#include "exec/parallel.h"
#include "exec/thread_pool.h"
#include "relational/sample.h"

namespace csm::check {
namespace {

Status Replay(const FuzzOptions& options, size_t iteration, Status status) {
  if (status.ok()) return status;
  return Status(status.code(),
                "replay: seed=" + std::to_string(options.seed) +
                    " iteration=" + std::to_string(iteration) + "; " +
                    status.message());
}

/// Table sizes the radix passes must handle at their edges: the tiny ones,
/// both sides of each pass boundary (a position needing one more byte),
/// and the largest table a PosList can address.
constexpr size_t kEdgeRows[] = {0,
                                1,
                                2,
                                (size_t{1} << 8) - 1,
                                size_t{1} << 8,
                                (size_t{1} << 8) + 1,
                                (size_t{1} << 16) - 1,
                                size_t{1} << 16,
                                (size_t{1} << 16) + 1,
                                (size_t{1} << 24) - 1,
                                size_t{1} << 24,
                                (size_t{1} << 24) + 1,
                                size_t{3'000'000'000},
                                size_t{1} << 32};

/// Draws up to this many picks are compared at any table size; larger ones
/// (k = n - 1, n, n + 1 of a big table) only where n is below it, so the
/// reference's node set stays small.
constexpr size_t kMaxPicks = (size_t{1} << 16) + 2;

struct SamplerCase {
  size_t rows;
  size_t picks;
  uint64_t seed;
};

/// The cases of one iteration: an edge table size (cycling through
/// kEdgeRows) and a random one of 1 to 32 bits, each with k in {0, 1,
/// n - 1, n, n + 1} where affordable and two random k.
std::vector<SamplerCase> DrawCases(size_t iteration, Rng& rng) {
  const size_t num_edges = std::size(kEdgeRows);
  const size_t random_rows =
      rng.NextBounded((uint64_t{1} << (1 + rng.NextBounded(32))) + 1);
  std::vector<SamplerCase> cases;
  for (size_t n : {kEdgeRows[iteration % num_edges], random_rows}) {
    std::vector<size_t> ks = {0, 1};
    if (n <= kMaxPicks) {
      ks.insert(ks.end(), {n == 0 ? 0 : n - 1, n, n + 1});
    }
    const size_t cap = std::min(n + 1, kMaxPicks);
    ks.push_back(rng.NextBounded(std::min<size_t>(cap, 300) + 1));
    ks.push_back(rng.NextBounded(cap + 1));
    for (size_t k : ks) cases.push_back({n, k, rng.Next()});
  }
  return cases;
}

/// A draw: its positions and the RNG's next draw after it.
struct Draw {
  PosList positions;
  uint64_t next = 0;
};

template <typename Sampler>
Draw DrawWith(const SamplerCase& c, Sampler sampler) {
  Rng rng(c.seed);
  Draw draw;
  draw.positions = sampler(c.rows, c.picks, rng);
  draw.next = rng.Next();
  return draw;
}

/// Empty when `got` equals `want`, else what diverged.
std::string Diff(const SamplerCase& c, const Draw& got, const Draw& want) {
  const std::string where = "n=" + std::to_string(c.rows) +
                            " k=" + std::to_string(c.picks) +
                            " draw seed=" + std::to_string(c.seed);
  if (got.positions.size() != want.positions.size()) {
    return where + ": " + std::to_string(got.positions.size()) +
           " positions, want " + std::to_string(want.positions.size());
  }
  const auto diff = std::mismatch(got.positions.begin(), got.positions.end(),
                                  want.positions.begin());
  if (diff.first != got.positions.end()) {
    return where + ": position " +
           std::to_string(diff.first - got.positions.begin()) + " is " +
           std::to_string(*diff.first) + ", want " +
           std::to_string(*diff.second);
  }
  if (got.next != want.next) return where + ": next RNG draw";
  return "";
}

}  // namespace

Status FuzzSamplerEquivalence(const FuzzOptions& options) {
  std::vector<std::unique_ptr<exec::ThreadPool>> pools;
  for (size_t threads : options.thread_counts) {
    pools.push_back(threads > 1 ? std::make_unique<exec::ThreadPool>(threads)
                                : nullptr);
  }
  for (size_t i = 0; i < options.iterations; ++i) {
    Rng rng(IterationSeed(options.seed, i));
    const std::vector<SamplerCase> cases = DrawCases(i, rng);
    std::vector<Draw> want;
    for (const SamplerCase& c : cases) {
      want.push_back(DrawWith(c, ReferenceSampleRowPositions));
    }
    // Every case on one thread, then spread over each pool, whose workers
    // draw concurrently from their own scratch.
    for (size_t t = 0; t < pools.size(); ++t) {
      std::vector<std::string> diffs(cases.size());
      exec::ParallelFor(pools[t].get(), cases.size(), [&](size_t c) {
        diffs[c] = Diff(cases[c], DrawWith(cases[c], SampleRowPositions),
                        want[c]);
      });
      for (const std::string& diff : diffs) {
        if (diff.empty()) continue;
        return Replay(options, i,
                      Status::Internal(
                          "SampleRowPositions diverged from the hash-set "
                          "sampler at " +
                          std::to_string(options.thread_counts[t]) +
                          " threads, " + diff));
      }
    }
  }
  return Status::Ok();
}

}  // namespace csm::check
