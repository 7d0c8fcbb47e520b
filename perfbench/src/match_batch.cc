// match_batch: the paper's batch use.  A closed loop with one caller; each
// op is one cold MatchEngine::Execute (the session cache is cleared first)
// on one of a pool of generated Retail pairs, EarlyDisjuncts +
// SrcClassInfer at gamma = 8, so candidate-view scoring dominates.
//
// Traced run: the first half of the time runs untraced ops (CPU
// utilization, the untraced latency and fingerprints); the second half runs
// each op as spans around public calls — the full Execute, a cold
// baseline_only Execute (phase 1), the view inference replayed through
// MakeViewInference, the candidate views' Condition::MatchingPositions
// scans and SelectContextualMatches on the response's pool.  Scoring is
// derived: full Execute minus the other three.

#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "core/match_engine.h"
#include "core/select_matches.h"
#include "core/view_inference.h"
#include "datagen/retail_gen.h"
#include "exec/thread_pool.h"

namespace perfbench {
namespace {

constexpr size_t kPairs = 16;
constexpr size_t kItems = 800;
constexpr size_t kGamma = 8;
/// F-measure floor against the generator's ground truth, on the mean over
/// the pool.  A per-pair floor would fail honest runs: about one generated
/// pair in fifty legitimately scores F = 0 (no correct view survives), so
/// each op is held to its pair's first answer (fingerprint) instead.
constexpr double kMinMeanFmeasure = 0.6;

csm::ContextMatchOptions EngineOptions(uint64_t seed) {
  csm::ContextMatchOptions options;
  options.tau = 0.5;
  options.omega = 0.1;
  options.inference = csm::ViewInferenceKind::kSrcClass;
  options.selection = csm::SelectionPolicy::kQualTable;
  options.early_disjuncts = true;
  options.threads = kEngineThreads;
  options.seed = MixSeed(seed, 0xe46);
  return options;
}

std::vector<csm::RetailDataset> MakePairs(uint64_t seed) {
  std::vector<csm::RetailDataset> pairs;
  for (size_t k = 0; k < kPairs; ++k) {
    csm::RetailOptions options;
    options.num_items = kItems;
    options.gamma = kGamma;
    options.target = static_cast<csm::RetailTarget>(k % 3);
    options.seed = MixSeed(seed, k);
    pairs.push_back(csm::MakeRetailDataset(options));
  }
  return pairs;
}

/// The first answer for each pair: fingerprint and F-measure.
struct Reference {
  uint64_t hash = 0;
  double fmeasure = 0.0;
};

/// Checks one op's response; returns false (and counts the failure) when
/// it is not a complete answer identical to the pair's first one.
bool CheckOp(const csm::MatchResponse& response,
             const csm::RetailDataset& pair, Reference* reference,
             RunResult* result) {
  if (!response.ok() ||
      response.completeness != csm::MatchCompleteness::kComplete) {
    result->FailOp("match not complete: " + response.status.ToString());
    return false;
  }
  const uint64_t hash = FingerprintHash(response.result);
  if (reference->hash == 0) {
    reference->hash = hash;
    reference->fmeasure =
        csm::EvaluateMatches(pair.truth, response.matches).fmeasure;
  }
  if (hash != reference->hash) {
    result->FailOp("repeated match fingerprint differs");
    return false;
  }
  return true;
}

/// The quality gate: mean F-measure over the pairs answered so far.
void CheckQuality(const std::vector<Reference>& references,
                  RunResult* result) {
  std::vector<double> f;
  for (const Reference& r : references) {
    if (r.hash != 0) f.push_back(r.fmeasure);
  }
  const double mean = Mean(f);
  PrintQuantile("mean_fmeasure", mean, f.size(), "ratio");
  if (mean < kMinMeanFmeasure) {
    result->Invalidate("mean F-measure " + std::to_string(mean) +
                       " below floor");
  }
}

csm::MatchRequest RequestFor(const csm::RetailDataset& pair,
                             bool baseline_only) {
  csm::MatchRequest request;
  request.source = csm::BorrowDatabase(pair.source);
  request.target = csm::BorrowDatabase(pair.target);
  request.baseline_only = baseline_only;
  return request;
}

}  // namespace

RunResult RunMatchBatch(const RunConfig& config) {
  RunResult result;
  std::vector<csm::RetailDataset> pairs;
  const double setup_s = TimeSetup([&] { pairs = MakePairs(config.seed); });

  const csm::ContextMatchOptions options = EngineOptions(config.seed);
  csm::MatchEngine engine(options);
  std::vector<Reference> reference(pairs.size());
  uint64_t op = 0;

  // Untraced ops: the whole run, or its first half when tracing.
  std::vector<double> latencies, cpu;
  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  const auto loop_start = Clock::now();
  while (SecondsSince(loop_start) < untraced_seconds) {
    const csm::RetailDataset& pair = pairs[op % pairs.size()];
    engine.ClearSessionCache();
    const double cpu_start = CpuSeconds();
    const auto start = Clock::now();
    csm::MatchResponse response = engine.Execute(RequestFor(pair, false));
    latencies.push_back(SecondsSince(start));
    cpu.push_back(CpuSeconds() - cpu_start);
    ++result.attempted;
    CheckOp(response, pair, &reference[op % pairs.size()], &result);
    ++op;
  }
  const double loop_seconds = SecondsSince(loop_start);
  const double cpu_util =
      Mean(cpu) / (Mean(latencies) * static_cast<double>(kEngineThreads));
  CheckQuality(reference, &result);
  const Quantiles q = Summarize(latencies);
  const Quantiles cq = Summarize(cpu);
  PrintQuantile("match_p50_s", q.p50, q.n, "s");
  PrintQuantile("match_p90_s", q.p90, q.n, "s");
  PrintQuantile("match_cpu_p50_s", cq.p50, cq.n, "s");
  PrintQuantile("match_cpu_p90_s", cq.p90, cq.n, "s");
  PrintValue("cpu_per_op_s", Mean(cpu), "s");
  PrintValue("matches_per_s", static_cast<double>(q.n) / loop_seconds, "1/s");
  PrintValue("exec.cpu_util", cpu_util, "ratio");

  if (!config.trace) {
    result.Set("cpu_per_op_s", Mean(cpu));
    result.Set("setup_s", setup_s);
    return result;
  }

  // Traced ops.
  SpanLog spans(true);
  csm::exec::ThreadPool replay_pool(kEngineThreads);
  std::vector<double> base_matches, candidate_views, view_rows, view_matches;
  const auto traced_start = Clock::now();
  while (SecondsSince(traced_start) < config.seconds / 2) {
    const size_t k = op % pairs.size();
    const csm::RetailDataset& pair = pairs[k];
    const csm::Table& source = pair.source.tables().front();
    const auto op_start = Clock::now();

    engine.ClearSessionCache();
    csm::MatchResponse full = spans.Time("core.execute", op, [&] {
      return engine.Execute(RequestFor(pair, false));
    });
    ++result.attempted;
    const bool ok = CheckOp(full, pair, &reference[k], &result);

    engine.ClearSessionCache();
    csm::MatchResponse base = spans.Time("match.session", op, [&] {
      return engine.Execute(RequestFor(pair, true));
    });
    base_matches.push_back(
        static_cast<double>(base.result.pool.base_matches.size()));

    const size_t inferred = spans.Time("core.inference", op, [&] {
      std::unique_ptr<csm::ViewInference> inference =
          csm::MakeViewInference(options.inference, options);
      csm::InferenceInput input;
      input.source_sample = source;
      input.target_sample = &pair.target;
      input.matches = &base.result.pool.base_matches;
      input.early_disjuncts = options.early_disjuncts;
      input.pool = &replay_pool;
      csm::Rng rng(options.seed);
      return inference->InferCandidateViews(input, rng).size();
    });
    candidate_views.push_back(static_cast<double>(inferred));

    const size_t rows = spans.Time("relational.view_scan", op, [&] {
      size_t total = 0;
      for (const csm::View& view : full.result.pool.candidate_views) {
        total += view.condition().MatchingPositions(source).size();
      }
      return total;
    });
    view_rows.push_back(static_cast<double>(rows));

    const csm::SelectionResult selection =
        spans.Time("core.selection", op, [&] {
          return csm::SelectContextualMatches(full.result.pool, options);
        });
    view_matches.push_back(
        static_cast<double>(full.result.pool.view_matches.size()));
    spans.Record(kOpSpan, op, op_start, Clock::now());

    // Fidelity: the replayed calls reproduce what the engine did.
    if (ok && (inferred != full.result.pool.candidate_views.size() ||
               selection.matches.size() != full.matches.size() ||
               base.result.pool.base_matches.size() !=
                   full.result.pool.base_matches.size())) {
      result.Invalidate("traced replay disagrees with the engine run");
    }
    ++op;
  }

  const std::vector<double> execute = spans.PerOpTotals("core.execute");
  const std::vector<double> session = spans.PerOpTotals("match.session");
  const std::vector<double> inference = spans.PerOpTotals("core.inference");
  const std::vector<double> scan = spans.PerOpTotals("relational.view_scan");
  const std::vector<double> select = spans.PerOpTotals("core.selection");
  std::vector<double> scoring;
  for (size_t i = 0; i < execute.size(); ++i) {
    scoring.push_back(execute[i] - session[i] - inference[i] - select[i]);
  }
  const size_t n = execute.size();
  auto report = [&](const char* name, const std::vector<double>& per_op) {
    const double median = NearestRank(per_op, 50);
    PrintQuantile(name, median, n, "s");
    result.Set(name, median);
  };
  report("match.session_s", session);
  report("core.inference_s", inference);
  report("relational.view_scan_s", scan);
  report("core.scoring_s", scoring);  // derived
  report("core.selection_s", select);
  std::printf("(core.scoring_s is derived: execute - session - inference - "
              "selection)\n");
  result.Set("match.base_matches", Mean(base_matches));
  result.Set("core.candidate_views", Mean(candidate_views));
  result.Set("relational.view_rows", Mean(view_rows));
  result.Set("core.view_matches", Mean(view_matches));
  result.Set("exec.cpu_util", cpu_util);
  const double overhead = NearestRank(execute, 50) / q.p50;
  PrintQuantile("trace.overhead_ratio", overhead, n, "ratio");
  result.Set("trace.overhead_ratio", overhead);
  spans.WriteJsonLines(config.work_dir + "/spans-match_batch.jsonl");
  return result;
}

}  // namespace perfbench
