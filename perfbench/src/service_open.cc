// service_open: an open loop of independent users into one MatchService.
//
// Requests arrive on a Poisson schedule drawn from the seed and pick one of
// more request types than the engine's 8-entry session cache can hold,
// Zipf-skewed.  Half the traffic is baseline_only or kTargetContext on wide
// Retail schemas (+8 attributes), where a cache miss is almost all phase 1;
// the other half is kContext / kConjunctive on narrow Retail and Grades
// pairs.  No deadlines, and the queue bound is far above any backlog the
// rate builds, so nothing is rejected.  The catalog of pairs and the engine
// options are the same in every run; the seed drives the traffic.
//
// One generator thread submits each request at its due time; one collector
// thread waits on the futures in submission order.  Latency runs from the
// due time, so a generator that falls behind is charged to the service, and
// the generator's lag is recorded and bounded.  Answers are checked after
// the last one arrives, outside the measured interval.
//
// The traced run submits the same schedule with every other Submit wrapped
// in a span (traced and untraced requests share one cache state, so they
// can be compared), then replays each request type once on a cold engine,
// full and baseline_only, for the phase-1 share of engine time.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"
#include "service/match_service.h"

namespace perfbench {
namespace {

// Request mix.
constexpr size_t kWidePairs = 6;
constexpr size_t kWideItems = 200;
constexpr size_t kWideExtraAttributes = 8;
constexpr size_t kNarrowRetailPairs = 3;
constexpr size_t kNarrowItems = 200;
constexpr size_t kGradesPairs = 3;
constexpr size_t kGradesStudents = 100;
constexpr double kZipfExponent = 1.0;
/// Requests per block of the type sequence (see MakeSchedule).
constexpr size_t kMixBlock = 100;

/// Open-loop arrival rate (requests/s): about a quarter of the capacity
/// measured on a quiet reference host, and under half of it when the host
/// runs 1.7x slower (README.md).  Nearer capacity, a slower host turns into
/// a queue that grows without bound, and latency stops being comparable
/// between runs.
constexpr double kRate = 10.0;
/// Generator lag bound: a run whose p90 lag exceeds it is invalid.  The
/// generator shares the host's 4 CPUs with the engine's 4 workers, so it
/// waits for a CPU now and then; a quarter of the mean arrival gap still
/// leaves latency dominated by the service.
constexpr double kMaxLagP90S = 0.025;
/// Per-request F-measure floors against the generator's ground truth, for
/// the contextual (kContext/kConjunctive) requests.  The service's one
/// engine runs the Retail-tuned tau/omega, under which the catalog's Retail
/// pairs score F 0.67-0.95 and its Grades pairs F 0.33 (Grades' own tuning
/// is in csv_transform).
constexpr double kMinRetailFmeasure = 0.5;
constexpr double kMinGradesFmeasure = 0.15;

struct Pair {
  csm::Database source;
  csm::Database target;
  csm::GroundTruth truth;
};

/// One request type: a pair plus a mode.
struct RequestType {
  size_t pair = 0;
  csm::MatchMode mode = csm::MatchMode::kContext;
  size_t max_stages = 1;
  bool baseline_only = false;
  std::string name;
  /// F-measure floor; 0 for baseline_only and kTargetContext answers, whose
  /// view matches the source-side ground truth does not describe.
  double min_fmeasure = 0.0;
};

struct Inputs {
  std::vector<Pair> pairs;
  /// The wide types (baseline_only / kTargetContext) first, then the narrow
  /// ones (kContext / kConjunctive).
  std::vector<RequestType> types;
  size_t wide_types = 0;
};

/// The catalog is the same in every run: with per-seed schemas the cost of
/// the few most popular types moved capacity by a third between seeds.
Inputs MakeInputs() {
  constexpr uint64_t kCatalogSeed = 0xca7a1065;
  Inputs in;
  auto add_pair = [&](csm::Database source, csm::Database target,
                      csm::GroundTruth truth) {
    in.pairs.push_back(
        Pair{std::move(source), std::move(target), std::move(truth)});
    return in.pairs.size() - 1;
  };
  for (size_t k = 0; k < kWidePairs; ++k) {
    csm::RetailOptions options;
    options.num_items = kWideItems;
    options.extra_noncategorical = kWideExtraAttributes;
    options.target = static_cast<csm::RetailTarget>(k % 3);
    options.seed = MixSeed(kCatalogSeed, 100 + k);
    csm::RetailDataset data = csm::MakeRetailDataset(options);
    const size_t p = add_pair(std::move(data.source), std::move(data.target),
                              std::move(data.truth));
    const std::string name = "wide" + std::to_string(k);
    in.types.push_back({p, csm::MatchMode::kContext, 1, true,
                        name + "/baseline_only", 0.0});
    in.types.push_back({p, csm::MatchMode::kTargetContext, 1, false,
                        name + "/target_context", 0.0});
  }
  in.wide_types = in.types.size();
  for (size_t k = 0; k < kNarrowRetailPairs + kGradesPairs; ++k) {
    size_t p = 0;
    std::string name;
    double floor = kMinGradesFmeasure;
    if (k < kNarrowRetailPairs) {
      floor = kMinRetailFmeasure;
      csm::RetailOptions options;
      options.num_items = kNarrowItems;
      options.target = static_cast<csm::RetailTarget>(k % 3);
      options.seed = MixSeed(kCatalogSeed, 200 + k);
      csm::RetailDataset data = csm::MakeRetailDataset(options);
      p = add_pair(std::move(data.source), std::move(data.target),
                   std::move(data.truth));
      name = "retail" + std::to_string(k);
    } else {
      csm::GradesOptions options;
      options.num_students = kGradesStudents;
      options.seed = MixSeed(kCatalogSeed, 300 + k);
      csm::GradesDataset data = csm::MakeGradesDataset(options);
      p = add_pair(std::move(data.source), std::move(data.target),
                   std::move(data.truth));
      name = "grades" + std::to_string(k - kNarrowRetailPairs);
    }
    in.types.push_back({p, csm::MatchMode::kContext, 1, false,
                        name + "/context", floor});
    in.types.push_back({p, csm::MatchMode::kConjunctive, 2, false,
                        name + "/conjunctive", floor});
  }
  return in;
}

csm::MatchRequest RequestFor(const Inputs& inputs, const RequestType& type) {
  const Pair& pair = inputs.pairs[type.pair];
  csm::MatchRequest request;
  request.mode = type.mode;
  request.max_stages = type.max_stages;
  request.baseline_only = type.baseline_only;
  request.source = csm::BorrowDatabase(pair.source);
  request.target = csm::BorrowDatabase(pair.target);
  return request;
}

/// One scheduled arrival: due offset from the run's start and the index of
/// its request type.
struct Arrival {
  double due_s = 0.0;
  size_t type = 0;
};

/// Poisson arrivals at `rate` for `count` requests.  Half the requests go
/// to the wide types and half to the narrow ones, each half Zipf-skewed by
/// rank.  Every block of kMixBlock consecutive requests holds the same
/// count of each type (largest remainder); the seed shuffles the order
/// within each block and draws the arrival gaps.  Fixing the mix per block
/// keeps the cache's hit ratio from drifting between seeds.
std::vector<Arrival> MakeSchedule(uint64_t seed, size_t count,
                                  const Inputs& inputs) {
  const size_t halves[2] = {inputs.wide_types,
                            inputs.types.size() - inputs.wide_types};
  std::vector<double> share;
  for (size_t half : halves) {
    double norm = 0.0;
    for (size_t i = 0; i < half; ++i) {
      norm += std::pow(static_cast<double>(i + 1), -kZipfExponent);
    }
    for (size_t i = 0; i < half; ++i) {
      share.push_back(0.5 * std::pow(static_cast<double>(i + 1),
                                     -kZipfExponent) /
                      norm);
    }
  }
  std::vector<size_t> block(share.size());
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (size_t t = 0; t < share.size(); ++t) {
    const double exact = share[t] * static_cast<double>(kMixBlock);
    block[t] = static_cast<size_t>(exact);
    assigned += block[t];
    remainders.emplace_back(exact - static_cast<double>(block[t]), t);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t i = 0; assigned < kMixBlock; ++i, ++assigned) {
    ++block[remainders[i].second];
  }

  csm::Rng rng(seed);
  std::vector<Arrival> schedule;
  double due = 0.0;
  while (schedule.size() < count) {
    std::vector<size_t> types;
    for (size_t t = 0; t < block.size(); ++t) {
      types.insert(types.end(), block[t], t);
    }
    rng.Shuffle(types);
    for (size_t type : types) {
      if (schedule.size() == count) break;
      due += -std::log(1.0 - rng.NextDouble()) / kRate;
      schedule.push_back(Arrival{due, type});
    }
  }
  return schedule;
}

/// What one open-loop run measured.
struct Outcome {
  std::vector<double> latency_s;  // from due time, in schedule order
  std::vector<double> lag_s;      // Submit time - due time
  std::vector<csm::SubmitHandle> answers;  // in schedule order
  size_t deduplicated = 0;
  /// Process CPU seconds from the first due time to the last answer.
  double cpu_s = 0.0;
};

/// Submits `schedule` and waits for every answer.  With `spans`, the Submit
/// of every even-indexed request is a span (op id = schedule index).
Outcome RunOpenLoop(csm::MatchService& service, const Inputs& inputs,
                    const std::vector<Arrival>& schedule, SpanLog* spans) {
  Outcome out;
  out.latency_s.assign(schedule.size(), 0.0);
  out.lag_s.assign(schedule.size(), 0.0);
  out.answers.resize(schedule.size());
  struct Pending {
    size_t index;
    Clock::time_point due;
    csm::SubmitHandle handle;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;  // guarded by mu
  bool done = false;            // guarded by mu

  const double cpu_start = CpuSeconds();
  const Clock::time_point start = Clock::now();
  std::thread collector([&] {
    // Twins share one response object, and the kept handles keep its
    // address unique for the whole run.
    std::map<const csm::MatchResponse*, Clock::time_point> completed;
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !pending.empty(); });
        if (pending.empty()) return;
        p = std::move(pending.front());
        pending.pop_front();
      }
      const csm::MatchResponse& response = p.handle.future.get();
      // A deduplicated answer resolved with its (earlier) twin.
      const Clock::time_point end =
          completed.emplace(&response, Clock::now()).first->second;
      out.latency_s[p.index] = Seconds(p.due, end);
      out.answers[p.index] = std::move(p.handle);
    }
  });

  for (size_t i = 0; i < schedule.size(); ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(schedule[i].due_s));
    std::this_thread::sleep_until(due);
    csm::MatchRequest request =
        RequestFor(inputs, inputs.types[schedule[i].type]);
    const Clock::time_point submit = Clock::now();
    csm::SubmitHandle handle = service.Submit(std::move(request));
    if (spans != nullptr && i % 2 == 0) {
      const Clock::time_point admitted = Clock::now();
      spans->Record("service.submit", i, submit, admitted);
      spans->Record(kOpSpan, i, due, admitted);
    }
    out.lag_s[i] = Seconds(due, submit);
    if (handle.deduplicated) ++out.deduplicated;
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back(Pending{i, due, std::move(handle)});
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  out.cpu_s = CpuSeconds() - cpu_start;
  return out;
}

/// Queue and run seconds of the answers that came from engine runs of
/// their own (not deduplicated).
struct EngineRuns {
  std::vector<double> queue_s;
  std::vector<double> run_s;
};

/// Checks every answer and the generator's lag; counts the requests.
EngineRuns CheckAnswers(const Inputs& inputs,
                        const std::vector<Arrival>& schedule,
                        const Outcome& outcome, RunResult* result) {
  EngineRuns runs;
  std::vector<uint64_t> reference(inputs.types.size(), 0);
  for (size_t i = 0; i < schedule.size(); ++i) {
    const RequestType& type = inputs.types[schedule[i].type];
    const csm::SubmitHandle& handle = outcome.answers[i];
    const csm::MatchResponse& response = handle.future.get();
    const csm::MatchCompleteness expected =
        type.baseline_only ? csm::MatchCompleteness::kBaselineOnly
                           : csm::MatchCompleteness::kComplete;
    ++result->attempted;
    if (!response.ok() || response.completeness != expected) {
      result->FailOp(type.name + ": rejected or degraded: " +
                     response.status.ToString());
      continue;
    }
    if (type.min_fmeasure > 0.0 &&
        csm::EvaluateMatches(inputs.pairs[type.pair].truth, response.matches)
                .fmeasure < type.min_fmeasure) {
      result->FailOp(type.name + ": F-measure below floor");
      continue;
    }
    const uint64_t hash = FingerprintHash(response.result);
    if (reference[schedule[i].type] == 0) reference[schedule[i].type] = hash;
    if (hash != reference[schedule[i].type]) {
      result->FailOp(type.name + ": repeated fingerprint differs");
    }
    if (!handle.deduplicated) {
      runs.queue_s.push_back(response.queue_seconds);
      runs.run_s.push_back(response.run_seconds);
    }
  }
  const double lag_p90 = NearestRank(outcome.lag_s, 90);
  if (lag_p90 > kMaxLagP90S) {
    result->Invalidate("generator lag p90 " + std::to_string(lag_p90) +
                       " s exceeds bound");
  }
  return runs;
}

csm::ServiceOptions MakeServiceOptions() {
  csm::ServiceOptions options;
  options.engine.tau = 0.5;
  options.engine.omega = 0.1;
  options.engine.inference = csm::ViewInferenceKind::kSrcClass;
  options.engine.selection = csm::SelectionPolicy::kQualTable;
  options.engine.early_disjuncts = true;
  options.engine.threads = kEngineThreads;
  options.engine.seed = 0x5e7;
  options.max_queue = 1 << 20;
  return options;
}

/// Phase-1 share of engine time for the mix: each request type replayed
/// once on a cold engine, full and baseline_only, weighted by how often the
/// schedule asks for it.  Sets service.session_share and match.session_s.
void ReplaySessionShare(const Inputs& inputs,
                        const std::vector<Arrival>& schedule,
                        RunResult* result) {
  std::vector<double> weight(inputs.types.size(), 0.0);
  for (const Arrival& a : schedule) weight[a.type] += 1.0;
  csm::MatchEngine replay(MakeServiceOptions().engine);
  double full_total = 0.0, session_total = 0.0;
  std::vector<double> session_s;
  for (size_t t = 0; t < inputs.types.size(); ++t) {
    const RequestType& type = inputs.types[t];
    csm::MatchRequest request = RequestFor(inputs, type);
    double seconds[2] = {0.0, 0.0};
    double fmeasure = 0.0;
    for (int baseline = 0; baseline < 2; ++baseline) {
      request.baseline_only = type.baseline_only || baseline == 1;
      replay.ClearSessionCache();
      const auto t0 = Clock::now();
      const csm::MatchResponse response = replay.Execute(request);
      seconds[baseline] = SecondsSince(t0);
      if (baseline == 0) {
        fmeasure = csm::EvaluateMatches(inputs.pairs[type.pair].truth,
                                        response.matches)
                       .fmeasure;
      }
    }
    full_total += weight[t] * seconds[0];
    session_total += weight[t] * seconds[1];
    session_s.push_back(seconds[1]);
    std::printf("replay %-26s full %.4f s, phase 1 %.4f s, F %.3f\n",
                type.name.c_str(), seconds[0], seconds[1], fmeasure);
  }
  PrintValue("service.session_share", session_total / full_total, "ratio");
  result->Set("service.session_share", session_total / full_total);
  result->Set("match.session_s", Mean(session_s));
}

}  // namespace

RunResult RunServiceOpen(const RunConfig& config) {
  RunResult result;
  Inputs inputs;
  const double setup_s = TimeSetup([&] { inputs = MakeInputs(); });
  const std::vector<Arrival> schedule = MakeSchedule(
      MixSeed(config.seed, 0x5c4),
      std::max<size_t>(100, static_cast<size_t>(kRate * config.seconds)),
      inputs);

  csm::MatchService service(MakeServiceOptions());
  SpanLog spans(config.trace);
  const auto start = Clock::now();
  const Outcome outcome =
      RunOpenLoop(service, inputs, schedule, config.trace ? &spans : nullptr);
  const double wall = SecondsSince(start);
  service.Stop();
  const EngineRuns runs = CheckAnswers(inputs, schedule, outcome, &result);

  double busy = 0.0;
  for (double run : runs.run_s) busy += run;
  const Quantiles q = Summarize(outcome.latency_s);
  const double cpu_per_request =
      outcome.cpu_s / static_cast<double>(schedule.size());
  const double cpu_util =
      outcome.cpu_s / (wall * static_cast<double>(kEngineThreads));
  std::printf("rate: %g req/s open loop\n", kRate);
  PrintQuantile("svc_p50_s", q.p50, q.n, "s");
  PrintQuantile("svc_p90_s", q.p90, q.n, "s");
  PrintValue("svc_capacity_rps (requests / engine busy s)",
             static_cast<double>(schedule.size()) / busy, "1/s");
  PrintValue("svc_dedup_ratio",
             static_cast<double>(outcome.deduplicated) /
                 static_cast<double>(schedule.size()),
             "ratio");
  PrintValue("cpu_per_op_s (per request)", cpu_per_request, "s");
  PrintValue("exec.cpu_util", cpu_util, "ratio");
  if (!config.trace) {
    result.Set("cpu_per_op_s", cpu_per_request);
    result.Set("setup_s", setup_s);
    return result;
  }

  auto report = [&](const std::string& name, const std::vector<double>& s) {
    const Quantiles rq = Summarize(s);
    PrintQuantile(name + "_p50_s", rq.p50, rq.n, "s");
    PrintQuantile(name + "_p90_s", rq.p90, rq.n, "s");
    result.Set(name + "_p50_s", rq.p50);
    result.Set(name + "_p90_s", rq.p90);
  };
  report("service.admit", spans.Durations("service.submit"));
  report("service.queue", runs.queue_s);
  report("service.run", runs.run_s);

  csm::MatchEngine& engine = service.engine();
  const double hits = static_cast<double>(engine.session_cache_hits());
  const double misses = static_cast<double>(engine.session_cache_misses());
  const double evictions =
      static_cast<double>(engine.session_cache_evictions());
  std::printf("session cache: %g hits, %g misses, %g evictions\n", hits,
              misses, evictions);
  result.Set("service.cache_hits", hits);
  result.Set("service.cache_misses", misses);
  result.Set("service.cache_evictions", evictions);
  result.Set("service.cache_hit_ratio", hits / (hits + misses));
  result.Set("service.dedup_ratio",
             static_cast<double>(outcome.deduplicated) /
                 static_cast<double>(schedule.size()));
  const Quantiles lag = Summarize(outcome.lag_s);
  const double lag_max =
      *std::max_element(outcome.lag_s.begin(), outcome.lag_s.end());
  PrintQuantile("service.generator_lag_p90_s", lag.p90, lag.n, "s");
  PrintValue("service.generator_lag_max_s", lag_max, "s");
  result.Set("service.generator_lag_p90_s", lag.p90);
  result.Set("service.generator_lag_max_s", lag_max);
  result.Set("exec.cpu_util", cpu_util);

  std::vector<double> traced, untraced;
  for (size_t i = 0; i < outcome.latency_s.size(); ++i) {
    (i % 2 == 0 ? traced : untraced).push_back(outcome.latency_s[i]);
  }
  const double overhead = NearestRank(traced, 50) / NearestRank(untraced, 50);
  PrintValue("trace.overhead_ratio (latency p50, traced/untraced requests)",
             overhead, "ratio");
  result.Set("trace.overhead_ratio", overhead);

  ReplaySessionShare(inputs, schedule, &result);
  spans.WriteJsonLines(config.work_dir + "/spans-service_open.jsonl");
  return result;
}

}  // namespace perfbench
