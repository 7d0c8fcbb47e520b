// MatchService admission control, quotas, deduplication and the cold
// session tier.  Deterministic concurrency: tests hold the dispatcher
// still with ServiceOptions::test_dispatch_gate while they fill the queue
// to an exact depth, so every rejection below is forced, not racy.  The CI
// `service` job runs this binary under TSan.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/fingerprint.h"
#include "core/match_engine.h"
#include "datagen/retail_gen.h"
#include "service/disk_store.h"
#include "service/match_service.h"

namespace csm {
namespace {

RetailDataset SmallRetail(uint64_t seed) {
  RetailOptions options;
  options.num_items = 60;
  options.gamma = 2;
  options.seed = seed;
  return MakeRetailDataset(options);
}

ContextMatchOptions FastEngine() {
  ContextMatchOptions options;
  options.threads = 1;
  return options;
}

/// A dispatcher gate the tests open and close: while closed, the
/// dispatcher parks after popping a ticket, keeping the popped ticket
/// in-flight and the rest of the queue at a depth the test controls.
class DispatchGate {
 public:
  std::function<void()> AsHook() {
    return [this] {
      entered_.fetch_add(1);
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return open_; });
    };
  }

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }

  /// Spins until the dispatcher has parked in the gate `n` times.
  void AwaitEntered(int n) {
    while (entered_.load() < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<int> entered_{0};
};

/// Distinct admissible requests over the same data: the deadline is part
/// of the dedup key, so distinct deadlines make distinct requests.
MatchRequest RequestOver(const RetailDataset& data, int64_t deadline_ms,
                         const std::string& tenant = "") {
  MatchRequest request;
  request.tenant = tenant;
  request.deadline_ms = deadline_ms;
  request.source = BorrowDatabase(data.source);
  request.target = BorrowDatabase(data.target);
  return request;
}

TEST(MatchServiceTest, AnswersAndMatchesDirectEngineRun) {
  RetailDataset data = SmallRetail(3);
  ServiceOptions options;
  options.engine = FastEngine();
  MatchService service(options);
  MatchResponse response = service.Call(RequestOver(data, 0));
  ASSERT_TRUE(response.ok()) << response.status.ToString();
  EXPECT_EQ(response.completeness, MatchCompleteness::kComplete);
  EXPECT_FALSE(response.matches.empty());
  EXPECT_GE(response.run_seconds, 0.0);

  MatchEngine engine(FastEngine());
  ContextMatchResult direct = engine.Execute(RequestOver(data, 0)).result;
  EXPECT_EQ(check::FingerprintResult(response.result),
            check::FingerprintResult(direct));
  service.Stop();
}

TEST(MatchServiceTest, QueueFullRejectsWithResourceExhausted) {
  RetailDataset data = SmallRetail(3);
  DispatchGate gate;
  ServiceOptions options;
  options.engine = FastEngine();
  options.max_queue = 2;
  options.test_dispatch_gate = gate.AsHook();
  MatchService service(options);

  // First submission is popped and parked in the gate; the next two fill
  // the queue exactly.
  SubmitHandle running = service.Submit(RequestOver(data, 60001));
  gate.AwaitEntered(1);
  SubmitHandle q1 = service.Submit(RequestOver(data, 60002));
  SubmitHandle q2 = service.Submit(RequestOver(data, 60003));
  EXPECT_EQ(service.queue_depth(), 2u);

  SubmitHandle overflow = service.Submit(RequestOver(data, 60004));
  MatchResponse rejected = overflow.future.get();  // already resolved
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected.completeness, MatchCompleteness::kBaselineOnly);
  EXPECT_EQ(service.metrics().Counter("service.rejected_queue_full"), 1u);

  gate.Open();
  EXPECT_TRUE(running.future.get().ok());
  EXPECT_TRUE(q1.future.get().ok());
  EXPECT_TRUE(q2.future.get().ok());
  EXPECT_EQ(service.metrics().Counter("service.completed"), 3u);
  service.Stop();
}

TEST(MatchServiceTest, TenantRateLimitRejectsPastBurst) {
  RetailDataset data = SmallRetail(3);
  ServiceOptions options;
  options.engine = FastEngine();
  // Two tokens, effectively no refill within the test's lifetime.
  options.tenant_quotas["metered"].requests_per_second = 1e-6;
  options.tenant_quotas["metered"].burst = 2;
  MatchService service(options);

  SubmitHandle first = service.Submit(RequestOver(data, 60001, "metered"));
  SubmitHandle second = service.Submit(RequestOver(data, 60002, "metered"));
  SubmitHandle third = service.Submit(RequestOver(data, 60003, "metered"));
  MatchResponse rejected = third.future.get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.metrics().Counter("service.rejected_rate_limit"), 1u);

  // Other tenants are not affected by "metered"'s empty bucket.
  EXPECT_TRUE(service.Call(RequestOver(data, 0, "open")).ok());

  EXPECT_TRUE(first.future.get().ok());
  EXPECT_TRUE(second.future.get().ok());
  service.Stop();
}

TEST(MatchServiceTest, TenantInFlightCapRejects) {
  RetailDataset data = SmallRetail(3);
  DispatchGate gate;
  ServiceOptions options;
  options.engine = FastEngine();
  options.tenant_quotas["capped"].max_in_flight = 1;
  options.test_dispatch_gate = gate.AsHook();
  MatchService service(options);

  SubmitHandle running = service.Submit(RequestOver(data, 60001, "capped"));
  gate.AwaitEntered(1);  // popped but not delivered: still in flight
  SubmitHandle second = service.Submit(RequestOver(data, 60002, "capped"));
  MatchResponse rejected = second.future.get();
  EXPECT_EQ(rejected.status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.metrics().Counter("service.rejected_in_flight"), 1u);

  // The cap binds per tenant, not globally.
  SubmitHandle other = service.Submit(RequestOver(data, 60003, "free"));

  gate.Open();
  EXPECT_TRUE(running.future.get().ok());
  EXPECT_TRUE(other.future.get().ok());
  service.Stop();
}

TEST(MatchServiceTest, InFlightDeduplicationSharesOneBitIdenticalRun) {
  RetailDataset data = SmallRetail(3);
  DispatchGate gate;
  ServiceOptions options;
  options.engine = FastEngine();
  options.test_dispatch_gate = gate.AsHook();
  MatchService service(options);

  MatchRequest request = RequestOver(data, 60000);
  SubmitHandle primary = service.Submit(request);
  gate.AwaitEntered(1);  // parked: the primary stays in flight
  SubmitHandle twin1 = service.Submit(request);
  SubmitHandle twin2 = service.Submit(request);
  EXPECT_FALSE(primary.deduplicated);
  EXPECT_TRUE(twin1.deduplicated);
  EXPECT_TRUE(twin2.deduplicated);
  EXPECT_EQ(service.metrics().Counter("service.deduplicated"), 2u);
  // Attaching charged no queue slot: only the primary was admitted.
  EXPECT_EQ(service.metrics().Counter("service.admitted"), 1u);

  gate.Open();
  const MatchResponse& r0 = primary.future.get();
  const MatchResponse& r1 = twin1.future.get();
  const MatchResponse& r2 = twin2.future.get();
  ASSERT_TRUE(r0.ok());
  const std::string fingerprint = check::FingerprintResult(r0.result);
  EXPECT_EQ(fingerprint, check::FingerprintResult(r1.result));
  EXPECT_EQ(fingerprint, check::FingerprintResult(r2.result));

  // And the shared run is bit-identical to an independent engine run.
  MatchEngine engine(FastEngine());
  const ContextMatchResult direct = engine.Execute(RequestOver(data, 0)).result;
  EXPECT_EQ(fingerprint, check::FingerprintResult(direct));
  EXPECT_EQ(service.metrics().Counter("service.completed"), 1u);
  service.Stop();
}

TEST(MatchServiceTest, RequestExpiredInQueueIsAnsweredWithoutRunning) {
  RetailDataset data = SmallRetail(3);
  DispatchGate gate;
  ServiceOptions options;
  options.engine = FastEngine();
  options.test_dispatch_gate = gate.AsHook();
  MatchService service(options);

  SubmitHandle handle = service.Submit(RequestOver(data, /*deadline_ms=*/30));
  gate.AwaitEntered(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate.Open();

  MatchResponse response = handle.future.get();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.completeness, MatchCompleteness::kBaselineOnly);
  EXPECT_TRUE(response.matches.empty());
  EXPECT_EQ(service.metrics().Counter("service.expired_in_queue"), 1u);
  EXPECT_EQ(service.metrics().Counter("service.completed"), 0u);
  service.Stop();
}

TEST(MatchServiceTest, StopAnswersQueuedRequestsWithUnavailable) {
  RetailDataset data = SmallRetail(3);
  DispatchGate gate;
  ServiceOptions options;
  options.engine = FastEngine();
  options.test_dispatch_gate = gate.AsHook();
  MatchService service(options);

  SubmitHandle running = service.Submit(RequestOver(data, 60001));
  gate.AwaitEntered(1);
  SubmitHandle queued = service.Submit(RequestOver(data, 60002));

  std::thread stopper([&] { service.Stop(); });
  gate.Open();
  stopper.join();

  // The popped request finished its run; the queued one was answered
  // without running.
  EXPECT_TRUE(running.future.get().ok());
  MatchResponse drained = queued.future.get();
  EXPECT_EQ(drained.status.code(), StatusCode::kUnavailable);

  // Admission after Stop is refused outright.
  MatchResponse late = service.Call(RequestOver(data, 60003));
  EXPECT_EQ(late.status.code(), StatusCode::kUnavailable);
}

TEST(MatchServiceTest, ResponseExitCodesFollowSharedTable) {
  MatchResponse response;
  EXPECT_EQ(response.ExitCode(), 0);
  response.status = Status::ResourceExhausted("queue full");
  EXPECT_EQ(response.ExitCode(), 1);
  response.status = Status::InvalidArgument("bad request");
  EXPECT_EQ(response.ExitCode(), 2);
  response.status = Status::DeadlineExceeded("late");
  EXPECT_EQ(response.ExitCode(), 3);
  response.status = Status::Cancelled("stopped");
  EXPECT_EQ(response.ExitCode(), 3);
  // The same table the csv_match_tool derives its process exit codes from.
  EXPECT_EQ(response.ExitCode(),
            ExitCodeForStatus(StatusCode::kCancelled));
}

TEST(MatchServiceTest, InvalidRequestAnsweredWithInvalidArgument) {
  ServiceOptions options;
  options.engine = FastEngine();
  MatchService service(options);
  MatchRequest request;  // null databases
  MatchResponse response = service.Call(request);
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(response.ExitCode(), 2);
  service.Stop();
}

// ---------------------------------------------------------------------------
// Cold session tier
// ---------------------------------------------------------------------------

std::string FreshSpoolDir(const char* tag) {
  auto dir = std::filesystem::temp_directory_path() /
             (std::string("csm_service_test_") + tag + "_" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

TEST(ColdStoreTest, RoundTripRestoresBitIdenticalSessions) {
  const std::string dir = FreshSpoolDir("roundtrip");
  RetailDataset data = SmallRetail(5);
  DiskSessionStore store(dir);

  MatchEngine writer(FastEngine());
  writer.set_cold_store(&store);
  const std::string fresh =
      check::FingerprintResult(writer.Execute(RequestOver(data, 0)).result);
  EXPECT_EQ(writer.session_cold_stores(), 1u);
  EXPECT_EQ(writer.session_cold_hits(), 0u);
  EXPECT_EQ(store.stores(), 1u);

  // A fresh engine (empty hot cache) over the same spool restores from
  // disk instead of rebuilding — and the result is bit-identical.
  MatchEngine reader(FastEngine());
  reader.set_cold_store(&store);
  const std::string restored =
      check::FingerprintResult(reader.Execute(RequestOver(data, 0)).result);
  EXPECT_EQ(fresh, restored);
  EXPECT_EQ(reader.session_cold_hits(), 1u);
  EXPECT_EQ(reader.session_cold_stores(), 0u) << "a cold hit must not re-store";

  // The restored entry was promoted into the hot tier: a repeat run is a
  // hot hit, not another disk read.
  const uint64_t loads_before = store.loads();
  reader.Execute(RequestOver(data, 0));
  EXPECT_EQ(store.loads(), loads_before);
  EXPECT_EQ(reader.session_cache_hits(), 1u);

  std::filesystem::remove_all(dir);
}

TEST(ColdStoreTest, CorruptBlobFallsBackToFreshBuild) {
  const std::string dir = FreshSpoolDir("corrupt");
  RetailDataset data = SmallRetail(5);
  DiskSessionStore store(dir);

  MatchEngine writer(FastEngine());
  writer.set_cold_store(&store);
  const std::string fresh =
      check::FingerprintResult(writer.Execute(RequestOver(data, 0)).result);

  // Re-store garbage under every key with a VALID frame: the store's CRC
  // check passes, so the blob reaches the engine's parse-level validation
  // and must be rejected there (raw overwrites would be quarantined by the
  // frame check before the engine ever saw them — see resilience_test).
  std::vector<uint64_t> keys;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".csmss") continue;
    keys.push_back(std::stoull(entry.path().stem().string(), nullptr, 16));
  }
  ASSERT_GT(keys.size(), 0u);
  for (uint64_t key : keys) {
    ASSERT_TRUE(store.Store(key, "csm-sessions 1\ntables 1\ngarbage\n"));
  }

  obs::MetricsRegistry metrics;
  MatchEngine reader(FastEngine());
  reader.set_cold_store(&store);
  reader.set_metrics(&metrics);
  const std::string rebuilt =
      check::FingerprintResult(reader.Execute(RequestOver(data, 0)).result);
  EXPECT_EQ(fresh, rebuilt);
  EXPECT_EQ(reader.session_cold_hits(), 0u);
  EXPECT_GE(metrics.Counter("engine.session_cold_invalid"), 1u);
  // The fallback build re-stored a good blob over the corrupt one.
  EXPECT_EQ(reader.session_cold_stores(), 1u);

  std::filesystem::remove_all(dir);
}

TEST(ColdStoreTest, ServiceRestartServesFromColdTier) {
  const std::string dir = FreshSpoolDir("restart");
  RetailDataset data = SmallRetail(5);
  DiskSessionStore store(dir);
  ServiceOptions options;
  options.engine = FastEngine();
  options.cold_store = &store;

  std::string first;
  {
    MatchService service(options);
    MatchResponse response = service.Call(RequestOver(data, 0));
    ASSERT_TRUE(response.ok());
    first = check::FingerprintResult(response.result);
    service.Stop();
  }
  {
    MatchService service(options);
    MatchResponse response = service.Call(RequestOver(data, 0));
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(first, check::FingerprintResult(response.result));
    EXPECT_EQ(service.metrics().Counter("engine.session_cold_hits"), 1u);
    service.Stop();
  }
  std::filesystem::remove_all(dir);
}

TEST(ColdStoreTest, DistinctOptionsDoNotShareBlobs) {
  const std::string dir = FreshSpoolDir("options");
  RetailDataset data = SmallRetail(5);
  DiskSessionStore store(dir);

  ContextMatchOptions a = FastEngine();
  MatchEngine first(a);
  first.set_cold_store(&store);
  first.Execute(RequestOver(data, 0));

  // min_non_null_values changes which triples get scored, so the cold key
  // must differ and the second engine must NOT restore the first's blob.
  ContextMatchOptions b = FastEngine();
  b.match.min_non_null_values = 5;
  MatchEngine second(b);
  second.set_cold_store(&store);
  second.Execute(RequestOver(data, 0));
  EXPECT_EQ(second.session_cold_hits(), 0u);
  EXPECT_EQ(store.stores(), 2u);

  std::filesystem::remove_all(dir);
}

// Concurrent submissions from many threads: exercised under TSan by the CI
// service job.  Every response must be either a completed run or a
// well-formed rejection — never a torn result.
TEST(MatchServiceTest, ConcurrentMixedSubmissionsAreAllAnswered) {
  RetailDataset data_a = SmallRetail(3);
  RetailDataset data_b = SmallRetail(9);
  ServiceOptions options;
  options.engine = FastEngine();
  options.max_queue = 4;  // small enough that overload rejections happen
  MatchService service(options);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::atomic<int> completed{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const RetailDataset& data = (t + i) % 2 == 0 ? data_a : data_b;
        MatchRequest request = RequestOver(data, 60000 + t * 100 + i);
        if ((t + i) % 3 == 0) request.mode = MatchMode::kTargetContext;
        MatchResponse response = service.Call(request);
        if (response.ok()) {
          completed.fetch_add(1);
        } else {
          ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted);
          rejected.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completed.load() + rejected.load(), kThreads * kPerThread);
  EXPECT_GT(completed.load(), 0);
  EXPECT_EQ(service.metrics().Counter("service.completed"),
            static_cast<uint64_t>(completed.load()) -
                service.metrics().Counter("service.deduplicated"));
  service.Stop();
}

}  // namespace
}  // namespace csm
