// Smoke runs of the seeded structured fuzzers and differential oracles
// (src/check/fuzz.h).  Iteration counts are sized so the whole binary stays
// in tier-1 test time; the environment overrides let CI or a soak run crank
// them up without a rebuild:
//
//   CSM_FUZZ_SEED=7 CSM_FUZZ_ITERS=1000 ./tests/fuzz_smoke
//
// A failure message embeds "replay: seed=<S> iteration=<I>" — rerunning
// with CSM_FUZZ_SEED=<S> (any iteration count > I) reproduces it exactly.

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "check/fuzz.h"

namespace csm {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

check::FuzzOptions Options(size_t default_iterations) {
  check::FuzzOptions options;
  options.seed = EnvOr("CSM_FUZZ_SEED", 1);
  options.iterations = EnvOr("CSM_FUZZ_ITERS", default_iterations);
  options.thread_counts = {1, 2, 4};
  return options;
}

TEST(FuzzSmokeTest, CsvRoundTrip) {
  const Status status = check::FuzzCsvRoundTrip(Options(400));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, CsvChunkedParse) {
  const Status status = check::FuzzCsvChunkedParse(Options(60));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, CsvScanEquivalence) {
  const Status status = check::FuzzCsvScanEquivalence(Options(150));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, ConditionEvaluation) {
  const Status status = check::FuzzConditionEvaluation(Options(400));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, ViewIdentity) {
  const Status status = check::FuzzViewIdentity(Options(150));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, LabelOrder) {
  const Status status = check::FuzzLabelOrder(Options(150));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, EarlyDisjunctsEquivalence) {
  const Status status = check::FuzzEarlyDisjunctsEquivalence(Options(60));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, Pipeline) {
  const Status status = check::FuzzPipeline(Options(40));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, RowColumnarEquivalence) {
  const Status status = check::FuzzRowColumnarEquivalence(Options(400));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, TokenKernelEquivalence) {
  const Status status = check::FuzzTokenKernelEquivalence(Options(150));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, ExecutorEquivalence) {
  const Status status = check::FuzzExecutorEquivalence(Options(300));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, ViewProfileEquivalence) {
  const Status status = check::FuzzViewProfileEquivalence(Options(150));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, SamplerEquivalence) {
  const Status status = check::FuzzSamplerEquivalence(Options(60));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, SessionScoreEquivalence) {
  const Status status = check::FuzzSessionScoreEquivalence(Options(100));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST(FuzzSmokeTest, DifferentialOracles) {
  const Status status = check::FuzzDifferential(Options(10));
  EXPECT_TRUE(status.ok()) << status.ToString();
}

}  // namespace
}  // namespace csm
