#include "check/golden.h"

#include <fstream>
#include <sstream>

#include "check/fingerprint.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "core/match_engine.h"
#include "datagen/grades_gen.h"
#include "datagen/retail_gen.h"
#include "mapping/clio.h"
#include "relational/csv.h"

namespace csm::check {
namespace {

RetailDataset Retail(size_t num_items, size_t gamma, uint64_t seed,
                     size_t correlated = 0, double rho = 0.0) {
  RetailOptions d;
  d.num_items = num_items;
  d.gamma = gamma;
  d.seed = seed;
  d.correlated_attributes = correlated;
  d.rho = rho;
  return MakeRetailDataset(d);
}

std::string RunRetailSrcClassEarly() {
  RetailDataset data = Retail(120, 2, 1);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.early_disjuncts = true;
  o.omega = 0.05;
  o.seed = 2;
  o.threads = 2;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  return FingerprintResult(MatchEngine(o).Execute(request).result);
}

std::string RunRetailNaiveMultiTable() {
  RetailDataset data = Retail(100, 4, 3);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kNaive;
  o.selection = SelectionPolicy::kMultiTable;
  o.omega = 0.1;
  o.seed = 4;
  o.threads = 1;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  return FingerprintResult(MatchEngine(o).Execute(request).result);
}

std::string RunRetailTgtClass() {
  RetailDataset data = Retail(120, 2, 5);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kTgtClass;
  o.omega = 0.05;
  o.seed = 6;
  o.threads = 2;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  return FingerprintResult(MatchEngine(o).Execute(request).result);
}

std::string RunGradesQualTableLate() {
  GradesOptions d;
  d.num_students = 100;
  d.seed = 7;
  GradesDataset data = MakeGradesDataset(d);
  ContextMatchOptions o;
  o.tau = 0.45;
  o.omega = 0.025;
  o.early_disjuncts = false;
  o.seed = 8;
  o.threads = 2;
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  return FingerprintResult(MatchEngine(o).Execute(request).result);
}

std::string RunRetailConjunctiveTwoStage() {
  RetailDataset data = Retail(120, 2, 9, /*correlated=*/1, /*rho=*/0.9);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.early_disjuncts = true;
  o.omega = 0.05;
  o.seed = 10;
  o.threads = 2;
  return FingerprintResult(
      MatchEngine(o)
          .Execute({.mode = MatchMode::kConjunctive,
                    .max_stages = 2,
                    .source = BorrowDatabase(data.source),
                    .target = BorrowDatabase(data.target)})
          .result);
}

/// Pins the degradation contract itself: a run cancelled at a fixed
/// scoring-candidate index must keep producing this exact whole-chunk
/// prefix (plus status/completeness) at any thread count.
std::string RunRetailDegradedPrefix() {
  RetailDataset data = Retail(120, 2, 1);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kNaive;
  o.early_disjuncts = true;
  o.omega = 0.05;
  o.seed = 2;
  o.threads = 2;
  CancellationToken token;
  FaultInjector::Arm({.site = "scoring.candidate",
                      .index = 3,
                      .action = FaultInjector::Action::kCancel,
                      .token = &token,
                      .reason = CancelReason::kDeadline});
  const MatchRequest request{.source = BorrowDatabase(data.source),
                             .target = BorrowDatabase(data.target)};
  const ContextMatchResult result =
      MatchEngine(o).Execute(request, &token).result;
  FaultInjector::DisarmAll();
  return "status: " + std::string(StatusCodeToString(result.status.code())) +
         "\ncompleteness: " +
         std::string(MatchCompletenessToString(result.completeness)) + "\n" +
         FingerprintResult(result);
}

/// Target-side matching (§3, §7) on a reversed Retail fixture: the split
/// Book/Music tables are the source and the combined inventory is the
/// target, so conditions are inferred on the target table and every match
/// is flipped back into source -> target orientation.
std::string RunRetailTargetContext() {
  RetailDataset data = Retail(120, 2, 11);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.omega = 0.05;
  o.seed = 12;
  o.threads = 2;
  const MatchResponse response =
      MatchEngine(o).Execute({.mode = MatchMode::kTargetContext,
                              .source = BorrowDatabase(data.target),
                              .target = BorrowDatabase(data.source)});
  std::string out = "flipped_matches:\n";
  for (const Match& m : response.matches) out += "  " + m.ToString() + "\n";
  out += "selected_target_views:\n";
  for (const View& v : response.selected_views) {
    out += "  " + v.name() + "|" + v.base_table() + "|" +
           v.condition().ToString() + "\n";
  }
  return out + FingerprintResult(response.result);
}

/// ClioQualTable, then every derived mapping executed over `source`: the
/// CSV bytes of each output table (Section 4's end goal, moving the data).
std::string TransformToCsv(const Database& source, const Database& target,
                           const ContextMatchOptions& options) {
  const ClioQualTableResult mapped = ClioQualTable(source, target, options);
  StatusOr<Database> executed =
      ExecuteMappings(mapped.mapping.queries, source, mapped.mapping.views,
                      target.GetSchema());
  if (!executed.ok()) return "status: " + executed.status().ToString() + "\n";
  std::string out;
  for (const Table& table : executed->tables()) {
    out += "table " + table.name() + "\n" + TableToCsv(table);
  }
  return out;
}

std::string RunRetailTransform() {
  RetailDataset data = Retail(60, 2, 13);
  ContextMatchOptions o;
  o.inference = ViewInferenceKind::kSrcClass;
  o.omega = 0.05;
  o.seed = 14;
  o.threads = 2;
  return TransformToCsv(data.source, data.target, o);
}

std::string RunGradesTransform() {
  GradesOptions d;
  d.num_students = 40;
  d.sigma = 3.0;
  d.seed = 15;
  GradesDataset data = MakeGradesDataset(d);
  ContextMatchOptions o;
  o.tau = 0.45;
  o.omega = 0.025;
  o.early_disjuncts = false;
  o.seed = 16;
  o.threads = 2;
  return TransformToCsv(data.source, data.target, o);
}

struct GoldenCase {
  const char* name;
  std::string (*run)();
};

constexpr GoldenCase kCases[] = {
    {"retail_srcclass_early", &RunRetailSrcClassEarly},
    {"retail_naive_multitable", &RunRetailNaiveMultiTable},
    {"retail_tgtclass", &RunRetailTgtClass},
    {"grades_qualtable_late", &RunGradesQualTableLate},
    {"retail_conjunctive_2stage", &RunRetailConjunctiveTwoStage},
    {"retail_degraded_prefix", &RunRetailDegradedPrefix},
    {"retail_target_context", &RunRetailTargetContext},
    {"retail_transform", &RunRetailTransform},
    {"grades_transform", &RunGradesTransform},
};

std::string FirstDiffLine(const std::string& expected,
                          const std::string& actual) {
  std::istringstream e(expected);
  std::istringstream a(actual);
  std::string eline;
  std::string aline;
  size_t line = 0;
  while (true) {
    const bool has_e = static_cast<bool>(std::getline(e, eline));
    const bool has_a = static_cast<bool>(std::getline(a, aline));
    if (!has_e && !has_a) return "contents equal";
    ++line;
    if (!has_e || !has_a || eline != aline) {
      return "line " + std::to_string(line) + ": golden '" +
             (has_e ? eline : "<eof>") + "' vs computed '" +
             (has_a ? aline : "<eof>") + "'";
    }
  }
}

}  // namespace

std::vector<std::string> GoldenCaseNames() {
  std::vector<std::string> names;
  for (const GoldenCase& c : kCases) names.emplace_back(c.name);
  return names;
}

std::string RunGoldenCase(const std::string& name) {
  for (const GoldenCase& c : kCases) {
    if (name == c.name) return c.run();
  }
  CSM_CHECK(false) << "unknown golden case '" << name << "'";
  return "";
}

int RunGoldenCorpus(const std::string& golden_dir, bool update,
                    std::ostream& out) {
  int failures = 0;
  for (const GoldenCase& c : kCases) {
    const std::string path = golden_dir + "/" + c.name + ".golden";
    const std::string computed = c.run();
    if (update) {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      if (!file) {
        out << "FAIL  " << c.name << ": cannot write " << path << "\n";
        ++failures;
        continue;
      }
      file << computed;
      out << "wrote " << c.name << " (" << computed.size() << " bytes)\n";
      continue;
    }
    std::ifstream file(path, std::ios::binary);
    if (!file) {
      out << "FAIL  " << c.name << ": missing " << path
          << " (run with --update to create)\n";
      ++failures;
      continue;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    const std::string expected = buffer.str();
    if (expected != computed) {
      out << "FAIL  " << c.name << ": " << FirstDiffLine(expected, computed)
          << "\n      (intentional change? re-record with --update and "
             "review the diff)\n";
      ++failures;
      continue;
    }
    out << "ok    " << c.name << "\n";
  }
  return failures;
}

}  // namespace csm::check
