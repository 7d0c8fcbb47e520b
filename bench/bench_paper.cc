// The paper's Section 5 study (Figures 8-22) as one table.  Each entry is a
// figure: data set, swept knob and grid, series as option patches, seed
// base, default repetitions and printed columns.  One loop runs every point,
// prints each figure's table and records the point; each figure's claimed
// shape is a named predicate (paper_claims.h) over its points.  Every
// verdict is printed and recorded, and a failing gated claim fails the run.
//
//   bench_paper [figure id ...]     e.g. bench_paper fig11 fig20; none = all
//
// Writes BENCH_paper_figures.json to the working directory.  CSM_BENCH_REPS,
// CSM_BENCH_THREADS and CSM_BENCH_TRACE apply as in every bench.  The gated
// claims hold at each figure's default repetitions, at any thread count.

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "bench/paper_claims.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "exec/thread_pool.h"

namespace csm::bench {
namespace {

/// One trial's inputs before its seed is applied.
struct TrialConfig {
  RetailOptions retail = DefaultRetail();
  GradesOptions grades;
  ContextMatchOptions match = DefaultMatch();
};

/// An option patch: (knob, value) pairs, applied in order.
using Settings = std::vector<std::pair<std::string, double>>;
using NamePairs = std::vector<std::pair<std::string, std::string>>;

const RetailTarget kTargets[] = {RetailTarget::kRyanEyers,
                                 RetailTarget::kAaronDay,
                                 RetailTarget::kBarrettArney};
const ViewInferenceKind kInferers[] = {ViewInferenceKind::kNaive,
                                       ViewInferenceKind::kSrcClass,
                                       ViewInferenceKind::kTgtClass};

void Apply(const std::string& knob, double v, TrialConfig& c) {
  const auto n = static_cast<size_t>(v);
  if (knob == "omega") {
    c.match.omega = v;
  } else if (knob == "tau") {
    c.match.tau = v;
  } else if (knob == "early") {
    c.match.early_disjuncts = v != 0;
  } else if (knob == "infer") {
    c.match.inference = kInferers[n];
  } else if (knob == "multitable") {
    c.match.selection =
        v != 0 ? SelectionPolicy::kMultiTable : SelectionPolicy::kQualTable;
  } else if (knob == "target") {
    c.retail.target = kTargets[n];
  } else if (knob == "gamma") {
    c.retail.gamma = n;
  } else if (knob == "tuples") {
    c.retail.num_items = n;
  } else if (knob == "extra_attrs") {
    c.retail.extra_noncategorical = n;
    c.retail.extra_categorical = n / 4;
  } else if (knob == "rho") {
    c.retail.correlated_attributes = 3;
    c.retail.rho = v;
  } else {
    CSM_CHECK(knob == "sigma") << "unknown knob " << knob;
    c.grades.sigma = v;
  }
}

/// A printed column: series `series`'s mean `metric`; with `op` '-' minus
/// series `other`'s, or a ratio (two decimals): '/' over series `other`'s,
/// 'r' over the first row's.
struct Column {
  std::string header;
  size_t series = 0;
  std::string metric = "fmeasure";
  char op = 'm';
  size_t other = 0;
};

struct Figure {
  std::string id;  // command-line name
  std::string title;
  bool grades = false;  // Grades data set, else Retail
  std::string knob;     // swept knob, the first column
  std::vector<double> grid;
  int x_decimals = 3;
  Settings fixed = {};  // applied before the swept knob and series patch
  std::vector<std::pair<std::string, Settings>> series;  // name, patch
  uint64_t seed_base = 0;
  size_t default_reps = 5;
  std::vector<Column> columns = {};  // empty: F_<series> per series
};

std::vector<Figure> PaperFigures() {
  const std::vector<std::pair<std::string, Settings>> early_late = {
      {"early", {{"early", 1}}}, {"late", {{"early", 0}}}};
  const std::vector<std::pair<std::string, Settings>> inferers = {
      {"naive", {{"infer", 0}}}, {"src", {{"infer", 1}}},
      {"tgt", {{"infer", 2}}}};
  const std::vector<double> omegas = {0,   0.025, 0.05, 0.075, 0.1, 0.125,
                                      0.15, 0.2,  0.25, 0.3,   0.4, 0.5};
  const std::vector<double> rhos = {0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99};
  const std::vector<double> gammas = {2, 4, 6, 8, 10};
  const std::vector<double> sizes = {0, 4, 8, 12, 16};
  // Grades runs use calibrated tau/omega (its base matches are more tenuous,
  // Section 5.8) and LateDisjuncts, so one view per exam survives selection.
  const Settings grades = {{"tau", 0.45}, {"omega", 0.025}, {"early", 0}};
  Settings grades_sigma5 = grades;
  grades_sigma5.push_back({"sigma", 5});
  const std::vector<Column> quality = {
      {"fmeasure", 0, "fmeasure"}, {"accuracy", 0, "accuracy"},
      {"precision", 0, "precision"}};
  const auto omega = [&](size_t t) {
    return Figure{.id = t < 2 ? "fig0" + std::to_string(8 + t) : "fig10",
                  .title = std::string("Fig 8-10: FMeasure vs omega, target ") +
                           RetailTargetToString(kTargets[t]),
                  .knob = "omega", .grid = omegas,
                  .fixed = {{"target", static_cast<double>(t)}},
                  .series = early_late, .seed_base = 100};
  };
  const auto rho = [&](bool early) {
    return Figure{.id = early ? "fig12" : "fig13",
                  .title = early ? "Fig 12: FMeasure vs rho (EarlyDisjuncts)"
                                 : "Fig 13: FMeasure vs rho (LateDisjuncts)",
                  .knob = "rho", .grid = rhos, .x_decimals = 2,
                  .fixed = {{"early", early ? 1.0 : 0.0}}, .series = inferers,
                  .seed_base = early ? 300u : 400u};
  };
  std::vector<Figure> figures = {
      omega(0), omega(1), omega(2),
      {.id = "fig11", .title = "Fig 11: MultiTable vs QualTable (NaiveInfer)",
       .knob = "target", .grid = {0, 1, 2}, .fixed = {{"infer", 0}},
       .series = {{"qualtable", {{"multitable", 0}}},
                  {"multitable", {{"multitable", 1}}}},
       .seed_base = 200,
       .columns = {{"F_qualtable", 0}, {"F_multitable", 1},
                   {"gap", 0, "fmeasure", '-', 1}}},
      rho(true), rho(false),
      {.id = "fig14",
       .title = "Fig 14: FMeasure vs gamma (LateDisjuncts, Ryan_Eyers)",
       .knob = "gamma", .grid = gammas, .x_decimals = 0,
       .series = {{"naive_late", {{"infer", 0}, {"early", 0}}},
                  {"src_late", {{"infer", 1}, {"early", 0}}},
                  {"tgt_late", {{"infer", 2}, {"early", 0}}},
                  {"src_early", {}}},
       .seed_base = 500},
      {.id = "fig15",
       .title = "Fig 15: EarlyDisjuncts runtime relative to LateDisjuncts "
                "(NaiveInfer)",
       .knob = "gamma", .grid = gammas, .x_decimals = 0,
       .fixed = {{"infer", 0}}, .series = early_late, .seed_base = 600,
       .default_reps = 3,
       .columns = {{"early_seconds", 0, "match_seconds"},
                   {"late_seconds", 1, "match_seconds"},
                   {"early/late", 0, "match_seconds", '/', 1},
                   {"early_standard_s", 0, "standard_match_seconds"},
                   {"early_inference_s", 0, "inference_seconds"},
                   {"early_scoring_s", 0, "scoring_seconds"}}},
      {.id = "fig16",
       .title = "Fig 16: FMeasure vs schema size (SrcClassInfer, "
                "EarlyDisjuncts)",
       .knob = "extra_attrs", .grid = sizes, .x_decimals = 0,
       .fixed = {{"tuples", 200}},
       .series = {{"gamma2", {{"gamma", 2}}}, {"gamma4", {{"gamma", 4}}},
                  {"gamma8", {{"gamma", 8}}}},
       .seed_base = 700, .default_reps = 3},
      {.id = "fig17", .title = "Fig 17: runtime vs schema size",
       .knob = "extra_attrs", .grid = sizes, .x_decimals = 0,
       .fixed = {{"tuples", 200}},
       .series = {{"src", {{"infer", 1}}}, {"tgt", {{"infer", 2}}}},
       .seed_base = 800, .default_reps = 3,
       .columns = {{"src_seconds", 0, "match_seconds"},
                   {"tgt_seconds", 1, "match_seconds"},
                   {"tgt/src", 1, "match_seconds", '/', 0},
                   {"src_inference_s", 0, "inference_seconds"},
                   {"tgt_inference_s", 1, "inference_seconds"}}},
      {.id = "fig18",
       .title = "Fig 18: accuracy vs sample size (TgtClassInfer)",
       .knob = "tuples", .grid = {25, 50, 100, 200, 400, 800}, .x_decimals = 0,
       .series = {{"tgt", {{"infer", 2}}}}, .seed_base = 900,
       .columns = {quality[1], quality[0], quality[2]}},
      {.id = "fig19",
       .title = "Fig 19: Grades accuracy vs sigma (ClioQualTable)",
       .grades = true, .knob = "sigma",
       .grid = {1, 2, 4, 6, 8, 10, 12, 16, 20}, .x_decimals = 1,
       .fixed = grades, .series = inferers, .seed_base = 1000},
      {.id = "fig20", .title = "Fig 20: Retail quality vs tau", .knob = "tau",
       .grid = {0.30, 0.40, 0.45, 0.50, 0.55, 0.60, 0.65, 0.70, 0.80},
       .x_decimals = 2, .series = {{"src_early", {}}}, .seed_base = 1100,
       .columns = quality},
      {.id = "fig21", .title = "Fig 21: Grades quality vs tau", .grades = true,
       .knob = "tau",
       .grid = {0.30, 0.40, 0.50, 0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.90},
       .x_decimals = 2, .fixed = grades_sigma5, .series = {{"src_late", {}}},
       .seed_base = 1200, .columns = quality},
      {.id = "fig22", .title = "Fig 22: Retail runtime vs tau", .knob = "tau",
       .grid = {0.30, 0.40, 0.50, 0.60, 0.70, 0.80}, .x_decimals = 2,
       .series = {{"src_early", {}}}, .seed_base = 1300, .default_reps = 3,
       .columns = {{"seconds", 0, "match_seconds"},
                   {"relative_to_tau_0.3", 0, "match_seconds", 'r'}}}};
  for (Figure& figure : figures) {
    const bool f_columns = figure.columns.empty();
    for (size_t s = 0; f_columns && s < figure.series.size(); ++s) {
      figure.columns.push_back({"F_" + figure.series[s].first, s});
    }
  }
  return figures;
}

/// One grid point of a figure: per series, the metrics over its seeds.
using Point = std::vector<AggregatedMetrics>;

double ColumnValue(const Column& c, const Point& p, const Point& first) {
  const double v = p[c.series].Mean(c.metric);
  if (c.op == 'm') return v;
  if (c.op == '-') return v - p[c.other].Mean(c.metric);
  const double base =
      (c.op == '/' ? p[c.other] : first[c.series]).Mean(c.metric);
  return base > 0 ? v / base : 0.0;
}

/// Runs every point of `figure` at `reps` repetitions, prints its table and
/// writes its JSON object to `out`: per (point, series) the seeds and
/// process CPU seconds, then every trial metric's (MatchTrial) mean and
/// sample stddev over seeds.
std::vector<Point> RunFigure(const Figure& figure, size_t reps, FILE* out) {
  std::vector<std::string> headers = {figure.knob};
  for (const Column& column : figure.columns) headers.push_back(column.header);
  ResultTable table(figure.title, headers);
  std::string seeds;
  for (size_t rep = 1; rep <= reps; ++rep) {
    seeds += (rep > 1 ? ", " : "") + std::to_string(figure.seed_base + rep);
  }
  std::fprintf(out, "\n    {\"id\": \"%s\", \"title\": \"%s\", \"points\": [",
               figure.id.c_str(), figure.title.c_str());
  std::vector<Point> points;
  for (double x : figure.grid) {
    Point point;
    for (const auto& [name, patch] : figure.series) {
      TrialConfig c;
      for (const auto& [knob, v] : figure.fixed) Apply(knob, v, c);
      Apply(figure.knob, x, c);
      for (const auto& [knob, v] : patch) Apply(knob, v, c);
      const double cpu0 = ProcessCpuSeconds();
      const AggregatedMetrics& m = point.emplace_back(
          RunRepeated(reps, figure.seed_base, [&](uint64_t seed) {
            return figure.grades
                       ? MatchTrial(MakeGradesDataset, "grades", c.grades,
                                    c.match, seed)
                       : MatchTrial(MakeRetailDataset, "retail", c.retail,
                                    c.match, seed);
          }));
      std::fprintf(out,
                   "%s\n      {\"%s\": %g, \"series\": \"%s\", \"reps\": %zu,"
                   " \"seeds\": [%s], \"process_cpu_seconds\": %.6f",
                   points.empty() && point.size() == 1 ? "" : ",",
                   figure.knob.c_str(), x, name.c_str(), reps, seeds.c_str(),
                   ProcessCpuSeconds() - cpu0);
      for (const auto& [metric, stats] : m.metrics) {
        std::fprintf(out, ", \"%s\": {\"mean\": %.6f, \"sd\": %.6f}",
                     metric.c_str(), stats.Mean(), stats.SampleStdDev());
      }
      std::fputs("}", out);
    }
    std::vector<std::string> cells = {
        figure.knob == "target"
            ? RetailTargetToString(kTargets[static_cast<size_t>(x)])
            : ResultTable::Num(x, figure.x_decimals)};
    for (const Column& column : figure.columns) {
      cells.push_back(ResultTable::Num(
          ColumnValue(column, point, points.empty() ? point : points[0]),
          column.op == '/' || column.op == 'r' ? 2 : 3));
    }
    table.AddRow(std::move(cells));
    points.push_back(std::move(point));
  }
  std::fputs("]}", out);
  table.Print();
  return points;
}

/// Shape tolerance in F-measure and accuracy.
constexpr double kTol = 0.01;

/// The shape a claim asserts of each (a, b) series pair over figure a's
/// grid (paper_claims.h); single-series shapes read only a.
enum class Shape {
  kPlateauAtLeastAsWide,  // a's max-F plateau is at least as wide as b's
  kPlateauIsBand,         // a's max-F plateau spans more than one point
  kAheadMostly,           // a > b at most points
  kDominates,             // a >= b at every point
  kDropsSooner,           // a first drops at a lower x than b
  kDropsNoSoonerThan,     // a first drops at x >= param, if at all
  kEndsLower,             // a ends more than param below its start
  kClimbs,                // a never falls by more than param and ends higher
  kCollapsesAbove,        // a above x = param is below a at or below it
  kRatioClimbs,           // a / b never falls and ends higher
};

struct Claim {
  std::string name;
  bool gated;  // holds at the default repetitions, so a failure fails the run
  Shape shape;
  std::string fig_a;
  std::string fig_b;
  NamePairs pairs;    // (a, b) series; b empty for single-series shapes
  std::string metric = "fmeasure";
  double param = kTol;
};

/// The quality claims that hold at the default repetitions are gated; the
/// runtime claims (Figs 15, 17, 22) and the claims the record refutes are
/// recorded only.  EXPERIMENTS.md defines each one.
std::vector<Claim> PaperClaims() {
  const NamePairs kinds = {{"naive", "naive"}, {"src", "src"}, {"tgt", "tgt"}};
  const auto omega = [](const std::string& id) {
    return Claim{id + ".early_omega_plateau_at_least_as_wide", false,
                 Shape::kPlateauAtLeastAsWide, id, id, {{"early", "late"}}};
  };
  return {
      omega("fig08"), omega("fig09"), omega("fig10"),
      {"fig11.qualtable_never_below_multitable", false, Shape::kDominates,
       "fig11", "fig11", {{"qualtable", "multitable"}}},
      {"fig11.qualtable_beats_multitable_on_most_targets", true,
       Shape::kAheadMostly, "fig11", "fig11", {{"qualtable", "multitable"}}},
      {"fig12_13.late_drops_at_lower_rho_than_early", true,
       Shape::kDropsSooner, "fig13", "fig12", kinds},
      {"fig12_13.early_at_least_late_at_every_rho", false, Shape::kDominates,
       "fig12", "fig13", kinds},
      {"fig12.early_holds_until_rho_0.9", false, Shape::kDropsNoSoonerThan,
       "fig12", "fig12", {{"src", ""}, {"tgt", ""}}, "fmeasure", 0.9},
      {"fig14.late_f_falls_with_gamma", false, Shape::kEndsLower, "fig14",
       "fig14", {{"naive_late", ""}, {"src_late", ""}, {"tgt_late", ""}}},
      {"fig14.naive_never_above_classifier_inferers", false, Shape::kDominates,
       "fig14", "fig14",
       {{"src_late", "naive_late"}, {"tgt_late", "naive_late"}}},
      {"fig15.early_late_runtime_ratio_rises_with_gamma", false,
       Shape::kRatioClimbs, "fig15", "fig15", {{"early", "late"}},
       "match_seconds"},
      {"fig16.f_falls_with_schema_size", true, Shape::kEndsLower, "fig16",
       "fig16", {{"gamma2", ""}, {"gamma4", ""}, {"gamma8", ""}}},
      {"fig16.f_lower_for_larger_gamma", false, Shape::kDominates, "fig16",
       "fig16", {{"gamma2", "gamma4"}, {"gamma4", "gamma8"}}},
      {"fig17.tgt_never_faster_than_src", false, Shape::kDominates, "fig17",
       "fig17", {{"tgt", "src"}}, "match_seconds"},
      {"fig18.accuracy_climbs_with_sample_size", true, Shape::kClimbs,
       "fig18", "fig18", {{"tgt", ""}}, "accuracy"},
      {"fig19.f_falls_with_sigma", true, Shape::kEndsLower, "fig19", "fig19",
       {{"naive", ""}, {"src", ""}, {"tgt", ""}}},
      {"fig20.f_plateau_spans_a_band_of_tau", true, Shape::kPlateauIsBand,
       "fig20", "fig20", {{"src_early", ""}}},
      {"fig21.f_plateau_spans_a_band_of_tau", false, Shape::kPlateauIsBand,
       "fig21", "fig21", {{"src_late", ""}}},
      {"fig21.f_collapses_above_tau_0.65", true, Shape::kCollapsesAbove,
       "fig21", "fig21", {{"src_late", ""}}, "fmeasure", 0.65},
      {"fig22.runtime_falls_with_tau", false, Shape::kEndsLower, "fig22",
       "fig22", {{"src_early", ""}}, "match_seconds", 0.0}};
}

/// The figures that ran, by id.
using Results =
    std::map<std::string, std::pair<const Figure*, std::vector<Point>>>;

/// Figure `id`'s per-point means of `metric` for `series`.
Series Values(const Results& r, const std::string& id,
              const std::string& series, const std::string& metric) {
  const auto& [figure, points] = r.at(id);
  size_t s = 0;
  while (figure->series[s].first != series) ++s;
  Series ys;
  for (const Point& p : points) ys.push_back(p[s].Mean(metric));
  return ys;
}

/// The verdict on `claim`, with a detail naming what each figure/series
/// showed: its max-F plateau, its first drop, or its first and last point.
std::pair<bool, std::string> Evaluate(const Claim& claim, const Results& r) {
  const Series& xs = r.at(claim.fig_a).first->grid;
  const bool plateaus = claim.shape == Shape::kPlateauAtLeastAsWide ||
                        claim.shape == Shape::kPlateauIsBand;
  const bool drops = claim.shape == Shape::kDropsSooner ||
                     claim.shape == Shape::kDropsNoSoonerThan;
  auto describe = [&](const std::string& fig, const std::string& series,
                      const Series& ys) {
    const std::string name = fig + "/" + series;
    const Plateau p = MaxPlateau(xs, ys, kTol);
    return plateaus ? StrFormat("%s [%.3f, %.3f]", name.c_str(), p.lo, p.hi)
           : drops  ? StrFormat("%s first drops at %.2f", name.c_str(),
                                FirstDrop(xs, ys, kTol))
                    : StrFormat("%s %.3f..%.3f", name.c_str(), ys.front(),
                                ys.back());
  };
  bool holds = true;
  std::string detail;
  for (const auto& [sa, sb] : claim.pairs) {
    const Series a = Values(r, claim.fig_a, sa, claim.metric);
    const Series b = sb.empty() ? a : Values(r, claim.fig_b, sb, claim.metric);
    Series ratio;
    for (size_t i = 0; i < a.size(); ++i) ratio.push_back(a[i] / b[i]);
    const double wa = MaxPlateau(xs, a, kTol).width();
    const double da = FirstDrop(xs, a, kTol), p = claim.param;
    switch (claim.shape) {
      case Shape::kPlateauAtLeastAsWide:
        holds &= wa >= MaxPlateau(xs, b, kTol).width();
        break;
      case Shape::kPlateauIsBand: holds &= wa > 0; break;
      case Shape::kAheadMostly: holds &= 2 * Wins(a, b) > a.size(); break;
      case Shape::kDominates: holds &= Dominates(a, b); break;
      case Shape::kDropsSooner: holds &= da < FirstDrop(xs, b, kTol); break;
      case Shape::kDropsNoSoonerThan: holds &= da >= p; break;
      case Shape::kEndsLower: holds &= EndsLower(a, p); break;
      case Shape::kClimbs: holds &= Climbs(a, p); break;
      case Shape::kCollapsesAbove: holds &= CollapsesAbove(xs, a, p); break;
      case Shape::kRatioClimbs: holds &= Climbs(ratio, 0.0); break;
    }
    detail += (detail.empty() ? "" : "; ") + describe(claim.fig_a, sa, a);
    if (!sb.empty()) detail += " vs " + describe(claim.fig_b, sb, b);
  }
  return {holds, detail};
}

int Main(int argc, char** argv) {
  const std::vector<Figure> figures = PaperFigures();
  char** const end = argv + argc;
  const auto picked = [&](const Figure& f) {
    return argc == 1 || std::find(argv + 1, end, f.id) != end;
  };
  if (std::count_if(figures.begin(), figures.end(), picked) < argc - 1) {
    std::fprintf(stderr, "usage: bench_paper [fig08 .. fig22]...\n");
    return 2;
  }
  const char* const path = "BENCH_paper_figures.json";
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"paper_figures\",\n"
               "  \"hardware_concurrency\": %zu,\n  \"figures\": [",
               exec::ThreadPool::HardwareThreads());
  Results results;
  for (const Figure& figure : figures) {
    if (!picked(figure)) continue;
    const size_t reps = GlobalBenchConfig().Repetitions(figure.default_reps);
    if (!results.empty()) std::fputs(",", out);
    results[figure.id] = {&figure, RunFigure(figure, reps, out)};
  }
  ResultTable verdicts("Claims", {"claim", "gated", "verdict", "detail"});
  bool gate_failed = false;
  std::fputs("\n  ],\n  \"claims\": [", out);
  for (const Claim& claim : PaperClaims()) {
    if (!results.count(claim.fig_a) || !results.count(claim.fig_b)) continue;
    const auto [holds, detail] = Evaluate(claim, results);
    gate_failed = gate_failed || (claim.gated && !holds);
    std::fprintf(out,
                 "%s\n    {\"name\": \"%s\", \"gated\": %s, \"holds\": %s,"
                 " \"detail\": \"%s\"}",
                 verdicts.num_rows() > 0 ? "," : "", claim.name.c_str(),
                 claim.gated ? "true" : "false", holds ? "true" : "false",
                 detail.c_str());
    verdicts.AddRow({claim.name, claim.gated ? "yes" : "no",
                     holds ? "holds" : "FAILS", detail});
  }
  std::fputs("\n  ]\n}\n", out);
  std::fclose(out);
  verdicts.Print();
  std::printf("wrote %s\n", path);
  return gate_failed ? 1 : 0;  // a gated claim FAILS in the table above
}

}  // namespace
}  // namespace csm::bench

int main(int argc, char** argv) { return csm::bench::Main(argc, argv); }
