#include "match/matchers.h"

#include <algorithm>
#include <cmath>

#include "text/string_distance.h"

namespace csm {

double NameMatcher::Score(const AttributeSample& source,
                          const AttributeSample& target) const {
  const AttributeSample::NameForm& a = source.Name();
  const AttributeSample::NameForm& b = target.Name();
  return std::max(JaroWinklerSimilarity(a.lowercase, b.lowercase),
                  DiceSimilarity(a.tokens, b.tokens));
}

void NameMatcher::Align(const AttributeSample& indexed,
                        const AttributeSample& target,
                        IndexAlignment* alignment) const {
  alignment->name_score = Score(indexed, target);
}

double NameMatcher::ScoreAligned(const AttributeSample& restricted,
                                 const AttributeSample& target,
                                 const IndexAlignment& alignment) const {
  (void)restricted;
  (void)target;
  return alignment.name_score;
}

bool QGramMatcher::Applicable(const AttributeSample& source,
                              const AttributeSample& target) const {
  return source.NonNullCount() > 0 && target.NonNullCount() > 0;
}

double QGramMatcher::Score(const AttributeSample& source,
                           const AttributeSample& target) const {
  return CosineSimilarity(source.QGramProfile(), target.QGramProfile());
}

void QGramMatcher::ScoreRow(const AttributeSample& source,
                            const std::vector<const AttributeSample*>& targets,
                            double* scores) const {
  const GramCosineRow row(source.QGramProfile());
  for (size_t k = 0; k < targets.size(); ++k) {
    scores[k] = row.Cosine(targets[k]->QGramProfile());
  }
}

void QGramMatcher::Align(const AttributeSample& indexed,
                         const AttributeSample& target,
                         IndexAlignment* alignment) const {
  indexed.index()->AlignQGrams(target.QGramProfile(), alignment);
}

double QGramMatcher::ScoreAligned(const AttributeSample& restricted,
                                  const AttributeSample& target,
                                  const IndexAlignment& alignment) const {
  (void)target;
  return alignment.GramCosine(restricted.GramTerms());
}

void TfIdfTokenMatcher::Prepare(
    const std::vector<const AttributeSample*>& sources,
    const std::vector<const AttributeSample*>& targets) {
  auto profiles = [](const std::vector<const AttributeSample*>& samples) {
    std::vector<const WordProfile*> out;
    out.reserve(samples.size());
    for (const AttributeSample* sample : samples) {
      out.push_back(&sample->WordProfile());
    }
    return out;
  };
  corpus_ = TfIdfCorpus(profiles(targets), profiles(sources));
}

bool TfIdfTokenMatcher::Applicable(const AttributeSample& source,
                                   const AttributeSample& target) const {
  return source.HasWordTokens() && target.HasWordTokens();
}

double TfIdfTokenMatcher::Score(const AttributeSample& source,
                                const AttributeSample& target) const {
  return corpus_.WeightedCosine(source.WordProfile(), target.WordProfile());
}

void TfIdfTokenMatcher::ScoreRow(
    const AttributeSample& source,
    const std::vector<const AttributeSample*>& targets,
    double* scores) const {
  const TfIdfCorpus::CosineRow row(corpus_, source.WordProfile());
  for (size_t k = 0; k < targets.size(); ++k) {
    scores[k] = row.Cosine(targets[k]->WordProfile());
  }
}

void TfIdfTokenMatcher::Align(const AttributeSample& indexed,
                              const AttributeSample& target,
                              IndexAlignment* alignment) const {
  indexed.index()->AlignWords(target.WordProfile(), corpus_, alignment);
}

double TfIdfTokenMatcher::ScoreAligned(const AttributeSample& restricted,
                                       const AttributeSample& target,
                                       const IndexAlignment& alignment) const {
  (void)target;
  return alignment.WeightedCosine(restricted.WordTerms());
}

bool NumericMatcher::Applicable(const AttributeSample& source,
                                const AttributeSample& target) const {
  return source.MostlyNumeric() && target.MostlyNumeric();
}

double NumericMatcher::Score(const AttributeSample& source,
                             const AttributeSample& target) const {
  const DescriptiveStats& a = source.NumericStats();
  const DescriptiveStats& b = target.NumericStats();
  if (a.empty() || b.empty()) return 0.0;

  constexpr double kEpsilon = 1e-9;
  const double sa = a.PopulationStdDev();
  const double sb = b.PopulationStdDev();

  // (a) Overlap of the mean +/- 2 stddev intervals (Jaccard on intervals).
  const double lo_a = a.Mean() - 2.0 * sa, hi_a = a.Mean() + 2.0 * sa;
  const double lo_b = b.Mean() - 2.0 * sb, hi_b = b.Mean() + 2.0 * sb;
  const double inter =
      std::max(0.0, std::min(hi_a, hi_b) - std::max(lo_a, lo_b));
  const double uni = std::max(hi_a, hi_b) - std::min(lo_a, lo_b);
  double interval_overlap;
  if (uni < kEpsilon) {
    // Both essentially point distributions: overlap iff equal means.
    interval_overlap = std::abs(a.Mean() - b.Mean()) < kEpsilon ? 1.0 : 0.0;
  } else {
    interval_overlap = inter / uni;
  }

  // (b) Gaussian penalty on the standardized mean difference.
  const double pooled = std::sqrt(0.5 * (sa * sa + sb * sb)) + kEpsilon;
  const double dz = (a.Mean() - b.Mean()) / pooled;
  const double mean_closeness = std::exp(-0.5 * dz * dz);

  // (c) Spread similarity: a wide mixture centered on a narrow column is
  // not the same distribution even though the means agree.  Applied as a
  // multiplicative discount so far-apart distributions still score ~0.
  const double spread_sim = (std::min(sa, sb) + kEpsilon) /
                            (std::max(sa, sb) + kEpsilon);

  const double location = 0.5 * interval_overlap + 0.5 * mean_closeness;
  return std::clamp(location * (0.7 + 0.3 * spread_sim), 0.0, 1.0);
}

std::vector<std::unique_ptr<AttributeMatcher>> DefaultMatcherSuite() {
  std::vector<std::unique_ptr<AttributeMatcher>> suite;
  suite.push_back(std::make_unique<NameMatcher>(0.5));
  suite.push_back(std::make_unique<QGramMatcher>(1.0));
  suite.push_back(std::make_unique<TfIdfTokenMatcher>(1.0));
  suite.push_back(std::make_unique<NumericMatcher>(1.0));
  return suite;
}

}  // namespace csm
