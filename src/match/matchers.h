// The concrete matcher suite: schema-level name matching plus the
// instance-based q-gram, TF-IDF word-token, and numeric-distribution
// matchers.  Together these form the "variety of matchers" the standard
// matching system of Section 2.3 combines.

#ifndef CSM_MATCH_MATCHERS_H_
#define CSM_MATCH_MATCHERS_H_

#include <memory>
#include <string>
#include <vector>

#include "match/matcher.h"
#include "text/tfidf.h"

namespace csm {

/// Attribute-name similarity: the max of Jaro-Winkler on the lowercased
/// names and Dice overlap of their camelCase/underscore-split tokens
/// (NameTokens), both read from each sample's cached NameForm.  A
/// schema-level signal, weighted below the instance-based matchers.
class NameMatcher : public AttributeMatcher {
 public:
  explicit NameMatcher(double weight = 0.5) : weight_(weight) {}

  std::string Name() const override { return "name"; }
  double Weight() const override { return weight_; }
  double Score(const AttributeSample& source,
               const AttributeSample& target) const override;
  /// A restriction keeps its attribute name, so its score is the indexed
  /// sample's: computed once per pair by Align.
  void Align(const AttributeSample& indexed, const AttributeSample& target,
             IndexAlignment* alignment) const override;
  double ScoreAligned(const AttributeSample& restricted,
                      const AttributeSample& target,
                      const IndexAlignment& alignment) const override;

 private:
  double weight_;
};

/// Cosine similarity of padded 3-gram profiles of the two value bags.  The
/// workhorse instance matcher for string data.
class QGramMatcher : public AttributeMatcher {
 public:
  explicit QGramMatcher(double weight = 1.0) : weight_(weight) {}

  std::string Name() const override { return "qgram"; }
  double Weight() const override { return weight_; }
  bool Applicable(const AttributeSample& source,
                  const AttributeSample& target) const override;
  double Score(const AttributeSample& source,
               const AttributeSample& target) const override;
  /// GramCosineRow over `source`'s profile.
  void ScoreRow(const AttributeSample& source,
                const std::vector<const AttributeSample*>& targets,
                double* scores) const override;
  void Align(const AttributeSample& indexed, const AttributeSample& target,
             IndexAlignment* alignment) const override;
  double ScoreAligned(const AttributeSample& restricted,
                      const AttributeSample& target,
                      const IndexAlignment& alignment) const override;

 private:
  double weight_;
};

/// TF-IDF-weighted cosine over word tokens.  Prepare() builds the IDF
/// corpus from the target attributes, so tokens common to every target
/// column (stopwords, boilerplate) are discounted; the corpus keeps each
/// target's side of the cosine and each prepared source's weighted norm,
/// so scoring a prepared pair looks up only the source tokens both share.
class TfIdfTokenMatcher : public AttributeMatcher {
 public:
  explicit TfIdfTokenMatcher(double weight = 1.0) : weight_(weight) {}

  std::string Name() const override { return "tfidf"; }
  double Weight() const override { return weight_; }
  void Prepare(const std::vector<const AttributeSample*>& sources,
               const std::vector<const AttributeSample*>& targets) override;
  bool Applicable(const AttributeSample& source,
                  const AttributeSample& target) const override;
  double Score(const AttributeSample& source,
               const AttributeSample& target) const override;
  /// TfIdfCorpus::CosineRow over `source`'s word profile.
  void ScoreRow(const AttributeSample& source,
                const std::vector<const AttributeSample*>& targets,
                double* scores) const override;
  void Align(const AttributeSample& indexed, const AttributeSample& target,
             IndexAlignment* alignment) const override;
  double ScoreAligned(const AttributeSample& restricted,
                      const AttributeSample& target,
                      const IndexAlignment& alignment) const override;

 private:
  double weight_;
  TfIdfCorpus corpus_;
};

/// Distribution similarity for numeric bags: the product of (a) overlap of
/// the [mean ± 2 stddev] intervals and (b) a Gaussian penalty on the
/// standardized mean difference.  Applicable only when both bags are
/// mostly numeric.
class NumericMatcher : public AttributeMatcher {
 public:
  explicit NumericMatcher(double weight = 1.0) : weight_(weight) {}

  std::string Name() const override { return "numeric"; }
  double Weight() const override { return weight_; }
  bool Applicable(const AttributeSample& source,
                  const AttributeSample& target) const override;
  double Score(const AttributeSample& source,
               const AttributeSample& target) const override;

 private:
  double weight_;
};

/// The default matcher suite: name (weight 0.5), q-gram, TF-IDF, numeric.
std::vector<std::unique_ptr<AttributeMatcher>> DefaultMatcherSuite();

}  // namespace csm

#endif  // CSM_MATCH_MATCHERS_H_
