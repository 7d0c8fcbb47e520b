// Map-of-strings token profiles and TF-IDF: the reference the interned
// token kernel (text/gram.h) and the IDF table (text/tfidf.h) replaced.
//
// A TokenProfile is a multiset of tokens (q-grams or words) in a
// std::map<std::string, double>; ReferenceTfIdfCorpus keeps document
// frequencies in a std::map and takes the logarithm on every IDF lookup.
// ReferenceTokenInterner is the node-based interner the flat one replaced,
// and ReferenceCodePartials the sorting partial builder of the per-code
// token index (match/code_index.h).
// Nothing in the product links them: the fuzzers (fuzz.h), text_test,
// property_test and bench_micro_text diff or time the production kernel
// against them, so the reference shares no code with what it checks.

#ifndef CSM_CHECK_TOKEN_PROFILE_H_
#define CSM_CHECK_TOKEN_PROFILE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace csm::check {

/// A sparse token -> count map with the vector-space operations the
/// similarity measures need.  Deterministic iteration (ordered map).
class TokenProfile {
 public:
  TokenProfile() = default;

  /// Adds `count` occurrences of `token`.
  void Add(const std::string& token, double count = 1.0);

  /// Adds every token in `tokens` once each.
  void AddAll(const std::vector<std::string>& tokens);

  bool empty() const { return counts_.empty(); }
  size_t num_distinct() const { return counts_.size(); }
  double total() const { return total_; }

  double Count(const std::string& token) const;

  const std::map<std::string, double>& counts() const { return counts_; }

  /// Euclidean norm of the count vector.
  double Norm() const;

  /// Dot product with another profile.
  double Dot(const TokenProfile& other) const;

  /// Number of distinct tokens in common.
  size_t IntersectionSize(const TokenProfile& other) const;

 private:
  std::map<std::string, double> counts_;
  double total_ = 0.0;
};

/// Cosine similarity of the count vectors; 0 when either is empty.
double CosineSimilarity(const TokenProfile& a, const TokenProfile& b);

/// Dice coefficient of the distinct-token sets.
double DiceSimilarity(const TokenProfile& a, const TokenProfile& b);

/// TF-IDF over TokenProfile documents, registered one at a time.
class ReferenceTfIdfCorpus {
 public:
  /// Registers a document (each distinct token counts once toward DF).
  void AddDocument(const TokenProfile& document);

  size_t num_documents() const { return num_documents_; }

  /// log((1 + N) / (1 + df)) + 1, evaluated on every call.
  double Idf(std::string_view token) const;

  /// Returns the profile re-weighted by TF-IDF (tf = raw count).
  TokenProfile Weight(const TokenProfile& document) const;

  /// Cosine similarity of the two documents' TF-IDF vectors.
  double WeightedCosine(const TokenProfile& a, const TokenProfile& b) const;

 private:
  std::map<std::string, size_t, std::less<>> document_frequency_;
  size_t num_documents_ = 0;
};

/// TokenInterner (text/gram.h) as it was: a std::deque of token strings
/// and a std::unordered_map from views of them to first-seen ids.
class ReferenceTokenInterner {
 public:
  uint32_t GetOrAdd(std::string_view token);
  const std::string& value(uint32_t id) const { return tokens_[id]; }
  size_t size() const { return tokens_.size(); }

 private:
  std::deque<std::string> tokens_;  // stable addresses; index == id
  std::unordered_map<std::string_view, uint32_t> index_;
};

/// BuildCodePartials (match/code_index.h) as it was: each code's row of
/// vocabulary indices sorted, then run-length encoded into (index, count)
/// pairs in increasing index order, CSR over codes by `*offsets`.
void ReferenceCodePartials(
    const std::vector<uint32_t>& raw_offsets, const std::vector<uint32_t>& raw,
    std::vector<uint32_t>* offsets,
    std::vector<std::pair<uint32_t, uint32_t>>* partials);

}  // namespace csm::check

#endif  // CSM_CHECK_TOKEN_PROFILE_H_
