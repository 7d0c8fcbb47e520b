#include "check/token_profile.h"

#include <algorithm>
#include <cmath>

namespace csm::check {

void TokenProfile::Add(const std::string& token, double count) {
  counts_[token] += count;
  total_ += count;
}

void TokenProfile::AddAll(const std::vector<std::string>& tokens) {
  for (const auto& token : tokens) Add(token);
}

double TokenProfile::Count(const std::string& token) const {
  auto it = counts_.find(token);
  return it == counts_.end() ? 0.0 : it->second;
}

double TokenProfile::Norm() const {
  double sum_sq = 0.0;
  for (const auto& [token, count] : counts_) sum_sq += count * count;
  return std::sqrt(sum_sq);
}

double TokenProfile::Dot(const TokenProfile& other) const {
  // Iterate the smaller map.
  const TokenProfile& small = num_distinct() <= other.num_distinct()
                                  ? *this
                                  : other;
  const TokenProfile& large = num_distinct() <= other.num_distinct()
                                  ? other
                                  : *this;
  double dot = 0.0;
  for (const auto& [token, count] : small.counts_) {
    dot += count * large.Count(token);
  }
  return dot;
}

size_t TokenProfile::IntersectionSize(const TokenProfile& other) const {
  const TokenProfile& small =
      num_distinct() <= other.num_distinct() ? *this : other;
  const TokenProfile& large =
      num_distinct() <= other.num_distinct() ? other : *this;
  size_t n = 0;
  for (const auto& [token, count] : small.counts_) {
    if (large.counts_.count(token) > 0) ++n;
  }
  return n;
}

double CosineSimilarity(const TokenProfile& a, const TokenProfile& b) {
  if (a.empty() || b.empty()) return 0.0;
  double denom = a.Norm() * b.Norm();
  if (denom == 0.0) return 0.0;
  return a.Dot(b) / denom;
}

double DiceSimilarity(const TokenProfile& a, const TokenProfile& b) {
  size_t total = a.num_distinct() + b.num_distinct();
  if (total == 0) return 0.0;
  return 2.0 * static_cast<double>(a.IntersectionSize(b)) /
         static_cast<double>(total);
}

void ReferenceTfIdfCorpus::AddDocument(const TokenProfile& document) {
  ++num_documents_;
  for (const auto& [token, count] : document.counts()) {
    ++document_frequency_[token];
  }
}

double ReferenceTfIdfCorpus::Idf(std::string_view token) const {
  auto it = document_frequency_.find(token);
  const double df = it == document_frequency_.end()
                        ? 0.0
                        : static_cast<double>(it->second);
  return std::log((1.0 + static_cast<double>(num_documents_)) / (1.0 + df)) +
         1.0;
}

TokenProfile ReferenceTfIdfCorpus::Weight(const TokenProfile& document) const {
  TokenProfile weighted;
  for (const auto& [token, count] : document.counts()) {
    weighted.Add(token, count * Idf(token));
  }
  return weighted;
}

double ReferenceTfIdfCorpus::WeightedCosine(const TokenProfile& a,
                                            const TokenProfile& b) const {
  // Evaluated inline (no materialized weighted profiles), term for term in
  // the order CosineSimilarity(Weight(a), Weight(b)) used: norms iterate
  // each map lexicographically, the dot iterates the smaller side and looks
  // the token up in the larger (missing tokens contribute an explicit *0.0
  // term, exactly as the weighted map's Count() did).
  if (a.empty() || b.empty()) return 0.0;
  auto weighted_norm = [this](const TokenProfile& p) {
    double sum_sq = 0.0;
    for (const auto& [token, count] : p.counts()) {
      const double w = count * Idf(token);
      sum_sq += w * w;
    }
    return std::sqrt(sum_sq);
  };
  const double denom = weighted_norm(a) * weighted_norm(b);
  if (denom == 0.0) return 0.0;
  const TokenProfile& small = a.num_distinct() <= b.num_distinct() ? a : b;
  const TokenProfile& large = a.num_distinct() <= b.num_distinct() ? b : a;
  double dot = 0.0;
  for (const auto& [token, count] : small.counts()) {
    auto it = large.counts().find(token);
    const double wl = it == large.counts().end() ? 0.0
                                                 : it->second * Idf(token);
    dot += (count * Idf(token)) * wl;
  }
  return dot / denom;
}

uint32_t ReferenceTokenInterner::GetOrAdd(std::string_view token) {
  auto it = index_.find(token);
  if (it != index_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(tokens_.size());
  tokens_.emplace_back(token);
  index_.emplace(std::string_view(tokens_.back()), id);
  return id;
}

void ReferenceCodePartials(
    const std::vector<uint32_t>& raw_offsets, const std::vector<uint32_t>& raw,
    std::vector<uint32_t>* offsets,
    std::vector<std::pair<uint32_t, uint32_t>>* partials) {
  offsets->assign(1, 0);
  partials->clear();
  std::vector<uint32_t> indices;
  for (size_t c = 0; c + 1 < raw_offsets.size(); ++c) {
    indices.assign(raw.begin() + raw_offsets[c],
                   raw.begin() + raw_offsets[c + 1]);
    std::sort(indices.begin(), indices.end());
    for (size_t k = 0; k < indices.size();) {
      size_t run = k + 1;
      while (run < indices.size() && indices[run] == indices[k]) ++run;
      partials->emplace_back(indices[k], static_cast<uint32_t>(run - k));
      k = run;
    }
    offsets->push_back(static_cast<uint32_t>(partials->size()));
  }
}

}  // namespace csm::check
