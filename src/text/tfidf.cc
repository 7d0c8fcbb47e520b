#include "text/tfidf.h"

#include <cmath>

namespace csm {
namespace {

double SmoothedIdf(double num_documents, double df) {
  return std::log((1.0 + num_documents) / (1.0 + df)) + 1.0;
}

}  // namespace

TfIdfCorpus::TfIdfCorpus(const std::vector<const WordProfile*>& documents)
    : num_documents_(documents.size()) {
  // Document frequencies first (exact small integers in doubles), then
  // each one replaced by its IDF in place.
  for (const WordProfile* document : documents) {
    for (const WordProfile::Entry& e : document->entries()) {
      auto it = idf_.find(e.token);
      if (it == idf_.end()) {
        idf_.emplace(std::string(e.token), 1.0);
      } else {
        it->second += 1.0;
      }
    }
  }
  const double n = static_cast<double>(num_documents_);
  for (auto& [token, value] : idf_) value = SmoothedIdf(n, value);
  unseen_idf_ = SmoothedIdf(n, 0.0);
}

double TfIdfCorpus::Idf(std::string_view token) const {
  auto it = idf_.find(token);
  return it == idf_.end() ? unseen_idf_ : it->second;
}

double TfIdfCorpus::WeightedCosine(const WordProfile& a,
                                   const WordProfile& b) const {
  // Linear merge over the lex-sorted flat entries.  Norms accumulate in
  // lexicographic order, and the dot's skipped non-intersection terms are
  // exact +0.0 no-ops because profile counts (and hence weights) are
  // positive.
  if (a.empty() || b.empty()) return 0.0;
  auto weighted_norm = [this](const WordProfile& p) {
    double sum_sq = 0.0;
    for (const WordProfile::Entry& e : p.entries()) {
      const double w = e.count * Idf(e.token);
      sum_sq += w * w;
    }
    return std::sqrt(sum_sq);
  };
  const double denom = weighted_norm(a) * weighted_norm(b);
  if (denom == 0.0) return 0.0;
  double dot = 0.0;
  auto ia = a.entries().begin();
  auto ib = b.entries().begin();
  while (ia != a.entries().end() && ib != b.entries().end()) {
    if (ia->token < ib->token) {
      ++ia;
    } else if (ib->token < ia->token) {
      ++ib;
    } else {
      const double idf = Idf(ia->token);
      dot += (ia->count * idf) * (ib->count * idf);
      ++ia;
      ++ib;
    }
  }
  return dot / denom;
}

}  // namespace csm
