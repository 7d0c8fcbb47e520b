#include "text/tfidf.h"

#include <cmath>

namespace csm {
namespace {

double SmoothedIdf(double num_documents, double df) {
  return std::log((1.0 + num_documents) / (1.0 + df)) + 1.0;
}

}  // namespace

TfIdfCorpus::TfIdfCorpus(const std::vector<const WordProfile*>& documents,
                         const std::vector<const WordProfile*>& queries)
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

  documents_.reserve(documents.size() + queries.size());
  for (const WordProfile* document : documents) {
    Document state;
    state.idf.reserve(document->num_distinct());
    for (const WordProfile::Entry& e : document->entries()) {
      state.idf.push_back(Idf(e.token));
    }
    state.norm = NormOf(*document, [&](size_t k) { return state.idf[k]; });
    document_of_.try_emplace(document, documents_.size());
    documents_.push_back(std::move(state));
  }
  // A profile that is also a document keeps its document state: the same
  // norm, and its IDFs.
  for (const WordProfile* query : queries) {
    if (!document_of_.try_emplace(query, documents_.size()).second) continue;
    documents_.push_back(Document{{}, LookedUpNorm(*query), false});
  }
}

double TfIdfCorpus::Idf(std::string_view token) const {
  auto it = idf_.find(token);
  return it == idf_.end() ? unseen_idf_ : it->second;
}

const TfIdfCorpus::Document* TfIdfCorpus::Find(const WordProfile& p) const {
  auto it = document_of_.find(&p);
  return it == document_of_.end() ? nullptr : &documents_[it->second];
}

template <typename IdfOf>
double TfIdfCorpus::NormOf(const WordProfile& p, IdfOf&& idf) {
  double sum_sq = 0.0;
  for (size_t k = 0; k < p.entries().size(); ++k) {
    const double w = p.entries()[k].count * idf(k);
    sum_sq += w * w;
  }
  return std::sqrt(sum_sq);
}

double TfIdfCorpus::LookedUpNorm(const WordProfile& p) const {
  return NormOf(p, [&](size_t k) { return Idf(p.entries()[k].token); });
}

double TfIdfCorpus::WeightedNorm(const WordProfile& p) const {
  if (const Document* document = Find(p)) return document->norm;
  return LookedUpNorm(p);
}

double TfIdfCorpus::WeightedCosine(const WordProfile& a,
                                   const WordProfile& b) const {
  // Linear merge over the lex-sorted flat entries.  Norms accumulate in
  // lexicographic order, and the dot's skipped non-intersection terms are
  // exact +0.0 no-ops because profile counts (and hence weights) are
  // positive.  When b is a document, its norm and a shared token's IDF are
  // read from its stored state: the same values Idf() and LookedUpNorm
  // give.  a (a source attribute in a session) reads its stored norm when
  // it is a query, and looks its IDFs up.
  if (a.empty() || b.empty()) return 0.0;
  const Document* b_state = Find(b);
  const Document* b_document =
      b_state != nullptr && b_state->is_document ? b_state : nullptr;
  const double denom = WeightedNorm(a) *
                       (b_state != nullptr ? b_state->norm : LookedUpNorm(b));
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
      const double idf =
          b_document != nullptr
              ? b_document->idf[static_cast<size_t>(ib - b.entries().begin())]
              : Idf(ia->token);
      dot += (ia->count * idf) * (ib->count * idf);
      ++ia;
      ++ib;
    }
  }
  return dot / denom;
}

}  // namespace csm
