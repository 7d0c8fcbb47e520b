#include "text/tfidf.h"

#include <cmath>
#include <utility>

namespace csm {
namespace {

double SmoothedIdf(double num_documents, double df) {
  return std::log((1.0 + num_documents) / (1.0 + df)) + 1.0;
}

}  // namespace

TfIdfCorpus::TfIdfCorpus(const std::vector<const WordProfile*>& documents,
                         const std::vector<const WordProfile*>& queries)
    : num_documents_(documents.size()) {
  // Document frequencies first (exact small integers in doubles), each
  // token numbered on first sight, then each one replaced by its IDF in
  // place.
  documents_.reserve(documents.size() + queries.size());
  for (const WordProfile* document : documents) {
    Document state;
    state.ids.reserve(document->num_distinct());
    for (const WordProfile::Entry& e : document->entries()) {
      auto it = token_ids_.find(e.token);
      if (it == token_ids_.end()) {
        const auto id = static_cast<uint32_t>(idf_.size());
        token_ids_.emplace(std::string(e.token), id);
        idf_.push_back(1.0);
        state.ids.push_back(id);
      } else {
        idf_[it->second] += 1.0;
        state.ids.push_back(it->second);
      }
    }
    documents_.push_back(std::move(state));
  }
  const double n = static_cast<double>(num_documents_);
  for (double& value : idf_) value = SmoothedIdf(n, value);
  unseen_idf_ = SmoothedIdf(n, 0.0);

  for (size_t d = 0; d < documents.size(); ++d) {
    Document& state = documents_[d];
    state.idf.reserve(state.ids.size());
    for (uint32_t id : state.ids) state.idf.push_back(idf_[id]);
    state.norm = NormOf(*documents[d], [&](size_t k) { return state.idf[k]; });
    document_of_.try_emplace(documents[d], d);
  }
  // A profile that is also a document keeps its document state: the same
  // norm, and its IDFs.
  for (const WordProfile* query : queries) {
    if (!document_of_.try_emplace(query, documents_.size()).second) continue;
    Document state;
    state.is_document = false;
    state.ids.reserve(query->num_distinct());
    for (const WordProfile::Entry& e : query->entries()) {
      state.ids.push_back(IdOf(e.token));
    }
    state.norm =
        NormOf(*query, [&](size_t k) { return IdfOfId(state.ids[k]); });
    documents_.push_back(std::move(state));
  }
}

uint32_t TfIdfCorpus::IdOf(std::string_view token) const {
  auto it = token_ids_.find(token);
  return it == token_ids_.end() ? kUnseenToken : it->second;
}

double TfIdfCorpus::Idf(std::string_view token) const {
  return IdfOfId(IdOf(token));
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

TfIdfCorpus::CosineRow::CosineRow(const TfIdfCorpus& corpus,
                                  const WordProfile& a)
    : corpus_(corpus), a_(a), counts_(corpus.idf_.size()) {
  // a's norm and ids as WeightedCosine reads them: stored when a is a
  // document or query, else looked up.
  const Document* state = corpus_.Find(a_);
  if (state != nullptr) {
    a_norm_ = state->norm;
    a_ids_ = state->ids;
  } else {
    a_norm_ = corpus_.LookedUpNorm(a_);
    a_ids_.reserve(a_.num_distinct());
    for (const WordProfile::Entry& e : a_.entries()) {
      a_ids_.push_back(corpus_.IdOf(e.token));
    }
  }
  for (size_t k = 0; k < a_ids_.size(); ++k) {
    if (a_ids_[k] != kUnseenToken) {
      counts_.data()[a_ids_[k]] = a_.entries()[k].count;
    }
  }
}

TfIdfCorpus::CosineRow::~CosineRow() {
  for (uint32_t id : a_ids_) {
    if (id != kUnseenToken) counts_.data()[id] = 0.0;
  }
}

double TfIdfCorpus::CosineRow::Cosine(const WordProfile& b) const {
  if (a_.empty() || b.empty()) return 0.0;
  const Document* b_state = corpus_.Find(b);
  if (b_state == nullptr || !b_state->is_document) {
    return corpus_.WeightedCosine(a_, b);
  }
  const double denom = a_norm_ * b_state->norm;
  if (denom == 0.0) return 0.0;
  const double* counts = counts_.data();
  double dot = 0.0;
  for (size_t k = 0; k < b.entries().size(); ++k) {
    const double idf = b_state->idf[k];
    dot += (counts[b_state->ids[k]] * idf) * (b.entries()[k].count * idf);
  }
  return dot / denom;
}

}  // namespace csm
