// TF-IDF weighting over a corpus of word profiles.
//
// The TF-IDF matcher treats each attribute's value bag as a document; IDF
// is computed over the documents the corpus is built from, and similarity
// is the cosine of the TF-IDF-weighted vectors.
//
// The corpus is built once from all of its documents and stores each
// token's IDF in one hash table, so scoring pays one lookup per token and
// no logarithm.  It also keeps each document's side of the cosine — the IDF
// of every entry and the IDF-weighted norm — so a cosine against a document
// (a session's target attribute) looks up only the other side's tokens.
// Profiles registered as queries (a session's source attributes) keep
// their IDF-weighted norm beside the documents' state without counting
// toward any document frequency, so a query's norm is summed once per
// corpus, not once per cosine.
// The weighted cosine is evaluated as a lexicographic merge without
// materializing weighted profiles: WordProfile entries are sorted by token
// string, so the weighted sums accumulate in exactly the order of the
// map-based reference (check/token_profile.h), and the IDF values are the
// same expression evaluated once instead of per lookup — every score is
// bit-identical to the reference.

#ifndef CSM_TEXT_TFIDF_H_
#define CSM_TEXT_TFIDF_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/gram.h"

namespace csm {

/// Smoothed inverse document frequencies of a fixed document set.
class TfIdfCorpus {
 public:
  /// The empty corpus: every token is unseen.
  TfIdfCorpus() = default;

  /// Builds the IDF table of `documents` (each distinct token of a document
  /// counts once toward its document frequency), each document's entry
  /// IDFs and weighted norm, and the weighted norm of each of `queries`,
  /// which are scored against the documents but are not documents.  Both
  /// must outlive the corpus: a profile passed to WeightedNorm or
  /// WeightedCosine is recognized as a document or query by its address.
  explicit TfIdfCorpus(const std::vector<const WordProfile*>& documents,
                       const std::vector<const WordProfile*>& queries = {});

  size_t num_documents() const { return num_documents_; }

  /// Smoothed inverse document frequency:
  /// log((1 + N) / (1 + df)) + 1, so unseen tokens still get weight.
  double Idf(std::string_view token) const;

  /// Euclidean norm of `p`'s TF-IDF vector (squares summed in token order);
  /// a document's or query's was computed at construction.
  double WeightedNorm(const WordProfile& p) const;

  /// Cosine similarity of the two profiles' TF-IDF vectors (tf = raw
  /// count).  `b`, when it is a document, reads its stored IDFs and norm;
  /// `a` reads its stored norm when it is a document or query, and looks
  /// its IDFs up.
  double WeightedCosine(const WordProfile& a, const WordProfile& b) const;

 private:
  /// A document's side of every cosine; a query keeps only its norm (and
  /// no IDFs).
  struct Document {
    std::vector<double> idf;  // per entry, in entry order
    double norm = 0.0;
    bool is_document = true;
  };

  /// The stored state of `p` if it is one of the documents or queries,
  /// else null.
  const Document* Find(const WordProfile& p) const;

  /// Weighted norm of `p` whose entries have IDFs `idf(k)`.
  template <typename IdfOf>
  static double NormOf(const WordProfile& p, IdfOf&& idf);

  /// Weighted norm of `p` from IDF table lookups.
  double LookedUpNorm(const WordProfile& p) const;

  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  /// IDF of every token with df >= 1.
  std::unordered_map<std::string, double, Hash, Eq> idf_;
  std::vector<Document> documents_;  // documents, then queries
  std::unordered_map<const WordProfile*, size_t> document_of_;
  size_t num_documents_ = 0;
  /// IDF of a token no document holds (df = 0); 1 for the empty corpus.
  double unseen_idf_ = 1.0;
};

}  // namespace csm

#endif  // CSM_TEXT_TFIDF_H_
