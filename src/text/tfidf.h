// TF-IDF weighting over a corpus of word profiles.
//
// The TF-IDF matcher treats each attribute's value bag as a document; IDF
// is computed over the documents the corpus is built from, and similarity
// is the cosine of the TF-IDF-weighted vectors.
//
// The corpus is built once from all of its documents and numbers each
// token densely in one hash table beside its IDF, so scoring pays one
// lookup per token and no logarithm.  It also keeps each document's side
// of the cosine — the IDF of every entry and the IDF-weighted norm — so a
// cosine against a document (a session's target attribute) looks up only
// the other side's tokens, and CosineRow scores one profile against many
// documents without a lookup per pair.
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

  /// WeightedCosine of one profile `a` against many, bit for bit: `a`'s
  /// counts are scattered once by corpus token id into a ZeroedScratch
  /// (one double per corpus token, reset only at `a`'s tokens), and each
  /// Cosine against a document walks the document's entries in token
  /// order, adding (a.count x idf) x (b.count x idf) where the merge adds
  /// it.  A token `a` lacks adds (0 x idf) x (count x idf) = +0.0, an exact
  /// no-op on the non-negative sum, so each dot is the merge's.  A `b` that
  /// is not a document falls back to WeightedCosine.  The corpus and `a`
  /// must outlive the row.
  class CosineRow {
   public:
    CosineRow(const TfIdfCorpus& corpus, const WordProfile& a);
    ~CosineRow();
    CosineRow(const CosineRow&) = delete;
    CosineRow& operator=(const CosineRow&) = delete;

    /// corpus.WeightedCosine(a, b).
    double Cosine(const WordProfile& b) const;

   private:
    const TfIdfCorpus& corpus_;
    const WordProfile& a_;
    double a_norm_ = 0.0;
    std::vector<uint32_t> a_ids_;  // corpus id per entry, kUnseenToken if none
    ZeroedScratch counts_;         // a's count by corpus id
  };

 private:
  /// Corpus id of a token no document holds.
  static constexpr uint32_t kUnseenToken = ~uint32_t{0};

  /// A document's side of every cosine: each entry's corpus id and IDF, and
  /// the weighted norm.  A query keeps its entries' ids (kUnseenToken where
  /// no document holds the token) and its norm, and no IDFs.
  struct Document {
    std::vector<uint32_t> ids;  // per entry, in entry order
    std::vector<double> idf;    // per entry, in entry order
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

  /// The corpus id of `token`, or kUnseenToken.
  uint32_t IdOf(std::string_view token) const;

  /// The IDF of corpus id `id` (unseen_idf_ for kUnseenToken).
  double IdfOfId(uint32_t id) const {
    return id == kUnseenToken ? unseen_idf_ : idf_[id];
  }

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

  /// Dense corpus id of every token with df >= 1, in first-seen order,
  /// and each id's IDF.
  std::unordered_map<std::string, uint32_t, Hash, Eq> token_ids_;
  std::vector<double> idf_;
  std::vector<Document> documents_;  // documents, then queries
  std::unordered_map<const WordProfile*, size_t> document_of_;
  size_t num_documents_ = 0;
  /// IDF of a token no document holds (df = 0); 1 for the empty corpus.
  double unseen_idf_ = 1.0;
};

}  // namespace csm

#endif  // CSM_TEXT_TFIDF_H_
