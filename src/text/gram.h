// The interned token kernel: packed q-gram ids, first-seen token interning
// and flat sorted count profiles.
//
// The map-based TokenProfile it replaced kept every gram as a heap
// std::string inside a std::map; it survives only as the fuzzers' reference
// (check/token_profile.h).  The hot scoring paths tokenize the same strings
// millions of times, and this kernel does it without changing a single
// score bit:
//
//   * Packed gram ids.  NormalizeText output is single-byte ([a-z0-9 ], plus
//     the '#' padding QGrams adds), so a padded q-gram with q <= 4 is at most
//     4 bytes and packs big-endian into a uint32_t GramId.  Packing is
//     injective for a fixed q, and big-endian order makes numeric id order
//     equal lexicographic gram order, so iterating a sorted flat profile
//     visits grams exactly as iterating the old std::map did.
//
//   * TokenInterner.  Word tokens (unbounded length) intern to dense ids in
//     first-seen order — the same determinism contract as StringDictionary:
//     the ids assigned to a token stream are a function of the stream alone.
//
//   * Flat profiles.  GramProfile / WordProfile store sorted (id, count) /
//     (token, count) vectors; Dot, IntersectionSize and the derived
//     similarity measures run as linear merges.  Counts are exact integers
//     (bag multiplicities), so every sum below 2^53 is order-independent and
//     the merges reproduce the map-based results bit for bit; WordProfile
//     additionally keeps its entries in token-lexicographic order so that
//     the TF-IDF weighted sums (non-integer terms) accumulate in the exact
//     order the std::map iteration used.
//
// See DESIGN.md "Token kernel & classifier memoization".

#ifndef CSM_TEXT_GRAM_H_
#define CSM_TEXT_GRAM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace csm {

/// A packed q-gram (q <= kMaxPackedGramQ) or an interned word-token id.
using GramId = uint32_t;

/// Largest q whose padded grams pack into a GramId.
inline constexpr size_t kMaxPackedGramQ = 4;

/// Process-wide kernel activity counters, surfaced as the
/// `text.grams_interned` / `ml.nb_memo_hits` metrics.  Monotonic; readers
/// take deltas around a region of interest.
struct TokenKernelStats {
  std::atomic<uint64_t> grams_interned{0};
  std::atomic<uint64_t> nb_memo_hits{0};
};

TokenKernelStats& GlobalTokenKernelStats();

/// Packs a gram of size() <= 4 bytes big-endian; injective for fixed size.
GramId PackGram(std::string_view gram);

/// Inverse of PackGram for a gram of length `q`.
std::string UnpackGram(GramId id, size_t q);

/// Appends the packed padded q-grams of `text` (same tokens, same order as
/// QGrams(text, q)) to `*out`.  `*scratch` is reused across calls for the
/// normalized+padded text.  Requires q <= kMaxPackedGramQ.
void AppendPackedQGrams(std::string_view text, size_t q, std::string* scratch,
                        std::vector<GramId>* out);

/// An append-only token -> dense id map; ids are assigned in first-seen
/// order, so the encoding of a token stream is a deterministic function of
/// the stream (the StringDictionary contract, applied to tokens).
class TokenInterner {
 public:
  /// Returns the id of `token`, adding it if absent.
  GramId GetOrAdd(std::string_view token);

  const std::string& value(GramId id) const { return tokens_[id]; }
  size_t size() const { return tokens_.size(); }

 private:
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

  std::deque<std::string> tokens_;  // stable addresses; index == id
  std::unordered_map<std::string_view, GramId, Hash, Eq> index_;
};

/// A flat q-gram multiset: (id, count) entries sorted by id.  Counts are
/// exact integer multiplicities stored in doubles.
class GramProfile {
 public:
  struct Entry {
    GramId id;
    double count;
  };

  GramProfile() = default;

  /// Adopts `entries`, which must be sorted by strictly increasing id with
  /// positive integer counts summing to `total`.
  GramProfile(std::vector<Entry> entries, double total)
      : entries_(std::move(entries)), total_(total) {}

  bool empty() const { return entries_.empty(); }
  size_t num_distinct() const { return entries_.size(); }
  double total() const { return total_; }
  const std::vector<Entry>& entries() const { return entries_; }

  double Count(GramId id) const;

  /// Euclidean norm of the count vector.
  double Norm() const;

  /// Dot product (linear merge over the sorted entries).
  double Dot(const GramProfile& other) const;

  /// Number of distinct gram ids in common.
  size_t IntersectionSize(const GramProfile& other) const;

 private:
  std::vector<Entry> entries_;  // sorted by id
  double total_ = 0.0;
};

/// Accumulates gram counts (hash aggregation) and emits sorted profiles.
/// Reusable: Build() resets the builder.
class GramProfileBuilder {
 public:
  void Add(GramId id, double count = 1.0);

  /// Tokenizes `text` into padded q-grams and adds each occurrence with
  /// weight `count` — bit-identical totals to adding the text `count`
  /// times, because the counts are exact integers.
  void AddText(std::string_view text, size_t q, double count = 1.0);

  GramProfile Build();

 private:
  std::unordered_map<GramId, double> counts_;
  double total_ = 0.0;
  std::string scratch_;
  std::vector<GramId> ids_;
};

/// A flat word-token multiset.  Entries are sorted by token string
/// (lexicographic — the old std::map iteration order), with the token bytes
/// owned by a shared interner so profiles are cheap to copy.
class WordProfile {
 public:
  struct Entry {
    std::string_view token;
    double count;
  };

  WordProfile() = default;

  /// Adopts `entries`, which must be sorted by strictly increasing token
  /// with positive integer counts summing to `total`; `interner` owns the
  /// token bytes the entries view.
  WordProfile(std::shared_ptr<const TokenInterner> interner,
              std::vector<Entry> entries, double total)
      : interner_(std::move(interner)),
        entries_(std::move(entries)),
        total_(total) {}

  bool empty() const { return entries_.empty(); }
  size_t num_distinct() const { return entries_.size(); }
  double total() const { return total_; }
  const std::vector<Entry>& entries() const { return entries_; }

  double Count(std::string_view token) const;

  double Norm() const;
  double Dot(const WordProfile& other) const;
  size_t IntersectionSize(const WordProfile& other) const;

 private:
  std::shared_ptr<const TokenInterner> interner_;  // owns the token bytes
  std::vector<Entry> entries_;                     // sorted by token
  double total_ = 0.0;
};

/// Accumulates word-token counts through a fresh TokenInterner and emits
/// lexicographically sorted profiles.  Reusable: Build() resets the builder.
class WordProfileBuilder {
 public:
  WordProfileBuilder();

  /// Adds `count` occurrences of `token` (already a single word token).
  void Add(std::string_view token, double count = 1.0);

  /// Tokenizes `text` into word tokens (WordTokens semantics) and adds each
  /// occurrence with weight `count`.
  void AddText(std::string_view text, double count = 1.0);

  WordProfile Build();

 private:
  std::shared_ptr<TokenInterner> interner_;
  std::vector<double> counts_;  // indexed by token id
  double total_ = 0.0;
  std::string token_scratch_;
};

/// Similarity measures over the flat representations; formulas identical
/// to the map-based reference (check/token_profile.h).
double CosineSimilarity(const GramProfile& a, const GramProfile& b);
double JaccardSimilarity(const GramProfile& a, const GramProfile& b);
double DiceSimilarity(const GramProfile& a, const GramProfile& b);
double OverlapSimilarity(const GramProfile& a, const GramProfile& b);

double CosineSimilarity(const WordProfile& a, const WordProfile& b);
double JaccardSimilarity(const WordProfile& a, const WordProfile& b);
double DiceSimilarity(const WordProfile& a, const WordProfile& b);
double OverlapSimilarity(const WordProfile& a, const WordProfile& b);

}  // namespace csm

#endif  // CSM_TEXT_GRAM_H_
