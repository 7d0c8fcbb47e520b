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
//   * Dense 3-gram ranks.  That padded alphabet has 38 symbols (' ', '#',
//     '0'-'9', 'a'-'z', in byte order), so a padded 3-gram is also a
//     base-38 number below 38^3 = 54,872 whose order is its GramId's.
//     Profile and vocabulary builds count through a 16-bit rank -> slot
//     table per thread (GramRankSlots) and emit in id order by walking a
//     touched-rank bitset: no hash aggregation and no sort.
//
//   * TokenInterner.  Word tokens (unbounded length) intern to dense ids in
//     first-seen order — the same determinism contract as StringDictionary:
//     the ids assigned to a token stream are a function of the stream alone.
//     The tokens share one byte arena and one open-addressing index.
//
//   * Flat profiles.  GramProfile / WordProfile store sorted (id, count) /
//     (token, count) vectors; the q-gram cosine (Dot) and the word Dice
//     coefficient (IntersectionSize) run as linear merges.  Counts are
//     exact integers (bag multiplicities), so every sum below 2^53 is
//     order-independent and the merges reproduce the map-based results bit
//     for bit; WordProfile
//     additionally keeps its entries in token-lexicographic order so that
//     the TF-IDF weighted sums (non-integer terms) accumulate in the exact
//     order the std::map iteration used.
//
// See DESIGN.md "Token kernel & classifier kernels".

#ifndef CSM_TEXT_GRAM_H_
#define CSM_TEXT_GRAM_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace csm {

/// A packed q-gram (q <= kMaxPackedGramQ) or an interned word-token id.
using GramId = uint32_t;

/// Largest q whose padded grams pack into a GramId.
inline constexpr size_t kMaxPackedGramQ = 4;

/// Process-wide kernel activity counters, surfaced as the
/// `text.grams_interned` metric.  Monotonic; readers take deltas around a
/// region of interest.
struct TokenKernelStats {
  std::atomic<uint64_t> grams_interned{0};
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

/// The q of every gram profile (QGramProfile and the per-code index):
/// padded 3-grams.
inline constexpr size_t kProfileGramQ = 3;

/// Number of symbols of the padded gram alphabet, and of dense 3-gram
/// ranks (38^3).
inline constexpr uint32_t kGramSymbols = 38;
inline constexpr uint32_t kNumGramRanks =
    kGramSymbols * kGramSymbols * kGramSymbols;

/// The packed padded 3-gram of dense rank `rank` < kNumGramRanks: a rank
/// is the gram's three alphabet symbols as a base-38 number, so rank order
/// is GramId order.
GramId GramOfRank(uint32_t rank);

/// Appends the ranks of the padded 3-grams of `text` (the grams of
/// AppendPackedQGrams(text, 3, ...), same order) to `*out`.
void AppendQGramRanks(std::string_view text, std::string* scratch,
                      std::vector<uint32_t>* out);

/// Compact scratch over dense 3-gram ranks.  Touch gives each distinct rank
/// a slot in first-touch order; ForEachInRankOrder then visits the touched
/// ranks in increasing rank (= GramId) order by walking a bitset.  Borrows
/// the calling thread's 16-bit rank -> slot table (107 KiB plus a 6.7 KiB
/// bitset, allocated on the thread's first use) and clears what it touched
/// on destruction, so a build costs O(distinct ranks + bitset words), not
/// O(kNumGramRanks).  A second borrower on the same thread (e.g. two
/// builders alive at once) gets a private table instead.  Use on the thread
/// that created it.
class GramRankSlots {
 public:
  GramRankSlots();
  ~GramRankSlots();
  GramRankSlots(const GramRankSlots&) = delete;
  GramRankSlots& operator=(const GramRankSlots&) = delete;

  /// The slot of `rank`, assigning the next one (== size()) on first touch.
  uint32_t Touch(uint32_t rank) {
    uint16_t& slot = table_->slot_plus_one[rank];
    if (slot == 0) {
      slot = static_cast<uint16_t>(++size_);
      table_->touched[rank / 64] |= uint64_t{1} << (rank % 64);
    }
    return slot - 1u;
  }

  /// The slot of `rank`, or size() when it was never touched.
  uint32_t Find(uint32_t rank) const {
    const uint16_t slot = table_->slot_plus_one[rank];
    return slot == 0 ? static_cast<uint32_t>(size_) : slot - 1u;
  }

  /// Number of distinct ranks touched.
  size_t size() const { return size_; }

  /// Calls visit(rank, slot) for every touched rank, ranks ascending.
  template <typename Visit>
  void ForEachInRankOrder(Visit&& visit) const {
    for (size_t w = 0; w < table_->touched.size(); ++w) {
      for (uint64_t bits = table_->touched[w]; bits != 0; bits &= bits - 1) {
        const uint32_t rank =
            static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        visit(rank, table_->slot_plus_one[rank] - 1u);
      }
    }
  }

  /// Forgets every touched rank.
  void Clear();

 private:
  /// Slot + 1 per rank (0 = untouched; 16 bits hold every slot, since
  /// kNumGramRanks < 2^16) and the touched-rank bitset.
  struct Table {
    std::vector<uint16_t> slot_plus_one =
        std::vector<uint16_t>(kNumGramRanks, 0);
    std::vector<uint64_t> touched =
        std::vector<uint64_t>((kNumGramRanks + 63) / 64, 0);
    bool borrowed = false;
  };

  Table* table_;
  std::unique_ptr<Table> own_;  // set when the thread's table was in use
  size_t size_ = 0;
};

/// An append-only token -> dense id map; ids are assigned in first-seen
/// order, so the encoding of a token stream is a deterministic function of
/// the stream (the StringDictionary contract, applied to tokens).
///
/// The tokens live back to back in one byte arena, and the index is one
/// open-addressing table of (hash tag, id) slots with linear probing at a
/// load of at most 1/2: no string or hash node per token.  An add may move
/// the arena, so take views (value()) only after the last add.
class TokenInterner {
 public:
  /// Returns the id of `token`, adding it if absent.
  GramId GetOrAdd(std::string_view token);

  /// Sizes the index for `tokens` tokens at once, so the adds up to that
  /// many never rehash; ids are unchanged.
  void Reserve(size_t tokens);

  /// The bytes of token `id`; valid until the next add.
  std::string_view value(GramId id) const {
    return std::string_view(bytes_.data() + starts_[id],
                            starts_[id + 1] - starts_[id]);
  }
  size_t size() const { return starts_.size() - 1; }

 private:
  /// One index slot: the upper half of the token's hash, which also picks
  /// its home slot, and its id; kNoToken marks an empty slot.
  struct Slot {
    uint32_t tag = 0;
    GramId id = kNoToken;
  };
  static constexpr GramId kNoToken = ~GramId{0};

  /// Rebuilds the index with `capacity` slots (a power of two).
  void Rehash(size_t capacity);

  std::string bytes_;  // every token, in id order
  /// Token id's bytes are [starts_[id], starts_[id + 1]) of bytes_.
  std::vector<uint32_t> starts_{0};
  std::vector<Slot> slots_;  // empty, or a power of two >= 2 * size()
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
  /// positive integer counts summing to `total`, and computes the norm.
  GramProfile(std::vector<Entry> entries, double total);

  bool empty() const { return entries_.empty(); }
  size_t num_distinct() const { return entries_.size(); }
  double total() const { return total_; }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Euclidean norm of the count vector (squares summed in id order),
  /// computed once at construction.
  double Norm() const { return norm_; }

  /// Dot product (linear merge over the sorted entries).
  double Dot(const GramProfile& other) const;

 private:
  std::vector<Entry> entries_;  // sorted by id
  double total_ = 0.0;
  double norm_ = 0.0;
};

/// Accumulates padded 3-gram counts by dense rank (GramRankSlots) and emits
/// profiles sorted by id.  Each gram's count sums its occurrences' weights
/// in the order they were added.  Reusable: Build() resets the builder.
/// Use on one thread.
class GramProfileBuilder {
 public:
  /// Tokenizes `text` into padded 3-grams and adds each occurrence with
  /// weight `count` — bit-identical totals to adding the text `count`
  /// times, because the counts are exact integers.
  void AddText(std::string_view text, double count = 1.0);

  GramProfile Build();

 private:
  GramRankSlots slots_;
  std::vector<double> counts_;  // by slot
  double total_ = 0.0;
  std::string scratch_;
  std::vector<uint32_t> ranks_;
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

  /// Number of distinct tokens in common (linear merge).
  size_t IntersectionSize(const WordProfile& other) const;

 private:
  std::shared_ptr<const TokenInterner> interner_;  // owns the token bytes
  std::vector<Entry> entries_;                     // sorted by token
  double total_ = 0.0;
};

/// Accumulates word-token counts through a TokenInterner and emits
/// lexicographically sorted profiles.  Build() hands its interner to the
/// profile, whose entries view the token bytes; the next Add starts a new
/// one.  Reusable: Build() resets the builder.
class WordProfileBuilder {
 public:
  /// Adds `count` occurrences of `token` (already a single word token).
  void Add(std::string_view token, double count = 1.0);

  /// Tokenizes `text` into word tokens (WordTokens semantics) and adds each
  /// occurrence with weight `count`.
  void AddText(std::string_view text, double count = 1.0);

  /// Sizes the interner for about `tokens` distinct tokens (e.g. a bag's
  /// distinct-value count) before the first add, so a large build does not
  /// grow its index by doubling; ids and profiles are unchanged.
  void Reserve(size_t tokens);

  WordProfile Build();

 private:
  std::shared_ptr<TokenInterner> interner_;  // null until the first Add
  std::vector<double> counts_;  // indexed by token id
  double total_ = 0.0;
  std::string token_scratch_;
};

/// The two similarity measures the matchers use (QGramMatcher's cosine,
/// NameMatcher's word Dice); formulas identical to the map-based reference
/// (check/token_profile.h).
double CosineSimilarity(const GramProfile& a, const GramProfile& b);
double DiceSimilarity(const WordProfile& a, const WordProfile& b);

/// The dense rank of a packed padded 3-gram (the inverse of GramOfRank);
/// kNumGramRanks or more for any other id.
uint32_t RankOfGram(GramId id);

/// A dense array of doubles, all zero when borrowed, taken from the calling
/// thread's scratch (grown to the largest size the thread has asked for,
/// up to kMaxThreadDoubles) the way GramRankSlots borrows its table; a
/// second borrower on the same thread, or a larger array, gets a private
/// one.  The borrower must zero every element it wrote before it lets go.
/// Use on the thread that created it.
class ZeroedScratch {
 public:
  /// The most a thread keeps between borrows: 0.5 MiB, room for a 3-gram
  /// row (kNumGramRanks) and a TF-IDF row over as many corpus tokens.
  static constexpr size_t kMaxThreadDoubles = size_t{1} << 16;

  explicit ZeroedScratch(size_t size);
  ~ZeroedScratch();
  ZeroedScratch(const ZeroedScratch&) = delete;
  ZeroedScratch& operator=(const ZeroedScratch&) = delete;

  double* data() const { return data_; }

 private:
  struct Buffer {
    std::vector<double> values;
    bool borrowed = false;
  };

  Buffer* buffer_;
  std::unique_ptr<Buffer> own_;  // set when the thread's buffer won't do
  double* data_;
};

/// CosineSimilarity of one padded 3-gram profile `a` against many, bit for
/// bit: `a`'s counts are scattered by dense rank into a ZeroedScratch once
/// (0.42 MiB, reset only at `a`'s ranks), and each Cosine walks the other
/// profile's entries in id order, adding a.count x b.count where Dot's
/// merge adds it.  A gram `a` lacks adds 0 x count = +0.0, an exact no-op
/// on the non-negative sum, so each dot is Dot's.  Every profile must hold
/// padded 3-grams (kProfileGramQ), as QGramProfile does.
class GramCosineRow {
 public:
  explicit GramCosineRow(const GramProfile& a);
  ~GramCosineRow();
  GramCosineRow(const GramCosineRow&) = delete;
  GramCosineRow& operator=(const GramCosineRow&) = delete;

  /// CosineSimilarity(a, b).
  double Cosine(const GramProfile& b) const;

 private:
  const GramProfile& a_;
  ZeroedScratch counts_;  // a's count by rank
};

}  // namespace csm

#endif  // CSM_TEXT_GRAM_H_
