#include "text/gram.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "check/invariants.h"
#include "common/logging.h"
#include "text/tokenizer.h"

namespace csm {
namespace {

/// The padded gram alphabet in byte order: its index is a symbol's digit.
constexpr std::string_view kGramAlphabet =
    " #0123456789abcdefghijklmnopqrstuvwxyz";
static_assert(kGramAlphabet.size() == kGramSymbols);

/// Digit of each byte in kGramAlphabet; kNotSymbol for every other byte.
constexpr uint8_t kNotSymbol = 0xff;
constexpr std::array<uint8_t, 256> kSymbolOf = [] {
  std::array<uint8_t, 256> table{};
  table.fill(kNotSymbol);
  for (size_t d = 0; d < kGramAlphabet.size(); ++d) {
    table[static_cast<uint8_t>(kGramAlphabet[d])] = static_cast<uint8_t>(d);
  }
  return table;
}();

/// Fills `*scratch` with (q-1) '#', NormalizeText(text), (q-1) '#' in one
/// pass; false (no grams, the QGrams contract) when the text has no word
/// character.
bool PadNormalized(std::string_view text, size_t q, std::string* scratch) {
  scratch->assign(q - 1, '#');
  bool pending_space = false;
  bool any = false;
  for (char c : text) {
    if (IsWordChar(c)) {
      if (pending_space && any) *scratch += ' ';
      pending_space = false;
      *scratch += ToLowerChar(c);
      any = true;
    } else {
      pending_space = true;
    }
  }
  if (!any) return false;
  scratch->append(q - 1, '#');
  return true;
}

}  // namespace

TokenKernelStats& GlobalTokenKernelStats() {
  static TokenKernelStats* stats = new TokenKernelStats();
  return *stats;
}

GramId PackGram(std::string_view gram) {
  CSM_CHECK_LE(gram.size(), kMaxPackedGramQ);
  GramId id = 0;
  for (char c : gram) {
    id = (id << 8) | static_cast<uint8_t>(c);
  }
  return id;
}

std::string UnpackGram(GramId id, size_t q) {
  CSM_CHECK_LE(q, kMaxPackedGramQ);
  std::string gram(q, '\0');
  for (size_t i = q; i-- > 0;) {
    gram[i] = static_cast<char>(id & 0xffu);
    id >>= 8;
  }
  return gram;
}

void AppendPackedQGrams(std::string_view text, size_t q, std::string* scratch,
                        std::vector<GramId>* out) {
  if (q == 0) return;
  CSM_CHECK_LE(q, kMaxPackedGramQ);
  if (!PadNormalized(text, q, scratch)) return;

  const char* data = scratch->data();
  const size_t n = scratch->size();
  out->reserve(out->size() + (n - q + 1));
  // Rolling big-endian pack: keep the low q bytes of a shifting window.
  const GramId mask =
      q == sizeof(GramId) ? ~GramId{0} : ((GramId{1} << (8 * q)) - 1);
  GramId id = 0;
  for (size_t i = 0; i < n; ++i) {
    id = ((id << 8) | static_cast<uint8_t>(data[i])) & mask;
    if (i + 1 >= q) out->push_back(id);
  }
}

GramId GramOfRank(uint32_t rank) {
  CSM_CHECK_LT(rank, kNumGramRanks);
  const auto byte = [](uint32_t digit) {
    return static_cast<GramId>(static_cast<uint8_t>(kGramAlphabet[digit]));
  };
  return byte(rank / (kGramSymbols * kGramSymbols)) << 16 |
         byte(rank / kGramSymbols % kGramSymbols) << 8 |
         byte(rank % kGramSymbols);
}

void AppendQGramRanks(std::string_view text, std::string* scratch,
                      std::vector<uint32_t>* out) {
  if (!PadNormalized(text, kProfileGramQ, scratch)) return;
  // Every padded byte is in the alphabet (IsWordChar is ASCII), so each
  // digit lookup hits.
  const uint8_t* data = reinterpret_cast<const uint8_t*>(scratch->data());
  const size_t n = scratch->size();
  out->reserve(out->size() + (n - 2));
  for (size_t i = 0; i + 2 < n; ++i) {
    const uint32_t a = kSymbolOf[data[i]];
    const uint32_t b = kSymbolOf[data[i + 1]];
    const uint32_t c = kSymbolOf[data[i + 2]];
    out->push_back((a * kGramSymbols + b) * kGramSymbols + c);
  }
}

GramRankSlots::GramRankSlots() {
  thread_local Table thread_table;
  table_ = &thread_table;
  if (table_->borrowed) {
    own_ = std::make_unique<Table>();
    table_ = own_.get();
  }
  table_->borrowed = true;
}

GramRankSlots::~GramRankSlots() {
  Clear();
  table_->borrowed = false;
}

void GramRankSlots::Clear() {
  if (size_ == 0) return;
  for (size_t w = 0; w < table_->touched.size(); ++w) {
    for (uint64_t bits = table_->touched[w]; bits != 0; bits &= bits - 1) {
      table_->slot_plus_one[w * 64 + std::countr_zero(bits)] = 0;
    }
    table_->touched[w] = 0;
  }
  size_ = 0;
}

GramId TokenInterner::GetOrAdd(std::string_view token) {
  if (2 * (size() + 1) > slots_.size()) {
    Rehash(std::max<size_t>(16, 2 * slots_.size()));
  }
  const uint32_t tag =
      static_cast<uint32_t>(std::hash<std::string_view>{}(token) >> 32);
  const size_t mask = slots_.size() - 1;
  for (size_t slot = tag & mask;; slot = (slot + 1) & mask) {
    Slot& s = slots_[slot];
    if (s.id == kNoToken) {
      s = Slot{tag, static_cast<GramId>(size())};
      bytes_.append(token);
      starts_.push_back(static_cast<uint32_t>(bytes_.size()));
      GlobalTokenKernelStats().grams_interned.fetch_add(
          1, std::memory_order_relaxed);
      return s.id;
    }
    if (s.tag == tag && value(s.id) == token) return s.id;
  }
}

void TokenInterner::Reserve(size_t tokens) {
  const size_t capacity = std::bit_ceil(std::max<size_t>(16, 2 * tokens));
  if (capacity > slots_.size()) Rehash(capacity);
  starts_.reserve(tokens + 1);
}

void TokenInterner::Rehash(size_t capacity) {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (const Slot& s : old) {
    if (s.id == kNoToken) continue;
    size_t slot = s.tag & mask;
    while (slots_[slot].id != kNoToken) slot = (slot + 1) & mask;
    slots_[slot] = s;
  }
}

GramProfile::GramProfile(std::vector<Entry> entries, double total)
    : entries_(std::move(entries)), total_(total) {
  double sum_sq = 0.0;
  for (const Entry& e : entries_) sum_sq += e.count * e.count;
  norm_ = std::sqrt(sum_sq);
}

double GramProfile::Dot(const GramProfile& other) const {
  double dot = 0.0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->id < b->id) {
      ++a;
    } else if (b->id < a->id) {
      ++b;
    } else {
      dot += a->count * b->count;
      ++a;
      ++b;
    }
  }
  return dot;
}

void GramProfileBuilder::AddText(std::string_view text, double count) {
  ranks_.clear();
  AppendQGramRanks(text, &scratch_, &ranks_);
  for (uint32_t rank : ranks_) {
    const uint32_t slot = slots_.Touch(rank);
    if (slot == counts_.size()) counts_.push_back(0.0);
    counts_[slot] += count;
    total_ += count;
  }
}

GramProfile GramProfileBuilder::Build() {
  std::vector<GramProfile::Entry> entries;
  entries.reserve(counts_.size());
  slots_.ForEachInRankOrder([&](uint32_t rank, uint32_t slot) {
    entries.push_back({GramOfRank(rank), counts_[slot]});
  });
  GlobalTokenKernelStats().grams_interned.fetch_add(
      entries.size(), std::memory_order_relaxed);
  GramProfile profile(std::move(entries), total_);
  slots_.Clear();
  counts_.clear();
  total_ = 0.0;
  return profile;
}

size_t WordProfile::IntersectionSize(const WordProfile& other) const {
  size_t n = 0;
  auto a = entries_.begin();
  auto b = other.entries_.begin();
  while (a != entries_.end() && b != other.entries_.end()) {
    if (a->token < b->token) {
      ++a;
    } else if (b->token < a->token) {
      ++b;
    } else {
      ++n;
      ++a;
      ++b;
    }
  }
  return n;
}

void WordProfileBuilder::Add(std::string_view token, double count) {
  if (interner_ == nullptr) interner_ = std::make_shared<TokenInterner>();
  const GramId id = interner_->GetOrAdd(token);
  if (id >= counts_.size()) counts_.resize(id + 1, 0.0);
  counts_[id] += count;
  total_ += count;
}

void WordProfileBuilder::Reserve(size_t tokens) {
  if (interner_ == nullptr) interner_ = std::make_shared<TokenInterner>();
  interner_->Reserve(tokens);
  counts_.reserve(tokens);
}

void WordProfileBuilder::AddText(std::string_view text, double count) {
  token_scratch_.clear();
  for (char c : text) {
    if (IsWordChar(c)) {
      token_scratch_ += ToLowerChar(c);
    } else if (!token_scratch_.empty()) {
      Add(token_scratch_, count);
      token_scratch_.clear();
    }
  }
  if (!token_scratch_.empty()) {
    Add(token_scratch_, count);
    token_scratch_.clear();
  }
}

WordProfile WordProfileBuilder::Build() {
  // The interner takes no more adds, so its views are final.
  std::vector<WordProfile::Entry> entries;
  const size_t n = interner_ == nullptr ? 0 : interner_->size();
  entries.reserve(n);
  for (GramId id = 0; id < n; ++id) {
    entries.push_back({interner_->value(id), counts_[id]});
  }
  std::sort(entries.begin(), entries.end(),
            [](const WordProfile::Entry& a, const WordProfile::Entry& b) {
              return a.token < b.token;
            });
  WordProfile profile(std::move(interner_), std::move(entries), total_);
  counts_.clear();
  total_ = 0.0;
  return profile;
}

double CosineSimilarity(const GramProfile& a, const GramProfile& b) {
  if (a.empty() || b.empty()) return 0.0;
  double denom = a.Norm() * b.Norm();
  if (denom == 0.0) return 0.0;
  return a.Dot(b) / denom;
}

double DiceSimilarity(const WordProfile& a, const WordProfile& b) {
  size_t total = a.num_distinct() + b.num_distinct();
  if (total == 0) return 0.0;
  return 2.0 * static_cast<double>(a.IntersectionSize(b)) /
         static_cast<double>(total);
}

uint32_t RankOfGram(GramId id) {
  if ((id >> 24) != 0) return kNumGramRanks;
  const uint32_t a = kSymbolOf[(id >> 16) & 0xffu];
  const uint32_t b = kSymbolOf[(id >> 8) & 0xffu];
  const uint32_t c = kSymbolOf[id & 0xffu];
  if (a == kNotSymbol || b == kNotSymbol || c == kNotSymbol) {
    return kNumGramRanks;
  }
  return (a * kGramSymbols + b) * kGramSymbols + c;
}

ZeroedScratch::ZeroedScratch(size_t size) {
  thread_local Buffer thread_buffer;
  buffer_ = &thread_buffer;
  if (buffer_->borrowed || size > kMaxThreadDoubles) {
    own_ = std::make_unique<Buffer>();
    buffer_ = own_.get();
  }
  buffer_->borrowed = true;
  if (buffer_->values.size() < size) buffer_->values.resize(size, 0.0);
  data_ = buffer_->values.data();
}

ZeroedScratch::~ZeroedScratch() { buffer_->borrowed = false; }

static_assert(kNumGramRanks <= ZeroedScratch::kMaxThreadDoubles);

GramCosineRow::GramCosineRow(const GramProfile& a)
    : a_(a), counts_(kNumGramRanks) {
  for (const GramProfile::Entry& e : a_.entries()) {
    const uint32_t rank = RankOfGram(e.id);
    CSM_CHECK_LT(rank, kNumGramRanks) << "not a padded 3-gram: " << e.id;
    counts_.data()[rank] = e.count;
  }
}

GramCosineRow::~GramCosineRow() {
  for (const GramProfile::Entry& e : a_.entries()) {
    counts_.data()[RankOfGram(e.id)] = 0.0;
  }
}

double GramCosineRow::Cosine(const GramProfile& b) const {
  // CosineSimilarity's guards and denominator, then Dot with a's side read
  // from the scatter.
  if (a_.empty() || b.empty()) return 0.0;
  const double denom = a_.Norm() * b.Norm();
  if (denom == 0.0) return 0.0;
  const double* counts = counts_.data();
  double dot = 0.0;
  for (const GramProfile::Entry& e : b.entries()) {
    const uint32_t rank = RankOfGram(e.id);
    CSM_INVARIANT_LT(rank, kNumGramRanks) << "not a padded 3-gram: " << e.id;
    dot += counts[rank] * e.count;
  }
  return dot / denom;
}

}  // namespace csm
