#include "relational/column.h"

#include <algorithm>
#include <charconv>
#include <functional>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace csm {

namespace {

/// Smallest non-empty index; a dictionary that never sees a string
/// allocates none.
constexpr size_t kMinSlots = 16;

uint64_t HashString(std::string_view s) {
  // Equal to std::hash<std::string> of the same bytes, which is what lets
  // Column::CellHash read the stored hash.
  return std::hash<std::string_view>{}(s);
}

}  // namespace

uint32_t StringDictionary::GetOrAdd(std::string_view s) {
  return Insert(s, HashString(s));
}

uint32_t StringDictionary::GetOrAddFrom(const StringDictionary& other,
                                        uint32_t code) {
  return Insert(other.value(code), other.hashes_[code]);
}

size_t StringDictionary::Probe(std::string_view s, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  size_t i = hash & mask;
  while (slots_[i].code != kNullCode &&
         (slots_[i].tag != tag || values_[slots_[i].code] != s)) {
    i = (i + 1) & mask;
  }
  return i;
}

uint32_t StringDictionary::Insert(std::string_view s, uint64_t hash) {
  if (slots_.empty()) Rehash(kMinSlots);
  const size_t i = Probe(s, hash);
  if (slots_[i].code != kNullCode) return slots_[i].code;
  CSM_CHECK_LT(values_.size(), static_cast<size_t>(kNullCode))
      << "string dictionary full";
  const uint32_t code = static_cast<uint32_t>(values_.size());
  values_.emplace_back(s);
  hashes_.push_back(hash);
  if (2 * values_.size() > slots_.size()) {
    Rehash(2 * slots_.size());
  } else {
    slots_[i] = {static_cast<uint32_t>(hash >> 32), code};
  }
  return code;
}

void StringDictionary::Rehash(size_t capacity) {
  slots_.assign(capacity, Slot{});
  const size_t mask = capacity - 1;
  for (uint32_t code = 0; code < hashes_.size(); ++code) {
    size_t i = hashes_[code] & mask;
    while (slots_[i].code != kNullCode) i = (i + 1) & mask;
    slots_[i] = {static_cast<uint32_t>(hashes_[code] >> 32), code};
  }
}

std::optional<uint32_t> StringDictionary::Find(std::string_view s) const {
  if (slots_.empty()) return std::nullopt;
  const size_t i = Probe(s, HashString(s));
  if (slots_[i].code == kNullCode) return std::nullopt;
  return slots_[i].code;
}

void StringDictionary::Reserve(size_t n) {
  const size_t want = values_.size() + n;
  values_.reserve(want);
  hashes_.reserve(want);
  size_t capacity = std::max(kMinSlots, slots_.size());
  while (capacity < 2 * want) capacity *= 2;
  if (capacity != slots_.size()) Rehash(capacity);
}

const std::string& StringDictionary::value(uint32_t code) const {
  CSM_CHECK_LT(code, values_.size());
  return values_[code];
}

Column::Column(ValueType type) : type_(type) {
  if (type_ == ValueType::kString) {
    dict_ = std::make_shared<StringDictionary>();
  }
}

bool Column::IsNull(size_t i) const {
  CSM_CHECK_LT(i, size_);
  if (type_ == ValueType::kString) return codes_[i] == kNullCode;
  return nulls_[i] != 0;
}

Value Column::GetValue(size_t i) const {
  CSM_CHECK_LT(i, size_);
  switch (type_) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt:
      return nulls_[i] ? Value::Null() : Value::Int(ints_[i]);
    case ValueType::kReal:
      return nulls_[i] ? Value::Null() : Value::Real(reals_[i]);
    case ValueType::kString:
      return codes_[i] == kNullCode ? Value::Null()
                                    : Value::String(dict_->value(codes_[i]));
  }
  return Value::Null();
}

void Column::BoxAllTo(std::vector<Value>* out) const {
  // emplace_back constructs each Value directly in the vector storage with
  // the alternative known at compile time: one construction per cell, no
  // temporary + move and no per-cell variant dispatch.
  out->reserve(out->size() + size_);
  switch (type_) {
    case ValueType::kNull:
      for (size_t i = 0; i < size_; ++i) out->emplace_back();
      break;
    case ValueType::kInt:
      for (size_t i = 0; i < size_; ++i) {
        if (nulls_[i]) out->emplace_back();
        else out->emplace_back(ints_[i]);
      }
      break;
    case ValueType::kReal:
      for (size_t i = 0; i < size_; ++i) {
        if (nulls_[i]) out->emplace_back();
        else out->emplace_back(reals_[i]);
      }
      break;
    case ValueType::kString: {
      const std::vector<std::string>& strings = dict_->values();
      for (size_t i = 0; i < size_; ++i) {
        if (codes_[i] == kNullCode) out->emplace_back();
        else out->emplace_back(strings[codes_[i]]);
      }
      break;
    }
  }
}

void Column::BoxGatheredTo(const PosList& positions,
                           std::vector<Value>* out) const {
  out->reserve(out->size() + positions.size());
  switch (type_) {
    case ValueType::kNull:
      for (size_t i = 0; i < positions.size(); ++i) out->emplace_back();
      break;
    case ValueType::kInt:
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        if (nulls_[p]) out->emplace_back();
        else out->emplace_back(ints_[p]);
      }
      break;
    case ValueType::kReal:
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        if (nulls_[p]) out->emplace_back();
        else out->emplace_back(reals_[p]);
      }
      break;
    case ValueType::kString: {
      const std::vector<std::string>& strings = dict_->values();
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        if (codes_[p] == kNullCode) out->emplace_back();
        else out->emplace_back(strings[codes_[p]]);
      }
      break;
    }
  }
}

uint64_t Column::CellHash(size_t i) const {
  CSM_CHECK_LT(i, size_);
  // Must stay formula-identical to Value::Hash() — the differential fuzzer
  // and the engine's sample-fingerprint cache keys both depend on it.
  constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ULL;
  switch (type_) {
    case ValueType::kNull:
      return kNullHash;
    case ValueType::kInt:
      return nulls_[i] ? kNullHash : std::hash<int64_t>{}(ints_[i]) * 3 + 1;
    case ValueType::kReal:
      return nulls_[i] ? kNullHash : Value::Real(reals_[i]).Hash();
    case ValueType::kString:
      return codes_[i] == kNullCode ? kNullHash
                                    : dict_->hash(codes_[i]) * 3;
  }
  return 0;
}

void Column::AppendRendering(size_t i, std::string* out) const {
  if (IsNull(i)) return;
  switch (type_) {
    case ValueType::kNull:
      break;
    case ValueType::kInt: {
      char buf[24];
      const std::to_chars_result r =
          std::to_chars(buf, buf + sizeof(buf), ints_[i]);
      out->append(buf, r.ptr);
      break;
    }
    case ValueType::kReal:
      out->append(RenderReal(reals_[i]).view());
      break;
    case ValueType::kString:
      out->append(dict_->values()[codes_[i]]);
      break;
  }
}

void Column::Append(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  CSM_CHECK(v.type() == type_)
      << "column type mismatch: expected " << ValueTypeToString(type_)
      << ", got " << ValueTypeToString(v.type());
  switch (type_) {
    case ValueType::kNull:
      break;  // unreachable: non-null v never has type kNull
    case ValueType::kInt:
      ints_.push_back(v.AsInt());
      nulls_.push_back(0);
      break;
    case ValueType::kReal:
      reals_.push_back(v.AsReal());
      nulls_.push_back(0);
      break;
    case ValueType::kString:
      EnsureOwnDictionary();
      codes_.push_back(dict_->GetOrAdd(v.AsString()));
      break;
  }
  ++size_;
}

void Column::AppendString(std::string_view s) {
  CSM_CHECK(type_ == ValueType::kString)
      << "column type mismatch: expected " << ValueTypeToString(type_)
      << ", got string";
  EnsureOwnDictionary();
  codes_.push_back(dict_->GetOrAdd(s));
  ++size_;
}

void Column::AppendNull() {
  switch (type_) {
    case ValueType::kNull:
      nulls_.push_back(1);
      break;
    case ValueType::kInt:
      ints_.push_back(0);
      nulls_.push_back(1);
      break;
    case ValueType::kReal:
      reals_.push_back(0.0);
      nulls_.push_back(1);
      break;
    case ValueType::kString:
      codes_.push_back(kNullCode);
      break;
  }
  ++size_;
}

Status Column::AppendParsed(std::string_view text) {
  // Mirrors Value::Parse exactly: trimmed-empty cells are NULL, numeric
  // cells must consume the whole trimmed text, string cells keep the
  // untrimmed original.
  std::string_view trimmed = Trim(text);
  if (trimmed.empty()) {
    AppendNull();
    return Status::Ok();
  }
  switch (type_) {
    case ValueType::kNull:
      AppendNull();
      return Status::Ok();
    case ValueType::kInt: {
      int64_t out = 0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), out);
      if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
        return Status::InvalidArgument("cannot parse int: '" +
                                       std::string(trimmed) + "'");
      }
      ints_.push_back(out);
      nulls_.push_back(0);
      ++size_;
      return Status::Ok();
    }
    case ValueType::kReal: {
      double out = 0;
      auto [ptr, ec] =
          std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), out);
      if (ec != std::errc() || ptr != trimmed.data() + trimmed.size()) {
        return Status::InvalidArgument("cannot parse real: '" +
                                       std::string(trimmed) + "'");
      }
      reals_.push_back(out);
      nulls_.push_back(0);
      ++size_;
      return Status::Ok();
    }
    case ValueType::kString:
      EnsureOwnDictionary();
      codes_.push_back(dict_->GetOrAdd(text));
      ++size_;
      return Status::Ok();
  }
  return Status::InvalidArgument("unknown value type");
}

void Column::PopBack() {
  CSM_CHECK_GT(size_, 0u);
  switch (type_) {
    case ValueType::kNull:
      nulls_.pop_back();
      break;
    case ValueType::kInt:
      ints_.pop_back();
      nulls_.pop_back();
      break;
    case ValueType::kReal:
      reals_.pop_back();
      nulls_.pop_back();
      break;
    case ValueType::kString:
      codes_.pop_back();
      break;
  }
  --size_;
}

namespace {

/// True when re-encoding `col`'s cells in row order into an empty
/// dictionary would reproduce its dictionary exactly: each new code is the
/// next unused one, and every entry is referenced.
bool IsFirstSeenEncoding(const Column& col) {
  uint32_t next = 0;
  for (uint32_t code : col.codes()) {
    if (code == kNullCode || code < next) continue;
    if (code != next) return false;
    ++next;
  }
  return next == col.dictionary().size();
}

}  // namespace

void Column::AppendFrom(const Column& other) {
  CSM_CHECK(other.type_ == type_)
      << "column type mismatch: expected " << ValueTypeToString(type_)
      << ", got " << ValueTypeToString(other.type_);
  switch (type_) {
    case ValueType::kNull:
      nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
      break;
    case ValueType::kInt:
      ints_.insert(ints_.end(), other.ints_.begin(), other.ints_.end());
      nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
      break;
    case ValueType::kReal:
      reals_.insert(reals_.end(), other.reals_.begin(), other.reals_.end());
      nulls_.insert(nulls_.end(), other.nulls_.begin(), other.nulls_.end());
      break;
    case ValueType::kString: {
      if (dict_->size() == 0 && IsFirstSeenEncoding(other)) {
        codes_.insert(codes_.end(), other.codes_.begin(), other.codes_.end());
        dict_ = other.dict_;
        break;
      }
      EnsureOwnDictionary();
      codes_.reserve(codes_.size() + other.codes_.size());
      // Into an empty dictionary (ExecuteMappings' first part) reserve for
      // every string `other` can add.  A growing one (a chunk merge) keeps
      // the dictionary's own geometric growth: reserving exactly per call
      // would rehash the whole index on every chunk.
      if (dict_->size() == 0) {
        dict_->Reserve(std::min(other.dict_->size(), other.codes_.size()));
      }
      // Lazy per-row remap: other's values enter this dictionary in the
      // order other's *rows* first reference them, which is exactly the
      // order a serial parse of the concatenated rows would have assigned.
      // Each enters with other's stored hash, so no string is hashed twice.
      // kNullCode doubles as the "not yet remapped" sentinel because no
      // real code can equal it (GetOrAdd CHECKs the dictionary below it).
      std::vector<uint32_t> remap(other.dict_->size(), kNullCode);
      for (uint32_t code : other.codes_) {
        if (code == kNullCode) {
          codes_.push_back(kNullCode);
          continue;
        }
        if (remap[code] == kNullCode) {
          remap[code] = dict_->GetOrAddFrom(*other.dict_, code);
        }
        codes_.push_back(remap[code]);
      }
      break;
    }
  }
  size_ += other.size_;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kNull:
      nulls_.reserve(n);
      break;
    case ValueType::kInt:
      ints_.reserve(n);
      nulls_.reserve(n);
      break;
    case ValueType::kReal:
      reals_.reserve(n);
      nulls_.reserve(n);
      break;
    case ValueType::kString:
      codes_.reserve(n);
      break;
  }
}

Column Column::Gather(const PosList& positions) const {
  Column out(type_);
  out.size_ = positions.size();
  switch (type_) {
    case ValueType::kNull:
      out.nulls_.assign(positions.size(), 1);
      break;
    case ValueType::kInt:
      out.ints_.reserve(positions.size());
      out.nulls_.reserve(positions.size());
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        out.ints_.push_back(ints_[p]);
        out.nulls_.push_back(nulls_[p]);
      }
      break;
    case ValueType::kReal:
      out.reals_.reserve(positions.size());
      out.nulls_.reserve(positions.size());
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        out.reals_.push_back(reals_[p]);
        out.nulls_.push_back(nulls_[p]);
      }
      break;
    case ValueType::kString:
      out.codes_.reserve(positions.size());
      for (RowId p : positions) {
        CSM_CHECK_LT(p, size_);
        out.codes_.push_back(codes_[p]);
      }
      // Share the encoding; a later Append to either column clones first.
      out.dict_ = dict_;
      break;
  }
  return out;
}

Column Column::GatherPadded(const PosList& positions) const {
  Column out(type_);
  out.size_ = positions.size();
  auto valid = [this](RowId p) {
    if (p == kNullRow) return false;
    CSM_CHECK_LT(p, size_);
    return true;
  };
  switch (type_) {
    case ValueType::kNull:
      out.nulls_.assign(positions.size(), 1);
      break;
    case ValueType::kInt:
      out.ints_.reserve(positions.size());
      out.nulls_.reserve(positions.size());
      for (RowId p : positions) {
        const bool present = valid(p);
        out.ints_.push_back(present ? ints_[p] : 0);
        out.nulls_.push_back(present ? nulls_[p] : 1);
      }
      break;
    case ValueType::kReal:
      out.reals_.reserve(positions.size());
      out.nulls_.reserve(positions.size());
      for (RowId p : positions) {
        const bool present = valid(p);
        out.reals_.push_back(present ? reals_[p] : 0.0);
        out.nulls_.push_back(present ? nulls_[p] : 1);
      }
      break;
    case ValueType::kString:
      out.codes_.reserve(positions.size());
      for (RowId p : positions) {
        out.codes_.push_back(valid(p) ? codes_[p] : kNullCode);
      }
      out.dict_ = dict_;
      break;
  }
  return out;
}

const StringDictionary& Column::dictionary() const {
  CSM_CHECK(type_ == ValueType::kString) << "not a string column";
  return *dict_;
}

std::optional<uint32_t> Column::CodeFor(std::string_view s) const {
  if (type_ != ValueType::kString) return std::nullopt;
  return dict_->Find(s);
}

void Column::EnsureOwnDictionary() {
  if (dict_.use_count() > 1) {
    dict_ = std::make_shared<StringDictionary>(*dict_);
  }
}

}  // namespace csm
