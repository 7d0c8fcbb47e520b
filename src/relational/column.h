// Typed column segments for the columnar table store.
//
// Each attribute of a Table is stored as one Column: a contiguous typed
// vector (int64/double) with a null mask, or — for string attributes — a
// vector of 32-bit dictionary codes into a shared StringDictionary, so
// equality conditions compare integer codes instead of heap strings.
// Columns gather by position list (PosList) without re-encoding: a gathered
// string column shares its parent's dictionary, which is what makes
// candidate-view evaluation and view materialization cheap.

#ifndef CSM_RELATIONAL_COLUMN_H_
#define CSM_RELATIONAL_COLUMN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relational/value.h"

namespace csm {

/// A row position in a base table.  32 bits bound tables to ~4.2e9 rows
/// (CHECK-enforced on append) and halve the footprint of position lists.
using RowId = uint32_t;

/// Row positions of a base table, in ascending order when produced by a
/// condition scan.  The zero-copy representation of a select-only view.
using PosList = std::vector<RowId>;

/// Dictionary code marking a NULL string cell.
inline constexpr uint32_t kNullCode = 0xffffffffu;

/// PosList entry naming no row: Column::GatherPadded yields a NULL cell for
/// it (the padded side of an outer join).  Tables stay below 2^32-1 rows
/// (CHECK-enforced on append), so no real position equals it.
inline constexpr RowId kNullRow = 0xffffffffu;

/// An append-only string dictionary: code -> string and string -> code.
/// Codes are assigned in first-seen order, so the encoding of a table is a
/// deterministic function of its content (thread-count independent).
///
/// The strings live once, in values(); the string -> code index is an
/// open-addressing table of (hash tag, code) slots over them, with linear
/// probing at a load of at most 1/2.  Each code keeps its string's 64-bit
/// hash, so growing the index and inserting another dictionary's entries
/// (GetOrAddFrom) hash no string bytes.
class StringDictionary {
 public:
  /// Returns the code of `s`, adding it if absent.
  uint32_t GetOrAdd(std::string_view s);

  /// GetOrAdd(other.value(code)) that reuses `other`'s stored hash.
  uint32_t GetOrAddFrom(const StringDictionary& other, uint32_t code);

  /// The code of `s`, or nullopt when the dictionary does not contain it
  /// (the cheap "this literal cannot match any cell" test).
  std::optional<uint32_t> Find(std::string_view s) const;

  const std::string& value(uint32_t code) const;
  size_t size() const { return values_.size(); }

  /// std::hash<std::string_view> of value(code), stored at insertion.
  uint64_t hash(uint32_t code) const { return hashes_[code]; }

  /// Makes room for `n` more strings without regrowing the index.
  void Reserve(size_t n);

  /// Direct code -> string storage for bulk scan loops.  Codes read out of
  /// a column segment are valid by construction (validated on append), so
  /// indexing this skips the per-call bounds CHECK of value().
  const std::vector<std::string>& values() const { return values_; }

 private:
  /// One index slot: the high 32 bits of the string's hash (compared before
  /// any string bytes) and its code; kNullCode marks an empty slot.
  struct Slot {
    uint32_t tag = 0;
    uint32_t code = kNullCode;
  };

  /// The slot holding `s` (whose hash is `hash`), or the empty slot that
  /// ends its probe sequence.  Requires a non-empty index.
  size_t Probe(std::string_view s, uint64_t hash) const;
  uint32_t Insert(std::string_view s, uint64_t hash);
  /// Rebuilds the index with `capacity` slots (a power of two) from the
  /// stored hashes.
  void Rehash(size_t capacity);

  std::vector<std::string> values_;
  std::vector<uint64_t> hashes_;  // parallel to values_
  std::vector<Slot> slots_;       // empty, or a power of two >= 2 * size()
};

/// One attribute's segment: typed storage plus null handling.
///
///   kInt    ints_ + nulls_ (1 byte per row; a null row's payload is 0)
///   kReal   reals_ + nulls_
///   kString codes_ into dict_ (kNullCode marks NULL; no separate mask)
///   kNull   nulls_ only (every cell is NULL by construction)
///
/// Mutation (Append*/PopBack) is single-writer; concurrent reads of a
/// non-mutating Column are safe.  Gather() shares the dictionary with the
/// parent column; a later Append to either side clones the dictionary
/// first (copy-on-write), so shared encodings never diverge.
class Column {
 public:
  Column() = default;
  explicit Column(ValueType type);

  ValueType type() const { return type_; }
  size_t size() const { return size_; }

  bool IsNull(size_t i) const;

  /// Boxes cell `i` back into a Value (exact round trip of Append).
  Value GetValue(size_t i) const;

  /// Hash of cell `i`, identical to GetValue(i).Hash().
  uint64_t CellHash(size_t i) const;

  /// Appends GetValue(i).ToString() to `out` without boxing the cell (a
  /// NULL cell appends nothing).
  void AppendRendering(size_t i, std::string* out) const;

  /// Appends GetValue(i) for every cell to `out`, with the type switch
  /// hoisted out of the row loop (the bulk boxing path of ValueBag).
  void BoxAllTo(std::vector<Value>* out) const;

  /// Appends GetValue(p) for each position in `positions` to `out`.
  void BoxGatheredTo(const PosList& positions, std::vector<Value>* out) const;

  /// Appends `v`; CHECK-fails unless v is NULL or matches type().
  void Append(const Value& v);
  void AppendNull();

  /// Appends the string cell `s` without boxing it; CHECK-fails unless
  /// type() is kString.
  void AppendString(std::string_view s);

  /// Parses `text` directly into the segment with Value::Parse semantics
  /// (trimmed-empty parses as NULL; string cells keep the untrimmed text),
  /// without constructing an intermediate Value.
  Status AppendParsed(std::string_view text);

  /// Removes the last cell (ingest rollback on a failed row).
  void PopBack();

  /// Appends every cell of `other` (same type; CHECK-enforced) — the merge
  /// step of parallel CSV ingest and of ExecuteMappings.  String cells are
  /// re-encoded into this column's dictionary lazily in `other`'s row
  /// order, so concatenating freshly parsed chunk columns reproduces the
  /// exact first-seen dictionary order (and therefore the exact codes) a
  /// single serial parse of the concatenated rows would have produced.
  /// Dictionary entries of `other` that no row references are not copied.
  /// When this dictionary is empty and `other`'s is already exactly that
  /// re-encoding (every entry referenced, in first-seen order), the
  /// dictionary is shared instead of rebuilt.
  void AppendFrom(const Column& other);

  void Reserve(size_t n);

  /// New column with the cells at `positions`, in order.  String columns
  /// share this column's dictionary (no string copies).
  Column Gather(const PosList& positions) const;

  /// Gather() that also accepts kNullRow entries, each yielding a NULL
  /// cell.
  Column GatherPadded(const PosList& positions) const;

  // Typed raw access for scan loops.  Only the vectors matching type() are
  // populated; see the class comment.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& reals() const { return reals_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  /// Null mask for kInt/kReal/kNull columns (1 = NULL).
  const std::vector<uint8_t>& null_mask() const { return nulls_; }
  /// Dictionary of a kString column; CHECK-fails otherwise.
  const StringDictionary& dictionary() const;

  /// Code of string value `s` in this column's dictionary, or nullopt when
  /// the column is not a string column or never saw `s`.
  std::optional<uint32_t> CodeFor(std::string_view s) const;

 private:
  void EnsureOwnDictionary();

  ValueType type_ = ValueType::kString;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> reals_;
  std::vector<uint32_t> codes_;
  std::vector<uint8_t> nulls_;
  std::shared_ptr<StringDictionary> dict_;
};

}  // namespace csm

#endif  // CSM_RELATIONAL_COLUMN_H_
