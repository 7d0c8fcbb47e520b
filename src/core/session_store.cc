#include "core/session_store.h"

#include <cstdio>

#include "match/matchers.h"

namespace csm {
namespace {

uint64_t HashString(uint64_t h, const std::string& s) {
  h = MixFingerprint(h, s.size());
  for (char c : s) h = MixFingerprint(h, static_cast<unsigned char>(c));
  return h;
}

/// Folds `table`'s name, schema, row count and cells into `h`.
uint64_t FoldTable(uint64_t h, const Table& table) {
  h = HashString(h, table.name());
  h = HashString(h, table.schema().ToString());
  h = MixFingerprint(h, table.num_rows());
  // Row-major over the column segments: the same hash sequence the old
  // row-store loop produced (Column::CellHash == Value::Hash), without
  // boxing a Value per cell.
  const size_t num_cols = table.schema().num_attributes();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < num_cols; ++c) {
      h = MixFingerprint(h, table.column(c).CellHash(r));
    }
  }
  return h;
}

constexpr char kBlobMagic[] = "csm-sessions 1";

}  // namespace

uint64_t MixFingerprint(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

uint64_t FingerprintDatabase(const Database& db) {
  uint64_t h = HashString(0x811c9dc5u, db.name());
  h = MixFingerprint(h, db.tables().size());
  for (const Table& table : db.tables()) h = FoldTable(h, table);
  return h;
}

uint64_t FingerprintTableContent(const Table& table) {
  return FoldTable(0x7461626c65667031ULL, table);  // "tablefp1"
}

uint64_t FingerprintMatchOptions(const MatchOptions& options) {
  uint64_t h = 0x6d617463686f7074ULL;  // "matchopt"
  h = MixFingerprint(h, options.min_non_null_values);
  h = MixFingerprint(h, options.blend_raw_score ? 1 : 0);
  // The training cap changes the bags a session trains on, so cold blobs
  // recorded under a different cap or sample seed must never restore.
  h = MixFingerprint(h, options.max_training_rows);
  h = MixFingerprint(h, options.training_sample_seed);
  return h;
}

std::string SerializeSessionScores(
    const std::vector<std::unique_ptr<TableMatchSession>>& sessions) {
  std::string blob = kBlobMagic;
  blob.push_back('\n');
  char buf[64];
  std::snprintf(buf, sizeof(buf), "tables %zu\n", sessions.size());
  blob.append(buf);
  for (const auto& session : sessions) {
    blob.append("table ");
    blob.append(session->source_table());
    blob.push_back('\n');
    session->AppendSerializedScores(&blob);
  }
  return blob;
}

StatusOr<std::vector<TableMatchSession::RestoredScores>> ParseSessionScores(
    const std::string& blob, const Database& source, const Database& target) {
  auto fail = [](const char* msg) {
    return Status::InvalidArgument(std::string("session blob: ") + msg);
  };
  size_t pos = 0;
  auto read_line = [&](std::string* line) {
    if (pos >= blob.size()) return false;
    size_t end = blob.find('\n', pos);
    if (end == std::string::npos) return false;
    *line = blob.substr(pos, end - pos);
    pos = end + 1;
    return true;
  };

  std::string line;
  if (!read_line(&line) || line != kBlobMagic) {
    return fail("bad magic / version");
  }
  size_t tables = 0;
  if (!read_line(&line) ||
      std::sscanf(line.c_str(), "tables %zu", &tables) != 1) {
    return fail("bad table count");
  }
  if (tables != source.tables().size()) {
    return fail("table count does not match the source database");
  }

  // The grid shape a session over (source table, target) holds; the
  // restore constructor CHECK-fails on any other.
  TableMatchSession::ScoreGridShape shape;
  shape.matchers = DefaultMatcherSuite().size();
  for (const Table& t : target.tables()) {
    shape.targets += t.schema().num_attributes();
  }
  std::vector<TableMatchSession::RestoredScores> out;
  out.reserve(tables);
  for (size_t i = 0; i < tables; ++i) {
    const Table& table = source.tables()[i];
    if (!read_line(&line) || line.rfind("table ", 0) != 0) {
      return fail("missing table header");
    }
    if (line.substr(6) != table.name()) {
      return fail("table name does not match the source database");
    }
    shape.sources = table.schema().num_attributes();
    auto scores = TableMatchSession::ParseSerializedScores(blob, &pos, shape);
    if (!scores.ok()) return scores.status();
    out.push_back(std::move(scores).value());
  }
  return out;
}

}  // namespace csm
