#include "check/fingerprint.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace csm::check {

std::string FingerprintResult(const ContextMatchResult& r) {
  std::string out;
  out += "matches:\n";
  for (const Match& m : r.matches) out += "  " + m.ToString() + "\n";
  out += "selected_views:\n";
  for (const View& v : r.selected_views) {
    out += "  " + v.name() + "|" + v.base_table() + "|" +
           v.condition().ToString() + "\n";
  }
  out += "base_matches:\n";
  for (const Match& m : r.pool.base_matches) out += "  " + m.ToString() + "\n";
  out += "view_matches:\n";
  for (const Match& m : r.pool.view_matches) out += "  " + m.ToString() + "\n";
  out += "candidate_views:\n";
  for (const View& v : r.pool.candidate_views) {
    out += "  " + v.base_table() + "|" + v.condition().ToString() + "\n";
  }
  // Each entry prints as "<table>\x1d<condition>=<rows>", sorted by that
  // rendering: the text the goldens were recorded with.
  std::vector<std::pair<std::string, size_t>> row_counts;
  for (const auto& [id, count] : r.pool.view_row_counts) {
    row_counts.emplace_back(id.base_table + '\x1d' + id.condition.ToString(),
                            count);
  }
  std::sort(row_counts.begin(), row_counts.end());
  out += "view_row_counts:\n";
  for (const auto& [rendering, count] : row_counts) {
    out += "  " + rendering + "=" + std::to_string(count) + "\n";
  }
  return out;
}

std::string FingerprintTable(const Table& table) {
  std::string out = table.schema().ToString() + "\n";
  const size_t cols = table.schema().num_attributes();
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out += '\x1f';
      const Value v = table.ValueAt(r, c);
      // NULL renders as an unprintable tag a string cell cannot spell.
      out += v.is_null() ? std::string("\x01NULL") : v.ToString();
    }
    out += '\n';
  }
  return out;
}

}  // namespace csm::check
