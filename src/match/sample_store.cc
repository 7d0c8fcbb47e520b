#include "match/sample_store.h"

#include "common/random.h"
#include "relational/sample.h"

namespace csm {

TableSamples::TableSamples(const Table& table, size_t max_training_rows,
                           uint64_t training_sample_seed)
    : table_name_(table.name()),
      max_training_rows_(max_training_rows),
      training_sample_seed_(training_sample_seed) {
  // The draw depends only on (cap, seed, table name, row count), so every
  // entry of one table content holds the same bags.
  const bool cap = max_training_rows > 0 && table.num_rows() > max_training_rows;
  Table capped;
  if (cap) {
    Rng rng(DeriveTableSampleSeed(training_sample_seed, table.name()));
    capped = ReservoirSampleRows(table, max_training_rows, rng);
  }
  const Table& rows = cap ? capped : table;
  attributes_.reserve(rows.schema().num_attributes());
  for (const auto& attr : rows.schema().attributes()) {
    attributes_.push_back(AttributeSample::FromTable(rows, attr.name));
  }
}

std::shared_ptr<const TableSamples> SampleStore::Resolve(
    uint64_t fingerprint, const Table& table, size_t max_training_rows,
    uint64_t training_sample_seed) {
  const Key key{fingerprint, max_training_rows, training_sample_seed};
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (std::shared_ptr<const TableSamples> live = it->second.lock()) {
      ++hits_;
      return live;
    }
  }
  ++misses_;
  // Sweep the entries whose last holder let go, so the map stays as small
  // as the live set plus this one.
  std::erase_if(entries_, [](const auto& e) { return e.second.expired(); });
  auto entry = std::make_shared<const TableSamples>(table, max_training_rows,
                                                    training_sample_seed);
  entries_[key] = entry;
  return entry;
}

}  // namespace csm
