#include "ml/classifier.h"

#include <algorithm>

namespace csm {

void CellModel::AddTestRow(uint32_t item, const AtomRow& row) {
  AddItem(item, row.pos);
  test_counts_.push_back(ItemAtomRows{item, row.atom, 1});
}

void CellModel::FinishTestRows() {
  std::sort(test_counts_.begin(), test_counts_.end(),
            [](const ItemAtomRows& x, const ItemAtomRows& y) {
              return x.item != y.item ? x.item < y.item : x.atom < y.atom;
            });
  size_t out = 0;
  for (size_t i = 0; i < test_counts_.size(); ++i) {
    if (out > 0 && test_counts_[out - 1].item == test_counts_[i].item &&
        test_counts_[out - 1].atom == test_counts_[i].atom) {
      ++test_counts_[out - 1].rows;
    } else {
      test_counts_[out++] = test_counts_[i];
    }
  }
  test_counts_.resize(out);
}

}  // namespace csm
