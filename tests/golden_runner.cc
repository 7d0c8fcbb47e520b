// Golden-corpus runner: recomputes every case in src/check/golden.cc and
// diffs its serialized output against tests/golden/<case>.golden.
//
//   golden_runner <golden_dir>            # verify (exit 1 on divergence)
//   golden_runner <golden_dir> --update   # re-record expectations

#include <cstring>
#include <iostream>

#include "check/golden.h"

int main(int argc, char** argv) {
  const char* golden_dir = nullptr;
  bool update = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update") == 0) {
      update = true;
    } else if (golden_dir == nullptr) {
      golden_dir = argv[i];
    } else {
      std::cerr << "usage: golden_runner <golden_dir> [--update]\n";
      return 2;
    }
  }
  if (golden_dir == nullptr) {
    std::cerr << "usage: golden_runner <golden_dir> [--update]\n";
    return 2;
  }
  const int failures =
      csm::check::RunGoldenCorpus(golden_dir, update, std::cout);
  if (failures > 0) {
    std::cerr << failures << " golden case(s) diverged\n";
    return 1;
  }
  return 0;
}
