// Pairwise string distances used by the name matcher.

#ifndef CSM_TEXT_STRING_DISTANCE_H_
#define CSM_TEXT_STRING_DISTANCE_H_

#include <string_view>

namespace csm {

/// Jaro similarity in [0,1].
double JaroSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity with the standard prefix scale (0.1, max 4).
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

}  // namespace csm

#endif  // CSM_TEXT_STRING_DISTANCE_H_
