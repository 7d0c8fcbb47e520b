// Text normalization and tokenization used by the instance-based matchers
// and the Naive Bayes classifier.

#ifndef CSM_TEXT_TOKENIZER_H_
#define CSM_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace csm {

/// Lowercases and squeezes runs of non-alphanumerics to single spaces;
/// trims the ends.  "Lance Armstrong's War!" -> "lance armstrong s war".
std::string NormalizeText(std::string_view text);

/// Buffer-reusing overload: clears `*out` and fills it with
/// NormalizeText(text), keeping the string's capacity across calls.
void NormalizeText(std::string_view text, std::string* out);

/// Splits normalized text into word tokens (maximal alphanumeric runs of
/// the lowercased input).
std::vector<std::string> WordTokens(std::string_view text);

/// Buffer-reusing overload: refills `*out` with the word tokens of `text`,
/// reusing both the vector's and the element strings' capacity.
void WordTokens(std::string_view text, std::vector<std::string>* out);

/// Q-grams of the normalized text padded with (q-1) '#' on each side, so
/// "ab" with q=3 yields {"##a", "#ab", "ab#", "b##"}.  Returns the q-grams
/// in order of occurrence (duplicates kept).
std::vector<std::string> QGrams(std::string_view text, size_t q);

}  // namespace csm

#endif  // CSM_TEXT_TOKENIZER_H_
