// Text normalization and tokenization used by the instance-based matchers
// and the Naive Bayes classifier.

#ifndef CSM_TEXT_TOKENIZER_H_
#define CSM_TEXT_TOKENIZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace csm {

/// The word characters of every tokenizer here: ASCII [0-9A-Za-z].  Explicit
/// rather than std::isalnum, which follows the process locale, so a token
/// (and every padded q-gram, see text/gram.h) is built from 7-bit bytes
/// whatever the locale; under the C locale the two agree on all 256 bytes.
inline bool IsWordChar(char c) {
  const unsigned char b = static_cast<unsigned char>(c);
  return (b >= '0' && b <= '9') || (b >= 'A' && b <= 'Z') ||
         (b >= 'a' && b <= 'z');
}

/// ASCII lowercase: 'A'-'Z' map to 'a'-'z', every other byte is unchanged
/// (std::tolower under the C locale, but locale-independent).
inline char ToLowerChar(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

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

/// Splits an attribute name into lowercase tokens on underscores, dashes,
/// spaces, digit boundaries and camelCase humps ("ItemType" -> item,type):
/// the token side of NameMatcher.
std::vector<std::string> NameTokens(std::string_view name);

}  // namespace csm

#endif  // CSM_TEXT_TOKENIZER_H_
