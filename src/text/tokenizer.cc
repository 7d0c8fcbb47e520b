#include "text/tokenizer.h"

#include <cctype>

namespace csm {
namespace {

/// Reuses the element strings of `*out` past `used` slots; grows otherwise.
void EmitToken(std::vector<std::string>* out, size_t* used,
               std::string_view token) {
  if (*used < out->size()) {
    (*out)[*used].assign(token.data(), token.size());
  } else {
    out->emplace_back(token);
  }
  ++*used;
}

}  // namespace

std::string NormalizeText(std::string_view text) {
  std::string out;
  NormalizeText(text, &out);
  return out;
}

void NormalizeText(std::string_view text, std::string* out) {
  out->clear();
  out->reserve(text.size());
  bool pending_space = false;
  for (char c : text) {
    if (IsWordChar(c)) {
      if (pending_space && !out->empty()) *out += ' ';
      pending_space = false;
      *out += ToLowerChar(c);
    } else {
      pending_space = true;
    }
  }
}

std::vector<std::string> WordTokens(std::string_view text) {
  std::vector<std::string> tokens;
  WordTokens(text, &tokens);
  return tokens;
}

void WordTokens(std::string_view text, std::vector<std::string>* out) {
  size_t used = 0;
  std::string current;
  for (char c : text) {
    if (IsWordChar(c)) {
      current += ToLowerChar(c);
    } else if (!current.empty()) {
      EmitToken(out, &used, current);
      current.clear();
    }
  }
  if (!current.empty()) EmitToken(out, &used, current);
  out->resize(used);
}

std::vector<std::string> QGrams(std::string_view text, size_t q) {
  std::vector<std::string> grams;
  if (q == 0) return grams;
  const std::string normalized = NormalizeText(text);
  if (normalized.empty()) return grams;
  std::string padded(q - 1, '#');
  padded += normalized;
  padded.append(q - 1, '#');
  grams.reserve(padded.size() - q + 1);
  for (size_t i = 0; i + q <= padded.size(); ++i) {
    grams.emplace_back(padded, i, q);
  }
  return grams;
}

std::vector<std::string> NameTokens(std::string_view name) {
  std::vector<std::string> tokens;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      tokens.push_back(current);
      current.clear();
    }
  };
  char prev = '\0';
  for (char c : name) {
    const bool is_alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool is_digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    if (!is_alpha && !is_digit) {
      flush();
      prev = c;
      continue;
    }
    // CamelCase hump: upper after lower starts a new token; so does an
    // alpha/digit boundary.
    const bool hump = std::isupper(static_cast<unsigned char>(c)) &&
                      std::islower(static_cast<unsigned char>(prev));
    const bool kind_change =
        (is_digit && std::isalpha(static_cast<unsigned char>(prev))) ||
        (is_alpha && std::isdigit(static_cast<unsigned char>(prev)));
    if (hump || kind_change) flush();
    current += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    prev = c;
  }
  flush();
  return tokens;
}

}  // namespace csm
