#include "src/patex/parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

namespace dseq {
namespace {

bool IsItemChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '@' ||
         c == '&' || c == '\'' || c == ':' || c == '/' || c == '-' || c == '#';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::unique_ptr<PatEx> Parse() {
    int height = 0;
    auto expr = ParseAlt(&height);
    SkipSpace();
    if (pos_ != text_.size()) {
      throw PatexParseError("unexpected trailing input", pos_);
    }
    return expr;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void Expect(char c) {
    if (Peek() != c) {
      throw PatexParseError(std::string("expected '") + c + "'", pos_);
    }
    ++pos_;
  }

  // Counts one more nesting level in `*height`.
  void Nest(int* height) {
    if (++*height > kMaxPatexNesting) {
      throw PatexParseError("pattern nested deeper than " +
                                std::to_string(kMaxPatexNesting) + " levels",
                            pos_);
    }
  }

  // Each Parse* below sets `*height` to the nesting levels of what it
  // parsed, so suffix chains count as well as brackets.
  std::unique_ptr<PatEx> ParseAlt(int* height) {
    std::vector<std::unique_ptr<PatEx>> alts;
    alts.push_back(ParseConcat(height));
    while (Peek() == '|') {
      ++pos_;
      int alt_height = 0;
      alts.push_back(ParseConcat(&alt_height));
      *height = std::max(*height, alt_height);
    }
    return PatEx::Alt(std::move(alts));
  }

  std::unique_ptr<PatEx> ParseConcat(int* height) {
    std::vector<std::unique_ptr<PatEx>> parts;
    *height = 0;
    while (true) {
      char c = Peek();
      if (c == '\0' || c == '|' || c == ']' || c == ')') break;
      int part_height = 0;
      parts.push_back(ParseUnary(&part_height));
      *height = std::max(*height, part_height);
    }
    if (parts.empty()) {
      throw PatexParseError("empty expression", pos_);
    }
    return PatEx::Concat(std::move(parts));
  }

  std::unique_ptr<PatEx> ParseUnary(int* height) {
    auto atom = ParseAtom(height);
    while (true) {
      char c = Peek();
      if (c == '*' || c == '+' || c == '?' || c == '{') Nest(height);
      if (c == '*') {
        ++pos_;
        atom = PatEx::Repeat(std::move(atom), 0, -1);
      } else if (c == '+') {
        ++pos_;
        atom = PatEx::Repeat(std::move(atom), 1, -1);
      } else if (c == '?') {
        ++pos_;
        atom = PatEx::Repeat(std::move(atom), 0, 1);
      } else if (c == '{') {
        ++pos_;
        atom = ParseBoundSuffix(std::move(atom));
      } else {
        break;
      }
    }
    return atom;
  }

  // Parses the inside of '{...}' after the opening brace was consumed.
  std::unique_ptr<PatEx> ParseBoundSuffix(std::unique_ptr<PatEx> atom) {
    int min_rep = 0;
    int max_rep = -1;
    bool has_min = false;
    if (std::isdigit(static_cast<unsigned char>(Peek()))) {
      min_rep = ParseNumber();
      has_min = true;
    }
    if (Peek() == ',') {
      ++pos_;
      if (std::isdigit(static_cast<unsigned char>(Peek()))) {
        max_rep = ParseNumber();
      }  // else unbounded: {n,} or {,}
    } else {
      if (!has_min) {
        throw PatexParseError("expected number in '{...}'", pos_);
      }
      max_rep = min_rep;  // {n}
    }
    Expect('}');
    if (max_rep != -1 && max_rep < min_rep) {
      throw PatexParseError("repetition bound {n,m} requires n <= m", pos_);
    }
    return PatEx::Repeat(std::move(atom), min_rep, max_rep);
  }

  int ParseNumber() {
    SkipSpace();
    size_t start = pos_;
    long value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      value = value * 10 + (text_[pos_] - '0');
      if (value > 1'000'000) {
        throw PatexParseError("repetition bound too large", start);
      }
      ++pos_;
    }
    if (pos_ == start) throw PatexParseError("expected number", pos_);
    return static_cast<int>(value);
  }

  std::unique_ptr<PatEx> ParseAtom(int* height) {
    char c = Peek();
    *height = 0;
    if (c == '[' || c == '(') {
      // The bracket's own level is counted before descending, so the
      // parser's recursion is bounded too.
      Nest(&open_);
      ++pos_;
      auto inner = ParseAlt(height);
      Expect(c == '[' ? ']' : ')');
      --open_;
      Nest(height);
      if (c == '(') inner = PatEx::Capture(std::move(inner));
      return inner;
    }
    if (c == '.') {
      ++pos_;
      bool gen = false;
      if (pos_ < text_.size() && text_[pos_] == '^') {
        gen = true;
        ++pos_;
      }
      return PatEx::Dot(gen);
    }
    if (c == '"') {
      ++pos_;
      size_t start = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
      if (pos_ >= text_.size()) {
        throw PatexParseError("unterminated quoted item", start);
      }
      std::string name = text_.substr(start, pos_ - start);
      ++pos_;  // closing quote
      return FinishItem(std::move(name));
    }
    if (IsItemChar(c)) {
      size_t start = pos_;
      while (pos_ < text_.size() && IsItemChar(text_[pos_])) ++pos_;
      return FinishItem(text_.substr(start, pos_ - start));
    }
    throw PatexParseError("unexpected character", pos_);
  }

  // Handles the optional '^' and '=' modifiers after an item name.
  std::unique_ptr<PatEx> FinishItem(std::string name) {
    bool gen = false;
    bool exact = false;
    if (pos_ < text_.size() && text_[pos_] == '^') {
      gen = true;
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '=') {
      exact = true;
      ++pos_;
    }
    return PatEx::Item(std::move(name), gen, exact);
  }

  const std::string& text_;
  size_t pos_ = 0;
  int open_ = 0;  // brackets and parentheses open at pos_
};

}  // namespace

std::unique_ptr<PatEx> ParsePatEx(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace dseq
