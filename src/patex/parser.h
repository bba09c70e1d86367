// Recursive-descent parser for pattern expressions (paper Sec. II).
//
// Syntax accepted (ASCII rendering of the paper's notation; '^' is ↑):
//
//   .*(A)[(.^).*]*(b).*                        -- the paper's running example
//   ENTITY (VERB+ NOUN+? PREP?) ENTITY        -- N1
//   (.^){3} NOUN                              -- N4
//   (.)[.{0,2}(.)]{1,4}                       -- gap/length constraints
//
// Item names are unquoted runs of [A-Za-z0-9_@&':/-] not starting with a
// digit-only operator context, or quoted with '...' (allowing any character
// except the quote). Whitespace separates concatenated atoms but is
// otherwise insignificant.
#ifndef DSEQ_PATEX_PARSER_H_
#define DSEQ_PATEX_PARSER_H_

#include <memory>
#include <stdexcept>
#include <string>

#include "src/patex/patex.h"

namespace dseq {

/// Thrown on malformed pattern expressions; includes byte position.
class PatexParseError : public std::runtime_error {
 public:
  PatexParseError(const std::string& message, size_t position)
      : std::runtime_error(message + " (at position " +
                           std::to_string(position) + ")"),
        position_(position) {}
  size_t position() const { return position_; }

 private:
  size_t position_;
};

/// Deepest pattern ParsePatEx accepts. Every '[...]', '(...)' and
/// repetition suffix adds one level to the AST, and the parser, the FST
/// compiler and the AST's destructors all recurse once per level. Real
/// patterns nest a handful of levels; the bound keeps hostile ones far from
/// the stack limit.
inline constexpr int kMaxPatexNesting = 1000;

/// Parses `text` into a pattern expression AST. Throws PatexParseError,
/// also for patterns nested deeper than kMaxPatexNesting.
std::unique_ptr<PatEx> ParsePatEx(const std::string& text);

}  // namespace dseq

#endif  // DSEQ_PATEX_PARSER_H_
