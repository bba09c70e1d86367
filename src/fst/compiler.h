// Pattern expression -> FST compiler (paper Sec. IV).
//
// Uses Thompson construction with ε-transitions, then eliminates
// ε-transitions and prunes states that are unreachable or cannot reach a
// final state. Bounded repetitions {n,m} are expanded by duplication, within
// fixed bounds on the expansion.
#ifndef DSEQ_FST_COMPILER_H_
#define DSEQ_FST_COMPILER_H_

#include <memory>
#include <stdexcept>
#include <string>

#include "src/dict/dictionary.h"
#include "src/fst/fst.h"
#include "src/patex/patex.h"

namespace dseq {

/// Thrown when a pattern references an item missing from the dictionary or
/// expands past the compiler's size bounds.
class FstCompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Compiles a pattern expression AST into an ε-free FST over `dict`.
Fst CompileFst(const PatEx& pattern, const Dictionary& dict);

/// Convenience: parse + compile.
Fst CompileFst(const std::string& pattern, const Dictionary& dict);

}  // namespace dseq

#endif  // DSEQ_FST_COMPILER_H_
