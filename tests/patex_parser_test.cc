#include "src/patex/parser.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "src/dict/dictionary.h"
#include "src/fst/compiler.h"

namespace dseq {
namespace {

TEST(PatexParserTest, SingleItem) {
  auto ast = ParsePatEx("foo");
  EXPECT_EQ(ast->kind, PatEx::Kind::kItem);
  EXPECT_EQ(ast->item, "foo");
  EXPECT_FALSE(ast->generalize);
  EXPECT_FALSE(ast->exact);
}

TEST(PatexParserTest, ItemModifiers) {
  auto gen = ParsePatEx("A^");
  EXPECT_TRUE(gen->generalize);
  EXPECT_FALSE(gen->exact);

  auto exact = ParsePatEx("A=");
  EXPECT_FALSE(exact->generalize);
  EXPECT_TRUE(exact->exact);

  auto both = ParsePatEx("A^=");
  EXPECT_TRUE(both->generalize);
  EXPECT_TRUE(both->exact);
}

TEST(PatexParserTest, DotVariants) {
  auto dot = ParsePatEx(".");
  EXPECT_EQ(dot->kind, PatEx::Kind::kDot);
  EXPECT_FALSE(dot->generalize);

  auto dotgen = ParsePatEx(".^");
  EXPECT_EQ(dotgen->kind, PatEx::Kind::kDot);
  EXPECT_TRUE(dotgen->generalize);
}

TEST(PatexParserTest, Concatenation) {
  auto ast = ParsePatEx("a b c");
  ASSERT_EQ(ast->kind, PatEx::Kind::kConcat);
  ASSERT_EQ(ast->children.size(), 3u);
  EXPECT_EQ(ast->children[0]->item, "a");
  EXPECT_EQ(ast->children[2]->item, "c");
}

TEST(PatexParserTest, ConcatenationWithoutSpaces) {
  // The running example: .*(A)[(.^).*]*(b).*
  auto ast = ParsePatEx(".*(A)[(.^).*]*(b).*");
  ASSERT_EQ(ast->kind, PatEx::Kind::kConcat);
  ASSERT_EQ(ast->children.size(), 5u);
  EXPECT_EQ(ast->children[0]->kind, PatEx::Kind::kRepeat);
  EXPECT_EQ(ast->children[1]->kind, PatEx::Kind::kCapture);
  EXPECT_EQ(ast->children[2]->kind, PatEx::Kind::kRepeat);
  EXPECT_EQ(ast->children[3]->kind, PatEx::Kind::kCapture);
}

TEST(PatexParserTest, Alternation) {
  auto ast = ParsePatEx("a|b|c");
  ASSERT_EQ(ast->kind, PatEx::Kind::kAlt);
  EXPECT_EQ(ast->children.size(), 3u);
}

TEST(PatexParserTest, AlternationBindsLooserThanConcat) {
  auto ast = ParsePatEx("a b|c d");
  ASSERT_EQ(ast->kind, PatEx::Kind::kAlt);
  ASSERT_EQ(ast->children.size(), 2u);
  EXPECT_EQ(ast->children[0]->kind, PatEx::Kind::kConcat);
}

TEST(PatexParserTest, PostfixOperators) {
  auto star = ParsePatEx("a*");
  EXPECT_EQ(star->kind, PatEx::Kind::kRepeat);
  EXPECT_EQ(star->min_rep, 0);
  EXPECT_EQ(star->max_rep, -1);

  auto plus = ParsePatEx("a+");
  EXPECT_EQ(plus->min_rep, 1);
  EXPECT_EQ(plus->max_rep, -1);

  auto opt = ParsePatEx("a?");
  EXPECT_EQ(opt->min_rep, 0);
  EXPECT_EQ(opt->max_rep, 1);
}

TEST(PatexParserTest, BoundedRepetitions) {
  auto exact = ParsePatEx("a{3}");
  EXPECT_EQ(exact->min_rep, 3);
  EXPECT_EQ(exact->max_rep, 3);

  auto atleast = ParsePatEx("a{2,}");
  EXPECT_EQ(atleast->min_rep, 2);
  EXPECT_EQ(atleast->max_rep, -1);

  auto range = ParsePatEx("a{1,4}");
  EXPECT_EQ(range->min_rep, 1);
  EXPECT_EQ(range->max_rep, 4);

  auto upto = ParsePatEx("a{,4}");
  EXPECT_EQ(upto->min_rep, 0);
  EXPECT_EQ(upto->max_rep, 4);
}

TEST(PatexParserTest, StackedPostfix) {
  // NOUN+? = optional(one-or-more(NOUN)), used by constraint N1.
  auto ast = ParsePatEx("NOUN+?");
  ASSERT_EQ(ast->kind, PatEx::Kind::kRepeat);
  EXPECT_EQ(ast->min_rep, 0);
  EXPECT_EQ(ast->max_rep, 1);
  ASSERT_EQ(ast->children[0]->kind, PatEx::Kind::kRepeat);
  EXPECT_EQ(ast->children[0]->min_rep, 1);
}

TEST(PatexParserTest, CaptureGroups) {
  auto ast = ParsePatEx("(a b)");
  ASSERT_EQ(ast->kind, PatEx::Kind::kCapture);
  EXPECT_EQ(ast->children[0]->kind, PatEx::Kind::kConcat);
}

TEST(PatexParserTest, BracketsGroupWithoutCapture) {
  auto ast = ParsePatEx("[a b]");
  EXPECT_EQ(ast->kind, PatEx::Kind::kConcat);
}

TEST(PatexParserTest, PaperConstraints) {
  // All Table III constraint expressions must parse.
  const char* expressions[] = {
      "ENTITY (VERB+ NOUN+? PREP?) ENTITY",
      "(ENTITY^ VERB+ NOUN+? PREP? ENTITY^)",
      "(ENTITY^ be^=) DET? (ADV? ADJ? NOUN)",
      "(.^){3} NOUN",
      "([.^. .]|[. .^.]|[. . .^])",
      "(Electr^)[.{0,2}(Electr^)]{1,4}",
      "(Book)[.{0,2}(Book)]{1,4}",
      "DigitalCamera[.{0,3}(.^)]{1,4}",
      "(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}",
      "(.)[.*(.)]{,4}",
      "(.)[.{0,1}(.)]{1,4}",
      "(.^)[.{0,1}(.^)]{1,4}",
  };
  for (const char* e : expressions) {
    EXPECT_NO_THROW(ParsePatEx(e)) << e;
  }
}

TEST(PatexParserTest, QuotedItems) {
  auto ast = ParsePatEx("\"item with space\"*");
  ASSERT_EQ(ast->kind, PatEx::Kind::kRepeat);
  EXPECT_EQ(ast->children[0]->item, "item with space");
}

TEST(PatexParserTest, Errors) {
  EXPECT_THROW(ParsePatEx(""), PatexParseError);
  EXPECT_THROW(ParsePatEx("(a"), PatexParseError);
  EXPECT_THROW(ParsePatEx("a)"), PatexParseError);
  EXPECT_THROW(ParsePatEx("[a"), PatexParseError);
  EXPECT_THROW(ParsePatEx("a{}"), PatexParseError);
  EXPECT_THROW(ParsePatEx("a{4,2}"), PatexParseError);
  EXPECT_THROW(ParsePatEx("|a"), PatexParseError);
  EXPECT_THROW(ParsePatEx("*"), PatexParseError);
  EXPECT_THROW(ParsePatEx("\"unterminated"), PatexParseError);
}

TEST(PatexParserTest, ErrorPositionReported) {
  try {
    ParsePatEx("abc {");
    FAIL() << "expected PatexParseError";
  } catch (const PatexParseError& e) {
    EXPECT_GE(e.position(), 4u);
  }
}

TEST(PatexParserTest, CloneProducesEqualTree) {
  auto ast = ParsePatEx(".*(A)[(.^).*]*(b).*");
  auto clone = ast->Clone();
  EXPECT_EQ(ast->ToString(), clone->ToString());
}

TEST(PatexParserTest, ToStringRoundTrips) {
  const char* expressions[] = {
      ".*(A)[(.^).*]*(b).*",
      "(ENTITY^ be^=) DET? (ADV? ADJ? NOUN)",
      "(.)[.{0,2}(.)]{1,4}",
  };
  for (const char* e : expressions) {
    auto ast = ParsePatEx(e);
    auto reparsed = ParsePatEx(ast->ToString());
    EXPECT_EQ(ast->ToString(), reparsed->ToString()) << e;
  }
}

std::string Nested(char open, char close, int depth) {
  return std::string(depth, open) + "." + std::string(depth, close);
}

// Deep nesting is a typed error at the first bracket past the bound, not a
// stack overflow in the parser, the compiler or the AST's destructors.
TEST(PatexParserTest, DeepNestingIsATypedError) {
  for (auto [open, close] : {std::pair('[', ']'), std::pair('(', ')')}) {
    try {
      ParsePatEx(Nested(open, close, 30'000));
      FAIL() << "expected PatexParseError for " << open;
    } catch (const PatexParseError& e) {
      EXPECT_EQ(e.position(), static_cast<size_t>(kMaxPatexNesting)) << open;
    }
  }
  EXPECT_THROW(ParsePatEx(Nested('[', ']', kMaxPatexNesting + 1)),
               PatexParseError);
  // Repetition suffixes nest the AST as deeply as brackets do.
  EXPECT_THROW(ParsePatEx("." + std::string(30'000, '*')), PatexParseError);
  EXPECT_THROW(ParsePatEx("[." + std::string(600, '?') + "]" +
                          std::string(600, '?')),
               PatexParseError);
}

TEST(PatexParserTest, NestingJustUnderTheLimitCompiles) {
  DictionaryBuilder builder;
  builder.AddItem("a");
  Dictionary dict = builder.Build();
  EXPECT_NO_THROW(ParsePatEx(Nested('[', ']', kMaxPatexNesting)));
  EXPECT_NO_THROW(CompileFst(Nested('[', ']', kMaxPatexNesting - 1), dict));
  EXPECT_NO_THROW(
      CompileFst("(" + Nested('[', ']', kMaxPatexNesting - 2) + ")", dict));
}

}  // namespace
}  // namespace dseq
