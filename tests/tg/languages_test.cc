#include "src/tg/languages.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "src/util/strings.h"

namespace tg {
namespace {

// Parses "t> g< r>" into a Word ("v" = the null word).
Word W(const std::string& text) {
  Word word;
  if (text == "v") {
    return word;
  }
  for (std::string_view tok : tg_util::SplitWhitespace(text)) {
    EXPECT_EQ(tok.size(), 2u) << tok;
    auto right = RightFromChar(tok[0]);
    EXPECT_TRUE(right.has_value()) << tok;
    word.push_back(MakeSymbol(*right, tok[1] == '<'));
  }
  return word;
}

struct LanguageCase {
  const char* word;
  bool terminal_span;
  bool initial_span;
  bool bridge;
  bool rw_terminal;
  bool rw_initial;
  bool connection;
  bool admissible;
};

// Prints a case as its word.  The discovered ctest name of each case is
// "<suite>/<test>/<printed case>", and gtest's default printer would dump
// the struct's bytes, which hold the word literal's address: the name
// would then change from process to process.
void PrintTo(const LanguageCase& c, std::ostream* os) { *os << c.word; }

class LanguageTest : public ::testing::TestWithParam<LanguageCase> {};

TEST_P(LanguageTest, MembershipMatchesPaperDefinitions) {
  const LanguageCase& c = GetParam();
  Word w = W(c.word);
  EXPECT_EQ(IsTerminalSpanWord(w), c.terminal_span) << c.word;
  EXPECT_EQ(IsInitialSpanWord(w), c.initial_span) << c.word;
  EXPECT_EQ(IsBridgeWord(w), c.bridge) << c.word;
  EXPECT_EQ(IsRwTerminalSpanWord(w), c.rw_terminal) << c.word;
  EXPECT_EQ(IsRwInitialSpanWord(w), c.rw_initial) << c.word;
  EXPECT_EQ(IsConnectionWord(w), c.connection) << c.word;
  EXPECT_EQ(IsAdmissibleRwWord(w), c.admissible) << c.word;
}

INSTANTIATE_TEST_SUITE_P(
    PaperLanguages, LanguageTest,
    ::testing::Values(
        //            word              term   init   bridge rwterm rwinit conn   admis
        LanguageCase{"v",               true,  true,  true,  false, false, false, true},
        LanguageCase{"t>",              true,  false, true,  false, false, false, false},
        LanguageCase{"t> t>",           true,  false, true,  false, false, false, false},
        LanguageCase{"t> t> t>",        true,  false, true,  false, false, false, false},
        LanguageCase{"t<",              false, false, true,  false, false, false, false},
        LanguageCase{"t< t<",           false, false, true,  false, false, false, false},
        LanguageCase{"g>",              false, true,  true,  false, false, false, false},
        LanguageCase{"t> g>",           false, true,  true,  false, false, false, false},
        LanguageCase{"t> t> g>",        false, true,  true,  false, false, false, false},
        LanguageCase{"g<",              false, false, true,  false, false, false, false},
        LanguageCase{"t> g> t<",        false, false, true,  false, false, false, false},
        LanguageCase{"t> g< t<",        false, false, true,  false, false, false, false},
        LanguageCase{"t> g> t< t<",     false, false, true,  false, false, false, false},
        // Not bridges: t-direction mixes without a grant pivot.
        LanguageCase{"t> t<",           false, false, false, false, false, false, false},
        LanguageCase{"t< t>",           false, false, false, false, false, false, false},
        LanguageCase{"g> g>",           false, false, false, false, false, false, false},
        LanguageCase{"t> g> t< g>",     false, false, false, false, false, false, false},
        // rw spans and connections.
        LanguageCase{"r>",              false, false, false, true,  false, true,  true},
        LanguageCase{"t> r>",           false, false, false, true,  false, true,  false},
        LanguageCase{"t> t> r>",        false, false, false, true,  false, true,  false},
        LanguageCase{"w>",              false, false, false, false, true,  false, false},
        LanguageCase{"t> w>",           false, false, false, false, true,  false, false},
        LanguageCase{"w<",              false, false, false, false, false, true,  true},
        LanguageCase{"w< t<",           false, false, false, false, false, true,  false},
        LanguageCase{"t> r> w<",        false, false, false, false, false, true,  false},
        LanguageCase{"t> r> w< t<",     false, false, false, false, false, true,  false},
        LanguageCase{"r> w<",           false, false, false, false, false, true,  true},
        // Admissible rw words (subject conditions tested elsewhere).
        LanguageCase{"r> r>",           false, false, false, false, false, false, true},
        LanguageCase{"w< w<",           false, false, false, false, false, false, true},
        LanguageCase{"w< r> w<",        false, false, false, false, false, false, true},
        // Never admissible: forward writes / backward reads.
        LanguageCase{"r<",              false, false, false, false, false, false, false},
        LanguageCase{"w> r>",           false, false, false, false, false, false, false},
        LanguageCase{"r> w< t>",        false, false, false, false, false, false, false}));

struct BocCase {
  const char* word;
  bool expected;
};

void PrintTo(const BocCase& c, std::ostream* os) { *os << c.word; }

class BridgeOrConnectionTest : public ::testing::TestWithParam<BocCase> {};

TEST_P(BridgeOrConnectionTest, UnionMatchesComponents) {
  Word w = W(GetParam().word);
  EXPECT_EQ(IsBridgeWord(w) || IsConnectionWord(w),
            BridgeOrConnectionDfa().Accepts(WordToIndices(w)))
      << GetParam().word;
  EXPECT_EQ(BridgeOrConnectionDfa().Accepts(WordToIndices(w)), GetParam().expected)
      << GetParam().word;
}

INSTANTIATE_TEST_SUITE_P(
    UnionLanguage, BridgeOrConnectionTest,
    ::testing::Values(BocCase{"v", true}, BocCase{"t>", true}, BocCase{"t<", true},
                      BocCase{"t> g> t<", true}, BocCase{"t> g< t<", true},
                      BocCase{"t> r>", true}, BocCase{"w< t<", true},
                      BocCase{"t> r> w< t<", true}, BocCase{"t> t<", false},
                      BocCase{"r> r>", false}, BocCase{"w> t>", false},
                      BocCase{"g> r>", false}, BocCase{"t> w<", false}));

TEST(ReverseLanguagesTest, ReversedSpansMatchFlippedReversals) {
  // reverse(terminal span) = t<*.
  EXPECT_TRUE(ReverseTerminalSpanDfa().Accepts(WordToIndices(W("v"))));
  EXPECT_TRUE(ReverseTerminalSpanDfa().Accepts(WordToIndices(W("t< t<"))));
  EXPECT_FALSE(ReverseTerminalSpanDfa().Accepts(WordToIndices(W("t>"))));
  // reverse(initial span) = g< t<* U {v}.
  EXPECT_TRUE(ReverseInitialSpanDfa().Accepts(WordToIndices(W("v"))));
  EXPECT_TRUE(ReverseInitialSpanDfa().Accepts(WordToIndices(W("g< t< t<"))));
  EXPECT_FALSE(ReverseInitialSpanDfa().Accepts(WordToIndices(W("t< g<"))));
  // reverse(rw-terminal span) = r< t<*.
  EXPECT_TRUE(ReverseRwTerminalSpanDfa().Accepts(WordToIndices(W("r< t<"))));
  EXPECT_FALSE(ReverseRwTerminalSpanDfa().Accepts(WordToIndices(W("t< r<"))));
  // reverse(rw-initial span) = w< t<*.
  EXPECT_TRUE(ReverseRwInitialSpanDfa().Accepts(WordToIndices(W("w<"))));
  EXPECT_TRUE(ReverseRwInitialSpanDfa().Accepts(WordToIndices(W("w< t<"))));
  EXPECT_FALSE(ReverseRwInitialSpanDfa().Accepts(WordToIndices(W("v"))));
}

}  // namespace
}  // namespace tg
