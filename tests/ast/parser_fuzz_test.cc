// Parser robustness: random token soup and random byte strings must
// produce clean errors or valid parses -- never crashes, hangs, or
// corrupted symbol tables.

#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "ast/pretty_print.h"
#include "eval/database.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace datalog {
namespace {

using testing::MakeSymbols;

class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  std::mt19937_64 rng(GetParam());
  const std::vector<std::string> tokens = {
      "p",  "q(", ")", ",",  ".",  ":-", "->", "x",  "y",   "42",
      "-7", "'s'", "not", "!", "&",  "%c\n", "(",  "g(x", "z)", " "};
  std::uniform_int_distribution<std::size_t> pick(0, tokens.size() - 1);
  std::uniform_int_distribution<int> len(1, 60);

  for (int round = 0; round < 40; ++round) {
    std::string soup;
    int n = len(rng);
    for (int i = 0; i < n; ++i) soup += tokens[pick(rng)];
    auto symbols = MakeSymbols();
    Parser parser(symbols);
    Result<Program> program = parser.ParseProgram(soup);
    if (program.ok()) {
      // Whatever parsed must round-trip.
      Parser reparser(symbols);
      Result<Program> again = reparser.ParseProgram(ToString(*program));
      EXPECT_TRUE(again.ok()) << soup;
    } else {
      EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument)
          << soup;
    }
  }
}

TEST_P(ParserFuzzTest, RandomBytesNeverCrash) {
  std::mt19937_64 rng(GetParam() * 31 + 7);
  std::uniform_int_distribution<int> byte(1, 126);  // printable-ish ASCII
  std::uniform_int_distribution<int> len(1, 80);
  for (int round = 0; round < 40; ++round) {
    std::string bytes;
    int n = len(rng);
    for (int i = 0; i < n; ++i) {
      bytes += static_cast<char>(byte(rng));
    }
    auto symbols = MakeSymbols();
    Parser parser(symbols);
    Result<Program> program = parser.ParseProgram(bytes);
    if (!program.ok()) {
      EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

/// A fact text over predicates of arity 0 to 3, with integers (both int64
/// bounds among them), quoted strings, both comment styles, odd
/// whitespace and the occasional variable, then up to three random
/// one-character edits.
std::string GenerateFactText(std::mt19937_64& rng) {
  struct Pred {
    const char* name;
    int arity;
  };
  static const Pred kPreds[] = {{"flag", 0},
                                {"node", 1},
                                {"e", 2},
                                {"a_predicate_name_past_sso_length", 2},
                                {"t3", 3}};
  static const char* const kValues[] = {
      "0",  "7",     "-7",   "42",      "9223372036854775807",
      "-9223372036854775808", "'paris'", "\"bob's\"", "''", "x"};
  static const char* const kGaps[] = {"", " ", "  ", "\t", "\n", "\r\n",
                                      " % note\n", " // note\n"};
  auto gap = [&] { return std::string(kGaps[rng() % std::size(kGaps)]); };
  std::string text;
  const int facts = static_cast<int>(rng() % 12);
  for (int f = 0; f < facts; ++f) {
    const Pred& pred = kPreds[rng() % std::size(kPreds)];
    text += gap() + pred.name;
    if (pred.arity > 0 || rng() % 3 == 0) {
      text += "(";
      for (int a = 0; a < pred.arity; ++a) {
        if (a != 0) text += "," + gap();
        // kValues' last entry, the variable x, is about one argument in
        // forty; the rest are constants.
        const std::size_t pick = rng() % (std::size(kValues) * 4);
        text += pick < std::size(kValues)
                    ? kValues[pick]
                    : kValues[pick % (std::size(kValues) - 1)];
      }
      text += gap() + ")";
    }
    text += gap() + "." + gap();
  }
  static const std::string kEdits = "pe(),.'\"-019 \n%/:?!&$x_";
  const int edits = static_cast<int>(rng() % 4);
  for (int m = 0; m < edits && !text.empty(); ++m) {
    const std::size_t at = rng() % text.size();
    const char c = kEdits[rng() % kEdits.size()];
    switch (rng() % 3) {
      case 0:
        text[at] = c;
        break;
      case 1:
        text.insert(at, 1, c);
        break;
      default:
        text.erase(at, 1);
        break;
    }
  }
  return text;
}

TEST_P(ParserFuzzTest, ParseDatabaseAgreesWithAddingParsedGroundAtoms) {
  std::mt19937_64 rng(GetParam() * 977 + 13);
  for (int round = 0; round < 60; ++round) {
    const std::string text = GenerateFactText(rng);
    auto direct_symbols = MakeSymbols();
    Result<Database> direct = ParseDatabase(direct_symbols, text);
    auto atom_symbols = MakeSymbols();
    Result<std::vector<Atom>> atoms =
        Parser(atom_symbols).ParseGroundAtoms(text);
    ASSERT_EQ(direct.ok(), atoms.ok()) << text;
    if (!direct.ok()) {
      EXPECT_EQ(direct.status().ToString(), atoms.status().ToString())
          << text;
      continue;
    }
    Database reference(atom_symbols);
    for (const Atom& atom : *atoms) {
      ASSERT_TRUE(reference.AddAtom(atom).ok()) << text;
    }
    ASSERT_EQ(direct_symbols->NumPredicates(), atom_symbols->NumPredicates())
        << text;
    for (PredicateId pred = 0; pred < direct_symbols->NumPredicates();
         ++pred) {
      EXPECT_EQ(direct_symbols->PredicateName(pred),
                atom_symbols->PredicateName(pred));
      EXPECT_EQ(direct_symbols->PredicateArity(pred),
                atom_symbols->PredicateArity(pred));
      const Relation& got = direct->relation(pred);
      const Relation& want = reference.relation(pred);
      ASSERT_EQ(got.size(), want.size()) << text;
      for (std::size_t row = 0; row < got.size(); ++row) {
        ASSERT_EQ(got.row(row).size(), want.row(row).size()) << text;
        for (std::size_t c = 0; c < got.row(row).size(); ++c) {
          const Value a = got.row(row)[c];
          const Value b = want.row(row)[c];
          EXPECT_EQ(a, b) << text;
          if (a.is_symbol() && b.is_symbol()) {
            EXPECT_EQ(direct_symbols->SymbolText(
                          static_cast<std::int32_t>(a.payload())),
                      atom_symbols->SymbolText(
                          static_cast<std::int32_t>(b.payload())));
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace datalog
