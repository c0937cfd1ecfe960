#ifndef DATALOG_AST_PARSER_H_
#define DATALOG_AST_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "ast/atom.h"
#include "ast/program.h"
#include "ast/rule.h"
#include "ast/source_span.h"
#include "ast/tgd.h"
#include "util/result.h"

namespace datalog {

/// Parses the textual Datalog syntax used throughout this library.
///
/// Grammar (comments run from '%' or '//' to end of line):
///
///   program  :=  { rule | fact }
///   rule     :=  atom ":-" atom { "," atom | "," "not" atom } "."
///   fact     :=  atom "."                      (head must be ground)
///   tgd      :=  atoms "->" atoms "."          (atoms separated by "," or "&")
///   query    :=  "?-" atom "."
///   atom     :=  ident [ "(" term { "," term } ")" ]
///   term     :=  integer | quoted string | ident
///
/// Bare identifiers in argument positions are variables; integers and
/// quoted strings ('...' or "...") are constants. This matches the paper's
/// notation, where G(x, y, 3, 10) has variables x, y and constants 3, 10.
/// Negated body atoms are written `not A(x)` or `!A(x)` and are accepted by
/// the evaluation engine only (stratified negation).
///
/// Every entry point pulls tokens from one streaming lexer, with one token
/// of lookahead. When a text fails to parse, a lexical error anywhere in
/// it is reported in preference to the grammar error met first.
///
/// A parsed program together with its fine-grained source locations and
/// any inline queries (`?- atom.` statements). The source map is
/// positional (rules[i] describes program.rules()[i]); transforms that
/// reorder rules invalidate it. Inline queries are what `datalog check`
/// uses to drive the query-directed analysis passes.
struct ParsedProgram {
  Program program;
  ProgramSourceMap source;
  std::vector<Atom> queries;
  std::vector<SourceSpan> query_spans;  // parallel to `queries`

  explicit ParsedProgram(std::shared_ptr<SymbolTable> symbols)
      : program(std::move(symbols)) {}
};

/// Ground facts in flat form, as Parser::ParseFactRows returns them: the
/// predicate of each fact and the argument values of all of them, both in
/// text order. A fact of predicate p contributes p's arity values.
struct FactRows {
  std::vector<PredicateId> predicates;
  std::vector<Value> values;
};

class Parser {
 public:
  /// The parser interns names into `symbols`; callers that parse several
  /// related artifacts (a program, its tgds, its EDB) should reuse one
  /// table.
  explicit Parser(std::shared_ptr<SymbolTable> symbols)
      : symbols_(std::move(symbols)) {}

  /// Parses a whole program (sequence of rules and facts). Facts are
  /// represented as rules with empty bodies.
  Result<Program> ParseProgram(std::string_view text);

  /// Like ParseProgram, but additionally accepts interleaved query
  /// statements (`?- atom.`) and returns a per-rule source map with exact
  /// token spans for every atom and argument. The map is what the static
  /// analyzer (src/analysis) uses to report `line:col` diagnostics.
  Result<ParsedProgram> ParseProgramWithSource(std::string_view text);

  /// Parses a single rule or fact (with trailing '.').
  Result<Rule> ParseRule(std::string_view text);

  /// Parses a single tgd (with trailing '.').
  Result<Tgd> ParseTgd(std::string_view text);

  /// Parses a sequence of tgds.
  Result<std::vector<Tgd>> ParseTgds(std::string_view text);

  /// Parses a sequence of ground atoms (facts), each ending with '.'.
  Result<std::vector<Atom>> ParseGroundAtoms(std::string_view text);

  /// Parses the same text as ParseGroundAtoms, with the same result or
  /// error, into flat rows instead of one Atom per fact. This is the
  /// fact path of ParseDatabase.
  Result<FactRows> ParseFactRows(std::string_view text);

  /// Parses a query `?- atom.` and returns the atom.
  Result<Atom> ParseQuery(std::string_view text);

  const std::shared_ptr<SymbolTable>& symbols() const { return symbols_; }

 private:
  std::shared_ptr<SymbolTable> symbols_;
};

}  // namespace datalog

#endif  // DATALOG_AST_PARSER_H_
