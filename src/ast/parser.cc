#include "ast/parser.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <string>

namespace datalog {
namespace {

enum class TokenKind {
  kIdent,
  kInteger,
  kString,
  kLParen,
  kRParen,
  kComma,
  kPeriod,
  kColonDash,  // ":-"
  kArrow,      // "->"
  kAmp,        // "&" or "&&"
  kBang,       // "!"
  kQueryDash,  // "?-"
  kEnd,
  kError,      // a lexical error; no grammar rule accepts it
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string_view text;   // identifier or string payload, a view of the input
  std::int64_t value = 0;  // integer payload
  int line = 0;  // 1-based start line
  int col = 0;   // 1-based start column
  int end_col = 0;  // column one past the token's last character

  /// The token's source region. Tokens never span lines (strings reject
  /// embedded newlines), so end_line == line.
  SourceSpan Span() const { return SourceSpan{line, col, line, end_col}; }
};

/// Hands out the tokens of one text, one per Next() call. Payloads are
/// views into the text, which must outlive every token.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  /// The next token: kEnd at the end of the text (and on every later
  /// call). At a lexical error, kError, on this call and every later one;
  /// Drain() then returns the error.
  Token Next() {
    if (!error_.ok()) return Make(TokenKind::kError, Col());
    SkipWhitespaceAndComments();
    if (pos_ >= text_.size()) return Make(TokenKind::kEnd, Col());
    char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return LexIdent();
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      return LexInteger(pos_, Col());
    }
    switch (c) {
      case '\'':
      case '"':
        return LexString(c);
      case '(':
        return Simple(TokenKind::kLParen);
      case ')':
        return Simple(TokenKind::kRParen);
      case ',':
        return Simple(TokenKind::kComma);
      case '.':
        return Simple(TokenKind::kPeriod);
      case '!':
        return Simple(TokenKind::kBang);
      case '&': {
        int col = Col();
        ++pos_;
        if (pos_ < text_.size() && text_[pos_] == '&') ++pos_;
        return Make(TokenKind::kAmp, col);
      }
      case ':':
        if (NextIs('-')) return Pair(TokenKind::kColonDash);
        return Fail("expected ':-'");
      case '?':
        if (NextIs('-')) return Pair(TokenKind::kQueryDash);
        return Fail("expected '?-'");
      case '-':
        if (NextIs('>')) return Pair(TokenKind::kArrow);
        if (pos_ + 1 < text_.size() &&
            std::isdigit(static_cast<unsigned char>(text_[pos_ + 1]))) {
          int col = Col();
          ++pos_;
          return LexInteger(pos_ - 1, col);
        }
        return Fail("unexpected '-'");
      default:
        return Fail(std::string("unexpected character '") + c + "'");
    }
  }

  /// Lexes the rest of the text and returns its first lexical error (the
  /// one Next() already met, if any), or OK.
  const Status& Drain() {
    TokenKind kind = TokenKind::kEnd;
    do {
      kind = Next().kind;
    } while (kind != TokenKind::kEnd && kind != TokenKind::kError);
    return error_;
  }

 private:
  /// 1-based column of the character at `pos_`.
  int Col() const { return static_cast<int>(pos_ - line_start_) + 1; }

  Token Make(TokenKind kind, int col) const {
    return Token{kind, {}, 0, line_, col, Col()};
  }

  bool NextIs(char c) const {
    return pos_ + 1 < text_.size() && text_[pos_ + 1] == c;
  }

  void SkipWhitespaceAndComments() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        line_start_ = pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%' || (c == '/' && NextIs('/'))) {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Token Simple(TokenKind kind) {
    int col = Col();
    ++pos_;
    return Make(kind, col);
  }

  /// A two-character operator.
  Token Pair(TokenKind kind) {
    int col = Col();
    pos_ += 2;
    return Make(kind, col);
  }

  Token LexIdent() {
    std::size_t start = pos_;
    int col = Col();
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    Token t = Make(TokenKind::kIdent, col);
    t.text = text_.substr(start, pos_ - start);
    return t;
  }

  /// An integer literal starting at `start` (its '-' when negative) and
  /// at column `col`, whose digit run starts at `pos_`. Reading the sign
  /// with the digits is what admits INT64_MIN, whose magnitude alone is
  /// out of range.
  Token LexInteger(std::size_t start, int col) {
    const std::size_t digits = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    const char* last = text_.data() + pos_;
    std::int64_t value = 0;
    const std::from_chars_result parsed =
        std::from_chars(text_.data() + start, last, value);
    if (parsed.ec != std::errc() || parsed.ptr != last) {
      return Fail("integer literal out of range: " +
                  std::string(text_.substr(digits, pos_ - digits)));
    }
    Token t = Make(TokenKind::kInteger, col);
    t.value = value;
    return t;
  }

  /// A quoted string; there are no escapes, so the payload is a view.
  Token LexString(char quote) {
    int col = Col();
    ++pos_;  // opening quote
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      if (text_[pos_] == '\n') return Fail("unterminated string literal");
      ++pos_;
    }
    if (pos_ >= text_.size()) return Fail("unterminated string literal");
    const std::string_view payload = text_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    Token t = Make(TokenKind::kString, col);
    t.text = payload;
    return t;
  }

  /// Records a lexical error at the current position and returns kError.
  Token Fail(std::string message) {
    // "line L:C" keeps the historical "line L" prefix (older callers grep
    // for it) while adding the column.
    error_ = Status::InvalidArgument("line " + std::to_string(line_) + ":" +
                                     std::to_string(Col()) + ": " +
                                     std::move(message));
    return Make(TokenKind::kError, Col());
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;
  int line_ = 1;
  Status error_;
};

/// Recursive-descent parser pulling tokens from a Lexer, with one token
/// of lookahead.
class TokenParser {
 public:
  TokenParser(std::string_view text, SymbolTable* symbols)
      : lexer_(text), symbols_(symbols) {
    Advance();
  }

  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  bool AtQuery() const { return Peek().kind == TokenKind::kQueryDash; }

  /// The error a parse that failed with `status` reports: the text's
  /// first lexical error if it has one, wherever it lies, else `status`.
  /// Only the failure path lexes past the point of failure.
  Status Failed(Status status) {
    const Status& lexical = lexer_.Drain();
    if (!lexical.ok()) return lexical;
    return status;
  }

  /// Parses a rule or fact. When `source` is non-null, fills it with the
  /// exact token spans of the rule, its atoms, and their arguments.
  Result<Rule> ParseRuleOrFact(RuleSourceSpans* source = nullptr) {
    const SourceSpan start = Peek().Span();
    AtomSourceSpans head_spans;
    DATALOG_ASSIGN_OR_RETURN(
        Atom head, ParseAtom(source != nullptr ? &head_spans : nullptr));
    if (source != nullptr) source->head = std::move(head_spans);
    if (Peek().kind == TokenKind::kPeriod) {
      SourceSpan rule_span = SourceSpan::Join(start, Peek().Span());
      Advance();
      Rule fact(std::move(head), {});
      fact.set_span(rule_span);
      if (source != nullptr) source->span = rule_span;
      return fact;
    }
    DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kColonDash, "':-' or '.'"));
    std::vector<Literal> body;
    while (true) {
      AtomSourceSpans literal_spans;
      DATALOG_ASSIGN_OR_RETURN(
          Literal lit,
          ParseLiteral(source != nullptr ? &literal_spans : nullptr));
      body.push_back(std::move(lit));
      if (source != nullptr) source->body.push_back(std::move(literal_spans));
      if (Peek().kind == TokenKind::kComma || Peek().kind == TokenKind::kAmp) {
        Advance();
        continue;
      }
      break;
    }
    SourceSpan rule_span = SourceSpan::Join(start, Peek().Span());
    DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    Rule rule(std::move(head), std::move(body));
    rule.set_span(rule_span);
    if (source != nullptr) source->span = rule_span;
    return rule;
  }

  Result<Tgd> ParseTgd() {
    DATALOG_ASSIGN_OR_RETURN(std::vector<Atom> lhs, ParseAtomConjunction());
    DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kArrow, "'->'"));
    DATALOG_ASSIGN_OR_RETURN(std::vector<Atom> rhs, ParseAtomConjunction());
    DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    return Tgd(std::move(lhs), std::move(rhs));
  }

  Result<Atom> ParseGroundAtomStatement() {
    DATALOG_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    if (!atom.IsGround()) {
      return ErrorHere("fact must be ground");
    }
    DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    return atom;
  }

  /// The same statement as ParseGroundAtomStatement, with its arguments
  /// left in `args` (a scratch vector the caller reuses from fact to
  /// fact) instead of in a new Atom.
  Result<PredicateId> ParseGroundFact(std::vector<Term>* args) {
    SourceSpan span;
    DATALOG_ASSIGN_OR_RETURN(PredicateId pred,
                             ParseAtomParts(args, &span, nullptr));
    for (const Term& arg : *args) {
      if (arg.is_variable()) return ErrorHere("fact must be ground");
    }
    DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    return pred;
  }

  Result<Atom> ParseQueryStatement() {
    DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kQueryDash, "'?-'"));
    DATALOG_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
    DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kPeriod, "'.'"));
    return atom;
  }

  Status ExpectEnd() {
    if (!AtEnd()) return ErrorHere("trailing input");
    return Status::OK();
  }

 private:
  Result<std::vector<Atom>> ParseAtomConjunction() {
    std::vector<Atom> atoms;
    while (true) {
      DATALOG_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      atoms.push_back(std::move(atom));
      if (Peek().kind == TokenKind::kComma || Peek().kind == TokenKind::kAmp) {
        Advance();
        continue;
      }
      break;
    }
    return atoms;
  }

  /// Parses a (possibly negated) body literal. The recorded span covers
  /// the negation marker too, so diagnostics can point at `not p(x)` as a
  /// whole.
  Result<Literal> ParseLiteral(AtomSourceSpans* source = nullptr) {
    bool negated = false;
    SourceSpan negation_span;
    if (Peek().kind == TokenKind::kBang) {
      negated = true;
      negation_span = Peek().Span();
      Advance();
    } else if (Peek().kind == TokenKind::kIdent && Peek().text == "not") {
      // "not" followed by an atom is a negated literal; a bare ident "not"
      // followed by anything else would be a 0-ary predicate named "not",
      // which we reject for clarity.
      negated = true;
      negation_span = Peek().Span();
      Advance();
    }
    DATALOG_ASSIGN_OR_RETURN(Atom atom, ParseAtom(source));
    if (negated && source != nullptr) {
      source->span = SourceSpan::Join(negation_span, source->span);
    }
    return Literal{std::move(atom), negated};
  }

  Result<Atom> ParseAtom(AtomSourceSpans* source = nullptr) {
    std::vector<Term> args;
    SourceSpan span;
    DATALOG_ASSIGN_OR_RETURN(
        PredicateId pred,
        ParseAtomParts(&args, &span,
                       source != nullptr ? &source->arg_spans : nullptr));
    Atom atom(pred, std::move(args));
    atom.set_span(span);
    if (source != nullptr) source->span = span;
    return atom;
  }

  /// Parses `ident [ "(" term { "," term } ")" ]` and interns the
  /// predicate at the argument count. The arguments replace `*args`, the
  /// atom's span goes to `*span`, and each argument's span is appended to
  /// `*arg_spans` when it is non-null.
  Result<PredicateId> ParseAtomParts(std::vector<Term>* args,
                                     SourceSpan* span,
                                     std::vector<SourceSpan>* arg_spans) {
    if (Peek().kind != TokenKind::kIdent) {
      return ErrorHere("expected predicate name");
    }
    const std::string_view name = Peek().text;
    *span = Peek().Span();
    Advance();
    args->clear();
    if (Peek().kind == TokenKind::kLParen) {
      Advance();
      if (Peek().kind != TokenKind::kRParen) {
        while (true) {
          if (arg_spans != nullptr) arg_spans->push_back(Peek().Span());
          DATALOG_ASSIGN_OR_RETURN(Term t, ParseTerm());
          args->push_back(t);
          if (Peek().kind == TokenKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
      }
      *span = SourceSpan::Join(*span, Peek().Span());
      DATALOG_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
    }
    return symbols_->InternPredicate(name, static_cast<int>(args->size()));
  }

  Result<Term> ParseTerm() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInteger: {
        Term t = Term::Int(tok.value);
        Advance();
        return t;
      }
      case TokenKind::kString: {
        Term t = Term::Constant(Value::Symbol(symbols_->InternSymbol(tok.text)));
        Advance();
        return t;
      }
      case TokenKind::kIdent: {
        Term t = Term::Variable(symbols_->InternVariable(tok.text));
        Advance();
        return t;
      }
      default:
        return ErrorHere("expected term");
    }
  }

  const Token& Peek() const { return token_; }
  void Advance() { token_ = lexer_.Next(); }

  Status Expect(TokenKind kind, std::string_view what) {
    if (Peek().kind != kind) {
      return ErrorHere("expected " + std::string(what));
    }
    Advance();
    return Status::OK();
  }

  Status ErrorHere(std::string message) const {
    // "line L:C" keeps the historical "line L" prefix while reporting the
    // exact column of the offending token.
    return Status::InvalidArgument("line " + std::to_string(Peek().line) +
                                   ":" + std::to_string(Peek().col) + ": " +
                                   std::move(message));
  }

  Lexer lexer_;
  Token token_;  // the lookahead
  SymbolTable* symbols_;
};

/// Runs `parse` (a function of a TokenParser over `text` returning a
/// Result) and, when it fails, lets a lexical error anywhere in the text
/// take precedence over its error (TokenParser::Failed).
template <typename Parse>
auto ParseText(std::string_view text, SymbolTable* symbols, Parse parse) {
  TokenParser parser(text, symbols);
  auto result = parse(parser);
  if (!result.ok()) result = parser.Failed(result.status());
  return result;
}

}  // namespace

Result<Program> Parser::ParseProgram(std::string_view text) {
  return ParseText(text, symbols_.get(),
                   [&](TokenParser& parser) -> Result<Program> {
                     Program program(symbols_);
                     while (!parser.AtEnd()) {
                       DATALOG_ASSIGN_OR_RETURN(Rule rule,
                                                parser.ParseRuleOrFact());
                       program.AddRule(std::move(rule));
                     }
                     return program;
                   });
}

Result<ParsedProgram> Parser::ParseProgramWithSource(std::string_view text) {
  return ParseText(
      text, symbols_.get(), [&](TokenParser& parser) -> Result<ParsedProgram> {
        ParsedProgram parsed(symbols_);
        while (!parser.AtEnd()) {
          if (parser.AtQuery()) {
            DATALOG_ASSIGN_OR_RETURN(Atom query, parser.ParseQueryStatement());
            parsed.query_spans.push_back(query.span());
            parsed.queries.push_back(std::move(query));
            continue;
          }
          RuleSourceSpans source;
          DATALOG_ASSIGN_OR_RETURN(Rule rule, parser.ParseRuleOrFact(&source));
          parsed.program.AddRule(std::move(rule));
          parsed.source.rules.push_back(std::move(source));
        }
        return parsed;
      });
}

Result<Rule> Parser::ParseRule(std::string_view text) {
  return ParseText(text, symbols_.get(),
                   [](TokenParser& parser) -> Result<Rule> {
                     DATALOG_ASSIGN_OR_RETURN(Rule rule,
                                              parser.ParseRuleOrFact());
                     DATALOG_RETURN_IF_ERROR(parser.ExpectEnd());
                     return rule;
                   });
}

Result<Tgd> Parser::ParseTgd(std::string_view text) {
  return ParseText(text, symbols_.get(),
                   [](TokenParser& parser) -> Result<Tgd> {
                     DATALOG_ASSIGN_OR_RETURN(Tgd tgd, parser.ParseTgd());
                     DATALOG_RETURN_IF_ERROR(parser.ExpectEnd());
                     return tgd;
                   });
}

Result<std::vector<Tgd>> Parser::ParseTgds(std::string_view text) {
  return ParseText(text, symbols_.get(),
                   [](TokenParser& parser) -> Result<std::vector<Tgd>> {
                     std::vector<Tgd> tgds;
                     while (!parser.AtEnd()) {
                       DATALOG_ASSIGN_OR_RETURN(Tgd tgd, parser.ParseTgd());
                       tgds.push_back(std::move(tgd));
                     }
                     return tgds;
                   });
}

Result<std::vector<Atom>> Parser::ParseGroundAtoms(std::string_view text) {
  return ParseText(text, symbols_.get(),
                   [](TokenParser& parser) -> Result<std::vector<Atom>> {
                     std::vector<Atom> atoms;
                     while (!parser.AtEnd()) {
                       DATALOG_ASSIGN_OR_RETURN(
                           Atom atom, parser.ParseGroundAtomStatement());
                       atoms.push_back(std::move(atom));
                     }
                     return atoms;
                   });
}

Result<FactRows> Parser::ParseFactRows(std::string_view text) {
  return ParseText(text, symbols_.get(),
                   [](TokenParser& parser) -> Result<FactRows> {
                     FactRows facts;
                     std::vector<Term> args;
                     while (!parser.AtEnd()) {
                       DATALOG_ASSIGN_OR_RETURN(
                           PredicateId pred, parser.ParseGroundFact(&args));
                       facts.predicates.push_back(pred);
                       for (const Term& arg : args) {
                         facts.values.push_back(arg.value());
                       }
                     }
                     return facts;
                   });
}

Result<Atom> Parser::ParseQuery(std::string_view text) {
  return ParseText(text, symbols_.get(),
                   [](TokenParser& parser) -> Result<Atom> {
                     DATALOG_ASSIGN_OR_RETURN(Atom atom,
                                              parser.ParseQueryStatement());
                     DATALOG_RETURN_IF_ERROR(parser.ExpectEnd());
                     return atom;
                   });
}

}  // namespace datalog
