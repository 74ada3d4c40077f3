#include "predicate/expr.h"

#include <cctype>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/error.h"

namespace wcp::pred {

Expr Expr::lit(std::int64_t v) {
  auto n = std::make_shared<Node>();
  n->op = Op::kConst;
  n->value = v;
  return Expr(std::move(n));
}

Expr Expr::var(std::string name) {
  WCP_REQUIRE(!name.empty(), "variable name must be non-empty");
  auto n = std::make_shared<Node>();
  n->op = Op::kVar;
  n->name = std::move(name);
  return Expr(std::move(n));
}

Expr Expr::unary(Op op, Expr e) {
  auto n = std::make_shared<Node>();
  n->op = op;
  n->lhs = std::move(e.node_);
  return Expr(std::move(n));
}

Expr Expr::binary(Op op, Expr a, Expr b) {
  auto n = std::make_shared<Node>();
  n->op = op;
  n->lhs = std::move(a.node_);
  n->rhs = std::move(b.node_);
  return Expr(std::move(n));
}

Expr operator-(Expr e) { return Expr::unary(Op::kNeg, std::move(e)); }
Expr operator!(Expr e) { return Expr::unary(Op::kNot, std::move(e)); }
#define WCP_EXPR_BINOP(sym, op)                          \
  Expr operator sym(Expr a, Expr b) {                    \
    return Expr::binary(op, std::move(a), std::move(b)); \
  }
WCP_EXPR_BINOP(+, Op::kAdd)
WCP_EXPR_BINOP(-, Op::kSub)
WCP_EXPR_BINOP(*, Op::kMul)
WCP_EXPR_BINOP(<, Op::kLt)
WCP_EXPR_BINOP(<=, Op::kLe)
WCP_EXPR_BINOP(>, Op::kGt)
WCP_EXPR_BINOP(>=, Op::kGe)
WCP_EXPR_BINOP(==, Op::kEq)
WCP_EXPR_BINOP(!=, Op::kNe)
WCP_EXPR_BINOP(&&, Op::kAnd)
WCP_EXPR_BINOP(||, Op::kOr)
#undef WCP_EXPR_BINOP

std::int64_t Expr::eval(const Env& env) const {
  const Node& n = *node_;
  auto lhs = [&] { return Expr(n.lhs).eval(env); };
  auto rhs = [&] { return Expr(n.rhs).eval(env); };
  switch (n.op) {
    case Op::kConst: return n.value;
    case Op::kVar: return env.get(n.name);
    case Op::kNeg: return -lhs();
    case Op::kNot: return lhs() == 0 ? 1 : 0;
    case Op::kAdd: return lhs() + rhs();
    case Op::kSub: return lhs() - rhs();
    case Op::kMul: return lhs() * rhs();
    case Op::kLt: return lhs() < rhs() ? 1 : 0;
    case Op::kLe: return lhs() <= rhs() ? 1 : 0;
    case Op::kGt: return lhs() > rhs() ? 1 : 0;
    case Op::kGe: return lhs() >= rhs() ? 1 : 0;
    case Op::kEq: return lhs() == rhs() ? 1 : 0;
    case Op::kNe: return lhs() != rhs() ? 1 : 0;
    // Both operands are always evaluated; expressions are side-effect-free
    // so short-circuiting is unobservable.
    case Op::kAnd: return (lhs() != 0) && (rhs() != 0) ? 1 : 0;
    case Op::kOr: return (lhs() != 0) || (rhs() != 0) ? 1 : 0;
  }
  WCP_CHECK_MSG(false, "corrupt expression node");
}

namespace {

const char* op_symbol(Op op) {
  switch (op) {
    case Op::kAdd: return "+";
    case Op::kSub: return "-";
    case Op::kMul: return "*";
    case Op::kLt: return "<";
    case Op::kLe: return "<=";
    case Op::kGt: return ">";
    case Op::kGe: return ">=";
    case Op::kEq: return "==";
    case Op::kNe: return "!=";
    case Op::kAnd: return "&&";
    case Op::kOr: return "||";
    default: return "?";
  }
}

// Recursive-descent parser. Grammar (usual precedence):
//   or    := and ('||' and)*
//   and   := cmp ('&&' cmp)*
//   cmp   := sum (('<'|'<='|'>'|'>='|'=='|'!=') sum)?
//   sum   := term (('+'|'-') term)*
//   term  := factor ('*' factor)*
//   factor:= INT | IDENT | '(' or ')' | '!' factor | '-' factor
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Expr parse() {
    Expr e = parse_or();
    skip_ws();
    if (pos_ != text_.size()) fail("unexpected trailing input");
    return e;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream oss;
    oss << "predicate parse error at position " << pos_ << ": " << what
        << " in '" << std::string(text_) << "'";
    throw std::invalid_argument(oss.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(
                                      text_[pos_])))
      ++pos_;
  }

  bool eat(std::string_view token) {
    skip_ws();
    if (text_.substr(pos_, token.size()) != token) return false;
    // Don't let '<' eat the prefix of '<=' etc.
    if ((token == "<" || token == ">") && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] == '=')
      return false;
    if (token == "!" && pos_ + 1 < text_.size() && text_[pos_ + 1] == '=')
      return false;
    pos_ += token.size();
    return true;
  }

  Expr parse_or() {
    Expr e = parse_and();
    while (eat("||")) e = std::move(e) || parse_and();
    return e;
  }

  Expr parse_and() {
    Expr e = parse_cmp();
    while (eat("&&")) e = std::move(e) && parse_cmp();
    return e;
  }

  Expr parse_cmp() {
    Expr e = parse_sum();
    if (eat("<=")) return std::move(e) <= parse_sum();
    if (eat(">=")) return std::move(e) >= parse_sum();
    if (eat("==")) return std::move(e) == parse_sum();
    if (eat("!=")) return std::move(e) != parse_sum();
    if (eat("<")) return std::move(e) < parse_sum();
    if (eat(">")) return std::move(e) > parse_sum();
    return e;
  }

  Expr parse_sum() {
    Expr e = parse_term();
    while (true) {
      if (eat("+")) {
        e = std::move(e) + parse_term();
      } else if (eat("-")) {
        e = std::move(e) - parse_term();
      } else {
        return e;
      }
    }
  }

  Expr parse_term() {
    Expr e = parse_factor();
    while (eat("*")) e = std::move(e) * parse_factor();
    return e;
  }

  Expr parse_factor() {
    skip_ws();
    if (eat("(")) {
      Expr e = parse_or();
      if (!eat(")")) fail("expected ')'");
      return e;
    }
    if (eat("!")) return !parse_factor();
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
      return -parse_factor();
    }
    if (pos_ >= text_.size()) fail("unexpected end of input");
    const char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::int64_t v = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        v = v * 10 + (text_[pos_++] - '0');
      return Expr::lit(v);
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_'))
        ++pos_;
      return Expr::var(std::string(text_.substr(start, pos_ - start)));
    }
    fail(std::string("unexpected character '") + c + "'");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Expr Expr::parse(std::string_view text) { return Parser(text).parse(); }

std::string Expr::to_string() const {
  std::ostringstream oss;
  oss << *this;
  return oss.str();
}

std::ostream& operator<<(std::ostream& os, const Expr& e) {
  // Fully parenthesized form (round-trips through parse()).
  struct Printer {
    static void print(std::ostream& os, const Expr& e) {
      const auto& n = *e.node_;
      switch (n.op) {
        case Op::kConst: os << n.value; return;
        case Op::kVar: os << n.name; return;
        case Op::kNeg:
          os << "(-";
          print(os, Expr(n.lhs));
          os << ')';
          return;
        case Op::kNot:
          os << "(!";
          print(os, Expr(n.lhs));
          os << ')';
          return;
        default:
          os << '(';
          print(os, Expr(n.lhs));
          os << ' ' << op_symbol(n.op) << ' ';
          print(os, Expr(n.rhs));
          os << ')';
          return;
      }
    }
  };
  Printer::print(os, e);
  return os;
}

}  // namespace wcp::pred
