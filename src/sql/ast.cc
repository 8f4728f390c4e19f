#include "sql/ast.h"

#include <sstream>

namespace exi::sql {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNe: return "<>";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLe: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGe: return ">=";
    case BinaryOp::kAdd: return "+";
    case BinaryOp::kSub: return "-";
    case BinaryOp::kMul: return "*";
    case BinaryOp::kDiv: return "/";
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
  }
  return "?";
}

namespace {

const char* AggName(AggFunc f) {
  switch (f) {
    case AggFunc::kCount: return "COUNT";
    case AggFunc::kSum: return "SUM";
    case AggFunc::kMin: return "MIN";
    case AggFunc::kMax: return "MAX";
    case AggFunc::kAvg: return "AVG";
  }
  return "?";
}

}  // namespace

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef: {
      if (!qualifier.empty()) os << qualifier << ".";
      os << column;
      for (const std::string& a : attr_path) os << "." << a;
      return os.str();
    }
    case ExprKind::kBinary:
      os << "(" << children[0]->ToString() << " " << BinaryOpName(bop) << " "
         << children[1]->ToString() << ")";
      return os.str();
    case ExprKind::kUnary:
      os << (uop == UnaryOp::kNot ? "NOT " : "-") << children[0]->ToString();
      return os.str();
    case ExprKind::kFunctionCall: {
      os << function << "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i) os << ", ";
        os << children[i]->ToString();
      }
      os << ")";
      return os.str();
    }
    case ExprKind::kIsNull:
      os << children[0]->ToString() << (negated ? " IS NOT NULL" : " IS NULL");
      return os.str();
    case ExprKind::kLike:
      os << children[0]->ToString() << (negated ? " NOT LIKE " : " LIKE ")
         << children[1]->ToString();
      return os.str();
    case ExprKind::kAggregate:
      os << AggName(agg) << "(" << (agg_star ? "*" : children[0]->ToString())
         << ")";
      return os.str();
    case ExprKind::kStar:
      return "*";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> Expr::MakeBinary(BinaryOp op, std::unique_ptr<Expr> lhs,
                                       std::unique_ptr<Expr> rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->bop = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

}  // namespace exi::sql
