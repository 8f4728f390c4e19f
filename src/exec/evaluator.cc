#include "exec/evaluator.h"

#include "common/metrics.h"

namespace exi {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

std::optional<Value> Evaluator::CoerceKey(const DataType& column,
                                          const Value& v) {
  if (v.is_null()) return v;
  const DataType type(v.tag());
  if (column.tag() == TypeTag::kBoolean && type.is_numeric()) {
    if (v.AsDouble() != 0.0 && v.AsDouble() != 1.0) return std::nullopt;
    return Value::Boolean(v.AsDouble() == 1.0);
  }
  if (column.is_numeric() && type.tag() == TypeTag::kBoolean) {
    return Value::Integer(v.AsBoolean() ? 1 : 0);
  }
  if (column.is_numeric() ? type.is_numeric() : type.tag() == column.tag()) {
    return v;
  }
  return std::nullopt;
}

bool Evaluator::IsTruthy(const Value& v) {
  switch (v.tag()) {
    case TypeTag::kBoolean:
      return v.AsBoolean();
    case TypeTag::kInteger:
      return v.AsInteger() != 0;
    case TypeTag::kDouble:
      return v.AsDouble() != 0.0;
    default:
      return false;
  }
}

bool Evaluator::LikeMatch(const std::string& text,
                          const std::string& pattern) {
  // Iterative matcher with backtracking over the last '%'.
  size_t t = 0;
  size_t p = 0;
  size_t star_p = std::string::npos;
  size_t star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Result<Value> Evaluator::EvalBinary(const Expr& expr, const Row& row,
                                    const Value* ancillary) {
  // AND/OR get short-circuit three-valued logic.
  if (expr.bop == BinaryOp::kAnd || expr.bop == BinaryOp::kOr) {
    EXI_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.children[0], row, ancillary));
    bool is_and = expr.bop == BinaryOp::kAnd;
    if (!lhs.is_null()) {
      bool lv = IsTruthy(lhs);
      if (is_and && !lv) return Value::Boolean(false);
      if (!is_and && lv) return Value::Boolean(true);
    }
    EXI_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.children[1], row, ancillary));
    if (!rhs.is_null()) {
      bool rv = IsTruthy(rhs);
      if (is_and && !rv) return Value::Boolean(false);
      if (!is_and && rv) return Value::Boolean(true);
    }
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Boolean(is_and);
  }

  EXI_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.children[0], row, ancillary));
  EXI_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.children[1], row, ancillary));
  if (lhs.is_null() || rhs.is_null()) return Value::Null();

  // Booleans compared with numbers coerce to 0/1, so the paper's
  // `Contains(...) = 1` spelling (footnote 1) works identically on the
  // functional path and the domain-index path.
  auto coerce_bool = [](Value* a, const Value& b) {
    if (a->tag() == TypeTag::kBoolean && DataType(b.tag()).is_numeric()) {
      *a = Value::Integer(a->AsBoolean() ? 1 : 0);
    }
  };
  switch (expr.bop) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      coerce_bool(&lhs, rhs);
      coerce_bool(&rhs, lhs);
      break;
    default:
      break;
  }

  switch (expr.bop) {
    case BinaryOp::kEq:
    case BinaryOp::kNe: {
      bool eq = lhs.Equals(rhs);
      return Value::Boolean(expr.bop == BinaryOp::kEq ? eq : !eq);
    }
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      EXI_ASSIGN_OR_RETURN(int c, Value::Compare(lhs, rhs));
      switch (expr.bop) {
        case BinaryOp::kLt: return Value::Boolean(c < 0);
        case BinaryOp::kLe: return Value::Boolean(c <= 0);
        case BinaryOp::kGt: return Value::Boolean(c > 0);
        default: return Value::Boolean(c >= 0);
      }
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv: {
      if (!DataType(lhs.tag()).is_numeric() ||
          !DataType(rhs.tag()).is_numeric()) {
        return Status::TypeMismatch("arithmetic over non-numeric values in " +
                                    expr.ToString());
      }
      bool as_double = lhs.tag() == TypeTag::kDouble ||
                       rhs.tag() == TypeTag::kDouble ||
                       expr.bop == BinaryOp::kDiv;
      if (as_double) {
        double a = lhs.AsDouble();
        double b = rhs.AsDouble();
        switch (expr.bop) {
          case BinaryOp::kAdd: return Value::Double(a + b);
          case BinaryOp::kSub: return Value::Double(a - b);
          case BinaryOp::kMul: return Value::Double(a * b);
          default:
            if (b == 0.0) {
              return Status::InvalidArgument("division by zero");
            }
            return Value::Double(a / b);
        }
      }
      int64_t a = lhs.AsInteger();
      int64_t b = rhs.AsInteger();
      switch (expr.bop) {
        case BinaryOp::kAdd: return Value::Integer(a + b);
        case BinaryOp::kSub: return Value::Integer(a - b);
        default: return Value::Integer(a * b);
      }
    }
    default:
      return Status::Internal("unhandled binary operator");
  }
}

Result<Value> Evaluator::EvalFunction(const Expr& expr, const Row& row,
                                      const Value* ancillary) {
  if (expr.call == sql::CallKind::kScore) {
    if (ancillary == nullptr) {
      return Status::InvalidArgument(
          "Score() is only available in queries, fed by a domain-index "
          "scan's ancillary data");
    }
    return *ancillary;
  }
  if (!expr.fn) return Status::Internal("unbound function: " + expr.function);
  ValueList args;
  args.reserve(expr.children.size());
  for (const auto& child : expr.children) {
    EXI_ASSIGN_OR_RETURN(Value v, Eval(*child, row, ancillary));
    args.push_back(std::move(v));
  }
  if (expr.call != sql::CallKind::kBuiltin) {
    GlobalMetrics().functional_evaluations++;
  }
  return expr.fn(args);
}

Result<Value> Evaluator::Eval(const Expr& expr, const Row& row,
                              const Value* ancillary) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      if (expr.slot < 0 || size_t(expr.slot) >= row.size()) {
        return Status::Internal("unbound column reference: " +
                                expr.ToString());
      }
      const Value& v = row[expr.slot];
      if (expr.attr_index < 0) return v;
      if (v.is_null()) return Value::Null();
      if (v.tag() != TypeTag::kObject ||
          size_t(expr.attr_index) >= v.AsObject().attributes.size()) {
        return Status::Internal("bad attribute access: " + expr.ToString());
      }
      return v.AsObject().attributes[expr.attr_index];
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, row, ancillary);
    case ExprKind::kUnary: {
      EXI_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], row, ancillary));
      if (v.is_null()) return Value::Null();
      if (expr.uop == sql::UnaryOp::kNot) {
        return Value::Boolean(!IsTruthy(v));
      }
      if (v.tag() == TypeTag::kInteger) {
        return Value::Integer(-v.AsInteger());
      }
      if (v.tag() == TypeTag::kDouble) return Value::Double(-v.AsDouble());
      return Status::TypeMismatch("negation of non-numeric value");
    }
    case ExprKind::kFunctionCall:
      return EvalFunction(expr, row, ancillary);
    case ExprKind::kIsNull: {
      EXI_ASSIGN_OR_RETURN(Value v, Eval(*expr.children[0], row, ancillary));
      return Value::Boolean(expr.negated ? !v.is_null() : v.is_null());
    }
    case ExprKind::kLike: {
      EXI_ASSIGN_OR_RETURN(Value text, Eval(*expr.children[0], row, ancillary));
      EXI_ASSIGN_OR_RETURN(Value pattern, Eval(*expr.children[1], row, ancillary));
      if (text.is_null() || pattern.is_null()) return Value::Null();
      if (text.tag() != TypeTag::kVarchar ||
          pattern.tag() != TypeTag::kVarchar) {
        return Status::TypeMismatch("LIKE expects VARCHAR operands");
      }
      bool m = LikeMatch(text.AsVarchar(), pattern.AsVarchar());
      return Value::Boolean(expr.negated ? !m : m);
    }
    case ExprKind::kAggregate:
      return Status::Internal(
          "aggregate evaluated outside an aggregation node");
    case ExprKind::kStar:
      return Status::Internal("'*' evaluated as an expression");
  }
  return Status::Internal("unhandled expression kind");
}

Result<bool> Evaluator::EvalPredicate(const Expr& expr, const Row& row,
                                      const Value* ancillary) {
  EXI_ASSIGN_OR_RETURN(Value v, Eval(expr, row, ancillary));
  if (v.is_null()) return false;
  return IsTruthy(v);
}

}  // namespace exi
