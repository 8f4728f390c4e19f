#include "exec/expression.h"

#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace exi {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;

namespace {

// Built-in scalar functions: result type and implementation.  Each takes
// one argument and maps NULL to NULL.
Result<Value> LowerFn(const ValueList& args) {
  if (args[0].is_null()) return Value::Null();
  if (args[0].tag() != TypeTag::kVarchar) {
    return Status::TypeMismatch("lower expects VARCHAR");
  }
  return Value::Varchar(ToLower(args[0].AsVarchar()));
}

Result<Value> UpperFn(const ValueList& args) {
  if (args[0].is_null()) return Value::Null();
  if (args[0].tag() != TypeTag::kVarchar) {
    return Status::TypeMismatch("upper expects VARCHAR");
  }
  return Value::Varchar(ToUpper(args[0].AsVarchar()));
}

Result<Value> LengthFn(const ValueList& args) {
  if (args[0].is_null()) return Value::Null();
  if (args[0].tag() != TypeTag::kVarchar) {
    return Status::TypeMismatch("length expects VARCHAR");
  }
  return Value::Integer(int64_t(args[0].AsVarchar().size()));
}

Result<Value> AbsFn(const ValueList& args) {
  if (args[0].is_null()) return Value::Null();
  if (args[0].tag() == TypeTag::kInteger) {
    return Value::Integer(std::llabs(args[0].AsInteger()));
  }
  if (args[0].tag() == TypeTag::kDouble) {
    return Value::Double(std::fabs(args[0].AsDouble()));
  }
  return Status::TypeMismatch("abs expects a number");
}

struct BuiltinFn {
  const char* name;
  TypeTag result;
  Result<Value> (*impl)(const ValueList& args);
};
constexpr BuiltinFn kBuiltinFns[] = {
    {"lower", TypeTag::kVarchar, LowerFn},
    {"upper", TypeTag::kVarchar, UpperFn},
    {"length", TypeTag::kInteger, LengthFn},
    {"abs", TypeTag::kDouble, AbsFn},
};

const BuiltinFn* FindBuiltin(const std::string& name) {
  for (const BuiltinFn& fn : kBuiltinFns) {
    if (EqualsIgnoreCase(fn.name, name)) return &fn;
  }
  return nullptr;
}

}  // namespace

Status Binder::BindColumnRef(Expr* expr,
                             const std::vector<BoundTable>& tables) const {
  // Resolution: (a) qualifier matches a table alias -> qualified column;
  // (b) otherwise fall back to interpreting the "qualifier" as a column
  // name with the "column" as its first object attribute (col.attr form).
  const BoundTable* found_table = nullptr;
  int found_col = -1;

  auto try_resolve = [&](const std::string& qualifier,
                         const std::string& column) -> Result<bool> {
    found_table = nullptr;
    found_col = -1;
    for (const BoundTable& t : tables) {
      if (!qualifier.empty() && !EqualsIgnoreCase(t.alias, qualifier)) {
        continue;
      }
      int c = t.schema->FindColumn(column);
      if (c < 0) continue;
      if (found_table != nullptr) {
        return Status::BindError("ambiguous column: " + column);
      }
      found_table = &t;
      found_col = c;
    }
    return found_table != nullptr;
  };

  EXI_ASSIGN_OR_RETURN(bool ok, try_resolve(expr->qualifier, expr->column));
  if (!ok && !expr->qualifier.empty()) {
    // col.attr fallback: qualifier is actually the column.
    EXI_ASSIGN_OR_RETURN(bool ok2, try_resolve("", expr->qualifier));
    if (ok2) {
      expr->attr_path.insert(expr->attr_path.begin(), expr->column);
      expr->column = expr->qualifier;
      expr->qualifier.clear();
      ok = true;
    }
  }
  if (!ok) {
    return Status::BindError("unknown column: " +
                             (expr->qualifier.empty()
                                  ? expr->column
                                  : expr->qualifier + "." + expr->column));
  }

  expr->slot = int(found_table->slot_offset) + found_col;
  const DataType& col_type = found_table->schema->column(found_col).type;
  if (expr->attr_path.empty()) {
    expr->result_type = col_type;
    return Status::OK();
  }
  // Object attribute access (single level, e.g. img.signature).
  if (expr->attr_path.size() > 1) {
    return Status::NotSupported("nested attribute access: " +
                                expr->ToString());
  }
  if (col_type.tag() != TypeTag::kObject) {
    return Status::BindError("attribute access on non-object column: " +
                             expr->column);
  }
  EXI_ASSIGN_OR_RETURN(const ObjectTypeDef* def,
                       catalog_->GetObjectType(col_type.object_type()));
  int attr = def->FindAttribute(expr->attr_path[0]);
  if (attr < 0) {
    return Status::BindError("object type " + def->name +
                             " has no attribute " + expr->attr_path[0]);
  }
  expr->attr_index = attr;
  expr->result_type = def->attributes[attr].second;
  return Status::OK();
}

Status Binder::BindFunctionCall(Expr* expr,
                                const std::vector<BoundTable>& tables) const {
  for (auto& child : expr->children) {
    EXI_RETURN_IF_ERROR(Bind(child.get(), tables));
  }
  // Score(): the ancillary value of the row's domain-index scan (§2.4.2).
  if (expr->children.empty() && EqualsIgnoreCase(expr->function, "score") &&
      !catalog_->OperatorExists(expr->function) &&
      !catalog_->functions().Contains(expr->function)) {
    expr->call = sql::CallKind::kScore;
    expr->result_type = DataType::Double();
    return Status::OK();
  }
  // User-defined operator: bind the chosen binding's function (§2.2.2).
  if (catalog_->OperatorExists(expr->function)) {
    EXI_ASSIGN_OR_RETURN(const OperatorDef* op,
                         catalog_->GetOperator(expr->function));
    std::vector<TypeTag> tags;
    for (const auto& child : expr->children) {
      tags.push_back(child->result_type.tag());
    }
    int binding = op->MatchBinding(tags);
    if (binding < 0) {
      return Status::BindError("no binding of operator " + op->name +
                               " matches argument types in " +
                               expr->ToString());
    }
    const OperatorBinding& chosen = op->bindings[binding];
    EXI_ASSIGN_OR_RETURN(expr->fn,
                         catalog_->functions().Get(chosen.function_name));
    expr->call = sql::CallKind::kOperator;
    expr->result_type = chosen.return_type;
    return Status::OK();
  }
  // Registered plain function (callable without an operator)?
  if (catalog_->functions().Contains(expr->function)) {
    EXI_ASSIGN_OR_RETURN(expr->fn, catalog_->functions().Get(expr->function));
    expr->call = sql::CallKind::kFunction;
    expr->result_type = DataType::Null();  // dynamic
    return Status::OK();
  }
  if (const BuiltinFn* fn = FindBuiltin(expr->function)) {
    if (expr->children.size() != 1) {
      return Status::BindError("wrong argument count for " + expr->function);
    }
    expr->fn = fn->impl;
    expr->call = sql::CallKind::kBuiltin;
    expr->result_type = DataType(fn->result);
    return Status::OK();
  }
  return Status::BindError("unknown function or operator: " + expr->function);
}

Status Binder::Bind(Expr* expr, const std::vector<BoundTable>& tables) const {
  switch (expr->kind) {
    case ExprKind::kLiteral:
      expr->result_type = DataType(expr->literal.tag());
      return Status::OK();
    case ExprKind::kColumnRef:
      return BindColumnRef(expr, tables);
    case ExprKind::kFunctionCall:
      return BindFunctionCall(expr, tables);
    case ExprKind::kBinary: {
      EXI_RETURN_IF_ERROR(Bind(expr->children[0].get(), tables));
      EXI_RETURN_IF_ERROR(Bind(expr->children[1].get(), tables));
      switch (expr->bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv: {
          TypeTag a = expr->children[0]->result_type.tag();
          TypeTag b = expr->children[1]->result_type.tag();
          expr->result_type =
              (a == TypeTag::kDouble || b == TypeTag::kDouble)
                  ? DataType::Double()
                  : DataType::Integer();
          return Status::OK();
        }
        default:
          expr->result_type = DataType::Boolean();
          return Status::OK();
      }
    }
    case ExprKind::kUnary:
      EXI_RETURN_IF_ERROR(Bind(expr->children[0].get(), tables));
      expr->result_type = expr->uop == sql::UnaryOp::kNot
                              ? DataType::Boolean()
                              : expr->children[0]->result_type;
      return Status::OK();
    case ExprKind::kIsNull:
    case ExprKind::kLike:
      for (auto& child : expr->children) {
        EXI_RETURN_IF_ERROR(Bind(child.get(), tables));
      }
      expr->result_type = DataType::Boolean();
      return Status::OK();
    case ExprKind::kAggregate:
      if (!expr->agg_star) {
        EXI_RETURN_IF_ERROR(Bind(expr->children[0].get(), tables));
      }
      expr->result_type = expr->agg == sql::AggFunc::kCount
                              ? DataType::Integer()
                              : (expr->agg_star
                                     ? DataType::Integer()
                                     : expr->children[0]->result_type);
      return Status::OK();
    case ExprKind::kStar:
      return Status::BindError("'*' is only valid directly in a select list");
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace exi
