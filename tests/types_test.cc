// Unit tests for src/types: DataType parsing, Value semantics, Schema
// validation.

#include <gtest/gtest.h>

#include "types/datatype.h"
#include "types/schema.h"
#include "types/value.h"

namespace exi {
namespace {

TEST(DataTypeTest, FromString) {
  EXPECT_EQ(DataType::FromString("INTEGER")->tag(), TypeTag::kInteger);
  EXPECT_EQ(DataType::FromString("int")->tag(), TypeTag::kInteger);
  EXPECT_EQ(DataType::FromString("NUMBER")->tag(), TypeTag::kInteger);
  EXPECT_EQ(DataType::FromString("DOUBLE")->tag(), TypeTag::kDouble);
  EXPECT_EQ(DataType::FromString("BOOLEAN")->tag(), TypeTag::kBoolean);
  EXPECT_EQ(DataType::FromString("BLOB")->tag(), TypeTag::kBlob);
  EXPECT_EQ(DataType::FromString("LOB")->tag(), TypeTag::kLob);

  Result<DataType> vc = DataType::FromString("VARCHAR(128)");
  ASSERT_TRUE(vc.ok());
  EXPECT_EQ(vc->tag(), TypeTag::kVarchar);
  EXPECT_EQ(vc->varchar_len(), 128u);
  EXPECT_EQ(DataType::FromString("VARCHAR")->varchar_len(), 4000u);

  Result<DataType> va = DataType::FromString("VARRAY OF VARCHAR");
  ASSERT_TRUE(va.ok());
  EXPECT_EQ(va->tag(), TypeTag::kVarray);
  EXPECT_EQ(va->element_tag(), TypeTag::kVarchar);

  Result<DataType> obj = DataType::FromString("OBJECT geom");
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->object_type(), "geom");

  EXPECT_FALSE(DataType::FromString("WIBBLE").ok());
  EXPECT_FALSE(DataType::FromString("VARCHAR(0)").ok());
  EXPECT_FALSE(DataType::FromString("VARRAY OF BLOB").ok());
}

TEST(DataTypeTest, Equivalence) {
  EXPECT_TRUE(DataType::Varchar(10).EquivalentTo(DataType::Varchar(99)));
  EXPECT_TRUE(DataType::Object("A").EquivalentTo(DataType::Object("a")));
  EXPECT_FALSE(DataType::Object("A").EquivalentTo(DataType::Object("B")));
  EXPECT_FALSE(DataType::Integer().EquivalentTo(DataType::Double()));
  EXPECT_TRUE(DataType::Varray(TypeTag::kInteger)
                  .EquivalentTo(DataType::Varray(TypeTag::kInteger)));
  EXPECT_FALSE(DataType::Varray(TypeTag::kInteger)
                   .EquivalentTo(DataType::Varray(TypeTag::kVarchar)));
}

TEST(ValueTest, CompareSemantics) {
  EXPECT_EQ(*Value::Compare(Value::Integer(1), Value::Integer(2)), -1);
  EXPECT_EQ(*Value::Compare(Value::Integer(2), Value::Double(2.0)), 0);
  EXPECT_EQ(*Value::Compare(Value::Double(3.5), Value::Integer(3)), 1);
  EXPECT_EQ(*Value::Compare(Value::Varchar("a"), Value::Varchar("b")), -1);
  // NULL sorts first.
  EXPECT_EQ(*Value::Compare(Value::Null(), Value::Integer(-100)), -1);
  EXPECT_EQ(*Value::Compare(Value::Null(), Value::Null()), 0);
  // Incomparable types error.
  EXPECT_FALSE(
      Value::Compare(Value::Integer(1), Value::Varchar("1")).ok());
}

TEST(ValueTest, EqualsAndHashConsistency) {
  Value i = Value::Integer(42);
  Value d = Value::Double(42.0);
  EXPECT_TRUE(i.Equals(d));
  EXPECT_EQ(i.Hash(), d.Hash());  // cross-type equality implies hash equality

  Value arr1 = Value::Varray({Value::Integer(1), Value::Varchar("x")});
  Value arr2 = Value::Varray({Value::Integer(1), Value::Varchar("x")});
  EXPECT_TRUE(arr1.Equals(arr2));
  EXPECT_EQ(arr1.Hash(), arr2.Hash());

  Value obj1 = Value::Object("T", {Value::Integer(1)});
  Value obj2 = Value::Object("t", {Value::Integer(1)});
  EXPECT_TRUE(obj1.Equals(obj2));  // type names case-insensitive
  EXPECT_FALSE(obj1.Equals(Value::Object("T", {Value::Integer(2)})));
}

TEST(ValueTest, ConformsTo) {
  EXPECT_TRUE(Value::Null().ConformsTo(DataType::Integer()));
  EXPECT_TRUE(Value::Integer(1).ConformsTo(DataType::Double()));
  EXPECT_FALSE(Value::Double(1.5).ConformsTo(DataType::Integer()));
  EXPECT_TRUE(Value::Varray({Value::Integer(1)})
                  .ConformsTo(DataType::Varray(TypeTag::kDouble)));
  EXPECT_FALSE(Value::Varray({Value::Varchar("x")})
                   .ConformsTo(DataType::Varray(TypeTag::kInteger)));
  EXPECT_TRUE(Value::Object("G", {}).ConformsTo(DataType::Object("g")));
  EXPECT_FALSE(Value::Object("G", {}).ConformsTo(DataType::Object("h")));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Boolean(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Integer(-5).ToString(), "-5");
  EXPECT_EQ(Value::Varchar("hi").ToString(), "'hi'");
  EXPECT_EQ(Value::Varray({Value::Integer(1), Value::Integer(2)}).ToString(),
            "VARRAY(1, 2)");
}

TEST(ValueTest, CopySharesPayloadAndMoveLeavesNull) {
  Value s = Value::Varchar("shared payload");
  Value copy = s;
  EXPECT_EQ(&copy.AsVarchar(), &s.AsVarchar());
  Value obj = Value::Object("T", {Value::Integer(1)});
  Value obj_copy(obj);
  EXPECT_EQ(&obj_copy.AsObject(), &obj.AsObject());

  const std::string* payload = &s.AsVarchar();
  Value moved = std::move(s);
  EXPECT_TRUE(s.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&moved.AsVarchar(), payload);
  Value assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(moved.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&assigned.AsVarchar(), payload);
  EXPECT_EQ(copy.AsVarchar(), "shared payload");
}

TEST(ValueTest, SelfAssignmentKeepsThePayload) {
  Value s = Value::Varchar("self");
  Value& alias = s;
  s = alias;
  EXPECT_EQ(s.AsVarchar(), "self");
  s = std::move(alias);
  EXPECT_EQ(s.AsVarchar(), "self");
  Value list = Value::Varray({Value::Varchar("a"), Value::Varchar("b")});
  Value& list_alias = list;
  list = list_alias;
  list = std::move(list_alias);
  ASSERT_EQ(list.AsVarray().size(), 2u);
  EXPECT_EQ(list.AsVarray()[1].AsVarchar(), "b");
}

TEST(ValueTest, WrongTagAccessorsReturnZero) {
  std::vector<Value> values{Value::Null(),         Value::Boolean(true),
                            Value::Integer(7),     Value::Double(2.5),
                            Value::Varchar("x"),   Value::Blob({1, 2}),
                            Value::Lob(9),         Value::Varray({}),
                            Value::Object("T", {}), Value::FromRowId(11)};
  for (const Value& v : values) {
    SCOPED_TRACE(v.ToString());
    if (v.tag() != TypeTag::kInteger) {
      EXPECT_EQ(v.AsInteger(), 0);
    }
    if (v.tag() != TypeTag::kBoolean) {
      EXPECT_FALSE(v.AsBoolean());
    }
    if (v.tag() != TypeTag::kLob) {
      EXPECT_EQ(v.AsLob(), kInvalidLobId);
    }
    if (v.tag() != TypeTag::kRowId) {
      EXPECT_EQ(v.AsRowId(), kInvalidRowId);
    }
  }
  EXPECT_EQ(Value::Null().AsDouble(), 0.0);
  EXPECT_EQ(Value::Integer(7).AsDouble(), 7.0);
  EXPECT_TRUE(Value::Boolean(true).AsBoolean());
  EXPECT_EQ(Value::Lob(9).AsLob(), 9u);
  EXPECT_EQ(Value::FromRowId(11).AsRowId(), 11u);
}

TEST(ValueTest, NestedCollectionsCopyAndDestroyCleanly) {
  // Each level holds boxed payloads; the sanitizer build checks that every
  // box is freed once when the last copy goes.
  Value inner = Value::Varray({Value::Varchar("p"), Value::Varchar("q")});
  Value outer = Value::Object(
      "Outer", {inner, Value::Object("Inner", {Value::Varchar("r"), inner})});
  {
    ValueList rows(3, outer);
    rows.push_back(Value::Varray({outer, Value::Blob({7})}));
    EXPECT_TRUE(rows[3].AsVarray()[0].Equals(outer));
  }
  inner = Value::Null();
  const ObjectValue& o = outer.AsObject();
  EXPECT_EQ(o.attributes[0].AsVarray()[1].AsVarchar(), "q");
  EXPECT_EQ(o.attributes[1].AsObject().attributes[1].AsVarray()[0].AsVarchar(),
            "p");
  EXPECT_EQ(outer.ToString(),
            "Outer(VARRAY('p', 'q'), Inner('r', VARRAY('p', 'q')))");
}

TEST(SchemaTest, ValidateRow) {
  Schema schema;
  schema.AddColumn(Column{"id", DataType::Integer(), true});
  schema.AddColumn(Column{"name", DataType::Varchar(10), false});

  EXPECT_TRUE(schema.ValidateRow({Value::Integer(1), Value::Varchar("x")})
                  .ok());
  EXPECT_TRUE(schema.ValidateRow({Value::Integer(1), Value::Null()}).ok());
  // NOT NULL violated.
  EXPECT_EQ(schema.ValidateRow({Value::Null(), Value::Null()}).code(),
            StatusCode::kConstraintViolation);
  // Arity mismatch.
  EXPECT_EQ(schema.ValidateRow({Value::Integer(1)}).code(),
            StatusCode::kTypeMismatch);
  // Type mismatch.
  EXPECT_EQ(schema.ValidateRow({Value::Varchar("x"), Value::Null()}).code(),
            StatusCode::kTypeMismatch);
}

TEST(SchemaTest, FindColumnIsCaseInsensitive) {
  Schema schema;
  schema.AddColumn(Column{"Resume", DataType::Varchar(100), false});
  EXPECT_EQ(schema.FindColumn("resume"), 0);
  EXPECT_EQ(schema.FindColumn("RESUME"), 0);
  EXPECT_EQ(schema.FindColumn("nope"), -1);
}

}  // namespace
}  // namespace exi
