#include "engine/snapshot.h"

#include <cstring>
#include <fstream>

#include "common/strings.h"

namespace exi {

namespace {

constexpr uint32_t kMagic = 0x45584944;  // "EXID"
constexpr uint32_t kVersion = 1;

// ---- binary writer/reader over a growable buffer ----

class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(char(v)); }
  void U32(uint32_t v) { Raw(&v, 4); }
  void I64(int64_t v) { Raw(&v, 8); }
  void F64(double v) { Raw(&v, 8); }
  void Str(const std::string& s) {
    U32(uint32_t(s.size()));
    buf_.append(s);
  }
  void Raw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  const std::string& buffer() const { return buf_; }

 private:
  std::string buf_;
};

class Reader {
 public:
  explicit Reader(std::string buf) : buf_(std::move(buf)) {}

  Result<uint8_t> U8() {
    EXI_RETURN_IF_ERROR(Need(1));
    return uint8_t(buf_[pos_++]);
  }
  Result<uint32_t> U32() {
    EXI_RETURN_IF_ERROR(Need(4));
    uint32_t v;
    std::memcpy(&v, buf_.data() + pos_, 4);
    pos_ += 4;
    return v;
  }
  Result<int64_t> I64() {
    EXI_RETURN_IF_ERROR(Need(8));
    int64_t v;
    std::memcpy(&v, buf_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  Result<double> F64() {
    EXI_RETURN_IF_ERROR(Need(8));
    double v;
    std::memcpy(&v, buf_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  Result<std::string> Str() {
    EXI_ASSIGN_OR_RETURN(uint32_t n, U32());
    EXI_RETURN_IF_ERROR(Need(n));
    std::string s = buf_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  Status Need(size_t n) {
    if (pos_ + n > buf_.size()) {
      return Status::IoError("truncated snapshot file");
    }
    return Status::OK();
  }
  std::string buf_;
  size_t pos_ = 0;
};

// ---- value serialization ----

Status EncodeValue(const Value& v, Writer* w) {
  w->U8(uint8_t(v.tag()));
  switch (v.tag()) {
    case TypeTag::kNull:
      return Status::OK();
    case TypeTag::kBoolean:
      w->U8(v.AsBoolean() ? 1 : 0);
      return Status::OK();
    case TypeTag::kInteger:
      w->I64(v.AsInteger());
      return Status::OK();
    case TypeTag::kDouble:
      w->F64(v.AsDouble());
      return Status::OK();
    case TypeTag::kVarchar:
      w->Str(v.AsVarchar());
      return Status::OK();
    case TypeTag::kBlob: {
      const auto& bytes = v.AsBlob();
      w->U32(uint32_t(bytes.size()));
      w->Raw(bytes.data(), bytes.size());
      return Status::OK();
    }
    case TypeTag::kVarray: {
      w->U32(uint32_t(v.AsVarray().size()));
      for (const Value& e : v.AsVarray()) {
        EXI_RETURN_IF_ERROR(EncodeValue(e, w));
      }
      return Status::OK();
    }
    case TypeTag::kObject: {
      w->Str(v.AsObject().type_name);
      w->U32(uint32_t(v.AsObject().attributes.size()));
      for (const Value& e : v.AsObject().attributes) {
        EXI_RETURN_IF_ERROR(EncodeValue(e, w));
      }
      return Status::OK();
    }
    default:
      return Status::NotSupported(
          std::string("snapshot cannot serialize a ") +
          TypeTagName(v.tag()) + " value");
  }
}

Result<Value> DecodeValue(Reader* r) {
  EXI_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
  switch (TypeTag(tag)) {
    case TypeTag::kNull:
      return Value::Null();
    case TypeTag::kBoolean: {
      EXI_ASSIGN_OR_RETURN(uint8_t b, r->U8());
      return Value::Boolean(b != 0);
    }
    case TypeTag::kInteger: {
      EXI_ASSIGN_OR_RETURN(int64_t i, r->I64());
      return Value::Integer(i);
    }
    case TypeTag::kDouble: {
      EXI_ASSIGN_OR_RETURN(double d, r->F64());
      return Value::Double(d);
    }
    case TypeTag::kVarchar: {
      EXI_ASSIGN_OR_RETURN(std::string s, r->Str());
      return Value::Varchar(std::move(s));
    }
    case TypeTag::kBlob: {
      EXI_ASSIGN_OR_RETURN(std::string s, r->Str());
      return Value::Blob(std::vector<uint8_t>(s.begin(), s.end()));
    }
    case TypeTag::kVarray: {
      EXI_ASSIGN_OR_RETURN(uint32_t n, r->U32());
      ValueList elems;
      elems.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        EXI_ASSIGN_OR_RETURN(Value e, DecodeValue(r));
        elems.push_back(std::move(e));
      }
      return Value::Varray(std::move(elems));
    }
    case TypeTag::kObject: {
      EXI_ASSIGN_OR_RETURN(std::string name, r->Str());
      EXI_ASSIGN_OR_RETURN(uint32_t n, r->U32());
      ValueList attrs;
      attrs.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        EXI_ASSIGN_OR_RETURN(Value e, DecodeValue(r));
        attrs.push_back(std::move(e));
      }
      return Value::Object(std::move(name), std::move(attrs));
    }
    default:
      return Status::IoError("corrupt snapshot: bad value tag " +
                             std::to_string(tag));
  }
}

}  // namespace

Status SaveSnapshot(Database* db, const std::string& path) {
  Catalog& catalog = db->catalog();
  Writer w;
  w.U32(kMagic);
  w.U32(kVersion);

  // Tables (rows included).
  std::vector<std::string> tables = catalog.TableNames();
  w.U32(uint32_t(tables.size()));
  for (const std::string& name : tables) {
    HeapTable* table = *catalog.GetTable(name);
    w.Str(name);
    const Schema& schema = table->schema();
    w.U32(uint32_t(schema.size()));
    for (const Column& col : schema.columns()) {
      if (col.type.tag() == TypeTag::kLob) {
        return Status::NotSupported(
            "snapshot does not support LOB-typed table columns (" + name +
            "." + col.name + ")");
      }
      w.Str(col.name);
      w.Str(col.type.ToString());
      w.U8(col.not_null ? 1 : 0);
    }
    w.U32(uint32_t(table->row_count()));
    for (auto it = table->Scan(); it.Valid(); it.Next()) {
      for (const Value& v : it.row()) {
        EXI_RETURN_IF_ERROR(EncodeValue(v, &w));
      }
    }
    TableInfo* info = *catalog.GetTableInfo(name);
    w.U8(info->stats.analyzed ? 1 : 0);
  }

  // Index definitions (payloads are rebuilt on load).
  std::vector<const IndexInfo*> indexes = catalog.Indexes();
  w.U32(uint32_t(indexes.size()));
  for (const IndexInfo* idx : indexes) {
    w.Str(idx->name);
    w.Str(idx->table);
    w.U32(uint32_t(idx->columns.size()));
    for (const std::string& col : idx->columns) w.Str(col);
    w.U8(idx->is_domain() ? 1 : 0);
    if (idx->is_domain()) {
      w.Str(idx->indextype);
      w.Str(idx->parameters);
    } else {
      w.Str(idx->builtin->kind());
    }
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open snapshot file: " + path);
  out.write(w.buffer().data(), std::streamsize(w.buffer().size()));
  if (!out) return Status::IoError("snapshot write failed: " + path);
  return Status::OK();
}

Status LoadSnapshot(Database* db, Connection* conn,
                    const std::string& path) {
  std::vector<std::string> existing = db->catalog().TableNames();
  if (!existing.empty()) {
    return Status::InvalidArgument(
        "LoadSnapshot requires a database without tables; found " +
        existing.front());
  }
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open snapshot file: " + path);
  std::string buf(size_t(in.tellg()), '\0');
  in.seekg(0);
  if (!buf.empty() &&
      !in.read(buf.data(), std::streamsize(buf.size()))) {
    return Status::IoError("snapshot read failed: " + path);
  }
  Reader r(std::move(buf));
  EXI_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  EXI_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (magic != kMagic || version != kVersion) {
    return Status::IoError("not an extidx snapshot (or wrong version): " +
                           path);
  }

  EXI_ASSIGN_OR_RETURN(uint32_t table_count, r.U32());
  std::vector<std::string> analyzed;
  for (uint32_t t = 0; t < table_count; ++t) {
    EXI_ASSIGN_OR_RETURN(std::string name, r.Str());
    EXI_ASSIGN_OR_RETURN(uint32_t col_count, r.U32());
    Schema schema;
    for (uint32_t c = 0; c < col_count; ++c) {
      EXI_ASSIGN_OR_RETURN(std::string col_name, r.Str());
      EXI_ASSIGN_OR_RETURN(std::string type_text, r.Str());
      EXI_ASSIGN_OR_RETURN(uint8_t not_null, r.U8());
      EXI_ASSIGN_OR_RETURN(DataType type, DataType::FromString(type_text));
      schema.AddColumn(Column{col_name, type, not_null != 0});
    }
    EXI_RETURN_IF_ERROR(db->catalog().CreateTable(name, schema));
    EXI_ASSIGN_OR_RETURN(uint32_t row_count, r.U32());
    for (uint32_t i = 0; i < row_count; ++i) {
      Row row;
      row.reserve(col_count);
      for (uint32_t c = 0; c < col_count; ++c) {
        EXI_ASSIGN_OR_RETURN(Value v, DecodeValue(&r));
        row.push_back(std::move(v));
      }
      EXI_RETURN_IF_ERROR(
          db->InsertRow(name, std::move(row), nullptr).status());
    }
    EXI_ASSIGN_OR_RETURN(uint8_t was_analyzed, r.U8());
    if (was_analyzed) analyzed.push_back(name);
  }

  // Rebuild indexes through the normal DDL path (domain indexes run
  // ODCIIndexCreate, §2.4.1).
  EXI_ASSIGN_OR_RETURN(uint32_t index_count, r.U32());
  for (uint32_t i = 0; i < index_count; ++i) {
    EXI_ASSIGN_OR_RETURN(std::string name, r.Str());
    EXI_ASSIGN_OR_RETURN(std::string table, r.Str());
    EXI_ASSIGN_OR_RETURN(uint32_t col_count, r.U32());
    std::vector<std::string> columns;
    for (uint32_t c = 0; c < col_count; ++c) {
      EXI_ASSIGN_OR_RETURN(std::string col, r.Str());
      columns.push_back(std::move(col));
    }
    EXI_ASSIGN_OR_RETURN(uint8_t is_domain, r.U8());
    if (is_domain) {
      EXI_ASSIGN_OR_RETURN(std::string indextype, r.Str());
      EXI_ASSIGN_OR_RETURN(std::string parameters, r.Str());
      if (columns.size() != 1) {
        return Status::IoError("corrupt snapshot: multi-column domain index");
      }
      std::string ddl = "CREATE INDEX " + name + " ON " + table + "(" +
                        columns[0] + ") INDEXTYPE IS " + indextype;
      if (!parameters.empty()) {
        // Escape single quotes in the parameter string.
        std::string quoted;
        for (char ch : parameters) {
          quoted += ch;
          if (ch == '\'') quoted += ch;
        }
        ddl += " PARAMETERS ('" + quoted + "')";
      }
      EXI_RETURN_IF_ERROR(conn->Execute(ddl).status());
    } else {
      EXI_ASSIGN_OR_RETURN(std::string kind, r.Str());
      EXI_RETURN_IF_ERROR(
          conn->Execute("CREATE INDEX " + name + " ON " + table + "(" +
                        Join(columns, ", ") + ") USING " + kind)
              .status());
    }
  }

  for (const std::string& name : analyzed) {
    EXI_RETURN_IF_ERROR(conn->Execute("ANALYZE " + name).status());
  }
  if (!r.AtEnd()) {
    return Status::IoError("trailing bytes in snapshot: " + path);
  }
  return Status::OK();
}

}  // namespace exi
