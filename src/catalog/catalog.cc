#include "catalog/catalog.h"

#include <functional>

#include "common/strings.h"
#include "index/key.h"

namespace exi {

const PartitionDef* PartitionScheme::Find(const std::string& name) const {
  for (const PartitionDef& p : partitions) {
    if (EqualsIgnoreCase(p.name, name)) return &p;
  }
  return nullptr;
}

size_t PartitionScheme::HashBucket(const Value& key, size_t fanout) {
  return std::hash<std::string>{}(key.ToString()) % fanout;
}

Result<const PartitionDef*> PartitionScheme::Route(const Value& key) const {
  if (partitions.empty()) {
    return Status::Internal("partition scheme has no partitions");
  }
  if (method == PartitionMethod::kHash) {
    return &partitions[HashBucket(key, partitions.size())];
  }
  // RANGE: first partition whose exclusive upper bound admits the key
  // (partitions are kept sorted by ascending bound, MAXVALUE last).
  for (const PartitionDef& p : partitions) {
    if (!p.upper_bound.has_value()) return &p;  // MAXVALUE
    if (TotalOrderCompare(key, *p.upper_bound) < 0) return &p;
  }
  return Status::InvalidArgument(
      "inserted partition key " + key.ToString() +
      " does not map to any partition (ORA-14400)");
}

OdciIndexInfo IndexInfo::ToOdciInfo(const Schema& table_schema) const {
  OdciIndexInfo info;
  info.index_name = name;
  info.table_name = table;
  info.column_names = columns;
  for (const std::string& col : columns) {
    int idx = table_schema.FindColumn(col);
    info.column_types.push_back(idx >= 0 ? table_schema.column(idx).type
                                         : DataType::Null());
    info.column_positions.push_back(idx);
  }
  info.parameters = parameters;
  return info;
}

std::string Catalog::Key(const std::string& name) { return ToLower(name); }

const char* IndexStatusName(IndexStatus status) {
  switch (status) {
    case IndexStatus::kValid:
      return "VALID";
    case IndexStatus::kInProgress:
      return "IN_PROGRESS";
    case IndexStatus::kFailed:
      return "FAILED";
    case IndexStatus::kUnusable:
      return "UNUSABLE";
  }
  return "UNKNOWN";
}

// ---- tables ----

Status Catalog::CreateTable(const std::string& name, Schema schema) {
  std::string key = Key(name);
  if (tables_.count(key) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  TableInfo info;
  info.heap = std::make_unique<HeapTable>(name, std::move(schema));
  info.stats.columns.resize(info.heap->schema().size());
  tables_[key] = std::move(info);
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  std::string key = Key(name);
  auto it = tables_.find(key);
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  size_t indexes = IndexesOnTable(name).size();
  if (indexes > 0) {
    return Status::InvalidArgument("table " + name + " still has " +
                                   std::to_string(indexes) +
                                   " index(es); drop them first");
  }
  tables_.erase(it);
  return Status::OK();
}

Result<HeapTable*> Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return it->second.heap.get();
}

Result<const HeapTable*> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return const_cast<const HeapTable*>(it->second.heap.get());
}

Result<TableInfo*> Catalog::GetTableInfo(const std::string& name) {
  auto it = tables_.find(Key(name));
  if (it == tables_.end()) return Status::NotFound("no table: " + name);
  return &it->second;
}

bool Catalog::TableExists(const std::string& name) const {
  return tables_.count(Key(name)) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  for (const auto& [key, info] : tables_) names.push_back(info.heap->name());
  return names;
}

// ---- object types ----

Status Catalog::RegisterObjectType(ObjectTypeDef def) {
  std::string key = Key(def.name);
  if (object_types_.count(key) > 0) {
    return Status::AlreadyExists("object type exists: " + def.name);
  }
  object_types_[key] = std::move(def);
  return Status::OK();
}

Result<const ObjectTypeDef*> Catalog::GetObjectType(
    const std::string& name) const {
  auto it = object_types_.find(Key(name));
  if (it == object_types_.end()) {
    return Status::NotFound("no object type: " + name);
  }
  return &it->second;
}

// ---- operators ----

Status Catalog::CreateOperator(OperatorDef def) {
  std::string key = Key(def.name);
  if (operators_.count(key) > 0) {
    return Status::AlreadyExists("operator exists: " + def.name);
  }
  for (const OperatorBinding& b : def.bindings) {
    if (!functions_.Contains(b.function_name)) {
      return Status::NotFound("operator " + def.name +
                              " binding references unregistered function: " +
                              b.function_name);
    }
  }
  operators_[key] = std::move(def);
  return Status::OK();
}

Status Catalog::DropOperator(const std::string& name) {
  // An operator referenced by an indextype cannot be dropped.
  for (const auto& [itkey, itdef] : indextypes_) {
    for (const SupportedOperator& so : itdef.operators) {
      if (EqualsIgnoreCase(so.operator_name, name)) {
        return Status::InvalidArgument("operator " + name +
                                       " is referenced by indextype " +
                                       itdef.name);
      }
    }
  }
  if (operators_.erase(Key(name)) == 0) {
    return Status::NotFound("no operator: " + name);
  }
  return Status::OK();
}

Result<const OperatorDef*> Catalog::GetOperator(
    const std::string& name) const {
  auto it = operators_.find(Key(name));
  if (it == operators_.end()) return Status::NotFound("no operator: " + name);
  return &it->second;
}

std::vector<const OperatorDef*> Catalog::Operators() const {
  std::vector<const OperatorDef*> out;
  for (const auto& [key, def] : operators_) out.push_back(&def);
  return out;
}

bool Catalog::OperatorExists(const std::string& name) const {
  return operators_.count(Key(name)) > 0;
}

// ---- indextypes ----

Status Catalog::CreateIndexType(IndexTypeDef def) {
  std::string key = Key(def.name);
  if (indextypes_.count(key) > 0) {
    return Status::AlreadyExists("indextype exists: " + def.name);
  }
  for (const SupportedOperator& so : def.operators) {
    if (operators_.count(Key(so.operator_name)) == 0) {
      return Status::NotFound("indextype " + def.name +
                              " references unknown operator: " +
                              so.operator_name);
    }
  }
  if (!implementations_.Contains(def.implementation)) {
    return Status::NotFound("indextype " + def.name +
                            " references unregistered implementation: " +
                            def.implementation);
  }
  indextypes_[key] = std::move(def);
  return Status::OK();
}

Status Catalog::DropIndexType(const std::string& name) {
  for (const auto& [ikey, idx] : indexes_) {
    if (EqualsIgnoreCase(idx->indextype, name)) {
      return Status::InvalidArgument("indextype " + name +
                                     " is used by index " + idx->name);
    }
  }
  if (indextypes_.erase(Key(name)) == 0) {
    return Status::NotFound("no indextype: " + name);
  }
  return Status::OK();
}

Result<const IndexTypeDef*> Catalog::GetIndexType(
    const std::string& name) const {
  auto it = indextypes_.find(Key(name));
  if (it == indextypes_.end()) {
    return Status::NotFound("no indextype: " + name);
  }
  return &it->second;
}

std::vector<const IndexTypeDef*> Catalog::IndexTypes() const {
  std::vector<const IndexTypeDef*> out;
  for (const auto& [key, def] : indextypes_) out.push_back(&def);
  return out;
}

// ---- indexes ----

Status Catalog::AddIndex(std::unique_ptr<IndexInfo> info) {
  std::string key = Key(info->name);
  if (indexes_.count(key) > 0) {
    return Status::AlreadyExists("index exists: " + info->name);
  }
  if (tables_.count(Key(info->table)) == 0) {
    return Status::NotFound("no table: " + info->table);
  }
  indexes_[key] = std::move(info);
  return Status::OK();
}

Status Catalog::RemoveIndex(const std::string& name) {
  auto it = indexes_.find(Key(name));
  if (it == indexes_.end()) return Status::NotFound("no index: " + name);
  indexes_.erase(it);
  return Status::OK();
}

Result<IndexInfo*> Catalog::GetIndex(const std::string& name) {
  auto it = indexes_.find(Key(name));
  if (it == indexes_.end()) return Status::NotFound("no index: " + name);
  return it->second.get();
}

bool Catalog::IndexExists(const std::string& name) const {
  return indexes_.count(Key(name)) > 0;
}

std::vector<IndexInfo*> Catalog::IndexesOnTable(const std::string& table) {
  std::vector<IndexInfo*> out;
  for (auto& [key, idx] : indexes_) {
    if (EqualsIgnoreCase(idx->table, table)) out.push_back(idx.get());
  }
  return out;
}

std::vector<const IndexInfo*> Catalog::Indexes() const {
  std::vector<const IndexInfo*> out;
  for (const auto& [key, idx] : indexes_) out.push_back(idx.get());
  return out;
}

std::vector<IndexInfo*> Catalog::IndexesOnColumn(const std::string& table,
                                                 const std::string& column) {
  std::vector<IndexInfo*> out;
  for (IndexInfo* idx : IndexesOnTable(table)) {
    if (!idx->columns.empty() && EqualsIgnoreCase(idx->columns[0], column)) {
      out.push_back(idx);
    }
  }
  return out;
}

// ---- cartridge index-data storage ----

Status Catalog::CreateIot(const std::string& name, Schema schema,
                          size_t key_cols) {
  std::string key = Key(name);
  if (iots_.count(key) > 0) {
    return Status::AlreadyExists("IOT exists: " + name);
  }
  if (key_cols == 0 || key_cols > schema.size()) {
    return Status::InvalidArgument("bad key column count for IOT " + name);
  }
  iots_[key] = std::make_unique<Iot>(name, std::move(schema), key_cols);
  return Status::OK();
}

Status Catalog::DropIot(const std::string& name) {
  if (iots_.erase(Key(name)) == 0) {
    return Status::NotFound("no IOT: " + name);
  }
  return Status::OK();
}

Result<Iot*> Catalog::GetIot(const std::string& name) {
  auto it = iots_.find(Key(name));
  if (it == iots_.end()) return Status::NotFound("no IOT: " + name);
  return it->second.get();
}

Result<const Iot*> Catalog::GetIot(const std::string& name) const {
  auto it = iots_.find(Key(name));
  if (it == iots_.end()) return Status::NotFound("no IOT: " + name);
  return const_cast<const Iot*>(it->second.get());
}

bool Catalog::IotExists(const std::string& name) const {
  return iots_.count(Key(name)) > 0;
}

std::vector<std::string> Catalog::IotNames() const {
  std::vector<std::string> names;
  for (const auto& [key, iot] : iots_) names.push_back(iot->name());
  return names;
}

Status Catalog::CreateIndexTable(const std::string& name, Schema schema) {
  std::string key = Key(name);
  if (index_tables_.count(key) > 0) {
    return Status::AlreadyExists("index table exists: " + name);
  }
  index_tables_[key] = std::make_unique<HeapTable>(name, std::move(schema));
  return Status::OK();
}

Status Catalog::DropIndexTable(const std::string& name) {
  if (index_tables_.erase(Key(name)) == 0) {
    return Status::NotFound("no index table: " + name);
  }
  return Status::OK();
}

Result<HeapTable*> Catalog::GetIndexTable(const std::string& name) {
  auto it = index_tables_.find(Key(name));
  if (it == index_tables_.end()) {
    return Status::NotFound("no index table: " + name);
  }
  return it->second.get();
}

bool Catalog::IndexTableExists(const std::string& name) const {
  return index_tables_.count(Key(name)) > 0;
}

std::vector<std::string> Catalog::IndexTableNames() const {
  std::vector<std::string> names;
  for (const auto& [key, table] : index_tables_) names.push_back(table->name());
  return names;
}

Result<FileStore*> Catalog::GetOrCreateFileStore(
    const std::string& store_name) {
  std::string key = Key(store_name);
  auto it = file_stores_.find(key);
  if (it != file_stores_.end()) return it->second.get();
  auto store =
      std::make_unique<FileStore>(external_root_ + "/" + key);
  FileStore* ptr = store.get();
  file_stores_[key] = std::move(store);
  return ptr;
}

}  // namespace exi
