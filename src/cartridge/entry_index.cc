#include "cartridge/entry_index.h"

#include <utility>

namespace exi {

Result<std::vector<Row>> EntryIndexMethods::Load(const OdciIndexInfo& info,
                                                  const EntryMaker& make,
                                                  ServerContext& ctx) {
  const int col = info.indexed_position();
  std::vector<Row> entries;
  Status inner = Status::OK();
  EXI_RETURN_IF_ERROR(ctx.ScanBaseTable(
      info.table_name, [&](RowId rid, const Row& row) {
        if (!row[col].is_null()) inner = make(rid, row[col], &entries);
        return inner.ok();
      }));
  EXI_RETURN_IF_ERROR(inner);
  SortByKey(&entries, key_columns_);
  return entries;
}

Status EntryIndexMethods::Create(const OdciIndexInfo& info,
                                 ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(EntryMaker make, Entries(info));
  const std::string table = EntryTable(info.index_name);
  EXI_RETURN_IF_ERROR(ctx.CreateIot(table, schema_, key_columns_));
  EXI_ASSIGN_OR_RETURN(std::vector<Row> entries, Load(info, make, ctx));
  return ctx.IotBulkLoad(table, std::move(entries));
}

Status EntryIndexMethods::Alter(const OdciIndexInfo& info,
                                ServerContext& ctx) {
  // Every entry is made before the old ones go: a value the new
  // parameters cannot index fails the call with the index untouched.
  EXI_ASSIGN_OR_RETURN(EntryMaker make, Entries(info));
  EXI_ASSIGN_OR_RETURN(std::vector<Row> entries, Load(info, make, ctx));
  const std::string table = EntryTable(info.index_name);
  EXI_RETURN_IF_ERROR(ctx.IotTruncate(table));
  return ctx.IotBulkLoad(table, std::move(entries));
}

Status EntryIndexMethods::Write(const OdciIndexInfo& info,
                                const std::vector<RowId>& rids,
                                const ValueList* old_values,
                                const ValueList* new_values,
                                ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(EntryMaker make, Entries(info));
  // Appends the entries of values[i], none if values or it is null.
  auto add = [&](const ValueList* values, size_t i, std::vector<Row>* out) {
    if (values == nullptr || (*values)[i].is_null()) return Status::OK();
    return make(rids[i], (*values)[i], out);
  };
  std::vector<Row> removed;
  std::vector<Row> added;
  for (size_t i = 0; i < rids.size(); ++i) {
    EXI_RETURN_IF_ERROR(add(old_values, i, &removed));
    EXI_RETURN_IF_ERROR(add(new_values, i, &added));
  }
  const std::string table = EntryTable(info.index_name);
  return MergeEntryDiff(
      std::move(removed), std::move(added), key_columns_, table,
      [&](const std::vector<CompositeKey>& keys, RowMerge merge) {
        return ctx.IotMergeSorted(table, keys, merge);
      });
}

}  // namespace exi
