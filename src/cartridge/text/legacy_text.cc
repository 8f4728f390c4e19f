#include "cartridge/text/legacy_text.h"

#include "cartridge/text/text_cartridge.h"
#include "common/metrics.h"
#include "core/callback_guard.h"

namespace exi::text {

Status LegacyTextQuery(
    Database* db, const std::string& index_name, const std::string& query,
    const std::function<void(RowId, const Row&)>& on_row) {
  Catalog& catalog = db->catalog();
  EXI_ASSIGN_OR_RETURN(IndexInfo * index, catalog.GetIndex(index_name));
  if (!index->is_domain()) {
    return Status::InvalidArgument(index_name + " is not a text index");
  }
  EXI_ASSIGN_OR_RETURN(HeapTable * base, catalog.GetTable(index->table));

  std::string error;
  std::unique_ptr<QueryNode> root = ParseTextQuery(query, &error);
  if (root == nullptr) return Status::InvalidArgument(error);

  // --- Step 1: evaluate the text predicate into a temporary result table,
  // from the sources a domain-index scan reads.
  const OdciIndexInfo info = index->ToOdciInfo(base->schema());
  const Tokenizer tokenizer = TextIndexMethods::MakeTokenizer(
      TextIndexMethods::ParseParams(info.parameters));
  GuardedServerContext ctx(&catalog, nullptr, CallbackMode::kScan);
  EXI_ASSIGN_OR_RETURN(
      std::vector<TextMatch> matches,
      EvaluateTextQuery(*root, MakePostingSource(info, tokenizer, ctx),
                        MakeUniverseSource(info, ctx)));

  // Materialize rowids into a scratch table — the extra I/O the paper's
  // integration eliminated.
  std::string temp_name = index_name + "$legacy_results";
  if (catalog.IndexTableExists(temp_name)) {
    EXI_RETURN_IF_ERROR(catalog.DropIndexTable(temp_name));
  }
  Schema temp_schema;
  temp_schema.AddColumn(Column{"rid", DataType::Integer(), true});
  EXI_RETURN_IF_ERROR(catalog.CreateIndexTable(temp_name, temp_schema));
  EXI_ASSIGN_OR_RETURN(HeapTable * temp, catalog.GetIndexTable(temp_name));
  for (const TextMatch& m : matches) {
    EXI_RETURN_IF_ERROR(
        temp->Insert({Value::Integer(int64_t(m.rid))}).status());
    GlobalMetrics().temp_rows_written++;
  }

  // --- Step 2: join the temporary table back to the base table.
  for (auto it = temp->Scan(); it.Valid(); it.Next()) {
    GlobalMetrics().temp_rows_read++;
    RowId rid = RowId(it.row()[0].AsInteger());
    Result<Row> row = base->Get(rid);
    if (!row.ok()) continue;
    on_row(rid, *row);
  }
  return catalog.DropIndexTable(temp_name);
}

}  // namespace exi::text
