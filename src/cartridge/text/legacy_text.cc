#include "cartridge/text/legacy_text.h"

#include "cartridge/text/inverted_index.h"
#include "cartridge/text/tokenizer.h"
#include "common/metrics.h"

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
  EXI_ASSIGN_OR_RETURN(Iot * postings,
                       catalog.GetIot(PostingTableName(index_name)));

  std::string error;
  std::unique_ptr<QueryNode> root = ParseTextQuery(query, &error);
  if (root == nullptr) return Status::InvalidArgument(error);

  // --- Step 1: evaluate the text predicate into a temporary result table.
  PostingSource source = BlockPostingSource(
      [postings](const CompositeKey& prefix,
                 FunctionRef<bool(const Row&)> visit) {
        postings->ScanPrefix(prefix, visit);
        return Status::OK();
      });
  UniverseSource universe = [base](std::vector<RowId>* out) -> Status {
    for (auto it = base->Scan(); it.Valid(); it.Next()) {
      out->push_back(it.row_id());
    }
    return Status::OK();
  };
  EXI_ASSIGN_OR_RETURN(std::vector<TextMatch> matches,
                       EvaluateTextQuery(*root, source, universe));

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
