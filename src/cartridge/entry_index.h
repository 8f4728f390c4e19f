#ifndef EXTIDX_CARTRIDGE_ENTRY_INDEX_H_
#define EXTIDX_CARTRIDGE_ENTRY_INDEX_H_

#include <functional>
#include <string>
#include <vector>

#include "cartridge/index_methods.h"

namespace exi {

// The definition and maintenance routines of an index kept as one IOT of
// entry rows, "<index><suffix>" (§2.2.3, §3): each non-NULL indexed value
// at a rowid becomes zero or more entries, keyed on their leading
// `key_columns` columns.  A cartridge derives from it, supplies the entry
// maker (Entries) and writes its own scans.  Create is one base-table
// scan, one sort and one IotBulkLoad; Alter makes every entry again, then
// truncates and loads them, so the PARAMETERS the entries read take effect
// and a value they cannot index leaves the index as it was; each array
// maintenance call is one IotMergeSorted run over the entries it removes
// and adds (MergeEntryDiff), none when they cancel out.
class EntryIndexMethods : public IndexMethods {
 public:
  // Appends the entries of `value` (never NULL, which has none) at `rid`
  // to `*entries`; a value the cartridge cannot index is an error.
  using EntryMaker =
      std::function<Status(RowId rid, const Value& value,
                           std::vector<Row>* entries)>;

  EntryIndexMethods(std::string suffix, Schema schema, size_t key_columns)
      : suffix_(std::move(suffix)),
        schema_(std::move(schema)),
        key_columns_(key_columns) {}

  Status Create(const OdciIndexInfo& info, ServerContext& ctx) final;
  Status Alter(const OdciIndexInfo& info, ServerContext& ctx) final;
  Status Truncate(const OdciIndexInfo& info, ServerContext& ctx) final {
    return ctx.IotTruncate(EntryTable(info.index_name));
  }
  Status Drop(const OdciIndexInfo& info, ServerContext& ctx) final {
    return ctx.DropIot(EntryTable(info.index_name));
  }

  Status BatchInsert(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& new_values, ServerContext& ctx) final {
    return Write(info, rids, nullptr, &new_values, ctx);
  }
  Status BatchDelete(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values, ServerContext& ctx) final {
    return Write(info, rids, &old_values, nullptr, ctx);
  }
  Status BatchUpdate(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values, const ValueList& new_values,
                     ServerContext& ctx) final {
    return Write(info, rids, &old_values, &new_values, ctx);
  }

 protected:
  // The entry IOT of the index (or LOCAL slice) named `index_name`.
  std::string EntryTable(const std::string& index_name) const {
    return index_name + suffix_;
  }

  // The entry maker for one call on `info`, prepared once per call: it
  // reads the PARAMETERS it needs here, not once per row.  An error (a
  // malformed parameter) fails the call before it changes anything.
  virtual Result<EntryMaker> Entries(const OdciIndexInfo& info) const = 0;

 private:
  // The entries of every base-table row, sorted by key.
  Result<std::vector<Row>> Load(const OdciIndexInfo& info,
                                const EntryMaker& make, ServerContext& ctx);
  // One merge run from the entries of `old_values` to those of
  // `new_values` (either may be null: none), values[i] at rids[i].
  Status Write(const OdciIndexInfo& info, const std::vector<RowId>& rids,
               const ValueList* old_values, const ValueList* new_values,
               ServerContext& ctx);

  std::string suffix_;
  Schema schema_;
  size_t key_columns_;
};

}  // namespace exi

#endif  // EXTIDX_CARTRIDGE_ENTRY_INDEX_H_
