#include "optimizer/stats.h"

#include <algorithm>
#include <vector>

#include "index/key.h"

namespace exi {

Status AnalyzeTable(Catalog* catalog, const std::string& table_name) {
  EXI_ASSIGN_OR_RETURN(TableInfo * info, catalog->GetTableInfo(table_name));
  const HeapTable& table = *info->heap;
  TableStats stats;
  stats.row_count = table.row_count();
  stats.columns.assign(table.schema().size(), ColumnStats());

  // Value hashes per column, counted distinct by sort and unique: one
  // buffer per column, where a set would free a node per distinct value
  // at the end, for malloc to consolidate in some later statement.
  std::vector<std::vector<uint64_t>> distinct(table.schema().size());
  for (auto it = table.Scan(); it.Valid(); it.Next()) {
    const Row& row = it.row();
    for (size_t c = 0; c < row.size() && c < stats.columns.size(); ++c) {
      ColumnStats& cs = stats.columns[c];
      const Value& v = row[c];
      if (v.is_null()) {
        cs.null_count++;
        continue;
      }
      distinct[c].push_back(v.Hash());
      if (DataType(v.tag()).is_scalar()) {
        if (!cs.min.has_value() || TotalOrderCompare(v, *cs.min) < 0) {
          cs.min = v;
        }
        if (!cs.max.has_value() || TotalOrderCompare(v, *cs.max) > 0) {
          cs.max = v;
        }
      }
    }
  }
  for (size_t c = 0; c < stats.columns.size(); ++c) {
    std::vector<uint64_t>& hashes = distinct[c];
    std::sort(hashes.begin(), hashes.end());
    stats.columns[c].distinct_values =
        uint64_t(std::unique(hashes.begin(), hashes.end()) - hashes.begin());
  }
  stats.analyzed = true;
  info->stats = std::move(stats);
  return Status::OK();
}

double EqualitySelectivity(const TableStats& stats, int column) {
  if (!stats.analyzed || stats.row_count == 0 || column < 0 ||
      size_t(column) >= stats.columns.size()) {
    return 0.1;  // unanalyzed default
  }
  uint64_t d = stats.columns[column].distinct_values;
  if (d == 0) return 1.0 / double(stats.row_count ? stats.row_count : 1);
  return 1.0 / double(d);
}

double RangeSelectivity(const TableStats& stats, int column, char op,
                        const Value& bound) {
  constexpr double kDefault = 0.3;
  if (!stats.analyzed || column < 0 ||
      size_t(column) >= stats.columns.size()) {
    return kDefault;
  }
  const ColumnStats& cs = stats.columns[column];
  if (!cs.min.has_value() || !cs.max.has_value() ||
      !DataType(bound.tag()).is_numeric() ||
      !DataType(cs.min->tag()).is_numeric()) {
    return kDefault;
  }
  double lo = cs.min->AsDouble();
  double hi = cs.max->AsDouble();
  double b = bound.AsDouble();
  if (hi <= lo) return kDefault;
  double frac_below = (b - lo) / (hi - lo);
  if (frac_below < 0.0) frac_below = 0.0;
  if (frac_below > 1.0) frac_below = 1.0;
  switch (op) {
    case '<':
    case 'l':
      return frac_below;
    case '>':
    case 'g':
      return 1.0 - frac_below;
    default:
      return kDefault;
  }
}

}  // namespace exi
