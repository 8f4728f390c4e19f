// The rows of an IOT, a text index's postings decoded from its block
// rows, and an exact comparison of two such row lists, for tests that
// check index contents row for row.

#ifndef EXTIDX_TESTS_POSTING_ROWS_H_
#define EXTIDX_TESTS_POSTING_ROWS_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cartridge/text/inverted_index.h"
#include "engine/database.h"

namespace exi {

// The rows of IOT `name`, in key order.
inline std::vector<Row> IotRows(Database& db, const std::string& name) {
  std::vector<Row> rows;
  Result<Iot*> iot = db.catalog().GetIot(name);
  EXPECT_TRUE(iot.ok()) << iot.status().ToString();
  if (!iot.ok()) return rows;
  (*iot)->ScanRange(nullptr, true, nullptr, true, [&rows](const Row& row) {
    rows.push_back(row);
    return true;
  });
  return rows;
}

// The block rows of text index `index`'s posting IOT, in key order.
inline std::vector<Row> PostingBlockRows(Database& db,
                                         const std::string& index) {
  return IotRows(db, text::PostingTableName(index));
}

// Text index `index`'s postings as (token, rid, freq) rows, in key order,
// decoded from its block rows.
inline std::vector<Row> PostingRows(Database& db, const std::string& index) {
  std::vector<Row> postings;
  for (const Row& block : PostingBlockRows(db, index)) {
    Status s = text::DecodePostingBlock(block, [&](RowId rid, int64_t freq) {
      postings.push_back(
          {block[0], Value::Integer(int64_t(rid)), Value::Integer(freq)});
      return true;
    });
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return postings;
}

// Same rows in the same order, every column equal.
inline void ExpectSameRows(const std::vector<Row>& got,
                           const std::vector<Row>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(CompareKeys(got[i], want[i]), 0)
        << "row " << i << ": " << KeyToString(got[i]) << " vs "
        << KeyToString(want[i]);
  }
}

}  // namespace exi

#endif  // EXTIDX_TESTS_POSTING_ROWS_H_
