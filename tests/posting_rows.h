// The rows of an IOT (such as a text index's posting IOT), and an exact
// comparison of two such row lists, for tests that check index contents
// row for row.

#ifndef EXTIDX_TESTS_POSTING_ROWS_H_
#define EXTIDX_TESTS_POSTING_ROWS_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

// The rows of text index `index`'s posting IOT, in key order.
inline std::vector<Row> PostingRows(Database& db, const std::string& index) {
  return IotRows(db, index + "$ptab");
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
