// The ODCIIndexFetch protocol between the server and a cartridge (§2.2.3,
// §2.5): a scan ends at an empty batch or at a batch marked `last`, the
// paper's null rowid following the final rows in the same array.
//
// Two test indextypes wrap the shared value->rowid cartridge
// (tests/test_cartridges.h).  ShortType returns short batches mid-scan and
// never marks `last`, so a consumer that took a short batch for the end
// would lose rows.  MarkType fills every batch and marks the one holding
// the final row `last`; it counts a Fetch on a scan it has already ended,
// which no consumer may make.  Both run through a domain-index scan, a
// 3-partition LOCAL index scan and a probe join.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "core/scan_context.h"
#include "engine/connection.h"
#include "test_cartridges.h"

namespace exi {
namespace {

// Calls the two wrappers below saw, over every scan of a test.
struct FetchLog {
  int starts = 0;
  int fetches = 0;
  int closes = 0;
  int fetches_after_last = 0;  // Fetch on a scan already marked `last`
  std::set<uint64_t> ended;    // handles of scans marked `last`, not closed
};
FetchLog g_log;

// Returns at most 1 row on odd calls and at most 3 on even ones, whatever
// `max_rows` allows, and never marks `last`.
class ShortBatchMethods : public testcart::FlakyIndexMethods {
 public:
  Status Fetch(const OdciIndexInfo& info, OdciScanContext& sctx,
               size_t max_rows, OdciFetchBatch* out,
               ServerContext& ctx) override {
    ++g_log.fetches;
    size_t cap = g_log.fetches % 2 == 1 ? 1 : 3;
    return FlakyIndexMethods::Fetch(info, sctx, std::min(max_rows, cap), out,
                                    ctx);
  }
};

// Fills each batch and marks the one that empties the scan `last`.
class MarkLastMethods : public testcart::FlakyIndexMethods {
 public:
  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override {
    ++g_log.starts;
    return FlakyIndexMethods::Start(info, pred, ctx);
  }
  Status Fetch(const OdciIndexInfo& info, OdciScanContext& sctx,
               size_t max_rows, OdciFetchBatch* out,
               ServerContext& ctx) override {
    ++g_log.fetches;
    if (g_log.ended.count(sctx.handle)) ++g_log.fetches_after_last;
    EXI_RETURN_IF_ERROR(
        FlakyIndexMethods::Fetch(info, sctx, max_rows, out, ctx));
    EXI_ASSIGN_OR_RETURN(auto rest, ScanWorkspaceRegistry::Global()
                                        .GetAs<std::vector<RowId>>(
                                            sctx.handle));
    out->last = rest->empty();
    if (out->last) g_log.ended.insert(sctx.handle);
    return Status::OK();
  }
  Status Close(const OdciIndexInfo& info, OdciScanContext& sctx,
               ServerContext& ctx) override {
    ++g_log.closes;
    g_log.ended.erase(sctx.handle);
    return FlakyIndexMethods::Close(info, sctx, ctx);
  }
};

constexpr int64_t kRows = 60;  // t holds ids 0..59 with v = id % 4
constexpr int64_t kPerValue = kRows / 4;

class FetchProtocolTest : public ::testing::TestWithParam<bool> {
 protected:
  FetchProtocolTest() : conn_(&db_) {
    FailPointRegistry::Global().ClearAll();
    g_log = FetchLog();
    testcart::RegisterFlakyCartridge(db_.catalog());
    (void)db_.catalog().implementations().Register("ShortBatchMethods", [] {
      return std::make_shared<ShortBatchMethods>();
    });
    (void)db_.catalog().implementations().Register("MarkLastMethods", [] {
      return std::make_shared<MarkLastMethods>();
    });
    for (const char* sql : {
             "CREATE OPERATOR SEq BINDING (INTEGER, INTEGER) RETURN BOOLEAN "
             "USING FEqFn",
             "CREATE OPERATOR MEq BINDING (INTEGER, INTEGER) RETURN BOOLEAN "
             "USING FEqFn",
             "CREATE INDEXTYPE ShortType FOR SEq(INTEGER, INTEGER) USING "
             "ShortBatchMethods",
             "CREATE INDEXTYPE MarkType FOR MEq(INTEGER, INTEGER) USING "
             "MarkLastMethods",
         }) {
      conn_.MustExecute(sql);
    }
    conn_.MustExecute(std::string("CREATE TABLE t (id INTEGER, v INTEGER)") +
                      (local() ? " PARTITION BY HASH (id) PARTITIONS 3" : ""));
    for (int64_t id = 0; id < kRows; ++id) {
      conn_.MustExecute("INSERT INTO t VALUES (" + std::to_string(id) + ", " +
                        std::to_string(id % 4) + ")");
    }
    conn_.MustExecute("CREATE TABLE q (k INTEGER, m INTEGER)");
    conn_.MustExecute("INSERT INTO q VALUES (1, 1), (2, 3), (3, 9)");
  }

  bool local() const { return GetParam(); }
  int slices() const { return local() ? 3 : 1; }

  void Index(const char* indextype) {
    conn_.MustExecute(std::string("CREATE INDEX ti ON t(v) INDEXTYPE IS ") +
                      indextype);
    conn_.MustExecute("ANALYZE t");
    conn_.MustExecute("ANALYZE q");
  }

  // The query's rows, sorted, after checking that EXPLAIN shows `node`.
  std::vector<std::vector<int64_t>> Run(const std::string& sql,
                                        const std::string& node) {
    std::string plan = conn_.MustExecute("EXPLAIN " + sql).message;
    EXPECT_NE(plan.find(node), std::string::npos) << plan;
    std::vector<std::vector<int64_t>> rows;
    for (const Row& row : conn_.MustExecute(sql).rows) {
      std::vector<int64_t> ints;
      for (const Value& v : row) ints.push_back(v.AsInteger());
      rows.push_back(std::move(ints));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  std::string ScanNode() const {
    return local() ? "PartitionedIndexScan(ti" : "DomainIndexScan(ti";
  }

  static std::vector<std::vector<int64_t>> IdsWithV(int64_t v) {
    std::vector<std::vector<int64_t>> out;
    for (int64_t id = v; id < kRows; id += 4) out.push_back({id});
    return out;
  }

  static std::vector<std::vector<int64_t>> JoinOracle() {
    std::vector<std::vector<int64_t>> out;
    for (auto [k, m] : {std::pair{1, 1}, std::pair{2, 3}}) {
      for (int64_t id = m; id < kRows; id += 4) out.push_back({k, id});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  Database db_;
  Connection conn_;
};

TEST_P(FetchProtocolTest, ShortBatchesWithoutTheMarkReturnEveryRow) {
  Index("ShortType");
  for (size_t batch : {size_t(256), size_t(2)}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    db_.set_fetch_batch_size(batch);
    EXPECT_EQ(Run("SELECT id FROM t WHERE SEq(v, 1)", ScanNode()),
              IdsWithV(1));
    EXPECT_EQ(Run("SELECT q.k, t.id FROM q, t WHERE SEq(t.v, q.m)",
                  "DomainIndexJoin(inner=t via ti"),
              JoinOracle());
  }
}

TEST_P(FetchProtocolTest, ScanNodeClosesAtTheMarkWithoutAnotherFetch) {
  Index("MarkType");
  // kPerValue rows split over the slices; 5 divides a global index's 15
  // rows exactly, where the marker saves the empty fourth Fetch.
  for (size_t batch : {size_t(256), size_t(5), size_t(1)}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    db_.set_fetch_batch_size(batch);
    g_log = FetchLog();
    EXPECT_EQ(Run("SELECT id FROM t WHERE MEq(v, 1)", ScanNode()),
              IdsWithV(1));
    EXPECT_EQ(g_log.starts, slices());
    EXPECT_EQ(g_log.closes, slices());
    EXPECT_EQ(g_log.fetches_after_last, 0);
    EXPECT_TRUE(g_log.ended.empty());
    if (!local()) {
      EXPECT_EQ(g_log.fetches, int((kPerValue + batch - 1) / batch));
    }
  }
}

TEST_P(FetchProtocolTest, ProbeJoinClosesEachSliceAtTheMark) {
  Index("MarkType");
  for (size_t batch : {size_t(256), size_t(5), size_t(1)}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    db_.set_fetch_batch_size(batch);
    g_log = FetchLog();
    EXPECT_EQ(Run("SELECT q.k, t.id FROM q, t WHERE MEq(t.v, q.m)",
                  "DomainIndexJoin(inner=t via ti"),
              JoinOracle());
    // One probe per outer row and slice, each closed once.
    EXPECT_EQ(g_log.starts, 3 * slices());
    EXPECT_EQ(g_log.closes, 3 * slices());
    EXPECT_EQ(g_log.fetches_after_last, 0);
    EXPECT_TRUE(g_log.ended.empty());
    if (!local()) {
      // m = 9 matches nothing: one Fetch returns the empty, marked batch.
      EXPECT_EQ(g_log.fetches, 2 * int((kPerValue + batch - 1) / batch) + 1);
    }
  }
}

TEST_P(FetchProtocolTest, LimitStopsWithOneClose) {
  Index("MarkType");
  // The first batch holds the whole answer of a global scan and is marked;
  // a batch of 4 leaves the scan open when LIMIT 6 stops it.
  for (size_t batch : {size_t(256), size_t(4)}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    db_.set_fetch_batch_size(batch);
    g_log = FetchLog();
    EXPECT_EQ(conn_.MustExecute("SELECT id FROM t WHERE MEq(v, 1) LIMIT 6")
                  .rows.size(),
              6u);
    EXPECT_EQ(g_log.closes, g_log.starts);
    EXPECT_EQ(g_log.fetches_after_last, 0);
    EXPECT_TRUE(g_log.ended.empty());
    if (!local()) {
      EXPECT_EQ(g_log.starts, 1);
      EXPECT_EQ(g_log.fetches, batch == 4 ? 2 : 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, FetchProtocolTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Local3" : "Global";
                         });

}  // namespace
}  // namespace exi
