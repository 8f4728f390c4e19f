// The three workloads.  Sizes are part of each workload's definition (see
// README.md); --tiny shrinks them only for the self-test.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cartridge/spatial/geometry.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/workloads.h"
#include "harness.h"

namespace perfbench {
namespace {

using exi::Result;
using exi::Status;

// Corpus shape shared by the text workloads (the E1/E6 corpus).
constexpr uint64_t kVocabulary = 5000;
constexpr double kTheta = 0.9;
constexpr size_t kWordsPerDoc = 60;

std::string Word(exi::Rng* rng, uint64_t lo, uint64_t hi) {
  return exi::workload::TextCorpus::WordForRank(lo + rng->Uniform(hi - lo));
}

std::string Quoted(const std::string& s) { return "'" + s + "'"; }

// Times a text CREATE INDEX and keeps the time for index_build_s.
Status BuildTextIndex(Session& s, OpKind kind, const std::string& sql) {
  EXI_RETURN_IF_ERROR(s.Run(kind, sql).status());
  s.text_index_builds().push_back(s.last_latency_ms() / 1000.0);
  return Status::OK();
}

// In the traced run, re-points the indextypes at the benchmark's Traced
// implementation types; runs before any index exists.
Status InstallTracing(Session& s) {
  if (s.kit() == nullptr) return Status::OK();
  return InstallTracedImplementations(&s.conn(), s.kit());
}

// Loads `docs` generated documents into both `table` and its unindexed
// shadow `shadow` (same seed, so the same rows).
Status LoadTextTables(Session& s, const std::string& table,
                      const std::string& shadow, uint64_t docs,
                      uint64_t seed) {
  for (const std::string& name : {table, shadow}) {
    EXI_RETURN_IF_ERROR(exi::workload::BuildTextTable(
        &s.conn(), name, docs, kWordsPerDoc, kVocabulary, kTheta, seed));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// text_search: read-only Contains mix over a global 20k-doc table.
// ---------------------------------------------------------------------------

// One query of the mix; Sql() renders it against the indexed table or the
// shadow.
struct TextQuery {
  std::string contains;  // the Contains() keyword argument
  int64_t id_below = -1;  // >= 0 adds `AND id < k`
  size_t limit = 0;

  std::string Sql(const std::string& table) const {
    std::string sql = "SELECT id FROM " + table + " WHERE Contains(body, " +
                      Quoted(contains) + ")";
    if (id_below >= 0) sql += " AND id < " + std::to_string(id_below);
    if (limit > 0) sql += " LIMIT " + std::to_string(limit);
    return sql;
  }
};

class TextSearch final : public Workload {
 public:
  explicit TextSearch(uint64_t seed) : seed_(seed), rng_(seed ^ 0x5e4c) {}

  Status Setup(Session& s) override {
    docs_ = s.tiny() ? 400 : 20000;
    check_every_ = s.tiny() ? 16 : 2048;
    s.conn().set_parallelism(1);
    EXI_RETURN_IF_ERROR(exi::text::InstallTextCartridge(&s.conn()));
    EXI_RETURN_IF_ERROR(InstallTracing(s));
    EXI_RETURN_IF_ERROR(LoadTextTables(s, "docs", "docs_shadow", docs_, seed_));
    EXI_RETURN_IF_ERROR(s.Untimed("CREATE INDEX docs_id ON docs(id)"));
    EXI_RETURN_IF_ERROR(BuildTextIndex(
        s, OpKind::kIndexBuild,
        "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType"));
    EXI_RETURN_IF_ERROR(s.Untimed("ANALYZE docs"));

    // Hot set: every shape, repeated for the whole run, so after warm-up
    // its predicates are in the planner's stats cache.
    // 512 queries keep the mix close to the same on every seed.
    for (int i = 0; i < 512; ++i) hot_.push_back(MakeQuery(/*hot=*/true));
    // Warm-up: the hot set once, plus some fresh queries.
    for (const TextQuery& q : hot_) {
      EXI_RETURN_IF_ERROR(s.Run(OpKind::kQuery, q.Sql("docs")).status());
    }
    for (int i = 0; i < 128; ++i) {
      EXI_RETURN_IF_ERROR(
          s.Run(OpKind::kQuery, MakeQuery(false).Sql("docs")).status());
    }
    return Status::OK();
  }

  Status Step(Session& s) override {
    // Alternately hot (stats-cache hit) and fresh (pays ODCIStats).
    TextQuery q = queries_ % 2 == 0 ? hot_[rng_.Uniform(hot_.size())]
                                    : MakeQuery(false);
    std::string sql = q.Sql("docs");
    Result<exi::QueryResult> r = s.Run(OpKind::kQuery, sql);
    if (r.ok() && ++queries_ % check_every_ == 1 % check_every_) {
      s.Check(r.value(), sql, q.Sql("docs_shadow"), q.limit);
    }
    return Status::OK();
  }

  // Half hot, half fresh queries, as in the timed mix.
  uint64_t CountedStatements() const override { return 1024; }

 private:
  // Hot queries include single terms; fresh ones pair two terms drawn from
  // 3000 ranks, so a fresh predicate almost never repeats.
  TextQuery MakeQuery(bool hot) {
    TextQuery q;
    uint64_t shape = rng_.Uniform(100);
    if (hot && shape < 30) {
      q.contains = Word(&rng_, 2, 1000);
    } else if (shape < (hot ? 50 : 30)) {
      q.contains = Word(&rng_, 2, 3000) + " AND " + Word(&rng_, 2, 3000);
    } else if (shape < (hot ? 70 : 60)) {
      q.contains = Word(&rng_, 2, 3000) + " OR " + Word(&rng_, 2, 3000);
    } else if (shape < 85) {
      q.contains = Word(&rng_, 2, 3000) + " OR " + Word(&rng_, 2, 3000);
      q.limit = 10;
    } else {
      // The B-tree on id competes with the domain index (E6).
      q.contains = hot ? Word(&rng_, 2, 1000)
                       : Word(&rng_, 2, 3000) + " OR " + Word(&rng_, 2, 3000);
      q.id_below = int64_t(1 + rng_.Uniform(docs_));
    }
    return q;
  }

  uint64_t seed_;
  exi::Rng rng_;
  uint64_t docs_ = 0;
  uint64_t check_every_ = 1;
  uint64_t queries_ = 0;
  std::vector<TextQuery> hot_;
};

// ---------------------------------------------------------------------------
// text_ingest: index build / transactional maintenance / drop cycles.
// ---------------------------------------------------------------------------

class TextIngest final : public Workload {
 public:
  explicit TextIngest(uint64_t seed)
      : seed_(seed),
        rng_(seed ^ 0x1a6e),
        corpus_(kVocabulary, kTheta, seed ^ 0xd0c5) {}

  Status Setup(Session& s) override {
    docs_ = s.tiny() ? 300 : 10000;
    txns_per_cycle_ = s.tiny() ? 4 : 300;
    check_every_ = s.tiny() ? 4 : 128;
    s.conn().set_parallelism(1);
    EXI_RETURN_IF_ERROR(exi::text::InstallTextCartridge(&s.conn()));
    EXI_RETURN_IF_ERROR(InstallTracing(s));
    EXI_RETURN_IF_ERROR(
        LoadTextTables(s, "docs", "docs_shadow", docs_, seed_));
    EXI_RETURN_IF_ERROR(s.Untimed("ANALYZE docs"));
    EXI_ASSIGN_OR_RETURN(exi::HeapTable * shadow,
                         s.db().catalog().GetTable("docs_shadow"));
    for (auto it = shadow->Scan(); it.Valid(); it.Next()) {
      int64_t id = it.row()[0].AsInteger();
      shadow_rid_[id] = it.row_id();
      AddLive(id);
    }
    next_id_ = int64_t(docs_);
    // The first cycle's build is part of set-up, so setup_s covers a global
    // text-index build; the timed phase opens with its transactions.
    EXI_RETURN_IF_ERROR(BuildTextIndex(
        s, OpKind::kIndexBuild,
        "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType"));
    indexed_ = true;
    // Warm-up: a few transactions and queries on the indexed table; they
    // are not counted against the cycle.
    for (int i = 0; i < 8; ++i) EXI_RETURN_IF_ERROR(Transaction(s));
    return Status::OK();
  }

  Status Step(Session& s) override {
    if (!indexed_) {
      EXI_RETURN_IF_ERROR(TrimToSize(s));
      EXI_RETURN_IF_ERROR(BuildTextIndex(
          s, OpKind::kIndexBuild,
          "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType"));
      indexed_ = true;
      done_in_cycle_ = 0;
      return Status::OK();
    }
    if (done_in_cycle_ == txns_per_cycle_) {
      EXI_RETURN_IF_ERROR(
          s.Run(OpKind::kIndexDrop, "DROP INDEX docs_text").status());
      indexed_ = false;
      return Status::OK();
    }
    ++done_in_cycle_;
    return Transaction(s);
  }

  // One cycle's transactions, of 7 statements each.
  uint64_t CountedStatements() const override { return 7 * txns_per_cycle_; }

 private:
  // BEGIN; single-row INSERT, UPDATE and DELETE; one 8-row INSERT; COMMIT
  // (ROLLBACK for every 4th); then one Contains query.  Only committed
  // changes reach the shadow.
  Status Transaction(Session& s) {
    std::vector<std::pair<int64_t, std::string>> rows;  // inserted (id, body)
    auto insert_sql = [&](int n) {
      std::string sql = "INSERT INTO docs VALUES ";
      for (int i = 0; i < n; ++i) {
        rows.emplace_back(next_id_++, corpus_.NextDocument(kWordsPerDoc));
        if (i) sql += ", ";
        sql += "(" + std::to_string(rows.back().first) + ", " +
               Quoted(rows.back().second) + ")";
      }
      return sql;
    };
    size_t a = rng_.Uniform(live_.size());
    size_t b = rng_.Uniform(live_.size() - 1);
    if (b >= a) ++b;
    int64_t update_id = live_[a];
    int64_t delete_id = live_[b];
    std::string new_body = corpus_.NextDocument(kWordsPerDoc);
    std::vector<std::string> dml = {
        insert_sql(1),
        "UPDATE docs SET body = " + Quoted(new_body) +
            " WHERE id = " + std::to_string(update_id),
        "DELETE FROM docs WHERE id = " + std::to_string(delete_id),
        insert_sql(8)};

    EXI_RETURN_IF_ERROR(s.Run(OpKind::kBegin, "BEGIN").status());
    for (const std::string& sql : dml) {
      EXI_RETURN_IF_ERROR(s.Run(OpKind::kDml, sql).status());
    }
    bool rollback = ++txns_ % 4 == 0;
    EXI_RETURN_IF_ERROR(
        s.Run(rollback ? OpKind::kRollback : OpKind::kCommit,
              rollback ? "ROLLBACK" : "COMMIT")
            .status());
    if (!rollback) {
      // The same changes reach the shadow through the row API: its rows are
      // addressed by RowId, so no statement has to scan it.
      EXI_RETURN_IF_ERROR(s.Unmeasured([&]() -> Status {
        for (auto& [id, body] : rows) {
          EXI_ASSIGN_OR_RETURN(
              shadow_rid_[id],
              s.db().InsertRow("docs_shadow", Row(id, std::move(body)),
                               nullptr));
          AddLive(id);
        }
        EXI_RETURN_IF_ERROR(s.db().UpdateRow(
            "docs_shadow", shadow_rid_.at(update_id),
            Row(update_id, std::move(new_body)), nullptr));
        return DeleteShadow(s, delete_id);
      }));
    }

    std::string term = Word(&rng_, 2, 1000);
    std::string where = " WHERE Contains(body, " + Quoted(term) + ")";
    std::string sql = "SELECT id FROM docs" + where;
    Result<exi::QueryResult> r = s.Run(OpKind::kQuery, sql);
    if (r.ok() && ++queries_ % check_every_ == 1 % check_every_) {
      s.Check(r.value(), sql, "SELECT id FROM docs_shadow" + where, 0);
    }
    return Status::OK();
  }

  static exi::Row Row(int64_t id, std::string body) {
    return {exi::Value::Integer(id), exi::Value::Varchar(std::move(body))};
  }

  // Deletes `id` from the shadow and from the live set.
  Status DeleteShadow(Session& s, int64_t id) {
    EXI_RETURN_IF_ERROR(
        s.db().DeleteRow("docs_shadow", shadow_rid_.at(id), nullptr));
    shadow_rid_.erase(id);
    RemoveLive(id);
    return Status::OK();
  }

  // A committed transaction adds 8 rows net.  Before each build, while the
  // table has no text index, the oldest rows are deleted (outside the
  // measurement) so every cycle starts from the same table size.
  Status TrimToSize(Session& s) {
    if (live_.size() <= docs_) return Status::OK();
    std::vector<int64_t> ids = live_;
    size_t excess = live_.size() - docs_;
    std::nth_element(ids.begin(), ids.begin() + (excess - 1), ids.end());
    int64_t cutoff = ids[excess - 1];
    EXI_RETURN_IF_ERROR(
        s.Untimed("DELETE FROM docs WHERE id <= " + std::to_string(cutoff)));
    return s.Unmeasured([&]() -> Status {
      for (auto it = ids.begin(); it != ids.begin() + excess; ++it) {
        EXI_RETURN_IF_ERROR(DeleteShadow(s, *it));
      }
      return Status::OK();
    });
  }

  void AddLive(int64_t id) {
    slot_[id] = live_.size();
    live_.push_back(id);
  }
  void RemoveLive(int64_t id) {
    size_t i = slot_.at(id);
    live_[i] = live_.back();
    slot_[live_[i]] = i;
    live_.pop_back();
    slot_.erase(id);
  }

  uint64_t seed_;
  exi::Rng rng_;
  exi::workload::TextCorpus corpus_;
  uint64_t docs_ = 0;
  uint64_t txns_per_cycle_ = 0;
  uint64_t done_in_cycle_ = 0;
  uint64_t txns_ = 0;
  uint64_t check_every_ = 1;
  uint64_t queries_ = 0;
  bool indexed_ = false;
  int64_t next_id_ = 0;
  std::vector<int64_t> live_;  // committed ids, for UPDATE/DELETE targets
  std::unordered_map<int64_t, size_t> slot_;
  std::unordered_map<int64_t, exi::RowId> shadow_rid_;  // id -> shadow row
};

// ---------------------------------------------------------------------------
// rolling_window: RANGE-partitioned events with a LOCAL text index, plus a
// HASH-partitioned spatial table, at parallelism 3.
// ---------------------------------------------------------------------------

class RollingWindow final : public Workload {
 public:
  explicit RollingWindow(uint64_t seed)
      : seed_(seed),
        rng_(seed ^ 0x7011),
        corpus_(kVocabulary, kTheta, seed ^ 0xe7e7) {}

  Status Setup(Session& s) override {
    per_part_ = s.tiny() ? 128 : 2500;
    uint64_t parcels = s.tiny() ? 200 : 4000;
    check_every_ = s.tiny() ? 8 : 96;
    s.conn().set_parallelism(3);
    EXI_RETURN_IF_ERROR(exi::text::InstallTextCartridge(&s.conn()));
    EXI_RETURN_IF_ERROR(exi::spatial::InstallSpatialCartridge(&s.conn()));
    EXI_RETURN_IF_ERROR(InstallTracing(s));

    // Eight full partitions p0..p7 and the empty p8 that inserts fill.
    std::string ddl = "CREATE TABLE events (id INTEGER, body VARCHAR(4000)) "
                      "PARTITION BY RANGE (id) (";
    for (int p = 0; p <= 8; ++p) {
      if (p) ddl += ", ";
      ddl += "PARTITION p" + std::to_string(p) + " VALUES LESS THAN (" +
             std::to_string((p + 1) * per_part_) + ")";
    }
    EXI_RETURN_IF_ERROR(s.Untimed(ddl + ")"));
    EXI_RETURN_IF_ERROR(
        s.Untimed("CREATE TABLE events_shadow (id INTEGER, body VARCHAR(4000))"));
    for (int64_t id = 0; id < 8 * per_part_; ++id) {
      exi::Row row = {exi::Value::Integer(id),
                      exi::Value::Varchar(corpus_.NextDocument(kWordsPerDoc))};
      for (const char* table : {"events", "events_shadow"}) {
        EXI_RETURN_IF_ERROR(s.db().InsertRow(table, row, nullptr).status());
      }
    }
    oldest_ = 0;
    filling_ = 8;
    next_id_ = 8 * per_part_;

    EXI_RETURN_IF_ERROR(s.Untimed(
        "CREATE TABLE parcels (gid INTEGER, geometry OBJECT SDO_GEOMETRY) "
        "PARTITION BY HASH (gid) PARTITIONS 4"));
    EXI_RETURN_IF_ERROR(s.Untimed(
        "CREATE TABLE parcels_shadow (gid INTEGER, "
        "geometry OBJECT SDO_GEOMETRY)"));
    exi::Rng geo(seed_ ^ 0x9e0);
    for (uint64_t gid = 0; gid < parcels; ++gid) {
      exi::Row row = {exi::Value::Integer(int64_t(gid)),
                      exi::spatial::ToValue(
                          exi::workload::RandomRect(&geo, 200.0))};
      for (const char* table : {"parcels", "parcels_shadow"}) {
        EXI_RETURN_IF_ERROR(s.db().InsertRow(table, row, nullptr).status());
      }
    }

    EXI_RETURN_IF_ERROR(BuildTextIndex(
        s, OpKind::kIndexBuild,
        "CREATE INDEX events_text ON events(body) INDEXTYPE IS "
        "TextIndexType"));
    EXI_RETURN_IF_ERROR(
        s.Untimed("CREATE INDEX parcels_sx ON parcels(geometry) INDEXTYPE IS "
                  "SpatialIndexType PARAMETERS (':TileLevel 6')"));
    EXI_RETURN_IF_ERROR(s.Untimed("ANALYZE events"));
    EXI_RETURN_IF_ERROR(s.Untimed("ANALYZE parcels"));
    // Warm-up: a few queries of each kind.
    for (int i = 0; i < 8; ++i) {
      EXI_RETURN_IF_ERROR(SpatialQuery(s));
      EXI_RETURN_IF_ERROR(TextQuery(s, true));
      EXI_RETURN_IF_ERROR(TextQuery(s, false));
    }
    return Status::OK();
  }

  // A fixed 20-op pattern rather than a random draw, so every run has the
  // same mix: 2 spatial (S), 7 pruned (P) and 6 unpruned (U) Contains
  // queries, and 5 inserts (I), which dominate the time.
  Status Step(Session& s) override {
    switch (kPattern[steps_++ % kPatternLength]) {
      case 'S': return SpatialQuery(s);
      case 'P': return TextQuery(s, /*pruned=*/true);
      case 'U': return TextQuery(s, /*pruned=*/false);
      default: return Insert(s);
    }
  }

  // 30 rounds of the pattern: 150 inserts, so three or four partition rolls.
  uint64_t CountedStatements() const override { return 30 * kPatternLength; }

 private:
  static constexpr char kPattern[] = "IPUIPUSIPUIPUPSIPUPU";
  static constexpr uint64_t kPatternLength = sizeof(kPattern) - 1;

  std::string Bound(int64_t partition) const {
    return std::to_string((partition + 1) * per_part_);
  }

  bool DueForCheck() { return ++queries_ % check_every_ == 1 % check_every_; }

  Status SpatialQuery(Session& s) {
    exi::spatial::Geometry w = exi::workload::RandomRect(&rng_, 800.0);
    char where[200];
    std::snprintf(where, sizeof(where),
                  " WHERE Sdo_Relate(geometry, SDO_GEOMETRY(%.3f, %.3f, "
                  "%.3f, %.3f), 'mask=ANYINTERACT')",
                  w.xmin, w.ymin, w.xmax, w.ymax);
    std::string sql = std::string("SELECT gid FROM parcels") + where;
    Result<exi::QueryResult> r = s.Run(OpKind::kQuery, sql);
    if (r.ok() && DueForCheck()) {
      s.Check(r.value(), sql, std::string("SELECT gid FROM parcels_shadow") +
                                  where, 0);
    }
    return Status::OK();
  }

  // Pruned: the newest full partition only.  Unpruned: every slice.
  Status TextQuery(Session& s, bool pruned) {
    std::string where =
        " WHERE Contains(body, " + Quoted(Word(&rng_, 2, 1000)) + ")";
    if (pruned) {
      where += " AND id >= " + Bound(filling_ - 2) + " AND id < " +
               Bound(filling_ - 1);
    }
    std::string sql = "SELECT id FROM events" + where;
    Result<exi::QueryResult> r = s.Run(OpKind::kQuery, sql);
    if (r.ok() && DueForCheck()) {
      s.Check(r.value(), sql, "SELECT id FROM events_shadow" + where, 0);
    }
    return Status::OK();
  }

  // 64 rows into the filling partition; when it is full, ADD the next range
  // and DROP the oldest so the table keeps its size.
  Status Insert(Session& s) {
    std::string values;
    for (int i = 0; i < 64; ++i) {
      if (i) values += ", ";
      values += "(" + std::to_string(next_id_++) + ", " +
                Quoted(corpus_.NextDocument(kWordsPerDoc)) + ")";
    }
    EXI_RETURN_IF_ERROR(
        s.Run(OpKind::kDml, "INSERT INTO events VALUES " + values).status());
    EXI_RETURN_IF_ERROR(
        s.Untimed("INSERT INTO events_shadow VALUES " + values));
    if (next_id_ + 64 <= (filling_ + 1) * per_part_) return Status::OK();

    // The next insert would overflow: open the next range first.
    ++filling_;
    next_id_ = filling_ * per_part_;
    EXI_RETURN_IF_ERROR(
        s.Run(OpKind::kPartitionAdd,
              "ALTER TABLE events ADD PARTITION p" + std::to_string(filling_) +
                  " VALUES LESS THAN (" + Bound(filling_) + ")")
            .status());
    EXI_RETURN_IF_ERROR(s.Run(OpKind::kPartitionDrop,
                              "ALTER TABLE events DROP PARTITION p" +
                                  std::to_string(oldest_))
                            .status());
    EXI_RETURN_IF_ERROR(s.Untimed("DELETE FROM events_shadow WHERE id < " +
                                  Bound(oldest_)));
    ++oldest_;
    return Status::OK();
  }

  uint64_t seed_;
  exi::Rng rng_;
  exi::workload::TextCorpus corpus_;
  int64_t per_part_ = 0;
  int64_t oldest_ = 0;   // oldest live partition number
  int64_t filling_ = 0;  // partition inserts go to
  int64_t next_id_ = 0;
  uint64_t check_every_ = 1;
  uint64_t queries_ = 0;
  uint64_t steps_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "text_search") return std::make_unique<TextSearch>(seed);
  if (name == "text_ingest") return std::make_unique<TextIngest>(seed);
  if (name == "rolling_window") return std::make_unique<RollingWindow>(seed);
  return nullptr;
}

}  // namespace perfbench
