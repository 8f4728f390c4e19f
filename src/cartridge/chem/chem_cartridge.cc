#include "cartridge/chem/chem_cartridge.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "cartridge/params.h"
#include "common/strings.h"
#include "core/callback_guard.h"
#include "core/scan_context.h"

namespace exi::chem {

namespace {

constexpr char kLobKey[] = "fp_lob";

constexpr char kFingerprintFile[] = "fingerprints.dat";

// ---- record store abstraction over the two storage backends ----

class RecordStore {
 public:
  virtual ~RecordStore() = default;
  virtual Result<std::vector<uint8_t>> ReadAll() = 0;
  virtual Status Append(const std::vector<uint8_t>& record) = 0;
  // Zeroes the rid of the record at `index` (tombstone delete).
  virtual Status Tombstone(size_t index) = 0;
  virtual Status Clear() = 0;
};

// In-database storage: records appended to a LOB through the file-like
// LOB interface ("minimal changes were required to the index management
// software", §3.2.4).  Fully transactional via the engine's LOB undo.
class LobRecordStore : public RecordStore {
 public:
  LobRecordStore(ServerContext* ctx, LobId lob) : ctx_(ctx), lob_(lob) {}

  Result<std::vector<uint8_t>> ReadAll() override {
    return ctx_->ReadLobAll(lob_);
  }
  Status Append(const std::vector<uint8_t>& record) override {
    return ctx_->AppendLob(lob_, record);
  }
  Status Tombstone(size_t index) override {
    std::vector<uint8_t> zero(8, 0);
    return ctx_->WriteLob(lob_, index * kFingerprintRecordBytes, zero);
  }
  Status Clear() override {
    // The LOB API has no truncate and the LOB id is pinned by the metadata
    // table, so clearing tombstones every record in place.
    EXI_ASSIGN_OR_RETURN(std::vector<uint8_t> all, ctx_->ReadLobAll(lob_));
    std::vector<uint8_t> zeros(all.size(), 0);
    if (!zeros.empty()) {
      EXI_RETURN_IF_ERROR(ctx_->WriteLob(lob_, 0, zeros));
    }
    return Status::OK();
  }

 private:
  ServerContext* ctx_;
  LobId lob_;
};

// External file storage (§5): the packed file is rewritten wholesale on
// every maintenance operation, and nothing here is transactional.
class FileRecordStore : public RecordStore {
 public:
  explicit FileRecordStore(FileStore* files) : files_(files) {}

  Result<std::vector<uint8_t>> ReadAll() override {
    if (!files_->FileExists(kFingerprintFile)) {
      return std::vector<uint8_t>{};
    }
    return files_->ReadFile(kFingerprintFile);
  }
  Status Append(const std::vector<uint8_t>& record) override {
    // Legacy packed format: no incremental update; read + rewrite.
    EXI_ASSIGN_OR_RETURN(std::vector<uint8_t> all, ReadAll());
    all.insert(all.end(), record.begin(), record.end());
    return files_->WriteFile(kFingerprintFile, all);
  }
  Status Tombstone(size_t index) override {
    EXI_ASSIGN_OR_RETURN(std::vector<uint8_t> all, ReadAll());
    size_t offset = index * kFingerprintRecordBytes;
    if (offset + 8 > all.size()) {
      return Status::Internal("chem file store tombstone out of range");
    }
    std::fill(all.begin() + offset, all.begin() + offset + 8, 0);
    return files_->WriteFile(kFingerprintFile, all);
  }
  Status Clear() override {
    return files_->WriteFile(kFingerprintFile, {});
  }

 private:
  FileStore* files_;
};

Result<std::unique_ptr<RecordStore>> OpenStore(const OdciIndexInfo& info,
                                               ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(bool file,
                       ChemIndexMethods::UsesFileStorage(info.parameters));
  if (file) {
    EXI_ASSIGN_OR_RETURN(FileStore * files,
                         ctx.ExternalFiles(info.index_name));
    return std::unique_ptr<RecordStore>(new FileRecordStore(files));
  }
  EXI_ASSIGN_OR_RETURN(LobId lob, FindMetaLob(info.index_name, kLobKey, ctx));
  return std::unique_ptr<RecordStore>(new LobRecordStore(&ctx, lob));
}

}  // namespace

Result<bool> ChemIndexMethods::UsesFileStorage(const std::string& parameters) {
  EXI_ASSIGN_OR_RETURN(
      size_t storage, IndexParameters(parameters).GetOneOf("Storage",
                                                           {"lob", "file"}));
  return storage == 1;
}

Status ChemIndexMethods::Create(const OdciIndexInfo& info,
                                ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(bool file, UsesFileStorage(info.parameters));
  if (!file) {
    EXI_RETURN_IF_ERROR(CreateMetaLob(info.index_name, kLobKey, ctx).status());
  }
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<RecordStore> store,
                       OpenStore(info, ctx));
  EXI_RETURN_IF_ERROR(store->Clear());
  // Bulk build: compute all fingerprints, then append in one batch per
  // backend operation granularity.
  int col = info.indexed_position();
  std::vector<uint8_t> batch;
  Status inner = Status::OK();
  EXI_RETURN_IF_ERROR(ctx.ScanBaseTable(
      info.table_name, [&](RowId rid, const Row& row) {
        const Value& v = row[col];
        if (v.is_null()) return true;
        Result<Molecule> mol = Molecule::ParseSmiles(v.AsVarchar());
        if (!mol.ok()) {
          inner = mol.status();
          return false;
        }
        AppendFingerprintRecord(&batch, rid, ComputeFingerprint(*mol));
        return true;
      }));
  EXI_RETURN_IF_ERROR(inner);
  if (!batch.empty()) {
    EXI_RETURN_IF_ERROR(store->Append(batch));
  }
  return Status::OK();
}

Status ChemIndexMethods::Alter(const OdciIndexInfo& info,
                               ServerContext& ctx) {
  // Changing :Storage after creation is rejected: the records would have to
  // move between stores.  A LOB-backed index is the one with an fp_lob row.
  EXI_ASSIGN_OR_RETURN(bool file, UsesFileStorage(info.parameters));
  bool built_on_file = !FindMetaLob(info.index_name, kLobKey, ctx).ok();
  if (file != built_on_file) {
    return Status::InvalidArgument(
        "ALTER INDEX cannot change :Storage: chem index " + info.index_name +
        " is stored in " + (built_on_file ? "a file" : "a LOB"));
  }
  return Status::OK();
}

Status ChemIndexMethods::Truncate(const OdciIndexInfo& info,
                                  ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<RecordStore> store,
                       OpenStore(info, ctx));
  return store->Clear();
}

Status ChemIndexMethods::Drop(const OdciIndexInfo& info, ServerContext& ctx) {
  EXI_ASSIGN_OR_RETURN(bool file, UsesFileStorage(info.parameters));
  if (file) {
    EXI_ASSIGN_OR_RETURN(FileStore * files,
                         ctx.ExternalFiles(info.index_name));
    return files->Clear();
  }
  return DropMetaLob(info.index_name, kLobKey, ctx);
}

Status ChemIndexMethods::BatchInsert(const OdciIndexInfo& info,
                                     const std::vector<RowId>& rids,
                                     const ValueList& new_values,
                                     ServerContext& ctx) {
  // All fingerprints concatenate into one packed batch, appended with a
  // single store operation rather than one append per row.
  std::vector<uint8_t> batch;
  for (size_t i = 0; i < rids.size(); ++i) {
    const Value& v = new_values[i];
    if (v.is_null()) continue;
    EXI_ASSIGN_OR_RETURN(Molecule mol, Molecule::ParseSmiles(v.AsVarchar()));
    AppendFingerprintRecord(&batch, rids[i], ComputeFingerprint(mol));
  }
  if (batch.empty()) return Status::OK();
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<RecordStore> store,
                       OpenStore(info, ctx));
  return store->Append(batch);
}

Status ChemIndexMethods::BatchDelete(const OdciIndexInfo& info,
                                     const std::vector<RowId>& rids,
                                     const ValueList& old_values,
                                     ServerContext& ctx) {
  // One pass over the packed store locates every doomed record, rather
  // than one pass per rid.
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<RecordStore> store,
                       OpenStore(info, ctx));
  std::set<RowId> doomed;
  for (size_t i = 0; i < rids.size(); ++i) {
    if (!old_values[i].is_null()) doomed.insert(rids[i]);
  }
  if (doomed.empty()) return Status::OK();
  EXI_ASSIGN_OR_RETURN(std::vector<uint8_t> all, store->ReadAll());
  size_t count = all.size() / kFingerprintRecordBytes;
  for (size_t i = 0; i < count; ++i) {
    uint64_t rec_rid;
    std::memcpy(&rec_rid, all.data() + i * kFingerprintRecordBytes, 8);
    if (rec_rid != 0 && doomed.count(RowId(rec_rid)) > 0) {
      EXI_RETURN_IF_ERROR(store->Tombstone(i));
    }
  }
  return Status::OK();
}

Result<OdciScanContext> ChemIndexMethods::Start(const OdciIndexInfo& info,
                                                const OdciPredInfo& pred,
                                                ServerContext& ctx) {
  if (pred.args.empty() || pred.args[0].tag() != TypeTag::kVarchar) {
    return Status::InvalidArgument(
        "chem index scan expects a SMILES query argument");
  }
  EXI_ASSIGN_OR_RETURN(Molecule query,
                       Molecule::ParseSmiles(pred.args[0].AsVarchar()));
  Fingerprint qfp = ComputeFingerprint(query);

  EXI_ASSIGN_OR_RETURN(std::unique_ptr<RecordStore> store,
                       OpenStore(info, ctx));
  EXI_ASSIGN_OR_RETURN(std::vector<uint8_t> raw, store->ReadAll());
  std::vector<FingerprintRecord> records = DecodeFingerprintRecords(raw);

  // (rid, score): score is Tanimoto for MolSim, 1.0 for MolContains.
  std::vector<std::pair<RowId, double>> matches;
  if (EqualsIgnoreCase(pred.operator_name, "MolSim")) {
    // Similarity: evaluated entirely on index data; the planner's bounds
    // (MolSim(...) >= t etc.) become the similarity window.
    double lo = pred.lower_bound.has_value() &&
                        DataType(pred.lower_bound->tag()).is_numeric()
                    ? pred.lower_bound->AsDouble()
                    : 0.0;
    double hi = pred.upper_bound.has_value() &&
                        DataType(pred.upper_bound->tag()).is_numeric()
                    ? pred.upper_bound->AsDouble()
                    : 1.0;
    for (const FingerprintRecord& rec : records) {
      double sim = Tanimoto(rec.fp, qfp);
      bool above_lo = pred.lower_inclusive ? sim >= lo : sim > lo;
      bool below_hi = pred.upper_inclusive ? sim <= hi : sim < hi;
      if (above_lo && below_hi) matches.emplace_back(rec.rid, sim);
    }
    // Rank most-similar first (the paper's fast nearest-neighbor use).
    std::sort(matches.begin(), matches.end(),
              [](const auto& a, const auto& b) {
                return a.second > b.second;
              });
  } else {
    // Substructure: fingerprint screen then exact subgraph isomorphism.
    int col = info.indexed_position();
    for (const FingerprintRecord& rec : records) {
      if (!rec.fp.Covers(qfp)) continue;  // screened out
      Result<Row> row = ctx.GetBaseTableRow(info.table_name, rec.rid);
      if (!row.ok()) continue;
      const Value& v = (*row)[col];
      if (v.is_null()) continue;
      EXI_ASSIGN_OR_RETURN(Molecule mol,
                           Molecule::ParseSmiles(v.AsVarchar()));
      if (mol.ContainsSubstructure(query)) {
        matches.emplace_back(rec.rid, 1.0);
      }
    }
  }
  return PrecomputedCursor::Park(std::move(matches), [](const auto& m) {
    return std::pair{m.first, Value::Double(m.second)};
  });
}

// ---- stats ----

Result<double> ChemStats::Selectivity(const OdciIndexInfo& info,
                                      const OdciPredInfo& pred,
                                      uint64_t table_rows,
                                      ServerContext& ctx) {
  (void)info;
  (void)ctx;
  (void)table_rows;
  if (pred.args.empty() || pred.args[0].tag() != TypeTag::kVarchar) {
    return 0.05;
  }
  Result<Molecule> query = Molecule::ParseSmiles(pred.args[0].AsVarchar());
  if (!query.ok()) return 0.05;
  if (EqualsIgnoreCase(pred.operator_name, "MolSim")) {
    double lo = pred.lower_bound.has_value() &&
                        DataType(pred.lower_bound->tag()).is_numeric()
                    ? pred.lower_bound->AsDouble()
                    : 0.0;
    // High similarity thresholds are sharply selective.
    double sel = (1.0 - lo);
    sel = sel * sel;
    if (sel < 1e-4) sel = 1e-4;
    return sel;
  }
  // Substructure: bigger query fingerprints screen harder.
  uint32_t bits = ComputeFingerprint(*query).PopCount();
  double sel = std::pow(0.93, double(bits));
  if (sel < 1e-4) sel = 1e-4;
  return sel;
}

Result<double> ChemStats::IndexCost(const OdciIndexInfo& info,
                                    const OdciPredInfo& pred,
                                    double selectivity, uint64_t table_rows,
                                    ServerContext& ctx) {
  (void)info;
  (void)pred;
  (void)ctx;
  // Full fingerprint pass (cheap per record) + exact checks on survivors
  // (expensive: parse + isomorphism).
  return 10.0 + double(table_rows) * 0.05 +
         selectivity * double(table_rows) * 5.0;
}

// ---- events (§5) ----

uint64_t RegisterChemRollbackHandler(Database* db,
                                     const std::string& index_name) {
  return db->events().Register([db, index_name](DbEvent event) {
    if (event != DbEvent::kRollback) return;
    // Rebuild the external fingerprint file from the (rolled back) base
    // table.  Failures are swallowed: event handlers run post-rollback
    // and have no statement to fail.
    Result<IndexInfo*> index = db->catalog().GetIndex(index_name);
    if (!index.ok() || !(*index)->is_domain()) return;
    Result<HeapTable*> table = db->catalog().GetTable((*index)->table);
    if (!table.ok()) return;
    OdciIndexInfo info = (*index)->ToOdciInfo((*table)->schema());
    GuardedServerContext ctx(&db->catalog(), nullptr,
                             CallbackMode::kDefinition);
    Result<FileStore*> files = ctx.ExternalFiles(index_name);
    if (!files.ok()) return;
    int col = info.indexed_position();
    std::vector<uint8_t> batch;
    for (auto it = (*table)->Scan(); it.Valid(); it.Next()) {
      const Value& v = it.row()[col];
      if (v.is_null()) continue;
      Result<Molecule> mol = Molecule::ParseSmiles(v.AsVarchar());
      if (!mol.ok()) continue;
      AppendFingerprintRecord(&batch, it.row_id(),
                              ComputeFingerprint(*mol));
    }
    (void)(*files)->WriteFile(kFingerprintFile, batch);
  });
}

// ---- installation ----

Status InstallChemCartridge(Connection* conn) {
  Catalog& catalog = conn->db()->catalog();

  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "MolContainsFn", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("MolContains expects 2 arguments");
        }
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        if (args[0].tag() != TypeTag::kVarchar ||
            args[1].tag() != TypeTag::kVarchar) {
          return Status::TypeMismatch("MolContains expects VARCHAR SMILES");
        }
        EXI_ASSIGN_OR_RETURN(Molecule mol,
                             Molecule::ParseSmiles(args[0].AsVarchar()));
        EXI_ASSIGN_OR_RETURN(Molecule sub,
                             Molecule::ParseSmiles(args[1].AsVarchar()));
        return Value::Boolean(mol.ContainsSubstructure(sub));
      }));

  EXI_RETURN_IF_ERROR(catalog.functions().Register(
      "MolSimFn", [](const ValueList& args) -> Result<Value> {
        if (args.size() != 2) {
          return Status::InvalidArgument("MolSim expects 2 arguments");
        }
        if (args[0].is_null() || args[1].is_null()) return Value::Null();
        if (args[0].tag() != TypeTag::kVarchar ||
            args[1].tag() != TypeTag::kVarchar) {
          return Status::TypeMismatch("MolSim expects VARCHAR SMILES");
        }
        EXI_ASSIGN_OR_RETURN(Molecule a,
                             Molecule::ParseSmiles(args[0].AsVarchar()));
        EXI_ASSIGN_OR_RETURN(Molecule b,
                             Molecule::ParseSmiles(args[1].AsVarchar()));
        return Value::Double(
            Tanimoto(ComputeFingerprint(a), ComputeFingerprint(b)));
      }));

  EXI_RETURN_IF_ERROR(catalog.implementations().Register(
      "ChemIndexMethods",
      [] { return std::make_shared<ChemIndexMethods>(); },
      [] { return std::make_shared<ChemStats>(); }));

  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE OPERATOR MolContains BINDING (VARCHAR, VARCHAR) "
                    "RETURN BOOLEAN USING MolContainsFn")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE OPERATOR MolSim BINDING (VARCHAR, VARCHAR) "
                    "RETURN DOUBLE USING MolSimFn")
          .status());
  EXI_RETURN_IF_ERROR(
      conn->Execute("CREATE INDEXTYPE ChemIndexType FOR "
                    "MolContains(VARCHAR, VARCHAR), MolSim(VARCHAR, "
                    "VARCHAR) USING ChemIndexMethods")
          .status());
  return Status::OK();
}

}  // namespace exi::chem
