// Tests for the chemistry cartridge (§3.2.4): SMILES parsing, subgraph
// isomorphism, fingerprint screening soundness, LOB vs file storage, and
// the §5 external-store rollback limitation + database-events remedy.

#include <gtest/gtest.h>

#include <set>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/chem/fingerprint.h"
#include "cartridge/chem/molecule.h"
#include "common/metrics.h"
#include "engine/connection.h"
#include "temp_path.h"

namespace exi {
namespace {

using namespace exi::chem;  // NOLINT

TEST(MoleculeTest, ParseSmilesBasics) {
  Result<Molecule> ethanol = Molecule::ParseSmiles("CCO");
  ASSERT_TRUE(ethanol.ok());
  EXPECT_EQ(ethanol->atom_count(), 3u);
  EXPECT_EQ(ethanol->bond_count(), 2u);

  Result<Molecule> branched = Molecule::ParseSmiles("CC(=O)O");  // acetic
  ASSERT_TRUE(branched.ok());
  EXPECT_EQ(branched->atom_count(), 4u);
  EXPECT_EQ(branched->BondOrder(1, 2), 2);
  EXPECT_EQ(branched->BondOrder(1, 3), 1);

  Result<Molecule> ring = Molecule::ParseSmiles("C1CCCCC1");  // cyclohexane
  ASSERT_TRUE(ring.ok());
  EXPECT_EQ(ring->atom_count(), 6u);
  EXPECT_EQ(ring->bond_count(), 6u);

  Result<Molecule> chloro = Molecule::ParseSmiles("ClCBr");
  ASSERT_TRUE(chloro.ok());
  EXPECT_EQ(chloro->atoms()[0].element, "Cl");
  EXPECT_EQ(chloro->atoms()[2].element, "Br");

  EXPECT_FALSE(Molecule::ParseSmiles("").ok());
  EXPECT_FALSE(Molecule::ParseSmiles("C(C").ok());
  EXPECT_FALSE(Molecule::ParseSmiles("C1CC").ok());   // unclosed ring
  EXPECT_FALSE(Molecule::ParseSmiles("Cx").ok());     // bad char
}

TEST(MoleculeTest, SubstructureIsomorphism) {
  Molecule hexane = *Molecule::ParseSmiles("CCCCCC");
  Molecule propane = *Molecule::ParseSmiles("CCC");
  Molecule ethanol = *Molecule::ParseSmiles("CCO");
  Molecule acetic = *Molecule::ParseSmiles("CC(=O)O");
  Molecule carbonyl = *Molecule::ParseSmiles("C=O");

  EXPECT_TRUE(hexane.ContainsSubstructure(propane));
  EXPECT_FALSE(propane.ContainsSubstructure(hexane));
  EXPECT_TRUE(acetic.ContainsSubstructure(carbonyl));
  // Bond orders must match: C-O is not C=O.
  EXPECT_FALSE(ethanol.ContainsSubstructure(carbonyl));
  EXPECT_TRUE(ethanol.ContainsSubstructure(*Molecule::ParseSmiles("CO")));
  // Ring contains its linear chain.
  Molecule cyclohexane = *Molecule::ParseSmiles("C1CCCCC1");
  EXPECT_TRUE(cyclohexane.ContainsSubstructure(propane));
  // Chain does not contain the ring.
  EXPECT_FALSE(hexane.ContainsSubstructure(cyclohexane));
}

TEST(FingerprintTest, ScreeningIsSound) {
  // If Q is a substructure of M, fp(M) must cover fp(Q) — no false
  // negatives from the screen.
  const char* mols[] = {"CCCCCC", "CC(=O)O", "C1CCCCC1", "CCOC(=O)CC",
                        "NC(=O)CN", "CCSCC", "ClC(Cl)CBr"};
  const char* queries[] = {"CC", "CO", "C=O", "CCC", "N", "S", "Cl"};
  for (const char* m : mols) {
    Molecule mol = *Molecule::ParseSmiles(m);
    Fingerprint mfp = ComputeFingerprint(mol);
    for (const char* q : queries) {
      Molecule query = *Molecule::ParseSmiles(q);
      if (mol.ContainsSubstructure(query)) {
        EXPECT_TRUE(mfp.Covers(ComputeFingerprint(query)))
            << m << " / " << q;
      }
    }
  }
}

TEST(FingerprintTest, TanimotoProperties) {
  Fingerprint a = ComputeFingerprint(*Molecule::ParseSmiles("CCO"));
  Fingerprint b = ComputeFingerprint(*Molecule::ParseSmiles("CCO"));
  Fingerprint c = ComputeFingerprint(*Molecule::ParseSmiles("ClC(Cl)Cl"));
  EXPECT_DOUBLE_EQ(Tanimoto(a, b), 1.0);
  EXPECT_LT(Tanimoto(a, c), 0.5);
  EXPECT_GE(Tanimoto(a, c), 0.0);
}

class ChemCartridgeTest : public ::testing::Test {
 protected:
  ChemCartridgeTest() : conn_(&db_) {
    db_.catalog().set_external_root(external_root_.str());
    EXPECT_TRUE(InstallChemCartridge(&conn_).ok());
    conn_.MustExecute("CREATE TABLE mols (id INTEGER, smiles VARCHAR(200))");
  }

  void InsertMol(int id, const std::string& smiles) {
    conn_.MustExecute("INSERT INTO mols VALUES (" + std::to_string(id) +
                      ", '" + smiles + "')");
  }

  std::set<int64_t> QueryIds(const std::string& where) {
    QueryResult r = conn_.MustExecute("SELECT id FROM mols WHERE " + where);
    std::set<int64_t> ids;
    for (const Row& row : r.rows) ids.insert(row[0].AsInteger());
    return ids;
  }

  void LoadSampleMolecules() {
    InsertMol(1, "CCO");         // ethanol
    InsertMol(2, "CC(=O)O");     // acetic acid
    InsertMol(3, "C1CCCCC1");    // cyclohexane
    InsertMol(4, "CCCCCC");      // hexane
    InsertMol(5, "ClCCl");       // dichloromethane
    InsertMol(6, "CC(=O)OCC");   // ethyl acetate
  }

  // Declared first so the directory outlives the database using it.
  ScopedTempPath external_root_{"extidx_test_chem"};
  Database db_;
  Connection conn_;
};

TEST_F(ChemCartridgeTest, FunctionalOperators) {
  LoadSampleMolecules();
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{2, 6}));
  EXPECT_EQ(QueryIds("MolContains(smiles, 'Cl')"), std::set<int64_t>{5});
  EXPECT_EQ(QueryIds("MolSim(smiles, 'CCO') >= 0.99"),
            std::set<int64_t>{1});
}

TEST_F(ChemCartridgeTest, LobIndexMatchesFunctional) {
  LoadSampleMolecules();
  std::set<int64_t> expected = QueryIds("MolContains(smiles, 'C=O')");
  conn_.MustExecute(
      "CREATE INDEX mol_idx ON mols(smiles) INDEXTYPE IS ChemIndexType");
  conn_.MustExecute("ANALYZE mols");
  QueryResult ex = conn_.MustExecute(
      "EXPLAIN SELECT id FROM mols WHERE MolContains(smiles, 'C=O')");
  EXPECT_NE(ex.message.find("DomainIndex(mol_idx)"), std::string::npos)
      << ex.message;
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"), expected);
}

TEST_F(ChemCartridgeTest, SimilarityBoundsEvaluatedOnIndexData) {
  LoadSampleMolecules();
  conn_.MustExecute(
      "CREATE INDEX mol_idx ON mols(smiles) INDEXTYPE IS ChemIndexType");
  // `MolSim(...) >= 0.99` is normalized to scan bounds (§2.4.2).
  EXPECT_EQ(QueryIds("MolSim(smiles, 'CCO') >= 0.99"),
            std::set<int64_t>{1});
  // Window form via two conjuncts: at least one edge served by the index.
  std::set<int64_t> mid = QueryIds(
      "MolSim(smiles, 'CCO') >= 0.2 AND MolSim(smiles, 'CCO') <= 0.9");
  EXPECT_EQ(mid.count(1), 0u);  // identity excluded by the upper bound
  // All molecules sharing some paths with ethanol but not identical.
  EXPECT_FALSE(mid.empty());
}

TEST_F(ChemCartridgeTest, MaintenanceAndTombstones) {
  LoadSampleMolecules();
  conn_.MustExecute(
      "CREATE INDEX mol_idx ON mols(smiles) INDEXTYPE IS ChemIndexType");
  InsertMol(7, "OC=O");  // formic acid
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{2, 6, 7}));
  conn_.MustExecute("UPDATE mols SET smiles = 'CCC' WHERE id = 2");
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{6, 7}));
  conn_.MustExecute("DELETE FROM mols WHERE id = 6");
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"), std::set<int64_t>{7});
}

TEST_F(ChemCartridgeTest, FileStorageWorksAndCostsMoreWrites) {
  LoadSampleMolecules();
  StorageMetrics before = GlobalMetrics().Snapshot();
  conn_.MustExecute(
      "CREATE INDEX mol_file_idx ON mols(smiles) INDEXTYPE IS "
      "ChemIndexType PARAMETERS (':Storage file')");
  StorageMetrics file_build = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_GT(file_build.file_writes, 0u);
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{2, 6}));

  // Incremental maintenance rewrites the whole file per row (§3.2.4: the
  // LOB scheme "minimizes intermediate write operations").
  before = GlobalMetrics().Snapshot();
  InsertMol(10, "C=O");
  InsertMol(11, "CC=O");
  StorageMetrics file_maint = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_GE(file_maint.file_writes, 2u);
  EXPECT_GT(file_maint.file_bytes_written,
            2 * kFingerprintRecordBytes);  // whole-file rewrites

  conn_.MustExecute("DROP INDEX mol_file_idx");
  before = GlobalMetrics().Snapshot();
  conn_.MustExecute(
      "CREATE INDEX mol_lob_idx ON mols(smiles) INDEXTYPE IS "
      "ChemIndexType");
  InsertMol(12, "OCC=O");
  StorageMetrics lob_maint = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_EQ(lob_maint.file_writes, 0u);
  EXPECT_GT(lob_maint.lob_chunks_written, 0u);
}

TEST_F(ChemCartridgeTest, UnknownStorageIsRejected) {
  LoadSampleMolecules();
  Result<QueryResult> r = conn_.Execute(
      "CREATE INDEX midx ON mols(smiles) INDEXTYPE IS ChemIndexType "
      "PARAMETERS (':Storage tape')");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("Storage tape"), std::string::npos)
      << r.status().ToString();
  conn_.MustExecute(
      "CREATE INDEX midx ON mols(smiles) INDEXTYPE IS ChemIndexType "
      "PARAMETERS (':Storage lob')");
  Result<QueryResult> alter =
      conn_.Execute("ALTER INDEX midx PARAMETERS (':Storage tape')");
  ASSERT_FALSE(alter.ok());
  EXPECT_EQ(alter.status().code(), StatusCode::kInvalidArgument);
  QueryResult stored = conn_.MustExecute(
      "SELECT parameters FROM user_indexes WHERE index_name = 'midx'");
  ASSERT_EQ(stored.rows.size(), 1u);
  EXPECT_EQ(stored.rows[0][0].AsVarchar(), ":Storage lob");
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{2, 6}));
}

// ALTER INDEX may not switch a built index to a store it was not built in:
// the other store is empty, so queries would lose every match.
TEST_F(ChemCartridgeTest, AlterCannotSwitchStorage) {
  InsertMol(1, "CCO");
  InsertMol(2, "CC(=O)O");
  InsertMol(3, "CC(=O)OCC");
  const size_t lobs_before = db_.catalog().lobs().lob_count();
  conn_.MustExecute(
      "CREATE INDEX midx ON mols(smiles) INDEXTYPE IS ChemIndexType");
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{2, 3}));

  Result<QueryResult> alter =
      conn_.Execute("ALTER INDEX midx PARAMETERS (':Storage file')");
  ASSERT_FALSE(alter.ok());
  EXPECT_EQ(alter.status().code(), StatusCode::kInvalidArgument)
      << alter.status().ToString();
  QueryResult stored = conn_.MustExecute(
      "SELECT parameters FROM user_indexes WHERE index_name = 'midx'");
  ASSERT_EQ(stored.rows.size(), 1u);
  EXPECT_TRUE(stored.rows[0][0].is_null());
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{2, 3}));
  // Naming the store it already has is accepted.
  conn_.MustExecute("ALTER INDEX midx PARAMETERS (':Storage lob')");
  InsertMol(4, "O=CC");
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{2, 3, 4}));

  conn_.MustExecute("DROP INDEX midx");
  EXPECT_FALSE(db_.catalog().IotExists("midx$meta"));
  EXPECT_EQ(db_.catalog().lobs().lob_count(), lobs_before);

  // A file-backed index cannot move into a LOB either.
  conn_.MustExecute(
      "CREATE INDEX fidx ON mols(smiles) INDEXTYPE IS ChemIndexType "
      "PARAMETERS (':Storage file')");
  alter = conn_.Execute("ALTER INDEX fidx PARAMETERS (':Storage lob')");
  ASSERT_FALSE(alter.ok());
  EXPECT_EQ(alter.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(QueryIds("MolContains(smiles, 'C=O')"),
            (std::set<int64_t>{2, 3, 4}));
  conn_.MustExecute("DROP INDEX fidx");
  EXPECT_FALSE(db_.catalog().IotExists("fidx$meta"));
  EXPECT_EQ(db_.catalog().lobs().lob_count(), lobs_before);
}

TEST_F(ChemCartridgeTest, ExternalStoreEscapesRollback) {
  // The §5 limitation: file-backed index data is NOT rolled back.
  LoadSampleMolecules();
  conn_.MustExecute(
      "CREATE INDEX mol_file_idx ON mols(smiles) INDEXTYPE IS "
      "ChemIndexType PARAMETERS (':Storage file')");
  conn_.MustExecute("BEGIN");
  InsertMol(20, "ClCCCl");
  conn_.MustExecute("ROLLBACK");
  // Base table rolled back...
  QueryResult r = conn_.MustExecute("SELECT COUNT(*) FROM mols WHERE id = 20");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 0);
  // ...but the external index still holds the phantom fingerprint: a
  // query for it returns a stale rowid that no longer resolves, which the
  // executor silently drops — so instead inspect the index funnel: the
  // fingerprint file grew and was not shrunk by the rollback.
  StorageMetrics before = GlobalMetrics().Snapshot();
  EXPECT_TRUE(QueryIds("MolContains(smiles, 'ClCCCl')").empty());
  StorageMetrics delta = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_GT(delta.file_reads, 0u);
}

TEST_F(ChemCartridgeTest, DatabaseEventsRestoreExternalConsistency) {
  // §5 proposed solution: rollback event handler reconciles the file.
  LoadSampleMolecules();
  conn_.MustExecute(
      "CREATE INDEX mol_file_idx ON mols(smiles) INDEXTYPE IS "
      "ChemIndexType PARAMETERS (':Storage file')");
  uint64_t handler = RegisterChemRollbackHandler(&db_, "mol_file_idx");

  // Capture the file size before the aborted transaction.
  FileStore* files = *db_.catalog().GetOrCreateFileStore("mol_file_idx");
  size_t before_size = (*files->ReadFile("fingerprints.dat")).size();

  conn_.MustExecute("BEGIN");
  InsertMol(20, "ClCCCl");
  InsertMol(21, "BrCCBr");
  conn_.MustExecute("ROLLBACK");

  size_t after_size = (*files->ReadFile("fingerprints.dat")).size();
  EXPECT_EQ(after_size, before_size);  // handler rebuilt the file
  EXPECT_TRUE(QueryIds("MolContains(smiles, 'ClCCCl')").empty());
  // Committed work still lands in the file.
  InsertMol(22, "ClCCCl");
  EXPECT_EQ(QueryIds("MolContains(smiles, 'ClCCCl')"),
            std::set<int64_t>{22});
  db_.events().Unregister(handler);
}

}  // namespace
}  // namespace exi
