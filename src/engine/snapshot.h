#ifndef EXTIDX_ENGINE_SNAPSHOT_H_
#define EXTIDX_ENGINE_SNAPSHOT_H_

#include <string>

#include "common/status.h"
#include "engine/connection.h"
#include "engine/database.h"

namespace exi {

// Logical database snapshots.
//
// SaveSnapshot writes the *logical* content of the database — table
// schemas, table rows, and index definitions — to a single binary file.
// Index payloads (posting IOTs, R-tree LOBs, fingerprint stores, B-tree
// nodes) are intentionally NOT serialized: LoadSnapshot re-creates every
// index through its normal build path, which for domain indexes means
// invoking ODCIIndexCreate exactly as `CREATE INDEX ... INDEXTYPE IS ...`
// would (§2.4.1).  This keeps the format independent of any cartridge's
// storage layout and doubles as an end-to-end exercise of index builds.
//
// Prerequisites for LoadSnapshot: the target database must be fresh (no
// tables) and must already have the relevant cartridges installed
// (implementations registered + operator/indextype DDL executed), since
// cartridge code cannot be serialized.  Schema-object DDL (operators,
// indextypes) is therefore not part of the snapshot.
//
// Caveats: RowIds are reassigned on load (rows are re-inserted), and
// LOB-typed *table columns* are not supported (no cartridge uses them;
// LOBs appear only as index storage, which is rebuilt).
Status SaveSnapshot(Database* db, const std::string& path);

Status LoadSnapshot(Database* db, Connection* conn, const std::string& path);

}  // namespace exi

#endif  // EXTIDX_ENGINE_SNAPSHOT_H_
