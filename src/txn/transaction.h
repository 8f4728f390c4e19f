#ifndef EXTIDX_TXN_TRANSACTION_H_
#define EXTIDX_TXN_TRANSACTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/status.h"
#include "index/iot.h"
#include "txn/events.h"
#include "types/value.h"

namespace exi {

// Undo action: restores one mutation.  Actions run in reverse order on
// rollback.  They operate on in-memory structures and are infallible by
// construction (they re-apply previously-valid state).
using UndoAction = std::function<void()>;

// A transaction: an undo log over base tables, built-in indexes, and all
// in-database index data mutated through server callbacks (IOTs, index
// tables, LOBs).  This is what gives domain indexes "the same transactional
// boundaries as updates to the base table" (§2.5).  External file stores
// are intentionally NOT covered (§5).
class Transaction {
 public:
  explicit Transaction(uint64_t id) : id_(id) {}

  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  uint64_t id() const { return id_; }

  void PushUndo(UndoAction action) { undo_log_.push_back(std::move(action)); }

  // Logs one undo entry that reverts what a merge run changed in `iot`
  // (none when it changed nothing).
  void PushRevert(Iot* iot, Iot::MergeUndo undo) {
    if (undo.empty()) return;
    PushUndo([iot, undo = std::move(undo)]() mutable {
      iot->Revert(std::move(undo));
    });
  }

  size_t undo_depth() const { return undo_log_.size(); }

  // Runs the undo log newest-first and clears it.
  void RunUndo();

  // First-touch tracking for LOB snapshots: returns true when the LOB has
  // no snapshot in the undo log yet, so the caller snapshots before the
  // first write.  The snapshot's undo entry calls ForgetLobTouched, so a
  // write after RollbackTo has undone the snapshot takes a new one.
  bool MarkLobTouched(LobId id) { return touched_lobs_.insert(id).second; }
  void ForgetLobTouched(LobId id) { touched_lobs_.erase(id); }

  // Statement-level savepoints: a failed statement rolls back its own
  // mutations without aborting the enclosing transaction.
  size_t Savepoint() const { return undo_log_.size(); }
  void RollbackTo(size_t savepoint);

 private:
  uint64_t id_;
  std::vector<UndoAction> undo_log_;
  std::set<LobId> touched_lobs_;
};

// Single-session transaction manager with auto-commit semantics: if no
// explicit transaction is open, each statement runs in its own implicit
// transaction.  DDL commits any open transaction first (Oracle behavior).
class TransactionManager {
 public:
  explicit TransactionManager(EventManager* events) : events_(events) {}

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  bool InTransaction() const { return current_ != nullptr; }
  bool IsExplicit() const { return explicit_; }
  Transaction* current() { return current_.get(); }

  // Opens an explicit transaction (BEGIN). Errors if one is open.
  Status Begin();

  // Commits the open transaction (explicit or implicit) and fires kCommit.
  Status Commit();

  // Rolls back the open transaction and fires kRollback.
  Status Rollback();

  // Ensures a transaction exists for a statement; returns true if an
  // implicit one was started (the caller must Commit/Rollback it when the
  // statement finishes).
  bool EnsureStatementTransaction();

 private:
  EventManager* events_;
  std::unique_ptr<Transaction> current_;
  bool explicit_ = false;
  uint64_t next_id_ = 1;
};

}  // namespace exi

#endif  // EXTIDX_TXN_TRANSACTION_H_
