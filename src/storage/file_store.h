#ifndef EXTIDX_STORAGE_FILE_STORE_H_
#define EXTIDX_STORAGE_FILE_STORE_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace exi {

// External file store backing index data that lives *outside* the database.
// Deliberately not wired into the transaction manager: updates made through
// FileStore survive a transaction rollback, reproducing the §5 limitation
// ("changes to the base table are rolled back whereas changes to the index
// data are not").  Database events (txn/events.h) are the paper's proposed
// remedy and are exercised together with this store in experiment E9.
//
// Files are real files under a caller-supplied directory (typically a
// test/bench temp dir).
class FileStore {
 public:
  explicit FileStore(std::string directory);
  ~FileStore();

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  const std::string& directory() const { return directory_; }

  // Overwrites the file with `data`.
  Status WriteFile(const std::string& name, const std::vector<uint8_t>& data);

  Result<std::vector<uint8_t>> ReadFile(const std::string& name) const;

  bool FileExists(const std::string& name) const;

  Status RemoveFile(const std::string& name);

  // Names of all files in the store directory.
  std::vector<std::string> ListFiles() const;

  // Removes every file (used by index truncate/drop).
  Status Clear();

 private:
  std::string PathFor(const std::string& name) const;

  std::string directory_;
};

}  // namespace exi

#endif  // EXTIDX_STORAGE_FILE_STORE_H_
