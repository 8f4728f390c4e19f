#include "storage/file_store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/metrics.h"

namespace fs = std::filesystem;

namespace exi {

FileStore::FileStore(std::string directory)
    : directory_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
}

FileStore::~FileStore() = default;

std::string FileStore::PathFor(const std::string& name) const {
  return directory_ + "/" + name;
}

Status FileStore::WriteFile(const std::string& name,
                            const std::vector<uint8_t>& data) {
  std::ofstream out(PathFor(name), std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open for write: " + PathFor(name));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) return Status::IoError("write failed: " + PathFor(name));
  GlobalMetrics().file_writes++;
  GlobalMetrics().file_bytes_written += data.size();
  return Status::OK();
}

Result<std::vector<uint8_t>> FileStore::ReadFile(
    const std::string& name) const {
  std::ifstream in(PathFor(name), std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("no file: " + PathFor(name));
  std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<uint8_t> data(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(data.data()), size)) {
    return Status::IoError("read failed: " + PathFor(name));
  }
  GlobalMetrics().file_reads++;
  return data;
}

bool FileStore::FileExists(const std::string& name) const {
  std::error_code ec;
  return fs::exists(PathFor(name), ec);
}

Status FileStore::RemoveFile(const std::string& name) {
  std::error_code ec;
  fs::remove(PathFor(name), ec);
  if (ec) return Status::IoError("remove failed: " + PathFor(name));
  return Status::OK();
}

std::vector<std::string> FileStore::ListFiles() const {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (entry.is_regular_file()) {
      names.push_back(entry.path().filename().string());
    }
  }
  return names;
}

Status FileStore::Clear() {
  for (const std::string& name : ListFiles()) {
    EXI_RETURN_IF_ERROR(RemoveFile(name));
  }
  return Status::OK();
}

}  // namespace exi
