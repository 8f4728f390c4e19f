// A scratch path under /tmp unique to the running test case and process.
// ctest runs every gtest case as its own process and, under -j, several at
// once, so a fixed path shared by cases of one suite races.

#ifndef EXTIDX_TESTS_TEMP_PATH_H_
#define EXTIDX_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace exi {

// "/tmp/<stem>_<suite>_<case>_<pid>"; the file or directory tree at that
// path is removed when the object goes out of scope.
class ScopedTempPath {
 public:
  explicit ScopedTempPath(const std::string& stem) {
    const ::testing::TestInfo* test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = stem + "_" + test->test_suite_name() + "_" +
                       test->name() + "_" + std::to_string(getpid());
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized test names
    }
    path_ = "/tmp/" + name;
  }
  ~ScopedTempPath() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempPath(const ScopedTempPath&) = delete;
  ScopedTempPath& operator=(const ScopedTempPath&) = delete;

  const std::string& str() const { return path_; }
  const char* c_str() const { return path_.c_str(); }

 private:
  std::string path_;
};

}  // namespace exi

#endif  // EXTIDX_TESTS_TEMP_PATH_H_
