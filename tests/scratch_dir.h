// A unique scratch directory for a test's durable replay, shared by the
// test binaries that give DistributedSystem a durability directory.
#ifndef RFID_TESTS_SCRATCH_DIR_H_
#define RFID_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace rfid {

/// Unique scratch directory under the test temp dir, removed on
/// destruction.
class ScratchDir {
 public:
  ScratchDir() {
    std::string tmpl = ::testing::TempDir() + "rfid_scratch_XXXXXX";
    char* got = mkdtemp(tmpl.data());
    EXPECT_NE(got, nullptr);
    path_ = got != nullptr ? got : tmpl;
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

}  // namespace rfid

#endif  // RFID_TESTS_SCRATCH_DIR_H_
