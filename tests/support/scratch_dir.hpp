#pragma once

/// \file scratch_dir.hpp
/// \brief A fresh directory under gtest's temp root, removed with
/// everything in it when the object goes out of scope, so a test run leaves
/// nothing behind in TMPDIR.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

#include "common/error.hpp"

namespace vqmc::testing {

class ScratchDir {
 public:
  /// Creates `<gtest TempDir()>vqmc_<tag>_XXXXXX`.
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "vqmc_" + tag + "_XXXXXX") {
    if (::mkdtemp(path_.data()) == nullptr)
      throw Error("test: mkdtemp failed for " + path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace vqmc::testing
