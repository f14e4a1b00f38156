#ifndef WTPG_SCHED_TESTS_TEMP_PATH_H_
#define WTPG_SCHED_TESTS_TEMP_PATH_H_

#include <unistd.h>

#include <string>

#include <gtest/gtest.h>

namespace wtpgsched {

// A file path under the gtest temp dir that is unique to this process. ctest
// runs a test binary both per case and as a whole-binary suite, possibly at
// the same time; a fixed file name would have two processes writing it.
inline std::string UniqueTempPath(const std::string& name) {
  return ::testing::TempDir() + "wtpg_" + std::to_string(::getpid()) + "_" +
         name;
}

}  // namespace wtpgsched

#endif  // WTPG_SCHED_TESTS_TEMP_PATH_H_
