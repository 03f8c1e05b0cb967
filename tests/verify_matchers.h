#pragma once

// gtest helper for the verify/ checkers: EXPECT_TRUE(clean(report))
// passes on an ok report and prints every diagnostic otherwise.

#include <gtest/gtest.h>

#include "verify/verify.h"

namespace atlas {

inline ::testing::AssertionResult clean(const verify::VerifyReport& report) {
  if (report.ok()) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << report.to_string();
}

}  // namespace atlas
