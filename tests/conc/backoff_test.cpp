//===- tests/conc/backoff_test.cpp - Spin backoff --------------------------===//

#include "conc/Backoff.h"

#include <gtest/gtest.h>

namespace repro::conc {
namespace {

TEST(BackoffTest, EscalatesToYield) {
  Backoff B;
  EXPECT_FALSE(B.isYielding());
  for (int I = 0; I < 16; ++I)
    B.pause();
  EXPECT_TRUE(B.isYielding());
  B.reset();
  EXPECT_FALSE(B.isYielding());
}

} // namespace
} // namespace repro::conc
