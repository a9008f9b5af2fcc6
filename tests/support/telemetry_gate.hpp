#pragma once

/// \file telemetry_gate.hpp
/// \brief The one skip predicate for tests of compiled-out telemetry.
///
/// A `-DVQMC_TELEMETRY=OFF` build compiles the instruments out on purpose:
/// counters, gauges and histograms read 0, spans and flight records are
/// never kept. A test that asserts such a value has nothing to check there,
/// so its body starts with VQMC_SKIP_WITHOUT_TELEMETRY(); in every other
/// build it runs unchanged.

#include <gtest/gtest.h>

#include "telemetry/telemetry.hpp"

#define VQMC_SKIP_WITHOUT_TELEMETRY()                                   \
  if (!VQMC_TELEMETRY_COMPILED)                                         \
  GTEST_SKIP() << "telemetry is compiled out (-DVQMC_TELEMETRY=OFF), "  \
                  "and this test asserts values of its instruments"
