/// \file fgqos.hpp
/// \brief Umbrella header: everything a downstream application needs.
///
/// Fine-grained include paths remain available (and are preferred inside
/// the library itself); this header is for application convenience.
#pragma once

#include "exec/scenario_runner.hpp"      // IWYU pragma: export
#include "qos/adaptive_controller.hpp"   // IWYU pragma: export
#include "qos/analysis.hpp"              // IWYU pragma: export
#include "qos/bandwidth_monitor.hpp"     // IWYU pragma: export
#include "qos/cmri.hpp"                  // IWYU pragma: export
#include "qos/ddrc_throttle.hpp"         // IWYU pragma: export
#include "qos/latency_monitor.hpp"       // IWYU pragma: export
#include "qos/prem_arbiter.hpp"          // IWYU pragma: export
#include "qos/qos_manager.hpp"           // IWYU pragma: export
#include "qos/regfile.hpp"               // IWYU pragma: export
#include "qos/regulator.hpp"             // IWYU pragma: export
#include "qos/soft_memguard.hpp"         // IWYU pragma: export
#include "soc/presets.hpp"               // IWYU pragma: export
#include "soc/soc.hpp"                   // IWYU pragma: export
#include "workload/cpu_workloads.hpp"    // IWYU pragma: export
#include "workload/suite.hpp"            // IWYU pragma: export
#include "workload/traffic_gen.hpp"      // IWYU pragma: export
