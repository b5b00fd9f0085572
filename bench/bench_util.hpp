// bench_util.hpp — Shared command-line handling for the figure harnesses.
//
// Every figure/table bench accepts:
//   --quick            CI-sized run (few seeds, scaled-down messages)
//   --full             paper-sized run (40+ seeds, full 750 KB messages)
//   --seeds N          override the seed count for randomized routings
//   --msg-scale X      scale all message sizes by X (default depends on mode)
//   --threads N        worker threads for engine-backed sweeps (default:
//                      hardware concurrency; results are thread-independent)
//   --csv              machine-readable output
// Default (no flag) is a middle ground that completes on one core in a few
// minutes across all benches.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "engine/spec.hpp"

namespace benchutil {

struct Options {
  std::uint32_t seeds = 10;
  double msgScale = 0.125;
  std::uint32_t threads = 0;  ///< 0 = hardware concurrency.
  bool csv = false;

  static Options parse(int argc, char** argv) {
    Options opt;
    bool seedsSet = false;
    bool scaleSet = false;
    try {
      for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
          if (!seedsSet) opt.seeds = 3;
          if (!scaleSet) opt.msgScale = 0.03125;
        } else if (arg == "--full") {
          if (!seedsSet) opt.seeds = 40;
          if (!scaleSet) opt.msgScale = 1.0;
        } else if (arg == "--seeds" && i + 1 < argc) {
          opt.seeds = engine::parseU32(argv[++i], "--seeds");
          seedsSet = true;
        } else if (arg == "--msg-scale" && i + 1 < argc) {
          opt.msgScale = engine::parseFiniteDouble(argv[++i], "--msg-scale");
          scaleSet = true;
        } else if (arg == "--threads" && i + 1 < argc) {
          opt.threads = engine::parseU32(argv[++i], "--threads");
        } else if (arg == "--csv") {
          opt.csv = true;
        } else if (arg == "--help" || arg == "-h") {
          std::cout << "flags: --quick | --full | --seeds N | --msg-scale X | "
                       "--threads N | --csv\n";
          std::exit(0);
        } else {
          std::cerr << "unknown flag '" << arg
                    << "' (run --help for the flag list)\n";
          std::exit(2);
        }
      }
    } catch (const std::invalid_argument& e) {
      // A malformed number (engine/spec.hpp's strict rule) is a usage error.
      std::cerr << "error: " << e.what() << "\n";
      std::exit(2);
    }
    return opt;
  }
};

}  // namespace benchutil
