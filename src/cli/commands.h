// The smfl command-line tool's subcommands, as testable library functions.
// The binary (tools/smfl_main.cpp) only dispatches to these.
//
//   smfl impute --in=data.csv --out=completed.csv [--method=SMFL]
//               [--spatial=2] [--rank=10] [--lambda=0.5] [--neighbors=3]
//               [--fallback=SMFL,SMF,NMF,Mean]
//   smfl repair --in=data.csv --out=repaired.csv [--method=SMFL]
//               [--spatial=2] (detects errors statistically, then repairs)
//
// Robustness flags (docs/robustness.md):
//   --lenient          every command: quarantine malformed rows instead of
//                      failing the file
//   --fallback=a,b,c   impute and repair: graceful degradation chain; the
//                      report names the tier that served
//   smfl stats  --in=data.csv [--spatial=2]
//   smfl fit    --in=train.csv --model=model.txt [--spatial=2] [--rank=10]
//               [--lambda=0.5] [--neighbors=3]
//   smfl apply  --in=fresh.csv --model=model.txt --out=completed.csv
//               (fold-in: impute fresh rows against a saved model)
//   smfl select --in=data.csv [--spatial=2]
//               (grid-search lambda/K on a validation holdout)
//
// CSV contract: header row; empty cells = missing values; the first
// --spatial columns are coordinates. Imputation fills the empty cells and
// writes a complete CSV in the original units.

#ifndef SMFL_CLI_COMMANDS_H_
#define SMFL_CLI_COMMANDS_H_

#include <string>

#include "src/common/flags.h"
#include "src/common/status.h"

namespace smfl::cli {

// Dispatches on flags.positional()[0] (a command of UsageText()); the
// report (tables, summaries) is appended to *output. Returns
// InvalidArgument with a usage string for unknown/missing subcommands, and
// one naming the flag for a flag the command does not read.
Status Run(const Flags& flags, std::string* output);

// Individual subcommands (exposed for tests).
Status RunImputeCommand(const Flags& flags, std::string* output);
Status RunRepairCommand(const Flags& flags, std::string* output);
Status RunStatsCommand(const Flags& flags, std::string* output);
Status RunFitCommand(const Flags& flags, std::string* output);
Status RunApplyCommand(const Flags& flags, std::string* output);
Status RunSelectCommand(const Flags& flags, std::string* output);

// The usage/help text.
std::string UsageText();

}  // namespace smfl::cli

#endif  // SMFL_CLI_COMMANDS_H_
