// The smfl command-line tool. All logic lives in src/cli/commands.* so the
// subcommands are unit-testable; this file only parses argv and prints.

#include <cstdio>

#include "src/cli/commands.h"
#include "src/common/shutdown.h"

int main(int argc, char** argv) {
  // Ctrl-C / SIGTERM unwind cooperatively: the fit loop writes a final
  // checkpoint and the telemetry sinks flush durably before exit. A second
  // signal kills immediately (docs/observability.md).
  smfl::InstallShutdownHandlers();
  auto flags = smfl::Flags::Parse(argc, argv);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 2;
  }
  std::string output;
  smfl::Status status = smfl::cli::Run(*flags, &output);
  std::fputs(output.c_str(), stdout);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    return 1;
  }
  return 0;
}
