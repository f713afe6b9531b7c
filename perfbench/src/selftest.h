// The harness's self-tests. Every benchmark run executes them first and
// refuses to report numbers when one fails; `--selftest` runs them alone.

#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

#include <string>
#include <vector>

namespace perfbench {

// Descriptions of the failed checks; empty when all pass.
std::vector<std::string> RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_SELFTEST_H_
