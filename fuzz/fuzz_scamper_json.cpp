// Fuzz target: the scamper JSON traceroute parser.
//
// Feeds arbitrary bytes to tracedata::trace_from_json and, when a
// trace is accepted, checks the native-format round-trip invariant:
// serialising the accepted trace and re-parsing it must reproduce it
// exactly. The stream reader must then agree with the line parser:
// it returns exactly the traces trace_from_json accepts line by line,
// and counts exactly the lines it rejects with an error. Found here and
// fixed: unbounded recursion on deeply nested values, and undefined
// double->int casts of huge icmp_type fields (both pinned in
// tests/scamper_json_test.cpp).

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "tracedata/scamper_json.hpp"
#include "tracedata/traceroute.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string input(reinterpret_cast<const char*>(data), size);

  if (auto t = tracedata::trace_from_json(input)) {
    const auto again = tracedata::from_line(tracedata::to_line(*t));
    if (!again || !(*again == *t)) __builtin_trap();
  }

  std::vector<tracedata::Traceroute> accepted;
  std::size_t rejected = 0;
  std::istringstream lines(input);
  for (std::string line; std::getline(lines, line);) {
    std::string error;
    if (auto t = tracedata::trace_from_json(line, &error))
      accepted.push_back(std::move(*t));
    else if (!error.empty())
      ++rejected;
  }

  std::istringstream in(input);
  std::size_t bad = 0;
  const auto traces = tracedata::read_json_traceroutes(in, &bad, 1);
  if (traces != accepted || bad != rejected) __builtin_trap();
  return 0;
}
