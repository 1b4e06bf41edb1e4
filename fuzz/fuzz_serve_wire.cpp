// libFuzzer entry point for the AuthServer::serve_wire oracle: the
// authoritative accepts exactly what Message::parse accepts, every reply
// parses as a response to its query, and a retained dispatch scratch
// answers byte for byte like a fresh one.
#include <cstddef>
#include <cstdint>

#include "fuzz/oracles.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  ecsdns::fuzz::check_serve_wire(data, size);
  return 0;
}
