#include "query/server.h"

#include <cstdio>
#include <string>

namespace mapit::query {

std::string format_health(const QueryEngine& engine, std::uint64_t generation,
                          std::uint64_t swaps,
                          std::chrono::steady_clock::time_point started,
                          std::size_t connections, std::uint64_t refused,
                          std::uint64_t accept_retries, std::uint64_t shed,
                          const std::string& last_swap_error) {
  char crc_hex[9];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x",
                engine.reader().payload_crc32());
  const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                          std::chrono::steady_clock::now() - started)
                          .count();
  std::string out = "OK crc32=";
  out += crc_hex;
  out += " uptime=" + std::to_string(uptime);
  out += " connections=" + std::to_string(connections);
  out += " inferences=" + std::to_string(engine.reader().inferences().size());
  out += " refused=" + std::to_string(refused);
  out += " accept_retries=" + std::to_string(accept_retries);
  out += " version=" + std::to_string(engine.reader().version());
  out += " generation=" + std::to_string(generation);
  out += " swaps=" + std::to_string(swaps);
  out += " shed=" + std::to_string(shed);
  // "never swapped" (none) and "swap failing" (the message) must be
  // distinguishable to the supervisor's probe.
  out += " last_swap_error=" + health_token(last_swap_error);
  return out;
}

std::string health_token(std::string_view value) {
  if (value.empty()) return "none";
  std::string token(value);
  for (char& c : token) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t') c = '_';
  }
  return token;
}

}  // namespace mapit::query
