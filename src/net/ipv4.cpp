#include "net/ipv4.h"

#include <ostream>

#include "net/error.h"

namespace mapit::net {

std::optional<Ipv4Address> Ipv4Address::parse(std::string_view text) {
  // Hot in every text loader (one call per trace hop), so one pointer walk:
  // four octets of 1-3 digits, each at most 255, separated by single dots.
  const char* p = text.data();
  const char* const end = p + text.size();
  auto digit = [&](const char* at) {
    return at != end && static_cast<unsigned char>(*at - '0') < 10;
  };
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (p == end || *p != '.') return std::nullopt;
      ++p;
    }
    const char* const first = p;
    std::uint32_t octet = 0;
    while (p - first < 3 && digit(p)) {
      octet = octet * 10 + static_cast<std::uint32_t>(*p - '0');
      ++p;
    }
    if (p == first || octet > 255 || digit(p)) return std::nullopt;
    value = value << 8 | octet;
  }
  if (p != end) return std::nullopt;
  return Ipv4Address(value);
}

Ipv4Address Ipv4Address::parse_or_throw(std::string_view text) {
  auto parsed = parse(text);
  if (!parsed) {
    throw ParseError("invalid IPv4 address: '" + std::string(text) + "'");
  }
  return *parsed;
}

std::string Ipv4Address::to_string() const {
  std::string out;
  out.reserve(15);
  for (int i = 0; i < 4; ++i) {
    if (i > 0) out.push_back('.');
    out += std::to_string(octet(i));
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, Ipv4Address addr) {
  return os << addr.to_string();
}

}  // namespace mapit::net
