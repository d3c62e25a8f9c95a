#include "graph/other_side.h"

#include <algorithm>

#include "net/point_to_point.h"

namespace mapit::graph {

OtherSideMap::OtherSideMap(std::span<const net::Ipv4Address> addresses)
    : addresses_(addresses.begin(), addresses.end()) {
  std::sort(addresses_.begin(), addresses_.end());
  addresses_.erase(std::unique(addresses_.begin(), addresses_.end()),
                   addresses_.end());
}

OtherSide OtherSideMap::other_side(net::Ipv4Address address) const {
  if (!net::is_slash30_host(address)) {
    // Reserved in its /30: can only be a /31-numbered endpoint.
    return {net::slash31_other_side(address), PrefixInference::kSlash31Reserved};
  }
  // Valid /30 host. If any *different* address occupying a reserved slot of
  // this /30 was seen, the block must be split into /31s.
  const std::uint32_t base = address.value() & ~0x3u;
  const net::Ipv4Address reserved_low(base);
  const net::Ipv4Address reserved_high(base | 0x3u);
  if (std::binary_search(addresses_.begin(), addresses_.end(), reserved_low) ||
      std::binary_search(addresses_.begin(), addresses_.end(), reserved_high)) {
    return {net::slash31_other_side(address), PrefixInference::kSlash31Witness};
  }
  return {*net::slash30_other_side(address), PrefixInference::kSlash30};
}

double OtherSideMap::slash31_fraction() const {
  if (addresses_.empty()) return 0.0;
  std::size_t slash31 = 0;
  for (net::Ipv4Address address : addresses_) {
    if (other_side(address).is_slash31()) ++slash31;
  }
  return static_cast<double>(slash31) / static_cast<double>(addresses_.size());
}

}  // namespace mapit::graph
