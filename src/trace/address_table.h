// Open-addressing map from IPv4 address to flag bits, for the
// distinct-address passes over trace hops: millions of hops, thousands of
// addresses, no allocation per address.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/ipv4.h"

namespace mapit::trace {

class AddressTable {
 public:
  /// ORs `bits` (non-zero) into the flags of `address`.
  void mark(net::Ipv4Address address, std::uint8_t bits) {
    if (2 * used_ >= slots_.size()) {  // grow to stay at most half full
      std::vector<Slot> old(std::max<std::size_t>(1024, 2 * slots_.size()));
      old.swap(slots_);
      used_ = 0;
      for (const Slot& slot : old) {
        if (slot.flags != 0) mark(net::Ipv4Address(slot.key), slot.flags);
      }
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = std::hash<net::Ipv4Address>{}(address) & mask;
    while (slots_[i].flags != 0 && slots_[i].key != address.value()) {
      i = (i + 1) & mask;
    }
    if (slots_[i].flags == 0) ++used_;
    slots_[i].key = address.value();
    slots_[i].flags |= bits;
  }

  /// ORs every address's flags in `other` into this table.
  void merge(const AddressTable& other) {
    for (const Slot& slot : other.slots_) {
      if (slot.flags != 0) mark(net::Ipv4Address(slot.key), slot.flags);
    }
  }

  /// Number of addresses whose flags include all of `bits`.
  [[nodiscard]] std::size_t count(std::uint8_t bits) const {
    return static_cast<std::size_t>(
        std::ranges::count_if(slots_, [bits](const Slot& slot) {
          return slot.flags != 0 && (slot.flags & bits) == bits;
        }));
  }

  /// Addresses whose flags include all of `bits`, ascending.
  [[nodiscard]] std::vector<net::Ipv4Address> sorted(std::uint8_t bits) const {
    std::vector<net::Ipv4Address> out;
    for (const Slot& slot : slots_) {
      if (slot.flags != 0 && (slot.flags & bits) == bits) {
        out.emplace_back(slot.key);
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  struct Slot {
    std::uint32_t key = 0;
    std::uint8_t flags = 0;  ///< 0 = empty slot
  };
  std::vector<Slot> slots_;  ///< power-of-two size
  std::size_t used_ = 0;
};

}  // namespace mapit::trace
