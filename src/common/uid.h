#ifndef ORION_COMMON_UID_H_
#define ORION_COMMON_UID_H_

#include <cstdint>
#include <functional>
#include <string>

namespace orion {

/// Which cell of a Cluster minted (and owns) an object.  Tag 0 is the
/// standalone single-`Database` configuration — every uid that predates
/// multi-cell sharding (snapshots included) parses as tag 0 unchanged.
/// Cells of a Cluster carry tags 1..kMaxCellTag.
using CellTag = uint8_t;

/// The cell tag lives in the top byte of the raw uid (ytsaurus-style
/// tagged id generation): routing an object to its owning cell is a shift,
/// not a directory lookup, and the tag travels with every reference.
inline constexpr int kCellTagShift = 56;
inline constexpr uint64_t kCellLocalMask =
    (uint64_t{1} << kCellTagShift) - 1;
inline constexpr CellTag kMaxCellTag = 255;

/// Object identifier (the paper's "UID", §2.1).
///
/// Every object — instance, generic instance, version instance, and class
/// object — is addressed by a Uid.  "An object O' has a reference to another
/// object O if O' contains the object identifier (UID) of O."
///
/// Construction discipline: outside this header and the cell subsystem,
/// never assemble a Uid from an integer directly — go through `MakeUid`
/// (allocators) or `UidFromRaw` (deserialization), so a cell tag can never
/// be forged by arithmetic.  `orion_lint` enforces this (rule raw-uid).
struct Uid {
  uint64_t raw = 0;

  constexpr Uid() = default;
  constexpr explicit Uid(uint64_t v) : raw(v) {}

  constexpr bool valid() const { return raw != 0; }

  friend constexpr bool operator==(Uid a, Uid b) { return a.raw == b.raw; }
  friend constexpr bool operator!=(Uid a, Uid b) { return a.raw != b.raw; }
  friend constexpr bool operator<(Uid a, Uid b) { return a.raw < b.raw; }

  // Appends instead of `"#" + std::to_string(...)`: GCC 12 inlines that
  // operator+ into a memcpy it wrongly flags with -Wrestrict (GCC bug
  // 105329) in every translation unit that formats a uid.
  std::string ToString() const {
    const auto cell = static_cast<unsigned>(raw >> kCellTagShift);
    std::string out = "#";
    if (cell == 0) {
      out += std::to_string(raw);
      return out;
    }
    out += std::to_string(cell);
    out += ':';
    out += std::to_string(raw & kCellLocalMask);
    return out;
  }
};

/// The null reference ("Nil" in the paper's Lisp syntax).
inline constexpr Uid kNilUid{};

/// The cell that owns `uid` (0 = standalone database).
constexpr CellTag CellTagOf(Uid uid) {
  return static_cast<CellTag>(uid.raw >> kCellTagShift);
}

/// The cell-local part of `uid` — the value of the owning allocator's
/// counter when the uid was minted.
constexpr uint64_t CellLocalOf(Uid uid) { return uid.raw & kCellLocalMask; }

/// Mints a uid: `local` (an allocator counter) tagged with the owning cell.
constexpr Uid MakeUid(CellTag cell, uint64_t local) {
  return Uid{(static_cast<uint64_t>(cell) << kCellTagShift) |
             (local & kCellLocalMask)};
}

/// Reconstructs a uid from a serialized raw value (snapshots, the lang
/// layer's `#N` literals).  The tag byte round-trips untouched.
constexpr Uid UidFromRaw(uint64_t raw) { return Uid{raw}; }

}  // namespace orion

template <>
struct std::hash<orion::Uid> {
  size_t operator()(orion::Uid u) const noexcept {
    return std::hash<uint64_t>{}(u.raw);
  }
};

#endif  // ORION_COMMON_UID_H_
