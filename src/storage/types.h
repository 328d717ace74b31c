#ifndef SMARTSSD_STORAGE_TYPES_H_
#define SMARTSSD_STORAGE_TYPES_H_

#include <cstdint>
#include <string>

namespace smartssd::storage {

// Column types. Following the paper's workload modifications (Section
// 4.1.1), every type is fixed-length: variable-length strings become
// fixed CHAR(n), decimals are stored as integers scaled by 100, and dates
// as days since an epoch. This makes every tuple fixed-length, which both
// page codecs exploit.
enum class ColumnType : std::uint8_t {
  kInt32,      // also dates (days) and scaled decimals that fit
  kInt64,      // keys and larger scaled decimals
  kFixedChar,  // CHAR(n), space-padded
};

struct Column {
  std::string name;
  ColumnType type = ColumnType::kInt32;
  // Byte width: 4 for kInt32, 8 for kInt64, n for kFixedChar(n).
  std::uint32_t width = 4;

  static Column Int32(std::string name) {
    return Column{std::move(name), ColumnType::kInt32, 4};
  }
  static Column Int64(std::string name) {
    return Column{std::move(name), ColumnType::kInt64, 8};
  }
  static Column FixedChar(std::string name, std::uint32_t n) {
    return Column{std::move(name), ColumnType::kFixedChar, n};
  }
};

// Page layouts the paper compares (Section 4.1.1): classic N-ary slotted
// pages, and PAX, which groups each column's values in a minipage.
enum class PageLayout : std::uint8_t { kNsm = 0, kPax = 1 };

inline const char* PageLayoutName(PageLayout layout) {
  return layout == PageLayout::kNsm ? "NSM" : "PAX";
}

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_TYPES_H_
