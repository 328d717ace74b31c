#ifndef SMARTSSD_STORAGE_CATALOG_H_
#define SMARTSSD_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/macros.h"
#include "common/result.h"
#include "storage/schema.h"
#include "storage/types.h"

namespace smartssd::storage {

// Everything the engine needs to know about a stored table. Tables are
// bulk-loaded once into a contiguous extent of logical pages (a heap
// file without a clustered index, as in Section 4.1.1).
struct TableInfo {
  std::string name;
  Schema schema;
  PageLayout layout = PageLayout::kNsm;
  std::uint64_t first_lpn = 0;
  std::uint64_t page_count = 0;
  std::uint64_t tuple_count = 0;
  std::uint32_t tuples_per_page = 0;  // page capacity for this schema
  // Total pages of the table's extent, >= page_count. Appends grow
  // page_count into the reserved headroom; tables loaded without
  // reservation have reserved_pages == page_count and reject appends
  // once full.
  std::uint64_t reserved_pages = 0;

  std::uint64_t bytes() const;
};

// Table directory plus a bump allocator over the device's logical page
// space.
class Catalog {
 public:
  explicit Catalog(std::uint64_t device_pages)
      : device_pages_(device_pages) {}
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(Catalog);

  Result<const TableInfo*> GetTable(std::string_view name) const;
  // Mutable view for the write path (appends advance page_count and
  // tuple_count in place; the extent itself never moves).
  Result<TableInfo*> GetMutableTable(std::string_view name);
  Status AddTable(TableInfo info);
  bool HasTable(std::string_view name) const;

  // Reserves `pages` consecutive logical pages; returns the first LPN.
  Result<std::uint64_t> AllocateExtent(std::uint64_t pages);

  std::uint64_t pages_allocated() const { return next_lpn_; }
  std::uint64_t device_pages() const { return device_pages_; }

 private:
  std::uint64_t device_pages_;
  std::uint64_t next_lpn_ = 0;
  std::map<std::string, TableInfo, std::less<>> tables_;
};

}  // namespace smartssd::storage

#endif  // SMARTSSD_STORAGE_CATALOG_H_
