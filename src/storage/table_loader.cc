#include "storage/table_loader.h"

#include <vector>

#include "storage/page_codec.h"

namespace smartssd::storage {

namespace {
// Pages per write command during bulk load (matches the 256 KB I/Os the
// paper uses for sequential bandwidth).
constexpr std::uint32_t kLoadBatchPages = 32;
}  // namespace

TableLoader::TableLoader(ssd::BlockDevice* device, Catalog* catalog)
    : device_(device), catalog_(catalog) {
  SMARTSSD_CHECK(device != nullptr);
  SMARTSSD_CHECK(catalog != nullptr);
}

Result<TableInfo> TableLoader::Load(std::string name, const Schema& schema,
                                    PageLayout layout,
                                    std::uint64_t row_count,
                                    const RowGenerator& generator,
                                    std::uint64_t reserve_extra_pages) {
  if (catalog_->HasTable(name)) {
    return AlreadyExistsError("table already exists: " + name);
  }
  const std::uint32_t page_size = device_->page_size();
  const std::uint32_t capacity = PageCapacity(schema, layout, page_size);
  if (capacity == 0) {
    return InvalidArgumentError("tuple does not fit in a page: " + name);
  }
  const std::uint64_t page_count =
      row_count == 0 ? 1 : (row_count + capacity - 1) / capacity;
  const std::uint64_t extent_pages = page_count + reserve_extra_pages;
  SMARTSSD_ASSIGN_OR_RETURN(const std::uint64_t first_lpn,
                            catalog_->AllocateExtent(extent_pages));

  PageBuilder builder(&schema, layout, page_size);
  std::vector<std::byte> tuple(schema.tuple_size());
  std::vector<std::byte> batch(
      static_cast<std::size_t>(kLoadBatchPages) * page_size);
  std::uint32_t batch_fill = 0;
  std::uint64_t next_lpn = first_lpn;
  SimTime t = 0;

  auto flush_batch = [&]() -> Status {
    if (batch_fill == 0) return Status::OK();
    auto written = device_->WritePages(
        next_lpn, batch_fill,
        std::span<const std::byte>(batch.data(),
                                   static_cast<std::size_t>(batch_fill) *
                                       page_size),
        t);
    SMARTSSD_RETURN_IF_ERROR(written.status());
    t = written.value();
    next_lpn += batch_fill;
    batch_fill = 0;
    return Status::OK();
  };

  auto seal_page = [&](std::span<const std::byte> image) -> Status {
    std::copy(image.begin(), image.end(),
              batch.begin() +
                  static_cast<std::size_t>(batch_fill) * page_size);
    ++batch_fill;
    if (batch_fill == kLoadBatchPages) return flush_batch();
    return Status::OK();
  };

  for (std::uint64_t row = 0; row < row_count; ++row) {
    TupleWriter writer(&schema, tuple);
    generator(row, writer);
    if (!builder.Append(tuple)) {
      SMARTSSD_RETURN_IF_ERROR(seal_page(builder.image()));
      builder.Reset();
      SMARTSSD_CHECK(builder.Append(tuple));
    }
  }
  if (builder.tuple_count() > 0) {
    SMARTSSD_RETURN_IF_ERROR(seal_page(builder.image()));
  }
  SMARTSSD_RETURN_IF_ERROR(flush_batch());

  TableInfo info{.name = std::move(name),
                 .schema = schema,
                 .layout = layout,
                 .first_lpn = first_lpn,
                 .page_count = next_lpn - first_lpn,
                 .tuple_count = row_count,
                 .tuples_per_page = capacity,
                 .reserved_pages = extent_pages};
  SMARTSSD_RETURN_IF_ERROR(catalog_->AddTable(info));
  return info;
}

}  // namespace smartssd::storage
