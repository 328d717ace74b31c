#include "storage/page_codec.h"

namespace smartssd::storage {

std::uint32_t PageCapacity(const Schema& schema, PageLayout layout,
                           std::uint32_t page_size) {
  return layout == PageLayout::kNsm ? NsmCapacity(schema, page_size)
                                    : PaxCapacity(schema, page_size);
}

Result<PageRows> PageRows::Open(const Schema* schema, PageLayout layout,
                                std::span<const std::byte> page) {
  if (layout == PageLayout::kNsm) {
    SMARTSSD_ASSIGN_OR_RETURN(const NsmPageReader reader,
                              NsmPageReader::Open(schema, page));
    return PageRows(schema, reader, reader.tuple_count());
  }
  SMARTSSD_ASSIGN_OR_RETURN(const PaxPageReader reader,
                            PaxPageReader::Open(schema, page));
  return PageRows(schema, reader, reader.tuple_count());
}

PageBuilder::PageBuilder(const Schema* schema, PageLayout layout,
                         std::uint32_t page_size)
    : builder_(layout == PageLayout::kNsm
                   ? Builder(std::in_place_type<NsmPageBuilder>, schema,
                             page_size)
                   : Builder(std::in_place_type<PaxPageBuilder>, schema,
                             page_size)) {}

bool PageBuilder::Append(std::span<const std::byte> record) {
  return std::visit([record](auto& b) { return b.Append(record); },
                    builder_);
}

std::uint16_t PageBuilder::tuple_count() const {
  return std::visit([](const auto& b) { return b.tuple_count(); },
                    builder_);
}

std::span<const std::byte> PageBuilder::image() const {
  return std::visit([](const auto& b) { return b.image(); }, builder_);
}

void PageBuilder::Reset() {
  std::visit([](auto& b) { b.Reset(); }, builder_);
}

}  // namespace smartssd::storage
