#ifndef SMARTSSD_EXEC_PAGE_PROCESSOR_H_
#define SMARTSSD_EXEC_PAGE_PROCESSOR_H_

#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "exec/batch_skip.h"
#include "exec/cost_model.h"
#include "exec/group_table.h"
#include "exec/hash_table.h"
#include "exec/kernel_mode.h"
#include "exec/query_spec.h"
#include "expr/batch.h"
#include "expr/row_view.h"

namespace smartssd::exec {

class HybridJoin;

// Executes a bound query pipeline over one page at a time, producing
// real output rows and the operation counts the cost models charge.
//
// This kernel is deliberately shared between the host executor and the
// in-SSD pushdown program: both run exactly the same code over exactly
// the same bytes and therefore produce identical results and identical
// counts — only the cycles-per-operation (and the data path the pages
// took to get here) differ. That is the paper's setup: the same operator
// logic compiled for the host and for the device firmware.
//
// Two kernels implement the pipeline:
//  * kScalar — interpreted row-at-a-time, tree-walked predicates; the
//    semantic reference. It reads every page through one row view
//    (expr::PageRowView over storage::PageRows).
//  * kVectorized — the page's columns come from storage::PageColumns
//    (PAX minipages in place, NSM records gathered into the
//    processor's own buffer by the walk that validates the page's
//    slots), the predicate and the aggregate inputs are compiled once
//    into two flat batch programs (expr/batch.h), and every stage runs
//    column-at-a-time over a selection vector of surviving row ids.
// Neither kernel has per-layout code: the layout matters only inside
// storage/ and to the cost model.
// Both produce byte-identical output and byte-identical OpCounts; a
// query the batch compiler cannot express silently degrades to kScalar
// (see kernel_mode()).
//
// The vectorized kernel's per-page path allocates nothing once its
// buffers have seen the largest page: it sets up only the outer
// columns some stage reads, probes the join table once per batch
// (JoinHashTable::ProbeBatch), resolves group keys once per batch
// (GroupTable::FindOrInsertBatch), and keeps top-N rows in one flat
// buffer.
class PageProcessor {
 public:
  // `hash_table` must outlive the processor and is required iff the
  // query has a join — unless `hybrid` is supplied instead, in which
  // case probes route through the memory-constrained hybrid join (and
  // the kernel degrades to kScalar: deferral is a per-row decision the
  // batch probe cannot express). Exactly one of the two may be set for
  // a join query.
  PageProcessor(const BoundQuery* bound, const JoinHashTable* hash_table,
                KernelMode mode = KernelMode::kVectorized,
                HybridJoin* hybrid = nullptr);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(PageProcessor);

  // Sentinel page index for callers that cannot name the page.
  static constexpr std::uint64_t kNoPage = ~0ull;

  // Arms the zone-map batch fast paths: pages whose [min, max] decide
  // the whole predicate are settled without per-row work (all-fail) or
  // without predicate evaluation (all-pass), charging exactly the
  // interpreter's OpCounts for the skipped rows (see exec/batch_skip.h).
  // Effective only for the vectorized kernel and only on ProcessPage
  // calls that carry a real page index; the scalar kernel stays the
  // skip-free semantic reference. `map` must outlive the processor.
  void SetZoneMap(const storage::ZoneMap* map);

  // Processes one outer-table page. Serialized output rows (packed
  // fixed-width, per OutputSchema) are appended to `out`. `page_index`
  // is the table-relative index (for zone-map classification); the
  // two-argument form processes without one.
  Status ProcessPage(std::span<const std::byte> page,
                     std::uint64_t page_index, OpCounts* counts,
                     std::vector<std::byte>* out);
  Status ProcessPage(std::span<const std::byte> page, OpCounts* counts,
                     std::vector<std::byte>* out) {
    return ProcessPage(page, kNoPage, counts, out);
  }

  // Emits the final rows: the scalar aggregate row, the per-group rows
  // (GROUP BY, in key order), or the top-N rows (in sort order).
  Status Finish(OpCounts* counts, std::vector<std::byte>* out);

  const std::vector<std::int64_t>& agg_state() const { return agg_state_; }
  // The kernel actually running: the requested mode, degraded to
  // kScalar if any of the query's expressions failed to batch-compile.
  KernelMode kernel_mode() const { return mode_; }

 private:
  // --- scalar kernel ---
  Status ProcessPageScalar(std::span<const std::byte> page,
                           OpCounts* counts, std::vector<std::byte>* out);
  Status HandleTuple(const expr::RowView& outer_view, OpCounts* counts,
                     std::vector<std::byte>* out);

  // Copies the bytes of combined-row columns (outer or payload) to
  // `out`, counting the outer column reads.
  void AppendColumnBytes(const std::vector<int>& columns,
                         const expr::RowView& row, OpCounts* counts,
                         std::vector<std::byte>* out) const;

  Status UpdateAggregates(const expr::RowView& combined_view,
                          std::int64_t* states, OpCounts* counts);

  // Sinks one surviving row (post-predicate, post-probe) into the
  // aggregate / group / projection / top-N stage. Shared between the
  // scan path and the hybrid join's deferred-match replay, so both
  // charge identical counts.
  Status SinkJoinedRow(const expr::RowView& outer_view,
                       const std::byte* payload, OpCounts* counts,
                       std::vector<std::byte>* out);

  // Resolves the hybrid join's spilled partitions (multi-pass probing)
  // and, for order-sensitive queries, replays all staged matches in
  // scan order. Called from Finish() before the final rows are emitted.
  Status FinishHybrid(OpCounts* counts, std::vector<std::byte>* out);

  // --- vectorized kernel ---
  // Compiles the predicate and the aggregate inputs; false => fall back
  // to scalar.
  bool CompileKernels();
  Status ProcessPageVectorized(std::span<const std::byte> page,
                               std::uint64_t page_index, OpCounts* counts,
                               std::vector<std::byte>* out);
  // Grows the per-lane buffers to hold a page of `rows` tuples.
  void EnsureLanes(std::size_t rows);
  // Probes the join hash table for every lane of sel_ in one batched
  // lookup, keeps the hits, and records each hit's payload by row id
  // (payload_ptrs_, which the payload batch columns point into).
  void ProbeBatch(OpCounts* counts);
  // Resolves every lane of sel_ to its group index in group_idx_.
  void GroupBatch();
  // Aggregation / projection over the surviving lanes of sel_: one run
  // of agg_inputs_, then a fold per aggregate.
  Status SinkBatch(const expr::BatchInput& in, OpCounts* counts,
                   std::vector<std::byte>* out);

  // Offers a row with order key `key` to the top-N stage. Returns where
  // to write the row's output_row_width_ bytes if it is kept, or
  // nullptr if it is not.
  std::byte* PushTopN(std::int64_t key, OpCounts* counts);

  const BoundQuery* bound_;
  const JoinHashTable* hash_table_;
  HybridJoin* hybrid_ = nullptr;
  KernelMode mode_ = KernelMode::kScalar;
  std::vector<std::int64_t> agg_init_;   // one init value per aggregate
  std::vector<std::int64_t> agg_state_;  // scalar aggregation
  GroupTable group_table_;               // GROUP BY state (both kernels)
  // Top-N candidates as a binary heap of (order key, row slot) ordered
  // so the *worst* kept row is on top (max-heap for ascending order,
  // min-heap for descending). Row slot i is top_n_rows_[i * width].
  std::vector<std::pair<std::int64_t, std::uint32_t>> top_n_;
  std::vector<std::byte> top_n_rows_;
  std::vector<std::byte> row_scratch_;
  std::uint32_t output_row_width_ = 0;

  // Zone-map batch skipping (vectorized kernel only).
  BatchSkipAnalysis skip_analysis_;

  // Vectorized-kernel state, reused across pages.
  std::optional<expr::CompiledExpr> pred_compiled_;
  // Every aggregate input in one program (nullopt when all are
  // COUNT(*)), and each aggregate's root in it (-1 for COUNT(*)).
  std::optional<expr::CompiledExpr> agg_inputs_;
  std::vector<int> agg_root_;
  expr::BatchScratch scratch_;
  std::vector<expr::BatchColumn> batch_columns_;  // combined-row columns
  // Outer columns some stage reads (predicate, aggregates, group keys,
  // projection, order key, join key): the only ones set up per page.
  std::vector<int> outer_cols_used_;
  // Per-lane buffers, sized to the largest page seen (lanes_ rows).
  std::size_t lanes_ = 0;
  expr::SelVec sel_;
  std::vector<const std::byte*> tuple_ptrs_;    // NSM record gather
  std::vector<std::int64_t> probe_keys_;        // FK per lane
  std::vector<const std::byte*> probe_hits_;    // payload per lane
  std::vector<const std::byte*> payload_ptrs_;  // probe hits, by row id
  std::vector<std::byte> group_keys_;           // key_stride() per lane
  std::vector<std::uint32_t> group_idx_;        // per-lane group index
  std::vector<std::int64_t*> group_states_;     // per-lane state row
};

// The build side's one walk over an inner page, shared by
// JoinHashTableBuilder and HybridJoin so both charge the same counts:
// the page, and per row its tuple and its key and payload column reads.
// Packs each row's payload columns into `payload` (payload_width bytes)
// and calls add(key, payload), which charges hash_inserts when the row
// enters a table.
template <typename AddRow>
Status WalkBuildPage(const BoundQuery& bound,
                     std::span<const std::byte> page,
                     std::span<std::byte> payload, OpCounts* counts,
                     AddRow&& add) {
  const JoinSpec& join = *bound.spec->join;
  const storage::Schema& schema = bound.inner->schema;
  ++counts->pages;
  SMARTSSD_ASSIGN_OR_RETURN(
      const storage::PageRows rows,
      storage::PageRows::Open(&schema, bound.inner->layout, page));
  expr::PageRowView row(&rows);
  for (std::uint16_t i = 0; i < rows.tuple_count(); ++i) {
    row.Reset(i);
    ++counts->tuples;
    ++counts->eval.column_reads;
    const std::int64_t key = row.GetColumn(join.inner_key_col).AsInt();
    std::size_t offset = 0;
    for (const int col : join.inner_payload_cols) {
      ++counts->eval.column_reads;
      const std::uint32_t width = schema.column(col).width;
      std::memcpy(payload.data() + offset, row.ColumnBytes(col), width);
      offset += width;
    }
    SMARTSSD_RETURN_IF_ERROR(add(key, std::span<const std::byte>(payload)));
  }
  return Status::OK();
}

// Incremental join-table construction: the caller feeds inner-table
// pages one at a time (in page order) and takes the finished table when
// the last page is in. Splitting the build this way lets a resumable
// query task yield between inner pages, so co-running queries interleave
// on the I/O path even during the build phase; the op counts are
// byte-identical to a one-shot build over the same pages.
class JoinHashTableBuilder {
 public:
  explicit JoinHashTableBuilder(const BoundQuery* bound);
  SMARTSSD_DISALLOW_COPY_AND_ASSIGN(JoinHashTableBuilder);

  // Hashes one inner page's tuples into the table.
  Status AddPage(std::span<const std::byte> page);

  const OpCounts& counts() const { return counts_; }

  // Moves the finished table out; the builder is then spent.
  JoinHashTable TakeTable();

 private:
  const BoundQuery* bound_;
  JoinHashTable table_;
  std::vector<std::byte> payload_;
  OpCounts counts_;
};

// Builds the join hash table by scanning the inner table's pages through
// `read_page` (the caller decides whether pages arrive via the host path
// or the device-internal path — and charges that I/O accordingly).
// Counts the build work into `counts`. One-shot convenience over
// JoinHashTableBuilder.
Result<JoinHashTable> BuildJoinHashTable(
    const BoundQuery& bound,
    const std::function<Result<std::span<const std::byte>>(
        std::uint64_t page_index)>& read_page,
    OpCounts* counts);

}  // namespace smartssd::exec

#endif  // SMARTSSD_EXEC_PAGE_PROCESSOR_H_
