#include "exec/page_processor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <type_traits>

#include "exec/hybrid_join.h"
#include "storage/nsm_page.h"
#include "storage/pax_page.h"

namespace smartssd::exec {

namespace {

// Row view over the combined row: outer columns come from the scanned
// tuple, payload columns from the probe hit's payload blob.
class CombinedRowView final : public expr::RowView {
 public:
  CombinedRowView(const BoundQuery* bound, const expr::RowView* outer)
      : bound_(bound), outer_(outer) {}

  void SetPayload(const std::byte* payload) { payload_ = payload; }

  expr::Value GetColumn(int col) const override {
    const int outer_columns = bound_->outer_columns();
    if (col < outer_columns) return outer_->GetColumn(col);
    SMARTSSD_CHECK(payload_ != nullptr);
    const int payload_index = col - outer_columns;
    const std::byte* p =
        payload_ +
        bound_->payload_offsets[static_cast<std::size_t>(payload_index)];
    const storage::Column& column = bound_->combined_schema.column(col);
    switch (column.type) {
      case storage::ColumnType::kInt32: {
        std::int32_t v;
        std::memcpy(&v, p, sizeof(v));
        return expr::Value::Int(v);
      }
      case storage::ColumnType::kInt64: {
        std::int64_t v;
        std::memcpy(&v, p, sizeof(v));
        return expr::Value::Int(v);
      }
      case storage::ColumnType::kFixedChar:
        return expr::Value::String(
            {reinterpret_cast<const char*>(p), column.width});
    }
    return expr::Value::Null();
  }

 private:
  const BoundQuery* bound_;
  const expr::RowView* outer_;
  const std::byte* payload_ = nullptr;
};

std::int64_t AggInit(AggSpec::Fn fn) {
  switch (fn) {
    case AggSpec::Fn::kSum:
    case AggSpec::Fn::kCount:
      return 0;
    case AggSpec::Fn::kMin:
      return std::numeric_limits<std::int64_t>::max();
    case AggSpec::Fn::kMax:
      return std::numeric_limits<std::int64_t>::min();
  }
  return 0;
}

std::vector<std::int64_t> AggInitStates(const QuerySpec& spec) {
  std::vector<std::int64_t> states;
  states.reserve(spec.aggregates.size());
  for (const AggSpec& agg : spec.aggregates) {
    states.push_back(AggInit(agg.fn));
  }
  return states;
}

// Grows `out` for `extra` more bytes without forfeiting geometric
// growth: reserving the exact per-page need each time would make every
// page's append a full copy (quadratic over the scan).
void EnsureOutCapacity(std::vector<std::byte>* out, std::size_t extra) {
  const std::size_t needed = out->size() + extra;
  if (needed <= out->capacity()) return;
  out->reserve(std::max(needed, out->capacity() * 2));
}

// Reads the integer value of a batch column lane (INT32 or INT64).
std::int64_t LoadIntLane(const expr::BatchColumn& col, std::uint32_t row) {
  const std::byte* p = col.at(row);
  if (col.width == 4) {
    std::int32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  std::int64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// Calls fn(j, address of column `col` in row sel[j]) for j < n, with
// the access-shape branch (strided or indirect) hoisted out of the loop.
template <typename Fn>
void ForEachLane(const expr::BatchColumn& col, const std::uint32_t* sel,
                 std::size_t n, Fn fn) {
  if (col.base != nullptr) {
    const std::byte* base = col.base;
    const std::size_t stride = col.stride;
    for (std::size_t j = 0; j < n; ++j) {
      fn(j, base + static_cast<std::size_t>(sel[j]) * stride);
    }
  } else {
    const std::byte* const* rows = col.row_ptrs;
    const std::uint32_t offset = col.offset;
    for (std::size_t j = 0; j < n; ++j) fn(j, rows[sel[j]] + offset);
  }
}

// out[j] = integer value (INT32 or INT64) of `col` at row sel[j].
void GatherInts(const expr::BatchColumn& col, const std::uint32_t* sel,
                std::size_t n, std::int64_t* out) {
  if (col.width == 4) {
    ForEachLane(col, sel, n, [out](std::size_t j, const std::byte* p) {
      std::int32_t v;
      std::memcpy(&v, p, sizeof(v));
      out[j] = v;
    });
  } else {
    ForEachLane(col, sel, n, [out](std::size_t j, const std::byte* p) {
      std::memcpy(&out[j], p, sizeof(std::int64_t));
    });
  }
}

// Copies column `col` of rows sel[0..n) to dst + j * dst_stride. The
// common widths are fixed-size moves rather than memcpy calls.
void ScatterColumn(const expr::BatchColumn& col, const std::uint32_t* sel,
                   std::size_t n, std::byte* dst, std::size_t dst_stride) {
  auto copy = [&](auto width) {
    ForEachLane(col, sel, n, [&](std::size_t j, const std::byte* p) {
      std::memcpy(dst + j * dst_stride, p, width);
    });
  };
  switch (col.width) {
    case 1:
      copy(std::integral_constant<std::size_t, 1>{});
      break;
    case 2:
      copy(std::integral_constant<std::size_t, 2>{});
      break;
    case 4:
      copy(std::integral_constant<std::size_t, 4>{});
      break;
    case 8:
      copy(std::integral_constant<std::size_t, 8>{});
      break;
    default:
      copy(static_cast<std::size_t>(col.width));
      break;
  }
}

// Folds vals[j] into the state chosen by state(j), with the aggregate
// function resolved once per batch instead of once per lane.
template <typename StateFn>
void FoldAggregate(AggSpec::Fn fn, std::span<const std::int64_t> vals,
                   StateFn state) {
  const std::size_t n = vals.size();
  switch (fn) {
    case AggSpec::Fn::kSum:
      for (std::size_t j = 0; j < n; ++j) state(j) += vals[j];
      break;
    case AggSpec::Fn::kCount:
      for (std::size_t j = 0; j < n; ++j) ++state(j);
      break;
    case AggSpec::Fn::kMin:
      for (std::size_t j = 0; j < n; ++j) {
        std::int64_t& s = state(j);
        s = std::min(s, vals[j]);
      }
      break;
    case AggSpec::Fn::kMax:
      for (std::size_t j = 0; j < n; ++j) {
        std::int64_t& s = state(j);
        s = std::max(s, vals[j]);
      }
      break;
  }
}

}  // namespace

PageProcessor::PageProcessor(const BoundQuery* bound,
                             const JoinHashTable* hash_table,
                             KernelMode mode, HybridJoin* hybrid)
    : bound_(bound), hash_table_(hash_table), hybrid_(hybrid) {
  SMARTSSD_CHECK(bound != nullptr);
  SMARTSSD_CHECK_EQ(bound->spec->join.has_value(),
                    hash_table != nullptr || hybrid != nullptr);
  SMARTSSD_CHECK(hash_table == nullptr || hybrid == nullptr);
  const QuerySpec& spec = *bound->spec;
  agg_init_ = AggInitStates(spec);
  agg_state_ = agg_init_;
  if (spec.aggregates.empty()) {
    for (const int col : spec.projection) {
      output_row_width_ += bound->combined_schema.column(col).width;
    }
  } else {
    std::uint32_t key_width = 0;
    for (const int col : spec.group_by) {
      key_width += bound->combined_schema.column(col).width;
    }
    output_row_width_ = key_width;
    output_row_width_ +=
        8u * static_cast<std::uint32_t>(spec.aggregates.size());
    if (!spec.group_by.empty()) {
      group_table_.Init(key_width,
                        static_cast<std::uint32_t>(spec.aggregates.size()));
    }
  }
  if (spec.top_n.has_value()) {
    top_n_.reserve(spec.top_n->limit + 1);
  }

  // Column metadata for the batch kernel (the per-page part — base /
  // row_ptrs — is filled when a page arrives).
  const int combined_cols = bound->combined_schema.num_columns();
  const int outer_cols = bound->outer_columns();
  batch_columns_.resize(static_cast<std::size_t>(combined_cols));
  for (int c = 0; c < combined_cols; ++c) {
    const storage::Column& col = bound->combined_schema.column(c);
    batch_columns_[static_cast<std::size_t>(c)].type = col.type;
    batch_columns_[static_cast<std::size_t>(c)].width = col.width;
    if (c >= outer_cols) {
      batch_columns_[static_cast<std::size_t>(c)].offset =
          bound->payload_offsets[static_cast<std::size_t>(c - outer_cols)];
    }
  }

  if (mode == KernelMode::kVectorized && hybrid_ == nullptr &&
      CompileKernels()) {
    mode_ = KernelMode::kVectorized;
  } else {
    pred_compiled_.reset();
    agg_compiled_.clear();
    return;
  }

  // The outer columns the vectorized stages read. Their layout-fixed
  // access fields are set here; ProcessPageVectorized only repoints
  // them at each page.
  std::vector<int> used;
  if (spec.predicate != nullptr) spec.predicate->CollectColumns(&used);
  for (const AggSpec& agg : spec.aggregates) {
    if (agg.input != nullptr) agg.input->CollectColumns(&used);
  }
  used.insert(used.end(), spec.group_by.begin(), spec.group_by.end());
  used.insert(used.end(), spec.projection.begin(), spec.projection.end());
  if (spec.top_n.has_value()) used.push_back(spec.top_n->order_col);
  if (spec.join.has_value()) used.push_back(spec.join->outer_key_col);
  std::sort(used.begin(), used.end());
  used.erase(std::unique(used.begin(), used.end()), used.end());
  const storage::Schema& outer_schema = bound->outer->schema;
  const bool nsm = bound->outer->layout == storage::PageLayout::kNsm;
  for (const int c : used) {
    // Payload columns: EnsureLanes points their row_ptrs at
    // payload_ptrs_ whenever that buffer grows.
    if (c >= outer_cols) continue;
    outer_cols_used_.push_back(c);
    expr::BatchColumn& col = batch_columns_[static_cast<std::size_t>(c)];
    if (nsm) {
      col.offset = outer_schema.offset(c);
    } else {
      col.stride = outer_schema.column(c).width;
    }
  }
}

bool PageProcessor::CompileKernels() {
  const QuerySpec& spec = *bound_->spec;
  const storage::Schema& schema = bound_->combined_schema;
  if (spec.predicate != nullptr) {
    auto compiled = expr::CompiledExpr::Compile(*spec.predicate, schema);
    if (!compiled.ok() ||
        compiled->result_type() != expr::SlotType::kBool) {
      return false;
    }
    pred_compiled_.emplace(std::move(compiled).value());
  }
  for (const AggSpec& agg : spec.aggregates) {
    if (agg.input == nullptr) {
      agg_compiled_.emplace_back();  // COUNT(*): nothing to evaluate
      continue;
    }
    auto compiled = expr::CompiledExpr::Compile(*agg.input, schema);
    // The scalar path funnels aggregate inputs through Value::AsInt;
    // only statically-INT64 inputs are expressible in batch form.
    if (!compiled.ok() ||
        compiled->result_type() != expr::SlotType::kI64) {
      return false;
    }
    agg_compiled_.emplace_back(std::move(compiled).value());
  }
  return true;
}

void PageProcessor::AppendColumnBytes(
    const std::vector<int>& columns,
    const std::function<const std::byte*(int col)>& outer_col_bytes,
    const std::byte* payload, OpCounts* counts,
    std::vector<std::byte>* out) const {
  const int outer_columns = bound_->outer_columns();
  for (const int col : columns) {
    const std::uint32_t width = bound_->combined_schema.column(col).width;
    const std::byte* src;
    if (col < outer_columns) {
      ++counts->eval.column_reads;
      src = outer_col_bytes(col);
    } else {
      SMARTSSD_CHECK(payload != nullptr);
      src = payload + bound_->payload_offsets[static_cast<std::size_t>(
                          col - outer_columns)];
    }
    out->insert(out->end(), src, src + width);
  }
}

Status PageProcessor::UpdateAggregates(const expr::RowView& combined_view,
                                       std::int64_t* states,
                                       OpCounts* counts) {
  const QuerySpec& spec = *bound_->spec;
  for (std::size_t i = 0; i < spec.aggregates.size(); ++i) {
    const AggSpec& agg = spec.aggregates[i];
    ++counts->agg_updates;
    if (agg.fn == AggSpec::Fn::kCount && agg.input == nullptr) {
      ++states[i];
      continue;
    }
    const std::int64_t v =
        agg.input->Evaluate(combined_view, &counts->eval).AsInt();
    switch (agg.fn) {
      case AggSpec::Fn::kSum:
        states[i] += v;
        break;
      case AggSpec::Fn::kCount:
        ++states[i];
        break;
      case AggSpec::Fn::kMin:
        states[i] = std::min(states[i], v);
        break;
      case AggSpec::Fn::kMax:
        states[i] = std::max(states[i], v);
        break;
    }
  }
  return Status::OK();
}

std::byte* PageProcessor::PushTopN(std::int64_t key, OpCounts* counts) {
  const TopNSpec& top_n = *bound_->spec->top_n;
  // Heap comparator: the *worst* kept row on top. Ascending keeps the k
  // smallest, so "worst" is the largest key (max-heap); descending is
  // the mirror image. Only keys are compared, so the heap moves exactly
  // as it would if it carried the rows themselves.
  auto worse = [&top_n](const std::pair<std::int64_t, std::uint32_t>& a,
                        const std::pair<std::int64_t, std::uint32_t>& b) {
    return top_n.descending ? a.first > b.first : a.first < b.first;
  };
  ++counts->topn_updates;
  std::uint32_t slot;
  if (top_n_.size() < top_n.limit) {
    slot = static_cast<std::uint32_t>(top_n_.size());
    top_n_rows_.resize(top_n_rows_.size() + output_row_width_);
    top_n_.emplace_back(key, slot);
    std::push_heap(top_n_.begin(), top_n_.end(), worse);
  } else {
    const std::int64_t worst = top_n_.front().first;
    const bool better = top_n.descending ? key > worst : key < worst;
    if (!better) return nullptr;
    std::pop_heap(top_n_.begin(), top_n_.end(), worse);
    slot = top_n_.back().second;  // the evicted row's slot is reused
    top_n_.back().first = key;
    std::push_heap(top_n_.begin(), top_n_.end(), worse);
  }
  return top_n_rows_.data() +
         static_cast<std::size_t>(slot) * output_row_width_;
}

Status PageProcessor::HandleTuple(
    const expr::RowView& outer_view,
    const std::function<const std::byte*(int col)>& outer_col_bytes,
    OpCounts* counts, std::vector<std::byte>* out) {
  const QuerySpec& spec = *bound_->spec;
  CombinedRowView combined(bound_, &outer_view);
  const std::byte* payload = nullptr;
  std::uint64_t seq = 0;

  // Returns whether the tuple has a join match in hand. A hybrid-join
  // tuple landing in a spilled partition has neither a match nor a miss
  // yet: it is deferred (spilled, probed during Finish) and reports
  // "no match" here so the scan moves on. Probe-first predicates for
  // deferred tuples are owed at resolve time.
  auto probe = [&]() -> Result<bool> {
    ++counts->eval.column_reads;  // read the FK
    const std::int64_t key =
        outer_view.GetColumn(spec.join->outer_key_col).AsInt();
    if (hybrid_ != nullptr) {
      SMARTSSD_ASSIGN_OR_RETURN(
          const HybridJoin::ProbeResult result,
          hybrid_->Probe(key, outer_col_bytes, counts));
      if (result.deferred) return false;
      seq = result.seq;
      payload = result.payload;
    } else {
      ++counts->probes;
      payload = hash_table_->Probe(key);
    }
    if (payload == nullptr) return false;
    combined.SetPayload(payload);
    return true;
  };

  if (spec.order == PipelineOrder::kFilterFirst) {
    if (spec.predicate != nullptr &&
        !spec.predicate->Evaluate(outer_view, &counts->eval).AsBool()) {
      return Status::OK();
    }
    if (spec.join.has_value()) {
      SMARTSSD_ASSIGN_OR_RETURN(const bool matched, probe());
      if (!matched) return Status::OK();
    }
  } else {
    SMARTSSD_ASSIGN_OR_RETURN(const bool matched, probe());
    if (!matched) return Status::OK();
    if (spec.predicate != nullptr &&
        !spec.predicate->Evaluate(combined, &counts->eval).AsBool()) {
      return Status::OK();
    }
  }

  // Order-sensitive output with spilled partitions: stage the match and
  // replay everything in scan order at Finish, so scan-time matches and
  // resolved matches interleave exactly as the unconstrained join
  // emits them.
  if (hybrid_ != nullptr && hybrid_->ordered()) {
    hybrid_->BufferMatch(seq, outer_col_bytes, payload);
    return Status::OK();
  }
  return SinkJoinedRow(outer_view, outer_col_bytes, payload, counts, out);
}

Status PageProcessor::SinkJoinedRow(
    const expr::RowView& outer_view,
    const std::function<const std::byte*(int col)>& outer_col_bytes,
    const std::byte* payload, OpCounts* counts,
    std::vector<std::byte>* out) {
  const QuerySpec& spec = *bound_->spec;
  CombinedRowView combined(bound_, &outer_view);
  combined.SetPayload(payload);

  if (!spec.aggregates.empty()) {
    if (spec.group_by.empty()) {
      return UpdateAggregates(combined, agg_state_.data(), counts);
    }
    // Grouped aggregation: raw key bytes -> running states.
    row_scratch_.clear();
    AppendColumnBytes(spec.group_by, outer_col_bytes, payload, counts,
                      &row_scratch_);
    ++counts->group_updates;
    const std::uint32_t group =
        group_table_.FindOrInsert(row_scratch_.data(), agg_init_.data());
    return UpdateAggregates(combined, group_table_.states(group), counts);
  }

  // Projection path: serialize the output row.
  row_scratch_.clear();
  AppendColumnBytes(spec.projection, outer_col_bytes, payload, counts,
                    &row_scratch_);
  if (spec.top_n.has_value()) {
    ++counts->eval.column_reads;
    const std::int64_t key =
        combined.GetColumn(spec.top_n->order_col).AsInt();
    if (std::byte* dst = PushTopN(key, counts); dst != nullptr) {
      std::memcpy(dst, row_scratch_.data(), output_row_width_);
    }
    return Status::OK();
  }
  out->insert(out->end(), row_scratch_.begin(), row_scratch_.end());
  ++counts->output_tuples;
  counts->output_bytes += output_row_width_;
  ++rows_output_;
  return Status::OK();
}

void PageProcessor::SetZoneMap(const storage::ZoneMap* map) {
  skip_analysis_ =
      BatchSkipAnalysis(bound_->spec->predicate.get(), map,
                        bound_->outer_columns());
}

Status PageProcessor::ProcessPage(std::span<const std::byte> page,
                                  std::uint64_t page_index,
                                  OpCounts* counts,
                                  std::vector<std::byte>* out) {
  ++counts->pages;
  if (mode_ == KernelMode::kVectorized) {
    return ProcessPageVectorized(page, page_index, counts, out);
  }
  return ProcessPageScalar(page, counts, out);
}

Status PageProcessor::ProcessPageScalar(std::span<const std::byte> page,
                                        OpCounts* counts,
                                        std::vector<std::byte>* out) {
  const QuerySpec& spec = *bound_->spec;
  const bool row_output =
      spec.aggregates.empty() && !spec.top_n.has_value();
  const storage::Schema& schema = bound_->outer->schema;
  if (bound_->outer->layout == storage::PageLayout::kNsm) {
    SMARTSSD_ASSIGN_OR_RETURN(const storage::NsmPageReader reader,
                              storage::NsmPageReader::Open(&schema, page));
    if (row_output) {
      EnsureOutCapacity(out, static_cast<std::size_t>(
                                 reader.tuple_count()) *
                                 output_row_width_);
    }
    for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
      ++counts->tuples;
      const std::byte* tuple = reader.tuple(i);
      expr::NsmRowView view(&schema, tuple);
      auto col_bytes = [&](int col) -> const std::byte* {
        return tuple + schema.offset(col);
      };
      SMARTSSD_RETURN_IF_ERROR(HandleTuple(view, col_bytes, counts, out));
    }
    return Status::OK();
  }
  SMARTSSD_ASSIGN_OR_RETURN(const storage::PaxPageReader reader,
                            storage::PaxPageReader::Open(&schema, page));
  if (row_output) {
    EnsureOutCapacity(out, static_cast<std::size_t>(reader.tuple_count()) *
                               output_row_width_);
  }
  for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
    ++counts->tuples;
    expr::PaxRowView view(&schema, &reader, i);
    auto col_bytes = [&](int col) -> const std::byte* {
      return reader.value(i, col);
    };
    SMARTSSD_RETURN_IF_ERROR(HandleTuple(view, col_bytes, counts, out));
  }
  return Status::OK();
}

Status PageProcessor::ProcessPageVectorized(std::span<const std::byte> page,
                                            std::uint64_t page_index,
                                            OpCounts* counts,
                                            std::vector<std::byte>* out) {
  const QuerySpec& spec = *bound_->spec;
  const storage::Schema& schema = bound_->outer->schema;

  // Zone-map classification first: it needs only the page index, and an
  // all-fail verdict on the filter-first path skips even the NSM tuple-
  // pointer gather below. The per-row cost it reports is exactly what
  // the interpreter would charge the skipped rows (batch_skip.h), so
  // the fast paths leave OpCounts byte-identical.
  PageClass page_class = PageClass::kMixed;
  expr::EvalStats skip_per_row;
  if (page_index != kNoPage && pred_compiled_.has_value() &&
      skip_analysis_.usable()) {
    page_class = skip_analysis_.Classify(page_index, &skip_per_row);
  }

  std::uint16_t n = 0;
  // The readers only validate and locate; the column pointers they hand
  // out live in `page` and stay valid after the readers go out of scope.
  if (bound_->outer->layout == storage::PageLayout::kNsm) {
    SMARTSSD_ASSIGN_OR_RETURN(const storage::NsmPageReader reader,
                              storage::NsmPageReader::Open(&schema, page));
    n = reader.tuple_count();
    counts->tuples += n;
    // Empty (e.g. zero-initialized) pages have no slot directory or
    // minipages to point into — bail before touching them.
    if (n == 0) return Status::OK();
    // All-fail before the probe stage: every row short-circuits inside
    // the predicate, so no per-row work (not even the pointer gather)
    // remains — charge the rows' evaluation cost and move on.
    if (page_class == PageClass::kAllFail &&
        spec.order == PipelineOrder::kFilterFirst) {
      AddScaledEvalStats(&counts->eval, skip_per_row, n);
      return Status::OK();
    }
    EnsureLanes(n);
    reader.TuplePointers(tuple_ptrs_.data());
    for (const int c : outer_cols_used_) {
      batch_columns_[static_cast<std::size_t>(c)].row_ptrs =
          tuple_ptrs_.data();
    }
  } else {
    SMARTSSD_ASSIGN_OR_RETURN(const storage::PaxPageReader reader,
                              storage::PaxPageReader::Open(&schema, page));
    n = reader.tuple_count();
    counts->tuples += n;
    if (n == 0) return Status::OK();
    if (page_class == PageClass::kAllFail &&
        spec.order == PipelineOrder::kFilterFirst) {
      AddScaledEvalStats(&counts->eval, skip_per_row, n);
      return Status::OK();
    }
    EnsureLanes(n);
    for (const int c : outer_cols_used_) {
      batch_columns_[static_cast<std::size_t>(c)].base =
          reader.column_data(c);
    }
  }

  sel_.resize(n);
  for (std::uint16_t i = 0; i < n; ++i) sel_[i] = i;

  const expr::BatchInput in{batch_columns_.data(),
                            static_cast<int>(batch_columns_.size())};
  if (spec.order == PipelineOrder::kFilterFirst) {
    if (pred_compiled_.has_value()) {
      if (page_class == PageClass::kAllPass) {
        // Every row passes: keep the dense selection and charge what
        // evaluating the full conjunct chain on each row would have.
        AddScaledEvalStats(&counts->eval, skip_per_row, n);
      } else {
        pred_compiled_->Filter(in, &sel_, &scratch_, &counts->eval);
      }
    }
    if (spec.join.has_value()) ProbeBatch(counts);
  } else {
    ProbeBatch(counts);
    if (pred_compiled_.has_value()) {
      switch (page_class) {
        case PageClass::kAllPass:
          AddScaledEvalStats(&counts->eval, skip_per_row, sel_.size());
          break;
        case PageClass::kAllFail:
          // Probe survivors would each evaluate (and fail) the chain's
          // short-circuit prefix.
          AddScaledEvalStats(&counts->eval, skip_per_row, sel_.size());
          sel_.clear();
          break;
        case PageClass::kMixed:
          pred_compiled_->Filter(in, &sel_, &scratch_, &counts->eval);
          break;
      }
    }
  }
  return SinkBatch(in, counts, out);
}

void PageProcessor::EnsureLanes(std::size_t rows) {
  if (rows <= lanes_) return;
  lanes_ = rows;
  const QuerySpec& spec = *bound_->spec;
  sel_.reserve(rows);
  if (bound_->outer->layout == storage::PageLayout::kNsm) {
    tuple_ptrs_.resize(rows);
  }
  if (spec.join.has_value()) {
    probe_keys_.resize(rows);
    probe_hits_.resize(rows);
    payload_ptrs_.resize(rows);
    // payload_ptrs_ moved: repoint the payload columns.
    const int combined_cols = bound_->combined_schema.num_columns();
    for (int c = bound_->outer_columns(); c < combined_cols; ++c) {
      batch_columns_[static_cast<std::size_t>(c)].row_ptrs =
          payload_ptrs_.data();
    }
  }
  if (!spec.group_by.empty()) {
    // Grown with zeros and only ever written at key bytes, so the pad
    // bytes of short keys stay zero (GroupTable::key_stride()).
    group_keys_.resize(rows * group_table_.key_stride());
    group_idx_.resize(rows);
  }
}

void PageProcessor::ProbeBatch(OpCounts* counts) {
  const JoinSpec& join = *bound_->spec->join;
  const std::size_t n = sel_.size();
  counts->eval.column_reads += n;  // FK read per probed row
  counts->probes += n;
  GatherInts(batch_columns_[static_cast<std::size_t>(join.outer_key_col)],
             sel_.data(), n, probe_keys_.data());
  hash_table_->ProbeBatch(probe_keys_.data(), n, probe_hits_.data());
  std::size_t w = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::byte* hit = probe_hits_[j];
    if (hit == nullptr) continue;
    const std::uint32_t row = sel_[j];
    payload_ptrs_[row] = hit;
    sel_[w++] = row;
  }
  sel_.resize(w);
}

void PageProcessor::GroupBatch() {
  const QuerySpec& spec = *bound_->spec;
  const std::size_t n = sel_.size();
  const std::size_t stride = group_table_.key_stride();
  // Assemble the keys column-at-a-time into fixed-stride lanes.
  std::size_t offset = 0;
  for (const int col : spec.group_by) {
    const expr::BatchColumn& c = batch_columns_[static_cast<std::size_t>(col)];
    ScatterColumn(c, sel_.data(), n, group_keys_.data() + offset, stride);
    offset += c.width;
  }
  group_table_.FindOrInsertBatch(group_keys_.data(), n, agg_init_.data(),
                                 group_idx_.data());
}

Status PageProcessor::SinkBatch(const expr::BatchInput& in,
                                OpCounts* counts,
                                std::vector<std::byte>* out) {
  const QuerySpec& spec = *bound_->spec;
  const int outer_cols = bound_->outer_columns();
  const std::size_t n = sel_.size();

  if (!spec.aggregates.empty()) {
    const bool grouped = !spec.group_by.empty();
    if (grouped) {
      // Pass 1: resolve every lane's group index (and charge the key-
      // column reads the scalar path charges in AppendColumnBytes).
      counts->group_updates += n;
      std::uint64_t outer_key_cols = 0;
      for (const int col : spec.group_by) {
        if (col < outer_cols) ++outer_key_cols;
      }
      counts->eval.column_reads += outer_key_cols * n;
      GroupBatch();
    }
    // Pass 2: one aggregate at a time — each EvalI64 reuses the shared
    // scratch, so its span must be consumed before the next call.
    const std::uint32_t* groups = group_idx_.data();
    for (std::size_t i = 0; i < spec.aggregates.size(); ++i) {
      const AggSpec& agg = spec.aggregates[i];
      counts->agg_updates += n;
      if (agg.input == nullptr) {  // COUNT(*)
        if (grouped) {
          for (std::size_t j = 0; j < n; ++j) {
            ++group_table_.states(groups[j])[i];
          }
        } else {
          agg_state_[i] += static_cast<std::int64_t>(n);
        }
        continue;
      }
      const std::span<const std::int64_t> vals =
          agg_compiled_[i]->EvalI64(in, sel_, &scratch_, &counts->eval);
      if (grouped) {
        FoldAggregate(agg.fn, vals, [&](std::size_t j) -> std::int64_t& {
          return group_table_.states(groups[j])[i];
        });
      } else {
        std::int64_t& state = agg_state_[i];
        FoldAggregate(agg.fn, vals,
                      [&state](std::size_t) -> std::int64_t& {
                        return state;
                      });
      }
    }
    return Status::OK();
  }

  // Projection: copy the surviving rows' column bytes.
  std::uint64_t outer_proj_cols = 0;
  for (const int col : spec.projection) {
    if (col < outer_cols) ++outer_proj_cols;
  }
  counts->eval.column_reads += outer_proj_cols * n;
  if (spec.top_n.has_value()) {
    counts->eval.column_reads += n;  // the order key
    const expr::BatchColumn& order_col =
        batch_columns_[static_cast<std::size_t>(spec.top_n->order_col)];
    for (const std::uint32_t row : sel_) {
      std::byte* dst = PushTopN(LoadIntLane(order_col, row), counts);
      if (dst == nullptr) continue;
      for (const int col : spec.projection) {
        const expr::BatchColumn& c =
            batch_columns_[static_cast<std::size_t>(col)];
        std::memcpy(dst, c.at(row), c.width);
        dst += c.width;
      }
    }
    return Status::OK();
  }
  if (n > 0) {
    EnsureOutCapacity(out, n * output_row_width_);
    const std::size_t first = out->size();
    out->resize(first + n * output_row_width_);
    std::size_t offset = 0;
    for (const int col : spec.projection) {
      const expr::BatchColumn& c =
          batch_columns_[static_cast<std::size_t>(col)];
      ScatterColumn(c, sel_.data(), n, out->data() + first + offset,
                    output_row_width_);
      offset += c.width;
    }
  }
  counts->output_tuples += n;
  counts->output_bytes += static_cast<std::uint64_t>(n) * output_row_width_;
  rows_output_ += n;
  return Status::OK();
}

Status PageProcessor::FinishHybrid(OpCounts* counts,
                                   std::vector<std::byte>* out) {
  const QuerySpec& spec = *bound_->spec;
  const storage::Schema& schema = bound_->outer->schema;
  // Resolve spilled partitions: each deferred tuple arrives back as a
  // materialized NSM outer row plus its matched payload.
  auto deliver = [&](std::uint64_t seq, const std::byte* row,
                     const std::byte* payload) -> Status {
    expr::NsmRowView view(&schema, row);
    auto col_bytes = [&](int col) -> const std::byte* {
      return row + schema.offset(col);
    };
    // Probe-first deferred tuples still owe the predicate (it needs the
    // payload); filter-first tuples passed it before they spilled.
    if (spec.order == PipelineOrder::kProbeFirst &&
        spec.predicate != nullptr) {
      CombinedRowView combined(bound_, &view);
      combined.SetPayload(payload);
      if (!spec.predicate->Evaluate(combined, &counts->eval).AsBool()) {
        return Status::OK();
      }
    }
    if (hybrid_->ordered()) {
      hybrid_->BufferMatchRaw(seq, row, payload);
      return Status::OK();
    }
    return SinkJoinedRow(view, col_bytes, payload, counts, out);
  };
  SMARTSSD_RETURN_IF_ERROR(hybrid_->Resolve(counts, deliver));
  if (hybrid_->ordered()) {
    SMARTSSD_RETURN_IF_ERROR(hybrid_->ReplayOrdered(
        [&](const std::byte* row, const std::byte* payload) -> Status {
          expr::NsmRowView view(&schema, row);
          auto col_bytes = [&](int col) -> const std::byte* {
            return row + schema.offset(col);
          };
          return SinkJoinedRow(view, col_bytes, payload, counts, out);
        }));
  }
  return Status::OK();
}

Status PageProcessor::Finish(OpCounts* counts, std::vector<std::byte>* out) {
  const QuerySpec& spec = *bound_->spec;
  if (hybrid_ != nullptr) {
    SMARTSSD_RETURN_IF_ERROR(FinishHybrid(counts, out));
  }
  if (!spec.aggregates.empty()) {
    if (spec.group_by.empty()) {
      for (const std::int64_t v : agg_state_) {
        const std::byte* p = reinterpret_cast<const std::byte*>(&v);
        out->insert(out->end(), p, p + sizeof(v));
      }
      ++counts->output_tuples;
      counts->output_bytes += output_row_width_;
      ++rows_output_;
      return Status::OK();
    }
    // One row per group, in key-byte order (what the former
    // std::map<std::string, ...> iteration produced).
    std::vector<std::uint32_t> order;
    group_table_.SortedGroups(&order);
    for (const std::uint32_t g : order) {
      const std::byte* key = group_table_.key(g);
      out->insert(out->end(), key, key + group_table_.key_width());
      const std::int64_t* states = group_table_.states(g);
      for (std::size_t i = 0; i < spec.aggregates.size(); ++i) {
        const std::byte* p =
            reinterpret_cast<const std::byte*>(&states[i]);
        out->insert(out->end(), p, p + sizeof(std::int64_t));
      }
      ++counts->output_tuples;
      counts->output_bytes += output_row_width_;
      ++rows_output_;
    }
    return Status::OK();
  }
  if (spec.top_n.has_value()) {
    // Drain the heap into sort order.
    std::sort(top_n_.begin(), top_n_.end(),
              [&](const auto& a, const auto& b) {
                return spec.top_n->descending ? a.first > b.first
                                              : a.first < b.first;
              });
    for (const auto& [key, slot] : top_n_) {
      const std::byte* row =
          top_n_rows_.data() +
          static_cast<std::size_t>(slot) * output_row_width_;
      out->insert(out->end(), row, row + output_row_width_);
      ++counts->output_tuples;
      counts->output_bytes += output_row_width_;
      ++rows_output_;
    }
  }
  return Status::OK();
}

JoinHashTableBuilder::JoinHashTableBuilder(const BoundQuery* bound)
    : bound_(bound),
      table_(bound->payload_width, bound->inner->tuple_count),
      payload_(bound->payload_width) {
  SMARTSSD_CHECK(bound->spec->join.has_value());
}

Status JoinHashTableBuilder::AddPage(std::span<const std::byte> page) {
  const JoinSpec& join = *bound_->spec->join;
  const storage::TableInfo& inner = *bound_->inner;
  ++counts_.pages;
  ++pages_added_;
  auto insert_tuple = [&](const expr::RowView& view,
                          auto col_bytes) -> Status {
    ++counts_.tuples;
    ++counts_.eval.column_reads;
    const std::int64_t key = view.GetColumn(join.inner_key_col).AsInt();
    std::size_t offset = 0;
    for (const int col : join.inner_payload_cols) {
      ++counts_.eval.column_reads;
      const std::uint32_t width = inner.schema.column(col).width;
      std::memcpy(payload_.data() + offset, col_bytes(col), width);
      offset += width;
    }
    ++counts_.hash_inserts;
    return table_.Insert(key, payload_);
  };
  if (inner.layout == storage::PageLayout::kNsm) {
    SMARTSSD_ASSIGN_OR_RETURN(
        const storage::NsmPageReader reader,
        storage::NsmPageReader::Open(&inner.schema, page));
    for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
      const std::byte* tuple = reader.tuple(i);
      expr::NsmRowView view(&inner.schema, tuple);
      SMARTSSD_RETURN_IF_ERROR(insert_tuple(view, [&](int col) {
        return tuple + inner.schema.offset(col);
      }));
    }
  } else {
    SMARTSSD_ASSIGN_OR_RETURN(
        const storage::PaxPageReader reader,
        storage::PaxPageReader::Open(&inner.schema, page));
    for (std::uint16_t i = 0; i < reader.tuple_count(); ++i) {
      expr::PaxRowView view(&inner.schema, &reader, i);
      SMARTSSD_RETURN_IF_ERROR(insert_tuple(
          view, [&](int col) { return reader.value(i, col); }));
    }
  }
  return Status::OK();
}

JoinHashTable JoinHashTableBuilder::TakeTable() {
  return std::move(table_);
}

Result<JoinHashTable> BuildJoinHashTable(
    const BoundQuery& bound,
    const std::function<Result<std::span<const std::byte>>(
        std::uint64_t page_index)>& read_page,
    OpCounts* counts) {
  const storage::TableInfo& inner = *bound.inner;
  JoinHashTableBuilder builder(&bound);
  for (std::uint64_t p = 0; p < inner.page_count; ++p) {
    SMARTSSD_ASSIGN_OR_RETURN(std::span<const std::byte> page, read_page(p));
    SMARTSSD_RETURN_IF_ERROR(builder.AddPage(page));
  }
  *counts += builder.counts();
  return builder.TakeTable();
}

}  // namespace smartssd::exec
