#include "exec/page_processor.h"

#include <algorithm>
#include <cstring>
#include <limits>

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

void PageProcessor::PushTopN(std::int64_t key, std::vector<std::byte> row,
                             OpCounts* counts) {
  const TopNSpec& top_n = *bound_->spec->top_n;
  // Heap comparator: the *worst* kept row on top. Ascending keeps the k
  // smallest, so "worst" is the largest key (max-heap); descending is
  // the mirror image.
  auto worse = [&top_n](const std::pair<std::int64_t,
                                        std::vector<std::byte>>& a,
                        const std::pair<std::int64_t,
                                        std::vector<std::byte>>& b) {
    return top_n.descending ? a.first > b.first : a.first < b.first;
  };
  ++counts->topn_updates;
  if (top_n_.size() < top_n.limit) {
    top_n_.emplace_back(key, std::move(row));
    std::push_heap(top_n_.begin(), top_n_.end(), worse);
    return;
  }
  const std::int64_t worst = top_n_.front().first;
  const bool better = top_n.descending ? key > worst : key < worst;
  if (!better) return;
  std::pop_heap(top_n_.begin(), top_n_.end(), worse);
  top_n_.back() = {key, std::move(row)};
  std::push_heap(top_n_.begin(), top_n_.end(), worse);
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
    PushTopN(key, row_scratch_, counts);
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
  const int outer_cols = schema.num_columns();

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
    tuple_ptrs_.resize(n);
    reader.TuplePointers(tuple_ptrs_.data());
    for (int c = 0; c < outer_cols; ++c) {
      expr::BatchColumn& col = batch_columns_[static_cast<std::size_t>(c)];
      col.base = nullptr;
      col.row_ptrs = tuple_ptrs_.data();
      col.offset = schema.offset(c);
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
    for (int c = 0; c < outer_cols; ++c) {
      expr::BatchColumn& col = batch_columns_[static_cast<std::size_t>(c)];
      col.base = reader.column_data(c);
      col.stride = schema.column(c).width;
      col.row_ptrs = nullptr;
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
    if (spec.join.has_value()) ProbeBatch(n, counts);
  } else {
    ProbeBatch(n, counts);
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

void PageProcessor::ProbeBatch(std::uint32_t rows, OpCounts* counts) {
  const JoinSpec& join = *bound_->spec->join;
  const expr::BatchColumn& fk =
      batch_columns_[static_cast<std::size_t>(join.outer_key_col)];
  counts->eval.column_reads += sel_.size();  // FK read per probed row
  counts->probes += sel_.size();
  payload_ptrs_.resize(rows);
  std::size_t w = 0;
  for (const std::uint32_t row : sel_) {
    const std::byte* hit = hash_table_->Probe(LoadIntLane(fk, row));
    if (hit == nullptr) continue;
    payload_ptrs_[row] = hit;
    sel_[w++] = row;
  }
  sel_.resize(w);
  // payload_ptrs_ may have reallocated: (re)point the payload columns.
  const int combined_cols = bound_->combined_schema.num_columns();
  for (int c = bound_->outer_columns(); c < combined_cols; ++c) {
    batch_columns_[static_cast<std::size_t>(c)].row_ptrs =
        payload_ptrs_.data();
  }
}

Status PageProcessor::SinkBatch(const expr::BatchInput& in,
                                OpCounts* counts,
                                std::vector<std::byte>* out) {
  const QuerySpec& spec = *bound_->spec;
  const int outer_cols = bound_->outer_columns();

  if (!spec.aggregates.empty()) {
    const bool grouped = !spec.group_by.empty();
    if (grouped) {
      // Pass 1: resolve every lane's group index (and charge the key-
      // column reads the scalar path charges in AppendColumnBytes).
      counts->group_updates += sel_.size();
      std::uint64_t outer_key_cols = 0;
      for (const int col : spec.group_by) {
        if (col < outer_cols) ++outer_key_cols;
      }
      counts->eval.column_reads += outer_key_cols * sel_.size();
      group_idx_.resize(sel_.size());
      for (std::size_t j = 0; j < sel_.size(); ++j) {
        row_scratch_.clear();
        for (const int col : spec.group_by) {
          const expr::BatchColumn& c =
              batch_columns_[static_cast<std::size_t>(col)];
          const std::byte* src = c.at(sel_[j]);
          row_scratch_.insert(row_scratch_.end(), src, src + c.width);
        }
        group_idx_[j] =
            group_table_.FindOrInsert(row_scratch_.data(),
                                      agg_init_.data());
      }
    }
    // Pass 2: one aggregate at a time — each EvalI64 reuses the shared
    // scratch, so its span must be consumed before the next call.
    for (std::size_t i = 0; i < spec.aggregates.size(); ++i) {
      const AggSpec& agg = spec.aggregates[i];
      counts->agg_updates += sel_.size();
      if (agg.input == nullptr) {  // COUNT(*)
        if (grouped) {
          for (const std::uint32_t g : group_idx_) {
            ++group_table_.states(g)[i];
          }
        } else {
          agg_state_[i] += static_cast<std::int64_t>(sel_.size());
        }
        continue;
      }
      const std::span<const std::int64_t> vals =
          agg_compiled_[i]->EvalI64(in, sel_, &scratch_, &counts->eval);
      auto fold = [&](std::int64_t& state, std::int64_t v) {
        switch (agg.fn) {
          case AggSpec::Fn::kSum:
            state += v;
            break;
          case AggSpec::Fn::kCount:
            ++state;
            break;
          case AggSpec::Fn::kMin:
            state = std::min(state, v);
            break;
          case AggSpec::Fn::kMax:
            state = std::max(state, v);
            break;
        }
      };
      if (grouped) {
        for (std::size_t j = 0; j < vals.size(); ++j) {
          fold(group_table_.states(group_idx_[j])[i], vals[j]);
        }
      } else {
        for (const std::int64_t v : vals) fold(agg_state_[i], v);
      }
    }
    return Status::OK();
  }

  // Projection: copy the surviving rows' column bytes.
  std::uint64_t outer_proj_cols = 0;
  for (const int col : spec.projection) {
    if (col < outer_cols) ++outer_proj_cols;
  }
  counts->eval.column_reads += outer_proj_cols * sel_.size();
  if (spec.top_n.has_value()) {
    counts->eval.column_reads += sel_.size();  // the order key
    const expr::BatchColumn& order_col =
        batch_columns_[static_cast<std::size_t>(spec.top_n->order_col)];
    for (const std::uint32_t row : sel_) {
      row_scratch_.clear();
      for (const int col : spec.projection) {
        const expr::BatchColumn& c =
            batch_columns_[static_cast<std::size_t>(col)];
        const std::byte* src = c.at(row);
        row_scratch_.insert(row_scratch_.end(), src, src + c.width);
      }
      PushTopN(LoadIntLane(order_col, row), row_scratch_, counts);
    }
    return Status::OK();
  }
  EnsureOutCapacity(out, sel_.size() * output_row_width_);
  for (const std::uint32_t row : sel_) {
    for (const int col : spec.projection) {
      const expr::BatchColumn& c =
          batch_columns_[static_cast<std::size_t>(col)];
      const std::byte* src = c.at(row);
      out->insert(out->end(), src, src + c.width);
    }
  }
  counts->output_tuples += sel_.size();
  counts->output_bytes +=
      static_cast<std::uint64_t>(sel_.size()) * output_row_width_;
  rows_output_ += sel_.size();
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
    for (const auto& [key, row] : top_n_) {
      out->insert(out->end(), row.begin(), row.end());
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
