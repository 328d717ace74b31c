#include "engine/query_task.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "engine/fallback_reason.h"
#include "engine/partial_merge.h"

namespace smartssd::engine {

namespace {

// Decodes the scalar aggregate row (n int64s) from the result bytes.
// Grouped aggregation results stay in `rows` (one row per group, per
// OutputSchema) and are not flattened into agg_values.
Status DecodeAggValues(const exec::BoundQuery& bound,
                       const std::vector<std::byte>& rows,
                       std::vector<std::int64_t>* out) {
  const std::size_t n = bound.spec->aggregates.size();
  if (n == 0 || !bound.spec->group_by.empty()) return Status::OK();
  if (rows.size() != n * sizeof(std::int64_t)) {
    return InternalError("aggregate query returned an unexpected row size");
  }
  out->resize(n);
  std::memcpy(out->data(), rows.data(), rows.size());
  return Status::OK();
}

// True when [first_page, first_page + page_count) leaves out part of the
// outer table: the range is one of several fragments, whose task reports
// a partial result. SplitDevicePages keeps each side of a split at least
// one page, so every fragment of a split qualifies.
bool ProperSubRange(const exec::BoundQuery& bound, std::uint64_t first_page,
                    std::uint64_t page_count) {
  return first_page > 0 || page_count < bound.outer->page_count;
}

}  // namespace

// ---------------------------------------------------------------------------
// HostQueryTask

HostQueryTask::HostQueryTask(Database* db, const exec::BoundQuery* bound,
                             SimTime start, std::uint64_t first_page,
                             std::uint64_t page_count)
    : db_(db), bound_(bound), start_(start), tracer_(db->tracer()) {
  SMARTSSD_CHECK(db != nullptr);
  SMARTSSD_CHECK(bound != nullptr);
  const std::uint64_t table_pages = bound->outer->page_count;
  scan_begin_ = std::min(first_page, table_pages);
  scan_end_ = page_count >= table_pages - scan_begin_
                  ? table_pages
                  : scan_begin_ + page_count;
  partial_ = ProperSubRange(*bound, first_page, page_count);
  page_ = scan_begin_;
  // Partial fragments never run joins: the build would repeat per
  // fragment and double-charge, and the hybrid join does real work at
  // Finish() that partial mode suppresses.
  SMARTSSD_CHECK(!partial_ || !bound->spec->join.has_value());
}

HostQueryTask::~HostQueryTask() { CloseSpanForError(); }

void HostQueryTask::CloseSpanForError() {
  // On error paths the best known end time is the high-water mark of
  // this database's trace lanes.
  if (tracer_ != nullptr && span_id_ != obs::kNoSpan && !span_ended_) {
    tracer_->End(span_id_, std::max(start_, db_->trace_latest_time()));
    span_ended_ = true;
  }
}

StepOutcome HostQueryTask::FailWith(const Status& error) {
  CloseSpanForError();
  final_result_ = error;
  state_ = State::kDone;
  return {.at = std::max(start_, end_), .finished = true};
}

Result<QueryResult> HostQueryTask::TakeResult() {
  SMARTSSD_CHECK(finished());
  SMARTSSD_CHECK(final_result_.has_value());
  return std::move(*final_result_);
}

StepOutcome HostQueryTask::Step() {
  switch (state_) {
    case State::kStart:
      return StepStart();
    case State::kBuildRead:
      return StepBuildRead();
    case State::kBuildFinish:
      return StepBuildFinish();
    case State::kPrepareScan:
      return StepPrepareScan();
    case State::kScan:
      return StepScan();
    case State::kFinish:
      return StepFinish();
    case State::kDone:
      break;
  }
  SMARTSSD_CHECK(false);  // Step() on a finished host query task
  return {};
}

StepOutcome HostQueryTask::StepStart() {
  Result<storage::Schema> output_schema = OutputSchema(*bound_);
  if (!output_schema.ok()) {
    // Pre-span failure, exactly as the monolithic body: no trace, no
    // stats.
    final_result_ = output_schema.status();
    state_ = State::kDone;
    return {.at = start_, .finished = true};
  }
  result_.output_schema = std::move(output_schema.value());
  QueryStats& stats = result_.stats;
  stats.query_name = bound_->spec->name;
  stats.device_name = std::string(db_->device().name());
  stats.target = ExecutionTarget::kHost;
  stats.layout = bound_->outer->layout;
  stats.start = start_;

  if (tracer_ != nullptr) {
    span_id_ = tracer_->Begin(db_->executor_track(), bound_->spec->name,
                              "query", start_);
    span_ended_ = false;
  }
  end_ = start_;
  io_done_ = start_;

  if (bound_->spec->join.has_value()) {
    builder_.emplace(bound_);
    state_ = bound_->inner->page_count > 0 ? State::kBuildRead
                                           : State::kBuildFinish;
  } else {
    state_ = State::kPrepareScan;
  }
  return {.at = start_};
}

StepOutcome HostQueryTask::StepBuildRead() {
  obs::ScopeGuard scope(tracer_, span_id_);
  const storage::TableInfo& inner = *bound_->inner;
  Result<std::pair<std::span<const std::byte>, SimTime>> page =
      db_->buffer_pool().GetPage(inner.first_lpn + build_page_, start_,
                                 inner.first_lpn + inner.page_count);
  if (!page.ok()) return FailWith(page.status());
  io_done_ = std::max(io_done_, page.value().second);
  const Status added = builder_->AddPage(page.value().first);
  if (!added.ok()) return FailWith(added);
  ++build_page_;
  if (build_page_ >= inner.page_count) state_ = State::kBuildFinish;
  return {.at = io_done_};
}

StepOutcome HostQueryTask::StepBuildFinish() {
  obs::ScopeGuard scope(tracer_, span_id_);
  const storage::TableInfo& inner = *bound_->inner;
  QueryStats& stats = result_.stats;
  hash_table_.emplace(builder_->TakeTable());
  const std::uint64_t cycles =
      exec::Cycles(builder_->counts(), exec::HostCostParams(inner.layout),
                   inner.schema.num_columns(), 0);
  end_ = db_->host().Execute(cycles, io_done_, "hash build");
  stats.counts += builder_->counts();
  stats.host_cycles += cycles;
  stats.pages_read += inner.page_count;
  stats.bytes_over_host_link +=
      inner.page_count *
      static_cast<std::uint64_t>(db_->device().page_size());
  if (tracer_ != nullptr) {
    tracer_->Complete(db_->executor_track(), "build", "phase", start_, end_,
                      {obs::Arg::Uint("pages", inner.page_count)});
  }
  state_ = State::kPrepareScan;
  return {.at = end_};
}

StepOutcome HostQueryTask::StepPrepareScan() {
  obs::ScopeGuard scope(tracer_, span_id_);
  processor_.emplace(bound_, hash_table_.has_value() ? &*hash_table_ : nullptr,
                     db_->options().kernel);
  host_params_ = exec::HostCostParams(bound_->outer->layout);
  hash_entries_ = hash_table_.has_value() ? hash_table_->entries() : 0;

  // Zone-map pruning: skip pages whose per-page [min, max] cannot
  // satisfy the predicate's column ranges.
  zone_map_ = db_->zone_map(bound_->spec->table);
  prune_ranges_ = exec::PruneRanges(bound_->spec->predicate.get(),
                                    bound_->outer_columns(), zone_map_);
  if (!prune_ranges_.empty()) {
    // Checking the (host-cached) statistics costs a few cycles/page.
    // Fragments check only their own range, so per-fragment charges
    // sum to the monolithic whole-table charge.
    end_ = std::max(end_,
                    db_->host().Execute((scan_end_ - scan_begin_) * 2,
                                        start_, "zone check"));
  }
  // Arm the batch-skip fast paths with the same statistics: pages that
  // survive the merged-interval pruning above can still be settled
  // wholesale per conjunct inside the batch loop (exec/batch_skip.h).
  processor_->SetZoneMap(zone_map_);
  armed_zone_map_ = zone_map_;
  scan_started_ = end_;
  state_ = State::kScan;
  return {.at = end_};
}

StepOutcome HostQueryTask::StepScan() {
  obs::ScopeGuard scope(tracer_, span_id_);
  QueryStats& stats = result_.stats;
  const storage::TableInfo& outer = *bound_->outer;
  const std::uint64_t limit = outer.first_lpn + outer.page_count;
  // A co-scheduled writer can mark the table's zone map stale at any
  // step boundary, which destroys the map object. Re-fetch it each step
  // and stop pruning once it is gone: pages already pruned were pruned
  // while the statistics still covered every page image the scan could
  // observe, and un-pruned pages merely cost a read. The batch-skip
  // analysis holds a pointer into the map, so it must track the same
  // lifecycle: re-arm whenever the map object changed.
  zone_map_ = db_->zone_map(bound_->spec->table);
  if (zone_map_ != armed_zone_map_) {
    processor_->SetZoneMap(zone_map_);
    armed_zone_map_ = zone_map_;
  }
  while (page_ < scan_end_) {
    if (zone_map_ != nullptr &&
        !exec::PageMayMatch(*zone_map_, page_, prune_ranges_)) {
      ++stats.pages_skipped;
      ++page_;
      continue;  // pruned pages cost nothing: keep skipping
    }
    Result<std::pair<std::span<const std::byte>, SimTime>> page =
        db_->buffer_pool().GetPage(outer.first_lpn + page_, start_, limit);
    if (!page.ok()) return FailWith(page.status());
    exec::OpCounts page_counts;
    const Status processed = processor_->ProcessPage(
        page.value().first, page_, &page_counts, &result_.rows);
    if (!processed.ok()) return FailWith(processed);
    const std::uint64_t cycles =
        exec::Cycles(page_counts, host_params_,
                     outer.schema.num_columns(), hash_entries_);
    end_ = std::max(end_, db_->host().Execute(cycles, page.value().second,
                                              "scan batch"));
    stats.counts += page_counts;
    stats.host_cycles += cycles;
    ++pages_scanned_;
    ++page_;
    return {.at = end_};  // one scanned page per step
  }
  stats.pages_read += pages_scanned_;
  stats.bytes_over_host_link +=
      pages_scanned_ *
      static_cast<std::uint64_t>(db_->device().page_size());
  if (tracer_ != nullptr) {
    tracer_->Complete(db_->executor_track(), "scan", "phase", scan_started_,
                      end_,
                      {obs::Arg::Uint("pages_scanned", pages_scanned_),
                       obs::Arg::Uint("pages_skipped", stats.pages_skipped)});
  }
  state_ = State::kFinish;
  return {.at = end_};
}

StepOutcome HostQueryTask::StepFinish() {
  obs::ScopeGuard scope(tracer_, span_id_);
  QueryStats& stats = result_.stats;
  const storage::TableInfo& outer = *bound_->outer;
  const SimTime finish_started = end_;
  exec::OpCounts final_counts;
  const Status finished_ok =
      processor_->Finish(&final_counts, &result_.rows);
  if (!finished_ok.ok()) return FailWith(finished_ok);
  const std::uint64_t final_cycles =
      exec::Cycles(final_counts, host_params_, outer.schema.num_columns(),
                   hash_entries_);
  end_ = db_->host().Execute(final_cycles, end_, "finalize");
  // Partial fragments report body-only counts: QueryTask's merge charges
  // the canonical finish emission over the merged result once, so
  // per-fragment counts sum exactly to the whole-table run's.
  if (!partial_) stats.counts += final_counts;
  stats.host_cycles += final_cycles;
  if (tracer_ != nullptr) {
    tracer_->Complete(db_->executor_track(), "finish", "phase",
                      finish_started, end_);
  }

  stats.end = end_;
  stats.output_rows = result_.row_count();
  stats.output_bytes = result_.rows.size();
  if (!partial_) {
    // Per-query instruments count whole queries; QueryTask's merge bumps
    // them once for the merged query.
    db_->metrics().counter("engine.queries")->Add();
    db_->metrics().histogram("engine.query_ns")->Record(stats.elapsed());
  }
  if (tracer_ != nullptr) {
    tracer_->End(span_id_, end_,
                 {obs::Arg::Str("target", "host"),
                  obs::Arg::Uint("rows", stats.output_rows)});
    span_ended_ = true;
  }
  const Status decoded =
      DecodeAggValues(*bound_, result_.rows, &result_.agg_values);
  if (!decoded.ok()) return FailWith(decoded);
  final_result_ = std::move(result_);
  state_ = State::kDone;
  return {.at = end_, .finished = true};
}

// ---------------------------------------------------------------------------
// DeviceQueryTask

DeviceQueryTask::DeviceQueryTask(Database* db,
                                 const exec::BoundQuery* bound,
                                 SimTime start, std::uint64_t first_page,
                                 std::uint64_t page_count)
    : db_(db),
      bound_(bound),
      start_(start),
      frag_first_(first_page),
      frag_pages_(page_count),
      tracer_(db->tracer()),
      failed_at_(start) {
  SMARTSSD_CHECK(db != nullptr);
  SMARTSSD_CHECK(bound != nullptr);
  partial_ = ProperSubRange(*bound, first_page, page_count);
  SMARTSSD_CHECK(!partial_ || !bound->spec->join.has_value());
}

DeviceQueryTask::~DeviceQueryTask() { CloseSpanForError(); }

void DeviceQueryTask::CloseSpanForError() {
  if (tracer_ != nullptr && span_id_ != obs::kNoSpan && !span_ended_) {
    tracer_->End(span_id_, std::max(start_, db_->trace_latest_time()));
    span_ended_ = true;
  }
}

StepOutcome DeviceQueryTask::FinishWithError(const Status& error) {
  CloseSpanForError();
  final_result_ = error;
  state_ = State::kDone;
  return {.at = std::max(start_, failed_at_), .finished = true};
}

Result<QueryResult> DeviceQueryTask::TakeResult() {
  SMARTSSD_CHECK(finished());
  SMARTSSD_CHECK(final_result_.has_value());
  return std::move(*final_result_);
}

StepOutcome DeviceQueryTask::Step() {
  switch (state_) {
    case State::kStart:
      return StepStart();
    case State::kSession:
      return StepSession();
    case State::kHostRerun:
      return StepHostRerun();
    case State::kDone:
      break;
  }
  SMARTSSD_CHECK(false);  // Step() on a finished device query task
  return {};
}

StepOutcome DeviceQueryTask::StepStart() {
  if (!db_->smart_capable()) {
    return FinishWithError(FailedPreconditionError(
        "pushdown requires a Smart SSD device"));
  }
  // Correctness gate from Section 4.3: the device must not compute over
  // pages the host has modified but not written back.
  const storage::TableInfo& outer = *bound_->outer;
  if (db_->buffer_pool().HasDirtyInRange(outer.first_lpn,
                                         outer.page_count) ||
      (bound_->inner != nullptr &&
       db_->buffer_pool().HasDirtyInRange(bound_->inner->first_lpn,
                                          bound_->inner->page_count))) {
    return FinishWithError(FailedPreconditionError(
        "pushdown refused: dirty pages in the buffer pool"));
  }

  Result<storage::Schema> output_schema = OutputSchema(*bound_);
  if (!output_schema.ok()) return FinishWithError(output_schema.status());
  result_.output_schema = std::move(output_schema.value());
  QueryStats& stats = result_.stats;
  stats.query_name = bound_->spec->name;
  stats.device_name = std::string(db_->device().name());
  stats.target = ExecutionTarget::kSmartSsd;
  stats.layout = bound_->outer->layout;
  stats.start = start_;

  if (tracer_ != nullptr) {
    span_id_ = tracer_->Begin(db_->executor_track(), bound_->spec->name,
                              "query", start_);
    span_ended_ = false;
  }
  device_zone_map_ = db_->zone_map_snapshot(bound_->spec->table);
  exec::HybridJoinConfig spill = db_->options().join_spill;
  if (bound_->spec->join.has_value()) {
    spill.budget_bytes = ResolveJoinBudget(*db_, *bound_);
    // The spill allocator grows down from the top of the LPN space; tell
    // it where the catalog's extents end before any session may spill.
    db_->ssd()->set_spill_floor(db_->catalog().pages_allocated());
  }
  program_.emplace(bound_, device_zone_map_.get(),
                   db_->options().kernel, spill, db_->device().page_size(),
                   frag_first_, frag_pages_);
  session_ = db_->runtime()->StartSession(*program_, start_, &result_.rows);
  state_ = State::kSession;
  return {.at = start_};
}

StepOutcome DeviceQueryTask::StepSession() {
  if (!session_started_) {
    const bool no_grant = db_->runtime()->session_slots_free() <= 0;
    if ((no_grant || parked_) && db_->circuit_breaker().open()) {
      // The breaker says the device is failing, and this task either
      // finds every session grant taken or parked for one and is
      // resuming. Grant holders are likely dying sessions, and while
      // the breaker is open the planner routes new work around the
      // device — so no healthy session is coming to free a slot, and a
      // parked task would wait out the whole outage (or forever, if the
      // holder is wedged). A resumed task must not open a session on a
      // breaker that tripped while it waited either. Redispatch to the
      // host instead. This task never touched the device: no breaker
      // failure is recorded and the stats report zero device attempts.
      CloseSpanForError();
      device_error_ = ResourceExhaustedError(
          "session grant unavailable while the device breaker is open");
      if (tracer_ != nullptr) {
        tracer_->Instant(
            db_->executor_track(), "fallback to host", "query", start_,
            {obs::Arg::Str("reason", FallbackReasonToken(device_error_)),
             obs::Arg::Str("error", device_error_.message())});
      }
      db_->metrics().counter("engine.fallbacks")->Add();
      redispatched_without_attempt_ = true;
      host_rerun_.emplace(db_, bound_, start_, frag_first_, frag_pages_);
      state_ = State::kHostRerun;
      return {.at = start_};
    }
    if (no_grant) {
      parked_ = true;
      return {.at = start_, .waiting_for_grant = true};
    }
  }
  Result<SimTime> stepped = InternalError("unreachable");
  {
    obs::ScopeGuard scope(tracer_, span_id_);
    stepped = session_->Step();
    session_started_ = true;
  }
  if (!stepped.ok()) {
    failed_at_ = session_->fail_time();
    return HandleDeviceError(stepped.status());
  }
  if (!session_->finished()) return {.at = stepped.value()};

  const smart::SessionStats& session = session_->stats();
  QueryStats& stats = result_.stats;
  stats.session = session;
  stats.end = session.close_done;
  stats.embedded_cycles = session.embedded_cycles;
  // Partial fragments report body-only counts (see HostQueryTask):
  // QueryTask's merge synthesizes the canonical finish charge over the
  // merged result.
  stats.counts =
      partial_ ? program_->CountsExcludingFinish() : program_->counts();
  stats.join_spill = program_->hybrid_stats();
  stats.pages_read = session.pages_processed;
  stats.pages_skipped = program_->pages_skipped();
  // Host-link traffic: result bytes plus one command round per
  // OPEN/GET/CLOSE exchange.
  stats.bytes_over_host_link =
      session.result_bytes + (session.gets_issued + 2) * 64;
  stats.output_rows = result_.row_count();
  stats.output_bytes = result_.rows.size();
  if (!partial_) {
    db_->metrics().counter("engine.queries")->Add();
    db_->metrics().histogram("engine.query_ns")->Record(stats.elapsed());
  }
  if (tracer_ != nullptr) {
    tracer_->End(span_id_, stats.end,
                 {obs::Arg::Str("target", "smart-ssd"),
                  obs::Arg::Uint("rows", stats.output_rows)});
    span_ended_ = true;
  }
  const Status decoded =
      DecodeAggValues(*bound_, result_.rows, &result_.agg_values);
  if (!decoded.ok()) return FinishWithError(decoded);
  db_->circuit_breaker().RecordSuccess(stats.end);
  final_result_ = std::move(result_);
  state_ = State::kDone;
  return {.at = stats.end, .finished = true};
}

StepOutcome DeviceQueryTask::HandleDeviceError(const Status& error) {
  // The device query span dies with the session, before any fallback
  // bookkeeping — the same order the blocking wrapper produced.
  CloseSpanForError();
  if (!RetryableDeviceFailure(error)) {
    return FinishWithError(error);
  }
  device_error_ = error;
  db_->circuit_breaker().RecordFailure(failed_at_,
                                       FallbackReasonToken(error));
  if (tracer_ != nullptr) {
    tracer_->Instant(
        db_->executor_track(), "fallback to host", "query", failed_at_,
        {obs::Arg::Str("reason", FallbackReasonToken(error)),
         obs::Arg::Str("error", error.message())});
  }
  db_->metrics().counter("engine.fallbacks")->Add();
  // Degraded execution: redo the whole query on the host, starting when
  // the failed session was torn down, so the timeline stays consistent
  // and the results stay byte-identical to a clean pushdown.
  host_rerun_.emplace(db_, bound_, std::max(start_, failed_at_),
                      frag_first_, frag_pages_);
  state_ = State::kHostRerun;
  return {.at = std::max(start_, failed_at_)};
}

StepOutcome DeviceQueryTask::StepHostRerun() {
  StepOutcome outcome = host_rerun_->Step();
  if (!outcome.finished) return outcome;
  Result<QueryResult> rerun = host_rerun_->TakeResult();
  if (!rerun.ok()) {
    final_result_ = std::move(rerun);
    state_ = State::kDone;
    return outcome;
  }
  QueryResult result = std::move(rerun.value());
  result.stats.start = start_;  // the query began at the pushdown attempt
  result.stats.fell_back = true;
  result.stats.device_attempts = redispatched_without_attempt_ ? 0 : 1;
  result.stats.fallback_reason = FallbackReasonString(device_error_);
  final_result_ = std::move(result);
  state_ = State::kDone;
  return outcome;
}

// ---------------------------------------------------------------------------
// QueryTask

QueryTask::QueryTask(Database* db, const exec::QuerySpec* spec,
                     std::optional<ExecutionTarget> target, SimTime start)
    : db_(db), spec_(spec), target_(target), start_(start), end_(start) {
  SMARTSSD_CHECK(db != nullptr);
  SMARTSSD_CHECK(spec != nullptr);
}

Result<QueryResult> QueryTask::TakeResult() {
  SMARTSSD_CHECK(finished());
  SMARTSSD_CHECK(final_result_.has_value());
  return std::move(*final_result_);
}

StepOutcome QueryTask::Finish(Result<QueryResult> result,
                              StepOutcome outcome) {
  final_result_ = std::move(result);
  state_ = State::kDone;
  outcome.finished = true;
  return outcome;
}

StepOutcome QueryTask::Plan() {
  Result<exec::BoundQuery> bound = exec::Bind(*spec_, db_->catalog());
  if (!bound.ok()) return Finish(bound.status(), {.at = start_});
  bound_.emplace(std::move(bound.value()));
  std::vector<ScanFragment> placement;
  if (target_.has_value()) {
    placement = {ScanFragment{.target = *target_}};
  } else {
    Result<PlacementDecision> placed =
        DecidePlacement(db_, *bound_, db_->options().placement, start_);
    if (!placed.ok()) return Finish(placed.status(), {.at = start_});
    placement = std::move(placed.value().fragments);
  }
  for (const ScanFragment& placed : placement) {
    Fragment& fragment = fragments_.emplace_back();
    fragment.ready = start_;
    if (placed.target == ExecutionTarget::kSmartSsd) {
      fragment.device.emplace(db_, &*bound_, start_, placed.first_page,
                              placed.page_count);
    } else {
      fragment.host.emplace(db_, &*bound_, start_, placed.first_page,
                            placed.page_count);
    }
  }
  state_ = State::kRun;
  return {.at = start_};
}

StepOutcome QueryTask::Step() {
  if (state_ == State::kPlan) return Plan();
  SMARTSSD_CHECK(state_ == State::kRun);
  for (;;) {
    // Earliest-ready unfinished, unparked fragment; lowest index breaks
    // ties. Deterministic: ready times are virtual, order is fixed.
    Fragment* next = nullptr;
    bool have_parked = false;
    SimTime parked_at = 0;
    for (Fragment& fragment : fragments_) {
      if (fragment.done) continue;
      if (fragment.parked) {
        if (!have_parked || fragment.ready < parked_at) {
          parked_at = fragment.ready;
        }
        have_parked = true;
        continue;
      }
      if (next == nullptr || fragment.ready < next->ready) next = &fragment;
    }
    if (next == nullptr) {
      // Every remaining fragment waits on a device session grant.
      // Surface that to the driver; clear the park marks so the next
      // Step() (after a grant frees or the breaker opens) retries them.
      for (Fragment& fragment : fragments_) fragment.parked = false;
      return {.at = parked_at, .waiting_for_grant = true};
    }
    const StepOutcome outcome =
        next->host.has_value() ? next->host->Step() : next->device->Step();
    next->ready = std::max(outcome.at, next->ready);
    if (outcome.waiting_for_grant) {
      // Other fragments may still have work: park just this one and
      // pick again.
      next->parked = true;
      continue;
    }
    if (!outcome.finished) return outcome;
    next->done = true;
    next->result = next->host.has_value() ? next->host->TakeResult()
                                          : next->device->TakeResult();
    if (fragments_.size() == 1) {
      return Finish(std::move(*next->result), outcome);
    }
    end_ = std::max(end_, outcome.at);
    for (const Fragment& fragment : fragments_) {
      if (!fragment.done) return {.at = outcome.at};
    }
    return Merge();
  }
}

StepOutcome QueryTask::Merge() {
  // First failure in fragment order wins — deterministic regardless of
  // which fragment's execution failed first on the timeline.
  for (Fragment& fragment : fragments_) {
    if (!fragment.result->ok()) {
      return Finish(std::move(*fragment.result), {.at = end_});
    }
  }

  QueryResult result;
  Result<storage::Schema> output_schema = OutputSchema(*bound_);
  if (!output_schema.ok()) {
    return Finish(output_schema.status(), {.at = end_});
  }
  result.output_schema = std::move(output_schema.value());

  std::vector<const QueryResult*> partials;
  partials.reserve(fragments_.size());
  for (const Fragment& fragment : fragments_) {
    partials.push_back(&fragment.result->value());
  }
  MergedPartials merged =
      MergePartialResults(*spec_, result.output_schema, partials);
  result.rows = std::move(merged.rows);
  result.agg_values = std::move(merged.agg_values);

  QueryStats& stats = result.stats;
  stats.query_name = spec_->name;
  stats.device_name = std::string(db_->device().name());
  stats.layout = bound_->outer->layout;
  stats.start = start_;
  stats.split_scan = true;
  stats.fragments = static_cast<std::uint32_t>(fragments_.size());
  bool any_device = false;
  for (const Fragment& fragment : fragments_) {
    const QueryStats& child = fragment.result->value().stats;
    stats.counts += child.counts;
    stats.pages_read += child.pages_read;
    stats.pages_skipped += child.pages_skipped;
    stats.bytes_over_host_link += child.bytes_over_host_link;
    stats.host_cycles += child.host_cycles;
    stats.embedded_cycles += child.embedded_cycles;
    stats.device_attempts += child.device_attempts;
    stats.fell_back |= child.fell_back;
    if (child.fell_back && stats.fallback_reason.empty()) {
      stats.fallback_reason = child.fallback_reason;
    }
    any_device |= child.target == ExecutionTarget::kSmartSsd;
  }
  stats.target =
      any_device ? ExecutionTarget::kSmartSsd : ExecutionTarget::kHost;

  // Canonical finish emission over the merged result — exactly what the
  // whole-table Finish() charges: one OpCount/byte per emitted output
  // row for aggregation shapes, nothing for plain projections. The
  // fragments excluded their own finish emission, so adding this once
  // makes total counts byte-identical to the whole-table run.
  exec::OpCounts finish_counts;
  if (!spec_->aggregates.empty()) {
    finish_counts.output_tuples = result.row_count();
    finish_counts.output_bytes = result.rows.size();
  }
  stats.counts += finish_counts;

  // Merge cost: touch every partial row once (the scatter-gather merge
  // charge) plus the canonical finish emission on the host CPU.
  const std::uint64_t merge_cycles =
      MergeCostCycles(merged.input_rows, merged.input_bytes) +
      exec::Cycles(finish_counts,
                   exec::HostCostParams(bound_->outer->layout),
                   bound_->outer->schema.num_columns(), 0);
  stats.end = db_->host().Execute(merge_cycles, end_, "split merge");
  stats.host_cycles += merge_cycles;
  stats.output_rows = result.row_count();
  stats.output_bytes = result.rows.size();
  db_->metrics().counter("engine.queries")->Add();
  db_->metrics().histogram("engine.query_ns")->Record(stats.elapsed());
  if (obs::Tracer* tracer = db_->tracer(); tracer != nullptr) {
    tracer->Complete(
        db_->executor_track(), "split merge", "phase", end_, stats.end,
        {obs::Arg::Uint("fragments", fragments_.size()),
         obs::Arg::Uint("rows", stats.output_rows)});
  }
  const SimTime merged_at = stats.end;
  return Finish(std::move(result), {.at = merged_at});
}

Result<QueryResult> RunToCompletion(QueryTask& task, SimTime* end) {
  for (;;) {
    const StepOutcome outcome = task.Step();
    *end = outcome.at;
    if (outcome.finished) return task.TakeResult();
    if (outcome.waiting_for_grant) {
      return ResourceExhaustedError(
          "no device session grant free, and no co-running query to free "
          "one");
    }
  }
}

}  // namespace smartssd::engine
