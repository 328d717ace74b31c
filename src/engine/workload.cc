#include "engine/workload.h"

#include <algorithm>
#include <utility>

namespace smartssd::engine {

WorkloadScheduler::WorkloadScheduler(Database* db)
    : db_(db), events_(&clock_), tracer_(db->tracer()) {
  SMARTSSD_CHECK(db != nullptr);
}

std::size_t WorkloadScheduler::AddSource(WorkloadQueryConfig config) {
  sources_.push_back(Source{.config = std::move(config)});
  if (tracer_ != nullptr) {
    // Idempotent per (process, thread): clients sharing a name share a
    // lane.
    sources_.back().track =
        tracer_->RegisterTrack("workload", sources_.back().config.client);
  }
  return sources_.size() - 1;
}

std::uint64_t WorkloadScheduler::Submit(WorkloadQueryConfig config,
                                        SimTime at) {
  SMARTSSD_CHECK(!ran_);
  const std::size_t source = AddSource(std::move(config));
  const std::uint64_t id = next_id_++;
  ++expected_;
  ScheduleArrival(source, at, id);
  return id;
}

void WorkloadScheduler::AddClosedLoopClient(WorkloadQueryConfig config,
                                            int count,
                                            SimDuration think_time,
                                            SimTime first_arrival) {
  SMARTSSD_CHECK(!ran_);
  if (count <= 0) return;
  const std::size_t source = AddSource(std::move(config));
  Source& src = sources_[source];
  src.closed_loop = true;
  src.remaining = count - 1;
  src.think_time = think_time;
  expected_ += static_cast<std::uint64_t>(count);
  ScheduleArrival(source, first_arrival, next_id_++);
}

void WorkloadScheduler::AddOpenLoopClient(WorkloadQueryConfig config,
                                          int count,
                                          SimDuration inter_arrival,
                                          SimTime first_arrival) {
  SMARTSSD_CHECK(!ran_);
  if (count <= 0) return;
  const std::size_t source = AddSource(std::move(config));
  expected_ += static_cast<std::uint64_t>(count);
  for (int i = 0; i < count; ++i) {
    ScheduleArrival(source,
                    first_arrival + static_cast<SimDuration>(i) *
                                        inter_arrival,
                    next_id_++);
  }
}

void WorkloadScheduler::AddIngestClient(IngestClientConfig config,
                                        int count, SimDuration think_time,
                                        SimTime first_arrival) {
  SMARTSSD_CHECK(!ran_);
  if (count <= 0) return;
  ingest_sources_.push_back(IngestSource{.config = std::move(config)});
  IngestSource& src = ingest_sources_.back();
  if (tracer_ != nullptr) {
    src.track = tracer_->RegisterTrack("workload", src.config.client);
  }
  src.remaining = count - 1;
  src.think_time = think_time;
  expected_ingests_ += static_cast<std::uint64_t>(count);
  ScheduleIngestArrival(ingest_sources_.size() - 1, first_arrival,
                        next_id_++);
}

void WorkloadScheduler::ScheduleIngestArrival(std::size_t source,
                                              SimTime at, std::uint64_t id) {
  events_.ScheduleAt(std::max(clock_.now(), at),
                     [this, source, id](SimTime now) {
                       const IngestSource& src = ingest_sources_[source];
                       auto b = std::make_shared<RunningIngest>();
                       b->id = id;
                       b->source = source;
                       b->arrival = now;
                       b->task = std::make_unique<IngestTask>(
                           db_, &src.config.spec, now);
                       ++ingest_in_flight_;
                       ScheduleIngestStep(std::move(b), now);
                     });
}

void WorkloadScheduler::ScheduleIngestStep(std::shared_ptr<RunningIngest> b,
                                           SimTime at) {
  events_.ScheduleAt(std::max(clock_.now(), at),
                     [this, b = std::move(b)](SimTime) { OnIngestStep(b); });
}

void WorkloadScheduler::OnIngestStep(
    const std::shared_ptr<RunningIngest>& b) {
  const StepOutcome outcome = b->task->Step();
  if (outcome.finished) {
    OnIngestComplete(b, outcome.at);
  } else {
    ScheduleIngestStep(b, outcome.at);
  }
}

void WorkloadScheduler::OnIngestComplete(
    const std::shared_ptr<RunningIngest>& b, SimTime end) {
  IngestSource& src = ingest_sources_[b->source];
  CompletedIngest record;
  record.id = b->id;
  record.client = src.config.client;
  record.arrival = b->arrival;
  record.end = end;
  record.result = b->task->TakeResult();

  obs::MetricsRegistry& metrics = db_->metrics();
  metrics.histogram("workload.ingest_latency_ns")->Record(record.latency());
  std::vector<obs::Arg> span_args{obs::Arg::Uint("id", record.id)};
  if (record.result.ok()) {
    const IngestStats& stats = record.result.value();
    metrics.counter("workload.ingest_completed")->Add();
    metrics.counter("workload.rows_updated")->Add(stats.rows_updated);
    metrics.counter("workload.rows_appended")->Add(stats.rows_appended);
    span_args.push_back(obs::Arg::Uint("rows_updated", stats.rows_updated));
    span_args.push_back(
        obs::Arg::Uint("rows_appended", stats.rows_appended));
    span_args.push_back(
        obs::Arg::Uint("pages_flushed", stats.pages_flushed));
  } else {
    metrics.counter("workload.ingest_failed")->Add();
    span_args.push_back(
        obs::Arg::Str("error", record.result.status().message()));
  }
  if (tracer_ != nullptr) {
    tracer_->Complete(src.track, "ingest:" + src.config.spec.table,
                      "workload", record.arrival, record.end,
                      std::move(span_args));
  }
  completed_ingests_.push_back(std::move(record));
  --ingest_in_flight_;

  if (src.remaining > 0) {
    --src.remaining;
    ScheduleIngestArrival(b->source, end + src.think_time, next_id_++);
  }
}

void WorkloadScheduler::ScheduleArrival(std::size_t source, SimTime at,
                                        std::uint64_t id) {
  events_.ScheduleAt(std::max(clock_.now(), at),
                     [this, source, id](SimTime now) {
                       OnArrival(source, now, id);
                     });
}

void WorkloadScheduler::OnArrival(std::size_t source, SimTime arrival,
                                  std::uint64_t id) {
  if (in_flight_ < kMaxQueriesInFlight) {
    StartQuery(source, arrival, /*admitted=*/arrival, id);
    return;
  }
  admission_queue_.push_back(
      PendingArrival{.source = source, .arrival = arrival, .id = id});
}

void WorkloadScheduler::StartQuery(std::size_t source, SimTime arrival,
                                   SimTime admitted, std::uint64_t id) {
  const Source& src = sources_[source];
  auto q = std::make_shared<Running>();
  q->id = id;
  q->source = source;
  q->arrival = arrival;
  q->admitted = admitted;
  q->task = std::make_unique<QueryTask>(db_, &src.config.spec,
                                        src.config.target, src.config.hints,
                                        admitted, /*wait_for_grant=*/true);
  ++in_flight_;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  ScheduleStep(std::move(q), admitted);
}

void WorkloadScheduler::ScheduleStep(std::shared_ptr<Running> q,
                                     SimTime at) {
  // Some steps retire in the virtual past (cached pages, pruned pages,
  // polls overlapped with processing): clamp to the scheduler's now.
  events_.ScheduleAt(std::max(clock_.now(), at),
                     [this, q = std::move(q)](SimTime) { OnStep(q); });
}

void WorkloadScheduler::OnStep(const std::shared_ptr<Running>& q) {
  const StepOutcome outcome = q->task->Step();
  if (outcome.waiting_for_grant) {
    // No device traffic was issued; the task sleeps until a session
    // grant frees (TryUnpark after some other query's step releases
    // one).
    parked_.push_back(q);
    return;
  }
  if (outcome.finished) {
    OnComplete(q, outcome.at);
  } else {
    ScheduleStep(q, outcome.at);
  }
  // This step may have released a session grant (CLOSE, session failure,
  // completion); wake parked tasks while grants are free.
  TryUnpark();
}

void WorkloadScheduler::OnComplete(const std::shared_ptr<Running>& q,
                                   SimTime end) {
  const Source& src = sources_[q->source];
  CompletedQuery record;
  record.id = q->id;
  record.client = src.config.client;
  record.query_name = src.config.spec.name;
  record.arrival = q->arrival;
  record.admitted = q->admitted;
  record.end = end;
  record.result = q->task->TakeResult();

  obs::MetricsRegistry& metrics = db_->metrics();
  metrics.histogram("workload.latency_ns")->Record(record.latency());
  metrics.histogram("workload.queue_wait_ns")->Record(record.queue_wait());
  std::vector<obs::Arg> span_args{
      obs::Arg::Uint("id", record.id),
      obs::Arg::Uint("queue_wait_ns", record.queue_wait())};
  if (record.result.ok()) {
    const QueryStats& stats = record.result.value().stats;
    metrics.counter("workload.completed")->Add();
    metrics
        .histogram(std::string("workload.latency_ns.") +
                   ExecutionTargetName(stats.target))
        ->Record(record.latency());
    if (stats.fell_back) metrics.counter("workload.fallbacks")->Add();
    span_args.push_back(
        obs::Arg::Str("target", ExecutionTargetName(stats.target)));
    if (stats.fell_back) span_args.push_back(obs::Arg::Uint("fell_back", 1));
  } else {
    metrics.counter("workload.failed")->Add();
    span_args.push_back(
        obs::Arg::Str("error", record.result.status().message()));
  }
  if (tracer_ != nullptr) {
    tracer_->Complete(src.track, record.query_name, "workload",
                      record.arrival, record.end, std::move(span_args));
  }
  completed_.push_back(std::move(record));
  --in_flight_;

  // Closed-loop clients think, then send the next query.
  Source& mutable_src = sources_[q->source];
  if (mutable_src.closed_loop && mutable_src.remaining > 0) {
    --mutable_src.remaining;
    ScheduleArrival(q->source, end + mutable_src.think_time, next_id_++);
  }
  // The freed admission slot goes to the longest-waiting arrival; its
  // query starts when the finishing query's result was delivered.
  if (!admission_queue_.empty() && in_flight_ < kMaxQueriesInFlight) {
    const PendingArrival next = admission_queue_.front();
    admission_queue_.pop_front();
    StartQuery(next.source, next.arrival, /*admitted=*/end, next.id);
  }
}

void WorkloadScheduler::TryUnpark() {
  if (parked_.empty() || db_->runtime() == nullptr) return;
  if (db_->circuit_breaker().open()) {
    // The device is failing: no healthy session is coming to free a
    // grant, so waiting on slot counts can strand every parked task
    // until the scheduler drains and reports a deadlock. Wake them all;
    // each task sees the open breaker on its next step and redispatches
    // itself to the host (DeviceQueryTask::StepSession).
    while (!parked_.empty()) {
      std::shared_ptr<Running> q = parked_.front();
      parked_.pop_front();
      ScheduleStep(std::move(q), clock_.now());
    }
    return;
  }
  int free = db_->runtime()->session_slots_free();
  while (free-- > 0 && !parked_.empty()) {
    std::shared_ptr<Running> q = parked_.front();
    parked_.pop_front();
    // The task re-checks grant availability on its next step; if another
    // task takes the slot first it simply parks again.
    ScheduleStep(std::move(q), clock_.now());
  }
}

Result<std::vector<CompletedQuery>> WorkloadScheduler::Run() {
  SMARTSSD_CHECK(!ran_);
  ran_ = true;
  events_.RunUntilEmpty();
  if (completed_.size() != expected_ || in_flight_ != 0 ||
      completed_ingests_.size() != expected_ingests_ ||
      ingest_in_flight_ != 0 || !parked_.empty() ||
      !admission_queue_.empty()) {
    return InternalError(
        "workload scheduler deadlocked: queries stuck parked or queued "
        "with no runnable events");
  }
  return std::move(completed_);
}

}  // namespace smartssd::engine
