#include "engine/workload.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace smartssd::engine {

WorkloadScheduler::WorkloadScheduler(Database* db)
    : db_(db), tracer_(db->tracer()) {
  SMARTSSD_CHECK(db != nullptr);
}

WorkloadScheduler::Client* WorkloadScheduler::AddClient(
    ClientConfig config, int remaining, SimDuration think_time) {
  clients_.push_back(Client{.config = std::move(config),
                            .remaining = remaining,
                            .think_time = think_time});
  Client& client = clients_.back();
  if (tracer_ != nullptr) {
    // Idempotent per (process, thread): clients sharing a name share a
    // lane.
    const std::string& name = std::visit(
        [](const auto& c) -> const std::string& { return c.client; },
        client.config);
    client.track = tracer_->RegisterTrack("workload", name);
  }
  return &client;
}

std::uint64_t WorkloadScheduler::Submit(WorkloadQueryConfig config,
                                        SimTime at) {
  SMARTSSD_CHECK(!ran_);
  Client* client = AddClient(std::move(config), 0, 0);
  ++expected_;
  return ScheduleArrival(client, at);
}

void WorkloadScheduler::AddClosedLoopClient(WorkloadQueryConfig config,
                                            int count,
                                            SimDuration think_time,
                                            SimTime first_arrival) {
  AddClosedLoop(std::move(config), count, think_time, first_arrival);
}

void WorkloadScheduler::AddIngestClient(IngestClientConfig config,
                                        int count, SimDuration think_time,
                                        SimTime first_arrival) {
  AddClosedLoop(std::move(config), count, think_time, first_arrival);
}

void WorkloadScheduler::AddClosedLoop(ClientConfig config, int count,
                                      SimDuration think_time,
                                      SimTime first_arrival) {
  SMARTSSD_CHECK(!ran_);
  if (count <= 0) return;
  Client* client = AddClient(std::move(config), count - 1, think_time);
  expected_ += static_cast<std::uint64_t>(count);
  ScheduleArrival(client, first_arrival);
}

void WorkloadScheduler::AddOpenLoopClient(WorkloadQueryConfig config,
                                          int count,
                                          SimDuration inter_arrival,
                                          SimTime first_arrival) {
  SMARTSSD_CHECK(!ran_);
  if (count <= 0) return;
  Client* client = AddClient(std::move(config), 0, 0);
  expected_ += static_cast<std::uint64_t>(count);
  for (int i = 0; i < count; ++i) {
    ScheduleArrival(client, first_arrival + static_cast<SimDuration>(i) *
                                                inter_arrival);
  }
}

std::uint64_t WorkloadScheduler::ScheduleArrival(Client* client,
                                                 SimTime at) {
  auto task = std::make_unique<Task>();
  task->id = next_id_++;
  task->client = client;
  const std::uint64_t id = task->id;
  Schedule(Event::Kind::kArrival, std::move(task), at);
  return id;
}

void WorkloadScheduler::Schedule(Event::Kind kind,
                                 std::unique_ptr<Task> task, SimTime at) {
  // Some steps retire in the virtual past (cached pages, pruned pages,
  // polls overlapped with processing): clamp to the scheduler's now.
  events_.push_back(Event{.at = std::max(now_, at),
                          .seq = next_seq_++,
                          .kind = kind,
                          .task = std::move(task)});
  std::ranges::push_heap(events_, std::greater<>{});
}

void WorkloadScheduler::OnArrival(std::unique_ptr<Task> task) {
  task->arrival = now_;
  if (const auto* batch =
          std::get_if<IngestClientConfig>(&task->client->config)) {
    // Ingest batches never hold a query slot: they start on arrival.
    task->ingest = std::make_unique<IngestTask>(db_, &batch->spec, now_);
    Schedule(Event::Kind::kStep, std::move(task), now_);
  } else if (in_flight_ < kMaxQueriesInFlight) {
    StartQuery(std::move(task), /*admitted=*/now_);
  } else {
    admission_queue_.push_back(std::move(task));
  }
}

void WorkloadScheduler::StartQuery(std::unique_ptr<Task> task,
                                   SimTime admitted) {
  const auto& config = std::get<WorkloadQueryConfig>(task->client->config);
  task->admitted = admitted;
  task->query = std::make_unique<QueryTask>(db_, &config.spec,
                                            config.target, admitted);
  ++in_flight_;
  peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
  Schedule(Event::Kind::kStep, std::move(task), admitted);
}

void WorkloadScheduler::OnStep(std::unique_ptr<Task> task) {
  const bool query = task->query != nullptr;
  const StepOutcome outcome =
      query ? task->query->Step() : task->ingest->Step();
  if (outcome.waiting_for_grant) {
    // Only a query step parks. No device traffic was issued; the task
    // sleeps until a session grant frees (TryUnpark after some other
    // query's step releases one).
    parked_.push_back(std::move(task));
    return;
  }
  if (!outcome.finished) {
    Schedule(Event::Kind::kStep, std::move(task), outcome.at);
  } else {
    const SimTime end = outcome.at;
    if (query) {
      RecordQuery(*task, end);
      --in_flight_;
    } else {
      RecordIngest(*task, end);
    }
    // Closed-loop clients think, then send the next arrival.
    Client& client = *task->client;
    if (client.remaining > 0) {
      --client.remaining;
      ScheduleArrival(&client, end + client.think_time);
    }
    // The freed admission slot goes to the longest-waiting arrival; its
    // query starts when the finishing query's result was delivered.
    if (query && !admission_queue_.empty() &&
        in_flight_ < kMaxQueriesInFlight) {
      std::unique_ptr<Task> next = std::move(admission_queue_.front());
      admission_queue_.pop_front();
      StartQuery(std::move(next), /*admitted=*/end);
    }
  }
  // This step may have released a session grant (CLOSE, session failure,
  // completion); wake parked tasks while grants are free.
  if (query) TryUnpark();
}

void WorkloadScheduler::RecordQuery(const Task& task, SimTime end) {
  const Client& client = *task.client;
  const auto& config = std::get<WorkloadQueryConfig>(client.config);
  CompletedQuery record;
  record.id = task.id;
  record.client = config.client;
  record.query_name = config.spec.name;
  record.arrival = task.arrival;
  record.admitted = task.admitted;
  record.end = end;
  record.result = task.query->TakeResult();

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
    tracer_->Complete(client.track, record.query_name, "workload",
                      record.arrival, record.end, std::move(span_args));
  }
  completed_.push_back(std::move(record));
}

void WorkloadScheduler::RecordIngest(const Task& task, SimTime end) {
  const Client& client = *task.client;
  const auto& config = std::get<IngestClientConfig>(client.config);
  CompletedIngest record;
  record.id = task.id;
  record.client = config.client;
  record.arrival = task.arrival;
  record.end = end;
  record.result = task.ingest->TakeResult();

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
    tracer_->Complete(client.track, "ingest:" + config.spec.table,
                      "workload", record.arrival, record.end,
                      std::move(span_args));
  }
  completed_ingests_.push_back(std::move(record));
}

void WorkloadScheduler::TryUnpark() {
  if (parked_.empty() || db_->runtime() == nullptr) return;
  // While the breaker is open the device is failing: no healthy session
  // is coming to free a grant, so waiting on slot counts could strand
  // every parked task until the scheduler drains and reports a
  // deadlock. Wake them all; each task sees the open breaker on its next
  // step and redispatches itself to the host
  // (DeviceQueryTask::StepSession). Otherwise wake one task per free
  // grant: each re-checks grant availability on its next step, and if
  // another task takes the slot first it simply parks again.
  std::size_t wake =
      db_->circuit_breaker().open()
          ? parked_.size()
          : static_cast<std::size_t>(
                std::max(0, db_->runtime()->session_slots_free()));
  for (; wake > 0 && !parked_.empty(); --wake) {
    Schedule(Event::Kind::kStep, std::move(parked_.front()), now_);
    parked_.pop_front();
  }
}

Result<std::vector<CompletedQuery>> WorkloadScheduler::Run() {
  SMARTSSD_CHECK(!ran_);
  ran_ = true;
  while (!events_.empty()) {
    std::ranges::pop_heap(events_, std::greater<>{});
    Event event = std::move(events_.back());
    events_.pop_back();
    now_ = event.at;
    if (event.kind == Event::Kind::kArrival) {
      OnArrival(std::move(event.task));
    } else {
      OnStep(std::move(event.task));
    }
  }
  // Every event has run, so any task left is parked or queued.
  if (completed_.size() + completed_ingests_.size() != expected_) {
    return InternalError(
        "workload scheduler deadlocked: queries stuck parked or queued "
        "with no runnable events");
  }
  return std::move(completed_);
}

}  // namespace smartssd::engine
