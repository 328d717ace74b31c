#include "engine/fleet.h"

#include <algorithm>
#include <utility>

#include "engine/partial_merge.h"

namespace smartssd::engine {

std::uint64_t DeviceFaultSeed(std::uint64_t fleet_seed, int device_id) {
  // Same splitmix64-style stateless mix as check::table_gen: the seed is
  // a pure function of its inputs, never of load or dispatch order.
  std::uint64_t x = fleet_seed * 0x9E3779B97F4A7C15ULL +
                    (static_cast<std::uint64_t>(device_id) + 1) *
                        0xBF58476D1CE4E5B9ULL;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

// --- Fleet -----------------------------------------------------------------

Fleet::Fleet(int devices, const DatabaseOptions& options,
             std::uint64_t fleet_seed) {
  SMARTSSD_CHECK_GT(devices, 0);
  for (int i = 0; i < devices; ++i) {
    devices_.push_back(std::make_unique<Database>(options));
  }
  Init(fleet_seed);
}

Fleet::Fleet(const std::vector<DatabaseOptions>& options,
             std::uint64_t fleet_seed) {
  SMARTSSD_CHECK(!options.empty());
  for (const DatabaseOptions& opts : options) {
    devices_.push_back(std::make_unique<Database>(opts));
  }
  Init(fleet_seed);
}

void Fleet::Init(std::uint64_t fleet_seed) {
  fleet_seed_ = fleet_seed;
  for (int i = 0; i < devices(); ++i) {
    if (ssd::SsdDevice* ssd = devices_[static_cast<std::size_t>(i)]->ssd()) {
      ssd->set_name("ssd" + std::to_string(i));
    }
  }
  UpdateBreakerGauges();
}

Status Fleet::LoadPartitionedTable(const std::string& name,
                                   const storage::Schema& schema,
                                   storage::PageLayout layout,
                                   std::uint64_t row_count,
                                   const storage::RowGenerator& gen) {
  const std::uint64_t n = static_cast<std::uint64_t>(devices());
  for (std::uint64_t d = 0; d < n; ++d) {
    const std::uint64_t first = row_count * d / n;
    const std::uint64_t last = row_count * (d + 1) / n;
    // The generator sees global row indexes, so each cell is identical
    // to the one a single-device load would produce.
    auto wrapped = [&gen, first](std::uint64_t row,
                                 storage::TupleWriter& writer) {
      gen(first + row, writer);
    };
    SMARTSSD_RETURN_IF_ERROR(
        devices_[d]
            ->LoadTable(name, schema, layout, last - first, wrapped)
            .status());
  }
  if (std::find(partitioned_.begin(), partitioned_.end(), name) ==
      partitioned_.end()) {
    partitioned_.push_back(name);
  }
  return Status::OK();
}

Status Fleet::LoadReplicatedTable(const std::string& name,
                                  const storage::Schema& schema,
                                  storage::PageLayout layout,
                                  std::uint64_t row_count,
                                  const storage::RowGenerator& gen) {
  for (auto& db : devices_) {
    SMARTSSD_RETURN_IF_ERROR(
        db->LoadTable(name, schema, layout, row_count, gen).status());
  }
  return Status::OK();
}

bool Fleet::IsPartitioned(const std::string& name) const {
  return std::find(partitioned_.begin(), partitioned_.end(), name) !=
         partitioned_.end();
}

Status Fleet::BuildZoneMaps(const std::string& table) {
  for (auto& db : devices_) {
    SMARTSSD_RETURN_IF_ERROR(db->BuildZoneMap(table));
  }
  return Status::OK();
}

void Fleet::ResetForColdRun() {
  for (auto& db : devices_) db->ResetForColdRun();
}

void Fleet::LoadFaultSchedule(int device, sim::FaultSchedule schedule) {
  ssd::SsdDevice* ssd = devices_[static_cast<std::size_t>(device)]->ssd();
  SMARTSSD_CHECK(ssd != nullptr);
  schedule.seed = device_fault_seed(device);
  ssd->fault_injector().Load(std::move(schedule));
}

void Fleet::ClearFaults() {
  for (auto& db : devices_) {
    if (ssd::SsdDevice* ssd = db->ssd()) ssd->fault_injector().Clear();
  }
}

void Fleet::AttachTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (int i = 0; i < devices(); ++i) {
    const std::string tag = std::to_string(i);
    devices_[static_cast<std::size_t>(i)]->AttachTracer(
        tracer, "fleet-dev" + tag, "fleet-host" + tag);
  }
}

void Fleet::UpdateBreakerGauges() {
  for (int i = 0; i < devices(); ++i) {
    const DeviceCircuitBreaker& breaker =
        devices_[static_cast<std::size_t>(i)]->circuit_breaker();
    const std::string prefix = "fleet.dev" + std::to_string(i);
    metrics_.gauge(prefix + ".breaker_state")
        ->Set(static_cast<std::int64_t>(breaker.state()));
    metrics_.gauge(prefix + ".breaker_trips")
        ->Set(static_cast<std::int64_t>(breaker.trips()));
  }
}

std::uint64_t Fleet::TotalBreakerTrips() const {
  std::uint64_t total = 0;
  for (const auto& db : devices_) total += db->circuit_breaker().trips();
  return total;
}

// --- FleetCoordinator ------------------------------------------------------

namespace {

// Fleet queries admitted at once (each fans out one subquery per
// device); arrivals beyond this wait in a FIFO queue.
constexpr int kMaxQueriesInFlight = 8;
// Park a device-path subquery at the host while its device's session
// thread pool is empty instead of eating an OPEN rejection.
constexpr bool kWaitForGrant = true;

}  // namespace

FleetCoordinator::FleetCoordinator(Fleet* fleet)
    : fleet_(fleet), events_(&clock_), tracer_(fleet->tracer()) {
  SMARTSSD_CHECK(fleet != nullptr);
  if (tracer_ != nullptr) {
    for (int i = 0; i < fleet_->devices(); ++i) {
      device_tracks_.push_back(
          tracer_->RegisterTrack("fleet", "dev" + std::to_string(i)));
    }
  }
}

std::size_t FleetCoordinator::AddSource(FleetQueryConfig config) {
  SMARTSSD_CHECK(config.spec != nullptr);
  sources_.push_back(Source{.config = std::move(config)});
  if (tracer_ != nullptr) {
    sources_.back().track =
        tracer_->RegisterTrack("fleet", sources_.back().config.client);
  }
  return sources_.size() - 1;
}

std::uint64_t FleetCoordinator::Submit(FleetQueryConfig config,
                                       SimTime at) {
  SMARTSSD_CHECK(!ran_);
  const std::size_t source = AddSource(std::move(config));
  const std::uint64_t id = next_id_++;
  ++expected_;
  ScheduleArrival(source, at, id);
  return id;
}

void FleetCoordinator::AddClosedLoopClient(FleetQueryConfig config,
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

void FleetCoordinator::ScheduleArrival(std::size_t source, SimTime at,
                                       std::uint64_t id) {
  events_.ScheduleAt(std::max(clock_.now(), at),
                     [this, source, id](SimTime now) {
                       OnArrival(source, now, id);
                     });
}

void FleetCoordinator::OnArrival(std::size_t source, SimTime arrival,
                                 std::uint64_t id) {
  if (in_flight_ < kMaxQueriesInFlight) {
    StartQuery(source, arrival, /*admitted=*/arrival, id);
    return;
  }
  admission_queue_.push_back(
      PendingArrival{.source = source, .arrival = arrival, .id = id});
}

void FleetCoordinator::StartQuery(std::size_t source, SimTime arrival,
                                  SimTime admitted, std::uint64_t id) {
  const Source& src = sources_[source];
  const exec::QuerySpec& spec = *src.config.spec;
  auto q = std::make_shared<FleetQuery>();
  q->id = id;
  q->source = source;
  q->arrival = arrival;
  q->admitted = admitted;
  q->last_done = admitted;
  ++in_flight_;

  Status valid = ValidateMergeable(spec);
  if (valid.ok() && !fleet_->IsPartitioned(spec.table)) {
    valid = InvalidArgumentError("fleet query over table '" + spec.table +
                                 "' which was not partition-loaded");
  }
  if (!valid.ok()) {
    CompleteRecord(q, admitted, std::move(valid));
    return;
  }

  const int n = fleet_->devices();
  q->subs.resize(static_cast<std::size_t>(n));
  q->outstanding = n;
  for (int d = 0; d < n; ++d) {
    Subquery& sub = q->subs[static_cast<std::size_t>(d)];
    sub.record.device = d;
    sub.record.start = admitted;
    Database& db = fleet_->device(d);
    std::optional<ExecutionTarget> target = src.config.target;
    if (target == ExecutionTarget::kSmartSsd && db.smart_capable()) {
      // Breaker-aware re-dispatch: a tripped device's partition goes
      // straight to its host path instead of burning a doomed session;
      // once the cooldown elapses, exactly one subquery is admitted as
      // the half-open probe while co-arrivals keep bypassing.
      DeviceCircuitBreaker& breaker = db.circuit_breaker();
      const DeviceCircuitBreaker::State before = breaker.state();
      if (breaker.ShouldBypass(admitted)) {
        target = ExecutionTarget::kHost;
        sub.record.redispatched = true;
        ++redispatches_;
        fleet_->metrics().counter("fleet.redispatches")->Add();
        if (tracer_ != nullptr) {
          tracer_->Instant(device_tracks_[static_cast<std::size_t>(d)],
                           "redispatch to host", "fleet", admitted,
                           {obs::Arg::Uint("query", id)});
        }
      } else if (before != DeviceCircuitBreaker::State::kClosed) {
        ++breaker_probes_;
        fleet_->metrics().counter("fleet.breaker_probes")->Add();
      }
    }
    sub.task = std::make_unique<QueryTask>(&db, src.config.spec, target,
                                           src.config.hints, admitted,
                                           kWaitForGrant);
  }
  for (int d = 0; d < n; ++d) {
    ScheduleStep(q, static_cast<std::size_t>(d), admitted);
  }
}

void FleetCoordinator::ScheduleStep(std::shared_ptr<FleetQuery> q,
                                    std::size_t sub, SimTime at) {
  // Some steps retire in the virtual past (cached pages, pruned pages):
  // clamp to the coordinator's now.
  events_.ScheduleAt(std::max(clock_.now(), at),
                     [this, q = std::move(q), sub](SimTime) {
                       OnStep(q, sub);
                     });
}

void FleetCoordinator::OnStep(const std::shared_ptr<FleetQuery>& q,
                              std::size_t sub_idx) {
  QueryTask* task = q->subs[sub_idx].task.get();
  // A null task is a stale event: the whole query was cancelled.
  if (task == nullptr) return;
  const StepOutcome outcome = task->Step();
  if (outcome.waiting_for_grant) {
    parked_.push_back(Parked{.query = q, .sub = sub_idx});
    return;
  }
  if (outcome.finished) {
    OnSubqueryComplete(q, sub_idx, outcome.at);
  } else {
    ScheduleStep(q, sub_idx, outcome.at);
  }
  // This step may have released a session grant (CLOSE, failure,
  // cancellation); wake parked tasks while grants are free.
  TryUnpark();
}

void FleetCoordinator::OnSubqueryComplete(
    const std::shared_ptr<FleetQuery>& q, std::size_t sub_idx, SimTime at) {
  Subquery& sub = q->subs[sub_idx];
  const int device = sub.record.device;
  Result<QueryResult> result = sub.task->TakeResult();
  sub.task.reset();
  sub.record.end = at;

  if (!result.ok()) {
    // The task carries its own in-query host fallback, so a failure
    // means the device and host paths both died: the partition is
    // unavailable and the query fails.
    sub.record.unavailable = true;
    ++unavailable_partitions_;
    fleet_->metrics().counter("fleet.unavailable_partitions")->Add();
    if (tracer_ != nullptr) {
      tracer_->Instant(device_tracks_[static_cast<std::size_t>(device)],
                       "partition unavailable", "fleet",
                       std::max(clock_.now(), at),
                       {obs::Arg::Uint("query", q->id),
                        obs::Arg::Str("error", result.status().message())});
    }
    // Cancel the surviving subqueries: their results can no longer
    // matter, and destroying the tasks hands session grants back.
    for (Subquery& other : q->subs) other.task.reset();
    CompleteRecord(q, at,
                   AbortedError("partition " + std::to_string(device) +
                                " unavailable on every path: " +
                                std::string(result.status().message())));
    return;
  }

  sub.result = std::move(result).value();
  q->last_done = std::max(q->last_done, at);
  if (sub.result->stats.fell_back) {
    sub.record.fell_back = true;
    ++subquery_fallbacks_;
    fleet_->metrics().counter("fleet.subquery_fallbacks")->Add();
  }
  fleet_->metrics()
      .histogram("fleet.subquery_latency_ns")
      ->Record(at - sub.record.start);
  if (tracer_ != nullptr) {
    std::vector<obs::Arg> args{
        obs::Arg::Uint("query", q->id),
        obs::Arg::Str("target",
                      ExecutionTargetName(sub.result->stats.target))};
    if (sub.record.redispatched) {
      args.push_back(obs::Arg::Uint("redispatched", 1));
    }
    if (sub.record.fell_back) {
      args.push_back(obs::Arg::Uint("fell_back", 1));
    }
    tracer_->Complete(device_tracks_[static_cast<std::size_t>(device)],
                      "subquery", "fleet", sub.record.start, at,
                      std::move(args));
  }
  if (--q->outstanding == 0) FinishQuery(q);
}

void FleetCoordinator::FinishQuery(const std::shared_ptr<FleetQuery>& q) {
  const exec::QuerySpec& spec = *sources_[q->source].config.spec;
  // Merge order is fixed by partition id — never completion order — so
  // fallbacks and interleavings cannot perturb the bytes.
  std::vector<const QueryResult*> ordered;
  for (const Subquery& sub : q->subs) ordered.push_back(&*sub.result);
  MergedPartials merged =
      MergePartialResults(spec, ordered.front()->output_schema, ordered);

  FleetQueryResult result;
  result.output_schema = ordered.front()->output_schema;
  result.rows = std::move(merged.rows);
  result.agg_values = std::move(merged.agg_values);
  result.start = q->admitted;
  // Merge cost on the coordinator's CPU (device 0's host machine stands
  // in for the single physical host).
  result.end = fleet_->device(0).host().Execute(
      MergeCostCycles(merged.input_rows, merged.input_bytes),
      q->last_done, "fleet merge");
  for (const Subquery& sub : q->subs) {
    result.partition_stats.push_back(sub.result->stats);
  }
  const SimTime end = result.end;
  CompleteRecord(q, end, std::move(result));
}

void FleetCoordinator::CompleteRecord(const std::shared_ptr<FleetQuery>& q,
                                      SimTime end,
                                      Result<FleetQueryResult> result) {
  const Source& src = sources_[q->source];
  CompletedFleetQuery record;
  record.id = q->id;
  record.client = src.config.client;
  record.query_name = src.config.spec->name;
  record.arrival = q->arrival;
  record.admitted = q->admitted;
  record.end = end;
  record.result = std::move(result);
  record.subqueries.reserve(q->subs.size());
  for (const Subquery& sub : q->subs) {
    record.subqueries.push_back(sub.record);
  }

  obs::MetricsRegistry& metrics = fleet_->metrics();
  metrics.histogram("fleet.latency_ns")->Record(record.latency());
  metrics.histogram("fleet.queue_wait_ns")->Record(record.queue_wait());
  std::vector<obs::Arg> span_args{obs::Arg::Uint("id", record.id)};
  if (record.result.ok()) {
    metrics.counter("fleet.completed")->Add();
  } else {
    metrics.counter("fleet.failed")->Add();
    span_args.push_back(
        obs::Arg::Str("error", record.result.status().message()));
  }
  if (tracer_ != nullptr) {
    tracer_->Complete(src.track, record.query_name, "fleet",
                      record.arrival, record.end, std::move(span_args));
  }
  completed_.push_back(std::move(record));
  --in_flight_;
  fleet_->UpdateBreakerGauges();

  Source& mutable_src = sources_[q->source];
  if (mutable_src.closed_loop && mutable_src.remaining > 0) {
    --mutable_src.remaining;
    ScheduleArrival(q->source, end + mutable_src.think_time, next_id_++);
  }
  if (!admission_queue_.empty() && in_flight_ < kMaxQueriesInFlight) {
    const PendingArrival next = admission_queue_.front();
    admission_queue_.pop_front();
    StartQuery(next.source, next.arrival, /*admitted=*/end, next.id);
  }
}

void FleetCoordinator::TryUnpark() {
  if (parked_.empty()) return;
  // Each parked entry waits on its own device's session pool; re-step
  // those whose device has a free grant (the task re-checks on its next
  // step and simply parks again if another task races it to the slot).
  // Entries whose task was cancelled while parked are dropped here.
  const std::size_t n = parked_.size();
  for (std::size_t i = 0; i < n; ++i) {
    Parked p = std::move(parked_.front());
    parked_.pop_front();
    const Subquery& sub = p.query->subs[p.sub];
    if (sub.task == nullptr) continue;
    smart::SmartSsdRuntime* runtime =
        fleet_->device(sub.record.device).runtime();
    if (runtime != nullptr && runtime->session_slots_free() > 0) {
      ScheduleStep(p.query, p.sub, clock_.now());
    } else {
      parked_.push_back(std::move(p));
    }
  }
}

Result<std::vector<CompletedFleetQuery>> FleetCoordinator::Run() {
  SMARTSSD_CHECK(!ran_);
  ran_ = true;
  events_.RunUntilEmpty();
  fleet_->UpdateBreakerGauges();
  bool stuck_parked = false;
  for (const Parked& p : parked_) {
    if (p.query->subs[p.sub].task != nullptr) stuck_parked = true;
  }
  if (completed_.size() != expected_ || in_flight_ != 0 || stuck_parked ||
      !admission_queue_.empty()) {
    return InternalError(
        "fleet coordinator deadlocked: queries stuck parked or queued "
        "with no runnable events");
  }
  return std::move(completed_);
}

Result<FleetQueryResult> ExecuteOnFleet(Fleet& fleet,
                                        const exec::QuerySpec& spec,
                                        ExecutionTarget target,
                                        SimTime start) {
  FleetCoordinator coordinator(&fleet);
  FleetQueryConfig config;
  config.client = "fleet-exec";
  config.spec = &spec;
  config.target = target;
  coordinator.Submit(std::move(config), start);
  SMARTSSD_ASSIGN_OR_RETURN(std::vector<CompletedFleetQuery> completed,
                            coordinator.Run());
  SMARTSSD_CHECK_EQ(completed.size(), 1u);
  return std::move(completed.front().result);
}

}  // namespace smartssd::engine
