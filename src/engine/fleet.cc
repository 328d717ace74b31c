#include "engine/fleet.h"

#include <algorithm>
#include <utility>

#include "engine/partial_merge.h"
#include "engine/query_task.h"

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

// --- ExecuteOnFleet --------------------------------------------------------

namespace {

// The query-level instruments, recorded once per fleet query whatever
// its outcome.
Result<FleetQueryResult> FinishQuery(Fleet& fleet, SimTime start,
                                     SimTime end,
                                     Result<FleetQueryResult> result) {
  obs::MetricsRegistry& metrics = fleet.metrics();
  metrics.histogram("fleet.latency_ns")->Record(end - start);
  metrics.counter(result.ok() ? "fleet.completed" : "fleet.failed")->Add();
  fleet.UpdateBreakerGauges();
  return result;
}

}  // namespace

Result<FleetQueryResult> ExecuteOnFleet(Fleet& fleet,
                                        const exec::QuerySpec& spec,
                                        ExecutionTarget target,
                                        SimTime start) {
  Status valid = ValidateMergeable(spec);
  if (valid.ok() && !fleet.IsPartitioned(spec.table)) {
    valid = InvalidArgumentError("fleet query over table '" + spec.table +
                                 "' which was not partition-loaded");
  }
  if (!valid.ok()) {
    return FinishQuery(fleet, start, start, std::move(valid));
  }

  obs::MetricsRegistry& metrics = fleet.metrics();
  obs::Tracer* tracer = fleet.tracer();
  std::vector<QueryResult> partials;
  partials.reserve(static_cast<std::size_t>(fleet.devices()));
  SimTime last_done = start;
  for (int d = 0; d < fleet.devices(); ++d) {
    Database& db = fleet.device(d);
    const obs::TrackId track =
        tracer != nullptr
            ? tracer->RegisterTrack("fleet", "dev" + std::to_string(d))
            : 0;
    ExecutionTarget partition_target = target;
    bool redispatched = false;
    if (target == ExecutionTarget::kSmartSsd && db.smart_capable()) {
      // Breaker-aware re-dispatch: a tripped device's partition goes
      // straight to its host path instead of burning a doomed session;
      // once the cooldown elapses, the partition is the half-open probe.
      DeviceCircuitBreaker& breaker = db.circuit_breaker();
      const DeviceCircuitBreaker::State before = breaker.state();
      if (breaker.ShouldBypass(start)) {
        partition_target = ExecutionTarget::kHost;
        redispatched = true;
        metrics.counter("fleet.redispatches")->Add();
        if (tracer != nullptr) {
          tracer->Instant(track, "redispatch to host", "fleet", start);
        }
      } else if (before != DeviceCircuitBreaker::State::kClosed) {
        metrics.counter("fleet.breaker_probes")->Add();
      }
    }
    QueryTask task(&db, &spec, partition_target, start);
    SimTime done = start;
    Result<QueryResult> partial = RunToCompletion(task, &done);

    if (!partial.ok()) {
      // The task carries its own in-query host fallback, so a failure
      // means the device and host paths both died, or the device had no
      // session grant free: the partition is unavailable and the query
      // fails. Later partitions never start.
      metrics.counter("fleet.unavailable_partitions")->Add();
      if (tracer != nullptr) {
        tracer->Instant(
            track, "partition unavailable", "fleet", done,
            {obs::Arg::Str("error", partial.status().message())});
      }
      return FinishQuery(
          fleet, start, done,
          AbortedError("partition " + std::to_string(d) +
                       " unavailable on every path: " +
                       std::string(partial.status().message())));
    }

    const QueryStats& stats = partial.value().stats;
    if (stats.fell_back) metrics.counter("fleet.subquery_fallbacks")->Add();
    metrics.histogram("fleet.subquery_latency_ns")->Record(done - start);
    if (tracer != nullptr) {
      std::vector<obs::Arg> args{
          obs::Arg::Str("target", ExecutionTargetName(stats.target))};
      if (redispatched) args.push_back(obs::Arg::Uint("redispatched", 1));
      if (stats.fell_back) args.push_back(obs::Arg::Uint("fell_back", 1));
      tracer->Complete(track, "subquery", "fleet", start, done,
                       std::move(args));
    }
    last_done = std::max(last_done, done);
    partials.push_back(std::move(partial).value());
  }

  // Merge order is fixed by partition id, so fallbacks cannot perturb
  // the bytes.
  std::vector<const QueryResult*> ordered;
  for (const QueryResult& partial : partials) ordered.push_back(&partial);
  MergedPartials merged =
      MergePartialResults(spec, partials.front().output_schema, ordered);

  FleetQueryResult result;
  result.output_schema = partials.front().output_schema;
  result.rows = std::move(merged.rows);
  result.agg_values = std::move(merged.agg_values);
  result.start = start;
  // Merge cost on the coordinator's CPU (device 0's host machine stands
  // in for the single physical host).
  result.end = fleet.device(0).host().Execute(
      MergeCostCycles(merged.input_rows, merged.input_bytes), last_done,
      "fleet merge");
  for (QueryResult& partial : partials) {
    result.partition_stats.push_back(std::move(partial.stats));
  }
  const SimTime end = result.end;
  return FinishQuery(fleet, start, end, std::move(result));
}

}  // namespace smartssd::engine
