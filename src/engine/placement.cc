#include "engine/placement.h"

#include <algorithm>
#include <cmath>

#include "engine/partial_merge.h"

namespace smartssd::engine {

namespace {

// Device share of a split scan, proportional to the estimated host
// cost: the side the cost model says is faster takes more pages, so
// both sides finish at roughly the same virtual time. Clamped so each
// side keeps at least one page (a degenerate fraction would just be a
// pure placement with extra merge overhead).
std::uint64_t SplitDevicePages(const PushdownPlanner& planner,
                               const exec::BoundQuery& bound,
                               const PlanHints& hints) {
  const std::uint64_t pages = bound.outer->page_count;
  const double host_s = planner.EstimateHostSeconds(bound, hints);
  const double smart_s = planner.EstimateSmartSeconds(bound, hints);
  double fraction = 0.5;
  if (std::isfinite(host_s) && std::isfinite(smart_s) &&
      host_s + smart_s > 0) {
    fraction = host_s / (host_s + smart_s);
  }
  const std::uint64_t device_pages = static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(pages)));
  return std::clamp<std::uint64_t>(device_pages, 1, pages - 1);
}

PlacementDecision HostDecision(std::string reason) {
  PlacementDecision decision;
  decision.target = ExecutionTarget::kHost;
  decision.reason = std::move(reason);
  return decision;
}

}  // namespace

bool SplittableScan(const exec::BoundQuery& bound) {
  const exec::QuerySpec& spec = *bound.spec;
  if (spec.join.has_value()) return false;
  if (spec.top_n.has_value()) return false;
  if (bound.outer->page_count < 2) return false;
  return ValidateMergeable(spec).ok();
}

Result<PlacementDecision> DecidePlacement(Database* db,
                                          const exec::BoundQuery& bound,
                                          const PlanHints& hints,
                                          PlacementPolicyKind policy,
                                          SimTime now) {
  SMARTSSD_CHECK(db != nullptr);
  const PushdownPlanner planner(db);
  if (policy == PlacementPolicyKind::kCostModel) {
    SMARTSSD_ASSIGN_OR_RETURN(const PlanDecision plan,
                              planner.Decide(bound, hints, now));
    PlacementDecision decision;
    decision.target = plan.target;
    decision.reason = plan.reason;
    return decision;
  }

  // kAdaptive. The device takes work while its session-grant pool has a
  // free firmware thread; once the pool is empty, new arrivals overflow
  // whole to the host instead of parking behind the grant queue, so a
  // loaded workload uses both sides' capacity at once.
  if (auto constraint = planner.DeviceConstraint(bound)) {
    return HostDecision(*constraint);
  }
  if (db->runtime()->session_slots_free() <= 0) {
    return HostDecision("session-grant pool empty: whole query to the host");
  }
  if (db->circuit_breaker().ShouldBypass(now)) {
    return HostDecision("breaker open: device excluded from placement");
  }
  PlacementDecision decision;
  decision.target = ExecutionTarget::kSmartSsd;
  if (!SplittableScan(bound)) {
    decision.reason = "session grant free: device path";
    return decision;
  }
  // Host takes the page-order prefix, device the suffix: the device
  // streams its extent through the internal path while the host works
  // the front of the table through the buffer pool.
  const std::uint64_t pages = bound.outer->page_count;
  const std::uint64_t device_pages = SplitDevicePages(planner, bound, hints);
  decision.split = true;
  decision.fragments = {
      {0, pages - device_pages, ExecutionTarget::kHost},
      {pages - device_pages, device_pages, ExecutionTarget::kSmartSsd},
  };
  decision.reason = "split: cost-weighted host/device fragments";
  return decision;
}

}  // namespace smartssd::engine
