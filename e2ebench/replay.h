// The traced run's replay of a SELECT: the same calls a
// server::Session makes for one statement, each wrapped in a span
// named after the layer it enters, plus the side probes that time the
// index, kernel and exchange layers on the statement's own plan.
#pragma once

#include <string>

#include "harness.h"
#include "query/plan.h"
#include "relation/relation.h"
#include "server/catalog.h"

namespace e2ebench {

/// Drains `plan` at `workers` through Compile/Open/Next/Close into
/// *out, counting rows and batches. Spans: physical.compile and
/// physical.drain (workers == 1) or exchange.compile and exchange.drain.
bool DrainPlan(Tracer* tracer, const ongoingdb::PlanPtr& plan, size_t workers,
               ongoingdb::OngoingRelation* out, uint64_t* batches);

/// Replays one SELECT as a Session runs it: catalog.pin (PinSnapshot +
/// View), sql.parse (ParseStatement + ParseQuery), optimizer.optimize,
/// then DrainPlan at `workers`, all under one "statement" span of a new
/// request. Returns false (with *error set) when a layer call fails.
/// A null tracer runs the same calls unrecorded (the tracing-overhead
/// baseline).
struct ReplayedSelect {
  ongoingdb::OngoingRelation result;
  ongoingdb::PlanPtr plan;  ///< the optimized plan
  double statement_ms = 0;
  uint64_t batches = 0;
};
bool ReplaySelect(Tracer* tracer, const ongoingdb::server::Catalog& catalog,
                  const std::string& sql, size_t workers, ReplayedSelect* out,
                  std::string* error);

/// Side probes on an optimized plan, each its own request:
///  * every index-eligible Filter(Scan) or index-nested-loop join:
///    index.build (IntervalIndex::Build on the indexed column) and, for
///    selections, index.probe (CandidatesInto), counting
///    index.candidates;
///  * every Filter(Scan) predicate: kernels.apply — BatchPredicate
///    Compile/Apply over the scanned relation instantiated at `rt`, in
///    full batches, counting kernels.rows.
/// A plan that is a single-table indexed selection also counts its
/// `result_rows` as index.rows_kept (the base of candidates per row).
/// Returns the mean time (ms) of the probe's index builds, 0 if it made
/// none: the cost of one build of the column(s) the plan indexes.
double ProbeIndexAndKernels(Tracer* tracer, const ongoingdb::PlanPtr& plan,
                            int64_t rt, size_t result_rows);

}  // namespace e2ebench
