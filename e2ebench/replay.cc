#include "replay.h"

#include "query/interval_index.h"
#include "query/kernels.h"
#include "query/optimizer.h"
#include "query/physical.h"
#include "sql/parser.h"
#include "sql/statement.h"

namespace e2ebench {

using namespace ongoingdb;

bool DrainPlan(Tracer* tracer, const PlanPtr& plan, size_t workers,
               OngoingRelation* out, uint64_t* batches) {
  const bool exchange = workers > 1;
  ParallelOptions popts;
  popts.workers = workers;
  Result<PhysicalOpPtr> root = [&] {
    Scoped span(tracer, exchange ? "exchange.compile" : "physical.compile");
    return Compile(plan, ExecMode::kOngoing, 0, popts, nullptr);
  }();
  if (!root.ok()) return false;
  PhysicalOperator& op = **root;
  Scoped span(tracer, exchange ? "exchange.drain" : "physical.drain");
  *out = OngoingRelation(op.schema());
  *batches = 0;
  if (!op.Open().ok()) return false;
  TupleBatch batch;
  Status st;
  while ((st = op.Next(&batch)).ok() && !batch.empty()) {
    ++*batches;
    for (size_t i = 0; i < batch.size(); ++i) {
      out->AppendUnchecked(std::move(batch.tuple(i)));
    }
  }
  op.Close();
  return st.ok();
}

bool ReplaySelect(Tracer* tracer, const server::Catalog& catalog,
                  const std::string& sql, size_t workers, ReplayedSelect* out,
                  std::string* error) {
  if (tracer) tracer->NewRequest();
  const auto t0 = Clock::now();
  bool ok = [&] {
    Scoped statement(tracer, "statement");
    sql::Catalog view = [&] {
      Scoped span(tracer, "catalog.pin");
      return catalog.PinSnapshot().View();
    }();
    Result<PlanPtr> plan = [&]() -> Result<PlanPtr> {
      Scoped span(tracer, "sql.parse");
      ONGOINGDB_RETURN_NOT_OK(sql::ParseStatement(sql, view).status());
      return sql::ParseQuery(sql, view);
    }();
    if (!plan.ok()) {
      *error = "parse: " + plan.status().ToString();
      return false;
    }
    Result<PlanPtr> optimized = [&] {
      Scoped span(tracer, "optimizer.optimize");
      return Optimize(*plan);
    }();
    if (!optimized.ok()) {
      *error = "optimize: " + optimized.status().ToString();
      return false;
    }
    out->plan = *optimized;
    if (!DrainPlan(tracer, out->plan, workers, &out->result, &out->batches)) {
      *error = "compile/drain failed";
      return false;
    }
    return true;
  }();
  out->statement_ms = MsSince(t0);
  return ok;
}

namespace {

/// The probe builds of one plan: their count and summed time.
struct ProbeBuilds {
  int n = 0;
  double ms = 0;
};

void ProbeNode(Tracer* tracer, const PlanPtr& node, int64_t rt,
               ProbeBuilds* builds) {
  switch (node->kind()) {
    case PlanKind::kScan:
      return;
    case PlanKind::kProject:
      ProbeNode(tracer,
                static_cast<const ProjectNode&>(*node).child(), rt, builds);
      return;
    case PlanKind::kJoin: {
      const auto& join = static_cast<const JoinNode&>(*node);
      ProbeNode(tracer, join.left(), rt, builds);
      ProbeNode(tracer, join.right(), rt, builds);
      Result<Schema> ls = OutputSchema(join.left());
      Result<Schema> rs = OutputSchema(join.right());
      if (!ls.ok() || !rs.ok()) return;
      Result<JoinAlgorithm> algo = ResolveAutoJoinAlgorithm(join, *ls, *rs);
      std::optional<IndexJoinInfo> info = MatchIndexJoin(join, *ls, *rs);
      const bool index_join =
          info.has_value() &&
          (join.algorithm() == JoinAlgorithm::kIndexNL ||
           (join.algorithm() == JoinAlgorithm::kAuto && algo.ok() &&
            *algo == JoinAlgorithm::kIndexNL));
      if (!index_join) return;
      tracer->NewRequest();
      const auto t0 = Clock::now();
      {
        Scoped span(tracer, "index.build");
        (void)IntervalIndex::Build(*info->inner, info->inner_column);
      }
      ++builds->n;
      builds->ms += MsSince(t0);
      return;
    }
    case PlanKind::kFilter:
      break;
  }
  const auto& filter = static_cast<const FilterNode&>(*node);
  ProbeNode(tracer, filter.child(), rt, builds);
  if (filter.child()->kind() != PlanKind::kScan) return;
  const OngoingRelation& base =
      static_cast<const ScanNode&>(*filter.child()).relation();

  if (std::optional<IndexScanInfo> info = MatchIndexScan(filter)) {
    tracer->NewRequest();
    const auto t0 = Clock::now();
    Result<IntervalIndex> index = [&] {
      Scoped span(tracer, "index.build");
      return IntervalIndex::Build(*info->relation, info->column);
    }();
    ++builds->n;
    builds->ms += MsSince(t0);
    if (index.ok()) {
      std::vector<size_t> candidates;
      Scoped span(tracer, "index.probe");
      index->CandidatesInto(info->op, info->probe, &candidates);
      tracer->Count("index.candidates", static_cast<double>(candidates.size()));
    }
  }

  // Kernel probe: the filter's predicate over the scanned relation
  // instantiated at rt, the form ExecuteAtReferenceTime evaluates.
  OngoingRelation inst = InstantiateRelation(base, rt);
  kernels::BatchPredicate predicate;
  predicate.Compile(filter.predicate(), inst.schema(), true, rt);
  if (!predicate.HasKernelAtoms()) return;
  std::vector<TupleBatch> batches;
  for (size_t i = 0; i < inst.size(); ++i) {
    if (batches.empty() || batches.back().full()) batches.emplace_back();
    Tuple& slot = batches.back().NextSlot();
    slot.mutable_values() = inst.tuple(i).values();
    slot.set_rt(inst.tuple(i).rt());
  }
  tracer->NewRequest();
  Scoped span(tracer, "kernels.apply");
  for (TupleBatch& b : batches) (void)predicate.Apply(&b);
  tracer->Count("kernels.rows", static_cast<double>(inst.size()));
}

}  // namespace

double ProbeIndexAndKernels(Tracer* tracer, const PlanPtr& plan, int64_t rt,
                            size_t result_rows) {
  ProbeBuilds builds;
  ProbeNode(tracer, plan, rt, &builds);
  // A single-table selection keeps exactly the statement's result rows.
  PlanPtr top = plan;
  if (top->kind() == PlanKind::kProject) {
    top = static_cast<const ProjectNode&>(*top).child();
  }
  if (top->kind() == PlanKind::kFilter &&
      static_cast<const FilterNode&>(*top).child()->kind() ==
          PlanKind::kScan &&
      MatchIndexScan(static_cast<const FilterNode&>(*top)).has_value()) {
    tracer->Count("index.rows_kept", static_cast<double>(result_rows));
  }
  return builds.n > 0 ? builds.ms / builds.n : 0;
}

}  // namespace e2ebench
