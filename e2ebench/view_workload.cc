// view_refresh: logged base relations A and S feed a materialized view
// over A |x| S (equi + OVERLAPS). Each cycle writes a small Torp batch
// (closes of open rows, then inserts valid from tc on) to one base,
// refreshes the view and binds it at tc. Seven cycles of a round write
// to the outer side A and one to the inner side S, so the refresh
// median stays on the outer-side path while the inner-side share is
// fixed by construction.
#include <cstdio>
#include <unordered_set>

#include "data.h"
#include "query/materialized_view.h"
#include "relation/modifications.h"
#include "replay.h"

namespace e2ebench {

using namespace ongoingdb;

namespace {

constexpr int64_t kBugs = 20000;
constexpr int kCyclesPerRound = 8;  // the last one writes to S
constexpr int kBatchCloses = 6;
constexpr int kBatchInserts = 12;
constexpr int kWarmupRounds = 1;
constexpr size_t kRssRound = 15;  // measured rounds before VmHWM is read
constexpr size_t kVtIndex = 2;  // (ID, text, VT)

const char* ModeName(RefreshMode m) {
  switch (m) {
    case RefreshMode::kDelta:
      return "view.delta";
    case RefreshMode::kRecompute:
      return "view.recompute";
    case RefreshMode::kNoop:
      return "view.noop";
  }
  return "view.refresh";
}

}  // namespace

RunResult RunViewRefresh(const RunOptions& opt) {
  RunResult res;
  Rng rng(opt.seed ^ 0x7f4a7c15ULL);

  // --- set-up: generate, log, create the view, warm up -------------------
  BugTables t = GenerateBugTables(opt.seed, kBugs);
  NoteSetup("inputs generated");
  t.B = OngoingRelation();
  t.b.clear();
  OngoingRelation& A = t.A;
  OngoingRelation& S = t.S;
  A.EnableModificationLog();
  S.EnableModificationLog();
  const PlanPtr plan =
      Join(Scan(&A, "a"), Scan(&S, "s"),
           And(Eq(Col("a.ID"), Col("s.ID")), OverlapsExpr(Col("a.VT"), Col("s.VT"))),
           "a", "s");
  Result<MaterializedView> created = MaterializedView::Create(plan);
  if (!created.ok()) {
    res.Fail("MaterializedView::Create: " + created.status().ToString());
    return res;
  }
  MaterializedView view = std::move(*created);
  NoteSetup("loaded");
  int64_t tc = t.history_end;
  const int64_t inside = t.history_end - 120;

  std::vector<double> refresh_ms, inst_ms;
  std::vector<double> mode_ms[3];  // delta, recompute, noop
  double timed_ms = 0;  // the running round's timed work

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  std::vector<double> pending_rows;

  auto log_total = [&] {
    return A.modification_log()->next_seq() + S.modification_log()->next_seq();
  };
  auto record_mode = [&](RefreshMode m, double ms) {
    const int k = m == RefreshMode::kDelta ? 0 : m == RefreshMode::kRecompute ? 1 : 2;
    mode_ms[k].push_back(ms);
  };

  Tracer* cur = nullptr;  // the tracer while a measured round runs

  // One write batch on a side: Torp closes of the open rows of
  // kBatchCloses bugs that have one, then kBatchInserts rows valid from
  // tc on. Closing open rows only keeps every batch the same size and
  // the number of open rows steady from cycle to cycle. The model is
  // updated here, before the batch reaches the program, so that the
  // timed part of a cycle holds only the program's calls.
  struct Batch {
    std::unordered_set<int64_t> close_ids;
    std::vector<ModelRow> inserts;
  };
  auto plan_batch = [&](std::vector<ModelRow>* rows, bool outer) {
    Batch b;
    std::vector<int64_t> open_ids;
    for (const ModelRow& r : *rows) {
      if (r.vt.open()) open_ids.push_back(r.id);
    }
    while (b.close_ids.size() < static_cast<size_t>(kBatchCloses)) {
      b.close_ids.insert(open_ids[static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(open_ids.size()) - 1))]);
    }
    for (ModelRow& r : *rows) {
      if (b.close_ids.count(r.id) && r.vt.open()) r.vt.Close(tc);
    }
    for (int i = 0; i < kBatchInserts; ++i) {
      b.inserts.push_back(
          {rng.Uniform(0, kBugs - 1),
           outer ? "dev" + std::to_string(rng.Uniform(0, 499)) + "@mozilla.org"
                 : std::string(i % 2 ? "major" : "normal"),
           ModelIv::SinceNow(tc)});
      rows->push_back(b.inserts.back());
    }
    return b;
  };
  auto apply_batch = [&](OngoingRelation* rel, const Batch& b) {
    {
      Scoped span(cur, "modifications.apply");
      Result<size_t> closed = TemporalDelete(
          rel, kVtIndex, tc, [&](const Tuple& tuple) {
            return b.close_ids.count(tuple.value(0).AsInt64()) > 0 &&
                   tuple.value(kVtIndex).AsOngoingInterval().end().IsNow();
          });
      if (!closed.ok()) res.Fail("TemporalDelete: " + closed.status().ToString());
    }
    for (const ModelRow& r : b.inserts) {
      Scoped span(cur, "modifications.apply");
      Status st = TemporalInsert(
          rel, {Value::Int64(r.id), Value::String(r.text), Value()}, kVtIndex, tc);
      if (!st.ok()) res.Fail("TemporalInsert: " + st.ToString());
    }
  };

  auto check = [&](int64_t rt) {
    bool ok = true;
    if (!(FingerprintFixed(view.InstantiateAt(rt), &ok) == NaiveJoin(t.a, t.s, rt)) ||
        !ok) {
      res.Fail("view at rt " + DateString(rt) + " after tc " + DateString(tc) +
               " differs from the naive join");
    }
  };

  auto round = [&](bool measure) {
    cur = measure ? tr : nullptr;
    for (int c = 0; c < kCyclesPerRound; ++c) {
      const bool outer = c != kCyclesPerRound - 1;
      ++tc;
      ++res.attempted;
      const Batch batch = plan_batch(outer ? &t.a : &t.s, outer);
      if (cur) cur->NewRequest();
      Scoped cycle(cur, "cycle");
      const uint64_t logged = log_total();
      auto t0 = Clock::now();
      {
        Scoped span(cur, "view.write");
        apply_batch(outer ? &A : &S, batch);
      }
      const double write_ms = MsSince(t0);
      const uint64_t pending = log_total() - logged;
      auto t1 = Clock::now();
      const int span = cur ? cur->Begin("view.refresh") : -1;
      Status st = view.Refresh();
      if (span >= 0) {
        tr->End(span);
        tr->Rename(span, ModeName(view.last_refresh_mode()));
      }
      const double ref = MsSince(t1);
      if (!st.ok()) {
        ++res.failed;
        if (res.first_error.empty()) res.first_error = "Refresh: " + st.ToString();
        continue;
      }
      auto t2 = Clock::now();
      OngoingRelation bound = [&] {
        Scoped span(cur, "bind");
        return view.InstantiateAt(tc);
      }();
      const double inst = MsSince(t2);
      if (!measure) continue;
      refresh_ms.push_back(ref);
      inst_ms.push_back(inst);
      record_mode(view.last_refresh_mode(), ref);
      timed_ms += write_ms + ref + inst;
      pending_rows.push_back(static_cast<double>(pending));
      // Sampled checks: after an outer-side and after the inner-side cycle.
      if (c == kCyclesPerRound / 2 || !outer) {
        check(tc);
        check(inside);
      }
    }
    if (!tr || !measure) return;
    // Probes beside the cycles: a refresh with nothing pending, a forced
    // full refresh, and a plain execution of the view's plan.
    tr->NewRequest();
    int span = tr->Begin("view.refresh");
    Status st = view.Refresh();
    tr->End(span);
    tr->Rename(span, ModeName(view.last_refresh_mode()));
    record_mode(view.last_refresh_mode(), 0);
    tr->NewRequest();
    {
      Scoped s(tr, "view.full");
      st = view.RefreshFull();
    }
    if (!st.ok()) res.Fail("RefreshFull: " + st.ToString());
    tr->NewRequest();
    OngoingRelation plain;
    uint64_t batches = 0;
    if (!DrainPlan(tr, plan, 1, &plain, &batches)) res.Fail("plain drain failed");
  };

  const size_t rss_round = opt.trace ? 0 : kRssRound;
  const TimedRounds timed =
      RunRounds(kWarmupRounds, opt.seconds, rss_round, [&](bool measure) {
        timed_ms = 0;
        round(measure);
        return timed_ms;
      });

  // The refreshed view must equal a view created fresh over the bases.
  Result<MaterializedView> fresh = MaterializedView::Create(plan);
  if (!fresh.ok() || !(FingerprintOngoing(fresh->ongoing_result()) ==
                       FingerprintOngoing(view.ongoing_result()))) {
    res.Fail("refreshed view differs from a freshly created one");
  }

  if (!opt.trace) {
    res.PutEndToEnd(Quantile(refresh_ms, kLatencyQuantile), timed,
                    kCyclesPerRound);
    std::fprintf(stderr,
                 "refresh: n=%zu p50=%.3f p90=%.3f p99=%.3f ms; delta n=%zu "
                 "p50=%.3f ms; recompute n=%zu p50=%.3f ms; bind p50=%.3f ms\n",
                 refresh_ms.size(), Quantile(refresh_ms, 0.5),
                 Quantile(refresh_ms, 0.9), Quantile(refresh_ms, 0.99),
                 mode_ms[0].size(), Median(mode_ms[0]), mode_ms[1].size(),
                 Median(mode_ms[1]), Median(inst_ms));
    return res;
  }

  res.Put("view.delta_ms", "ms", Median(tracer.DurationsMs("view.delta")));
  res.Put("view.recompute_ms", "ms", Median(tracer.DurationsMs("view.recompute")));
  res.Put("view.full_ms", "ms", Median(tracer.DurationsMs("view.full")));
  res.Put("view.delta_refreshes", "count", static_cast<double>(mode_ms[0].size()));
  res.Put("view.recompute_refreshes", "count",
          static_cast<double>(mode_ms[1].size()));
  res.Put("view.noop_refreshes", "count", static_cast<double>(mode_ms[2].size()));
  res.Put("view.pending_rows", "count", Median(pending_rows));
  if (!tracer.Write(std::string(kOutDir) + "/trace_" + opt.workload + ".jsonl")) {
    res.Fail("cannot write the trace file");
  }
  return res;
}

}  // namespace e2ebench
