// ongoing_read and parallel_read: a fixed, interleaved SELECT mix over
// static bug-tracker tables, each result bound at three reference times.
#include <cstdio>
#include <functional>
#include <unordered_map>

#include "data.h"
#include "query/executor.h"
#include "query/optimizer.h"
#include "replay.h"
#include "server/session.h"
#include "sql/parser.h"
#include "util/failpoint.h"

namespace e2ebench {

using namespace ongoingdb;

namespace {

constexpr int64_t kBugs = 20000;
constexpr int kWarmupRounds = 2;
constexpr size_t kRssRound = 100;  // measured rounds before VmHWM is read

struct ReadQuery {
  std::string name;
  std::string sql;
  /// Naive fixed-time evaluation at rt over the model rows.
  std::function<Fingerprint(const BugTables&, int64_t)> naive;
};

std::vector<ReadQuery> MakeQueries(const BugTables& t) {
  const int64_t he = t.history_end;
  const int64_t p1 = he - 400, p2 = he - 310;  // fixed period (a quarter)
  const int64_t since = he - 180;              // [since, NOW)
  const int64_t slice = he - 30;               // timeslice point
  std::vector<ReadQuery> q;
  q.push_back({"overlaps_fixed",
               "SELECT * FROM A WHERE VT OVERLAPS PERIOD [DATE '" +
                   DateString(p1) + "', DATE '" + DateString(p2) + "')",
               [=](const BugTables& t, int64_t rt) {
                 Fingerprint fp;
                 for (const ModelRow& r : t.a) {
                   if (!OverlapsF(r.vt.StartAt(rt), r.vt.EndAt(rt), p1, p2)) {
                     continue;
                   }
                   TupleHash h;
                   HashRow(r, rt, &h);
                   fp.Add(h.value());
                 }
                 return fp;
               }});
  q.push_back({"overlaps_now",
               "SELECT * FROM S WHERE VT OVERLAPS PERIOD [DATE '" +
                   DateString(since) + "', NOW)",
               [=](const BugTables& t, int64_t rt) {
                 Fingerprint fp;
                 for (const ModelRow& r : t.s) {
                   if (!OverlapsF(r.vt.StartAt(rt), r.vt.EndAt(rt), since,
                                  rt)) {
                     continue;
                   }
                   TupleHash h;
                   HashRow(r, rt, &h);
                   fp.Add(h.value());
                 }
                 return fp;
               }});
  q.push_back({"contains",
               "SELECT ID, Product, VT FROM B WHERE VT CONTAINS DATE '" +
                   DateString(slice) + "'",
               [=](const BugTables& t, int64_t rt) {
                 Fingerprint fp;
                 for (const ModelRow& r : t.b) {
                   if (!ContainsF(r.vt.StartAt(rt), r.vt.EndAt(rt), slice)) {
                     continue;
                   }
                   TupleHash h;
                   HashRow(r, rt, &h);
                   fp.Add(h.value());
                 }
                 return fp;
               }});
  q.push_back({"join_as",
               "SELECT * FROM A a JOIN S s ON a.ID = s.ID AND "
               "a.VT OVERLAPS s.VT",
               [](const BugTables& t, int64_t rt) {
                 return NaiveJoin(t.a, t.s, rt);
               }});
  // The B join is pinned to HASH: left to the optimizer, its cost-based
  // choice flips to index-nested-loop on some seeds' data, which would
  // make this statement's figure depend on the seed.
  q.push_back(
      {"join_asb_major",
       "SELECT a.ID, a.Email, s.Severity, b.Product FROM A a JOIN S s ON "
       "a.ID = s.ID AND a.VT OVERLAPS s.VT HASH JOIN B b ON a.ID = b.ID AND "
       "a.VT OVERLAPS b.VT WHERE s.Severity = 'major'",
       [](const BugTables& t, int64_t rt) {
         std::unordered_multimap<int64_t, const ModelRow*> s_by_id;
         for (const ModelRow& r : t.s) s_by_id.emplace(r.id, &r);
         Fingerprint fp;
         for (const ModelRow& a : t.a) {
           const int64_t as = a.vt.StartAt(rt), ae = a.vt.EndAt(rt);
           const ModelRow& b = t.b[static_cast<size_t>(a.id)];
           if (!OverlapsF(as, ae, b.vt.StartAt(rt), b.vt.EndAt(rt))) continue;
           auto [lo, hi] = s_by_id.equal_range(a.id);
           for (auto it = lo; it != hi; ++it) {
             const ModelRow& s = *it->second;
             if (s.text != "major" ||
                 !OverlapsF(as, ae, s.vt.StartAt(rt), s.vt.EndAt(rt))) {
               continue;
             }
             TupleHash h;
             h.Int(a.id);
             h.Str(a.text);
             h.Str(s.text);
             h.Str(b.text);
             fp.Add(h.value());
           }
         }
         return fp;
       }});
  return q;
}

struct Stats {
  std::vector<std::vector<double>> select_ms, bind_ms;  // per query
};

}  // namespace

RunResult RunOngoingRead(const RunOptions& opt, bool parallel) {
  RunResult res;
  const size_t workers = parallel ? 4 : 1;

  // --- set-up: generate, load, warm up -----------------------------------
  BugTables tables = GenerateBugTables(opt.seed, kBugs);
  NoteSetup("inputs generated");
  server::Catalog catalog;
  for (auto [name, rel] :
       {std::pair<const char*, OngoingRelation*>{"B", &tables.B},
        {"A", &tables.A},
        {"S", &tables.S}}) {
    if (!catalog.RegisterTable(name, *rel).ok()) {
      res.Fail(std::string("RegisterTable ") + name);
      return res;
    }
    *rel = OngoingRelation();  // the catalog holds the only copy now
  }
  NoteSetup("loaded");
  server::Session session(1, &catalog, {});
  if (parallel && !session.Execute("SET workers = 4").ok()) {
    res.Fail("SET workers");
    return res;
  }
  const std::vector<ReadQuery> queries = MakeQueries(tables);
  const int64_t he = tables.history_end;
  // Inside the history, at its end, and ten years after it.
  const std::vector<int64_t> rts = {he - 120, he, he + 3650};

  // Fingerprints of the first round's bound results; every later
  // round must reproduce them, and they must equal the naive ones.
  std::vector<std::vector<Fingerprint>> seen(queries.size());
  std::vector<Fingerprint> seen_ongoing(queries.size());
  Stats stats;
  stats.select_ms.resize(queries.size());
  stats.bind_ms.resize(queries.size());
  uint64_t statements = 0;

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;
  // Per statement: the session's time and the traced replay's time
  // beyond the untraced replay of the same statement, kept apart
  // by which end of the replay sequence each ran at.
  std::vector<double> session_extra_ms[2], trace_extra_ms[2];
  std::vector<std::vector<double>> serial_drain(queries.size()),
      exchange_drain(queries.size());
  double rows_out = 0, batches_out = 0, bind_ns = 0, bind_tuples = 0;
  double index_builds = 0, index_build_ms = 0;
  bool unmatched_builds = false;  // an engine build the probes did not time
  Failpoint& index_build_site = Failpoint::GetOrCreate("index.build");

  auto check = [&](size_t qi, size_t ri, const OngoingRelation& bound) {
    bool ok = true;
    Fingerprint fp = FingerprintFixed(bound, &ok);
    if (!ok) res.Fail(queries[qi].name + ": unexpected value type");
    if (seen[qi].size() <= ri) {
      seen[qi].push_back(fp);
    } else if (!(seen[qi][ri] == fp)) {
      res.Fail(queries[qi].name + ": result changed between rounds");
    }
  };

  // One round: every query once, in a fixed order, each bound at every rt.
  auto round = [&](bool measure) {
    double timed_ms = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const ReadQuery& q = queries[qi];
      ++res.attempted;
      auto t0 = Clock::now();
      Result<server::ExecResult> r = session.Execute(q.sql);
      const double sel = MsSince(t0);
      if (!r.ok() || !r->result.relation.has_value()) {
        ++res.failed;
        if (res.first_error.empty()) {
          res.first_error = q.name + ": " + r.status().ToString();
        }
        continue;
      }
      const OngoingRelation& ongoing = *r->result.relation;
      // The checks run on measured rounds only, so that set-up holds no
      // work of the benchmark's own beyond generating the inputs.
      if (measure && seen[qi].empty()) {
        seen_ongoing[qi] = FingerprintOngoing(ongoing);
      }
      double bind_total = 0;
      for (size_t ri = 0; ri < rts.size(); ++ri) {
        auto t1 = Clock::now();
        OngoingRelation bound = InstantiateRelation(ongoing, rts[ri]);
        const double b = MsSince(t1);
        bind_total += b;
        if (!measure) continue;
        stats.bind_ms[qi].push_back(b);
        check(qi, ri, bound);
      }
      if (measure) {
        stats.select_ms[qi].push_back(sel);
        timed_ms += sel + bind_total;
        ++statements;
      }
      if (!tr || !measure) continue;

      // Traced replay of the same statement through the layer calls,
      // beside an untraced replay and the session statement once more.
      // The untraced replay runs in the middle and the other two swap
      // ends from one statement to the next, so that the warmer caches
      // of a later run favour neither side of a difference.
      ReplayedSelect plain, rep;
      std::string error;
      auto replay = [&](bool traced) {
        return ReplaySelect(traced ? tr : nullptr, catalog, q.sql, workers,
                            traced ? &rep : &plain, &error);
      };
      double again_ms = 0;
      uint64_t engine_builds = 0;
      auto session_again = [&] {
        // The engine's own index builds in this statement, counted at
        // its index.build failpoint site, which is passed only when a
        // build actually runs; armed to count hits, never to fail.
        index_build_site.ArmAfterHits(UINT64_MAX);
        auto t1 = Clock::now();
        const bool ok = session.Execute(q.sql).ok();
        again_ms = MsSince(t1);
        engine_builds = index_build_site.hits();
        index_build_site.Disarm();
        return ok;
      };
      const int order = statements % 2;
      if (!(order ? session_again() && replay(false) && replay(true)
                  : replay(true) && replay(false) && session_again())) {
        res.Fail(q.name + " replay: " + error);
        continue;
      }
      session_extra_ms[order].push_back(again_ms - plain.statement_ms);
      trace_extra_ms[order].push_back(rep.statement_ms - plain.statement_ms);
      rows_out += static_cast<double>(rep.result.size());
      batches_out += static_cast<double>(rep.batches);
      if (!(FingerprintOngoing(rep.result) == seen_ongoing[qi])) {
        res.Fail(q.name + ": replayed result differs from the session's");
      }
      for (int64_t rt : rts) {
        tr->NewRequest();
        auto t1 = Clock::now();
        {
          Scoped span(tr, "bind");
          OngoingRelation bound = InstantiateRelation(rep.result, rt);
        }
        bind_ns += MsSince(t1) * 1e6;
        bind_tuples += static_cast<double>(rep.result.size());
      }
      // The same plan drained untraced at 1 and at 4 workers, alternating
      // which goes first, for exchange.speedup.
      for (size_t w : statements % 2 ? std::vector<size_t>{1, 4}
                                     : std::vector<size_t>{4, 1}) {
        OngoingRelation out;
        uint64_t batches = 0;
        auto t2 = Clock::now();
        if (!DrainPlan(nullptr, rep.plan, w, &out, &batches)) {
          res.Fail(q.name + ": drain at workers=" + std::to_string(w) + " failed");
        }
        (w == 1 ? serial_drain : exchange_drain)[qi].push_back(MsSince(t2));
      }
      const double one_build_ms =
          ProbeIndexAndKernels(tr, rep.plan, rts[1], rep.result.size());
      index_builds += static_cast<double>(engine_builds);
      index_build_ms += static_cast<double>(engine_builds) * one_build_ms;
      if (engine_builds > 0 && one_build_ms == 0) unmatched_builds = true;
    }
    return timed_ms;
  };

  const TimedRounds timed =
      RunRounds(kWarmupRounds, opt.seconds, opt.trace ? 0 : kRssRound, round);

  // --- verification, apart from the timed loop ----------------------------
  sql::Catalog view = catalog.PinSnapshot().View();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const ReadQuery& q = queries[qi];
    Result<PlanPtr> plan = sql::ParseQuery(q.sql, view);
    if (plan.ok()) plan = Optimize(*plan);
    if (!plan.ok()) {
      res.Fail(q.name + ": " + plan.status().ToString());
      continue;
    }
    for (size_t ri = 0; ri < rts.size(); ++ri) {
      const Fingerprint naive = q.naive(tables, rts[ri]);
      if (seen[qi].size() <= ri || !(seen[qi][ri] == naive)) {
        res.Fail(q.name + ": bound result differs from the naive evaluation at rt " +
                 DateString(rts[ri]));
      }
      // Snapshot reducibility: ||Q(D)||rt == Q(||D||rt).
      Result<OngoingRelation> at = ExecuteAtReferenceTime(*plan, rts[ri]);
      bool ok = true;
      if (!at.ok() || !(FingerprintFixed(*at, &ok) == naive) || !ok) {
        res.Fail(q.name + ": ExecuteAtReferenceTime differs at rt " +
                 DateString(rts[ri]));
      }
    }
    // The ongoing result at workers 1 and 4.
    for (size_t w : {size_t{1}, size_t{4}}) {
      ParallelOptions popts;
      popts.workers = w;
      Result<OngoingRelation> r = Execute(*plan, popts);
      if (!r.ok() || !(FingerprintOngoing(*r) == seen_ongoing[qi])) {
        res.Fail(q.name + ": ongoing result at workers=" + std::to_string(w) +
                 " differs from the session's");
      }
    }
  }

  if (!opt.trace) {
    res.PutEndToEnd(MeanOfClassQuantiles(stats.select_ms), timed,
                    static_cast<double>(queries.size()));
    // Reference figures for the README (stderr only).
    std::vector<double> all;
    for (const auto& v : stats.select_ms) all.insert(all.end(), v.begin(), v.end());
    std::fprintf(stderr, "reads: n=%zu p50=%.3f p90=%.3f p99=%.3f ms\n",
                 all.size(), Quantile(all, 0.5), Quantile(all, 0.9),
                 Quantile(all, 0.99));
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      std::fprintf(stderr,
                   "  %-16s select p10=%.3f p50=%.3f ms  bind p10=%.3f "
                   "p50=%.3f ms\n",
                   queries[qi].name.c_str(),
                   Quantile(stats.select_ms[qi], kLatencyQuantile),
                   Median(stats.select_ms[qi]),
                   Quantile(stats.bind_ms[qi], kLatencyQuantile),
                   Median(stats.bind_ms[qi]));
    }
    return res;
  }

  // Per-layer metrics of the traced run.
  auto per_stmt = [&](const std::string& span) {
    double total = 0;
    for (double d : tracer.DurationsMs(span)) total += d;
    return statements ? total / static_cast<double>(statements) : 0;
  };
  double serial = 0, exchange = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    serial += Median(serial_drain[qi]);
    exchange += Median(exchange_drain[qi]);
  }
  const double kernel_ms = per_stmt("kernels.apply") * statements;
  res.Put("sql.parse_us", "us", per_stmt("sql.parse") * 1000);
  res.Put("optimizer.optimize_us", "us", per_stmt("optimizer.optimize") * 1000);
  res.Put("physical.compile_us", "us", per_stmt("physical.compile") * 1000);
  res.Put("physical.drain_ms", "ms", per_stmt("physical.drain"));
  res.Put("physical.rows_out", "count", rows_out / statements);
  res.Put("physical.batches_out", "count", batches_out / statements);
  if (unmatched_builds) {
    std::fprintf(stderr,
                 "e2ebench: the engine built an index no probe matched; "
                 "index.build_ms leaves that build out\n");
  }
  res.Put("index.build_ms", "ms", index_build_ms / statements);
  res.Put("index.builds_per_statement", "count", index_builds / statements);
  res.Put("index.candidates_per_row", "count",
          tracer.count("index.rows_kept") > 0
              ? tracer.count("index.candidates") / tracer.count("index.rows_kept")
              : 0);
  res.Put("kernels.ns_per_row", "ns",
          tracer.count("kernels.rows") > 0
              ? kernel_ms * 1e6 / tracer.count("kernels.rows")
              : 0);
  res.Put("exchange.drain_ms", "ms", per_stmt("exchange.drain"));
  res.Put("exchange.speedup", "x", exchange > 0 ? serial / exchange : 0);
  res.Put("bind.ns_per_tuple", "ns", bind_tuples > 0 ? bind_ns / bind_tuples : 0);
  res.Put("catalog.pin_us", "us", per_stmt("catalog.pin") * 1000);
  auto balanced_us = [](const std::vector<double> (&by_order)[2]) {
    return (Median(by_order[0]) + Median(by_order[1])) / 2 * 1000;
  };
  res.Put("session.overhead_us", "us", balanced_us(session_extra_ms));
  res.Put("trace.overhead_us", "us", balanced_us(trace_extra_ms));
  if (!tracer.Write(std::string(kOutDir) + "/trace_" + opt.workload + ".jsonl")) {
    res.Fail("cannot write the trace file");
  }
  return res;
}

}  // namespace e2ebench
