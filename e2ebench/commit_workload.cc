// commit_stream: one session commits an interleaved stream of single-row
// INSERT / UPDATE / DELETE statements, the commit time advancing one day
// per commit, against a table of 30k rows; after every eight commits it
// runs a fresh-snapshot SELECT over the same table, checked against the
// benchmark's own Torp model of the table.
#include <cstdio>
#include <unordered_map>

#include "data.h"
#include "relation/modifications.h"
#include "replay.h"
#include "server/session.h"
#include "sql/parser.h"
#include "sql/statement.h"

namespace e2ebench {

using namespace ongoingdb;

namespace {

constexpr int64_t kRows = 30000;
constexpr int kWarmupRounds = 2;
// Measured rounds before VmHWM is read: every round adds rows, so the
// peak is taken at the same table size in every run.
constexpr size_t kRssRound = 100;

/// One model row of T(ID, Ver, Owner, VT).
struct TRow {
  int64_t id = 0, ver = 0;
  std::string owner;
  ModelIv vt;
};

enum class Op { kInsert, kUpdate, kDelete };
// One round's commits, then its read.
constexpr Op kRound[] = {Op::kInsert, Op::kUpdate, Op::kDelete, Op::kInsert,
                         Op::kUpdate, Op::kInsert, Op::kUpdate, Op::kDelete};
const char* const kOpName[] = {"insert", "update", "delete"};

/// The benchmark's model of T: the rows, and which ID's current version
/// is open (ID -> row index), with a dense list for seeded picks.
class Model {
 public:
  std::vector<TRow> rows;

  void Add(TRow r) {
    if (r.vt.open()) {
      pos_[r.id] = open_ids_.size();
      open_ids_.push_back(r.id);
      open_row_[r.id] = rows.size();
    }
    rows.push_back(std::move(r));
  }
  /// A seeded pick among the IDs whose current version is open.
  int64_t PickOpen(Rng& rng) const {
    return open_ids_[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(open_ids_.size()) - 1))];
  }
  TRow& OpenRow(int64_t id) { return rows[open_row_.at(id)]; }
  /// Torp close of the open version of `id` at tc.
  void Close(int64_t id, int64_t tc) {
    OpenRow(id).vt.Close(tc);
    const size_t p = pos_.at(id);
    pos_[open_ids_.back()] = p;
    open_ids_[p] = open_ids_.back();
    open_ids_.pop_back();
    pos_.erase(id);
    open_row_.erase(id);
  }

 private:
  std::vector<int64_t> open_ids_;
  std::unordered_map<int64_t, size_t> pos_, open_row_;
};

std::string Owner(Rng& rng) {
  return "dev" + std::to_string(rng.Uniform(0, 499)) + "@mozilla.org";
}

OngoingRelation ToTable(const std::vector<TRow>& rows) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {"Ver", ValueType::kInt64},
                            {"Owner", ValueType::kString},
                            {"VT", ValueType::kOngoingInterval}}));
  r.Reserve(rows.size());
  for (const TRow& row : rows) {
    (void)r.Insert({Value::Int64(row.id), Value::Int64(row.ver),
                    Value::String(row.owner), row.vt.ToValue()});
  }
  return r;
}

/// Naive evaluation at rt of SELECT * FROM T WHERE VT OVERLAPS
/// PERIOD [since, NOW).
Fingerprint NaiveRead(const std::vector<TRow>& rows, int64_t since,
                      int64_t rt) {
  Fingerprint fp;
  for (const TRow& r : rows) {
    const int64_t s = r.vt.StartAt(rt), e = r.vt.EndAt(rt);
    if (!OverlapsF(s, e, since, rt)) continue;
    TupleHash h;
    h.Int(r.id);
    h.Int(r.ver);
    h.Str(r.owner);
    h.Iv(s, e);
    fp.Add(h.value());
  }
  return fp;
}

/// Applies a parsed DML statement through the catalog's commit path,
/// as the session does. Returns the published commit sequence.
Result<uint64_t> ApplyDml(server::Catalog& catalog, const sql::Catalog& view,
                          const sql::ParsedStatement& ps, size_t* affected) {
  switch (ps.kind) {
    case sql::StatementKind::kInsert:
      *affected = 1;
      return catalog.Insert(ps.table, ps.values);
    case sql::StatementKind::kUpdate: {
      ONGOINGDB_ASSIGN_OR_RETURN(const OngoingRelation* rel, view.Get(ps.table));
      return catalog.TemporalUpdateWhere(
          ps.table, ps.tc, sql::MakeModificationFilter(ps.predicate, rel->schema()),
          sql::MakeAssignmentUpdater(ps.assignments), affected);
    }
    case sql::StatementKind::kDelete: {
      ONGOINGDB_ASSIGN_OR_RETURN(const OngoingRelation* rel, view.Get(ps.table));
      return catalog.TemporalDeleteWhere(
          ps.table, ps.tc, sql::MakeModificationFilter(ps.predicate, rel->schema()),
          affected);
    }
    default:
      return Status::InvalidArgument("not a DML statement");
  }
}

/// The same modification on a plain relation (no catalog, no
/// publication): the per-commit work that does not depend on serving.
Status ApplyPlain(OngoingRelation* r, const sql::ParsedStatement& ps) {
  switch (ps.kind) {
    case sql::StatementKind::kInsert:
      return r->Insert(ps.values);
    case sql::StatementKind::kUpdate:
      return TemporalUpdate(r, ps.vt_index, ps.tc,
                            sql::MakeModificationFilter(ps.predicate, r->schema()),
                            sql::MakeAssignmentUpdater(ps.assignments))
          .status();
    case sql::StatementKind::kDelete:
      return TemporalDelete(r, ps.vt_index, ps.tc,
                            sql::MakeModificationFilter(ps.predicate, r->schema()))
          .status();
    default:
      return Status::InvalidArgument("not a DML statement");
  }
}

}  // namespace

RunResult RunCommitStream(const RunOptions& opt) {
  RunResult res;
  Rng rng(opt.seed);
  const int64_t he = Date(2014, 1, 1), hs = he - 20 * 365;

  // --- set-up: generate T, load it, warm up -----------------------------
  Model model;
  for (int64_t id = 0; id < kRows; ++id) {
    TRow r{id, 0, Owner(rng), {}};
    if (rng.Bernoulli(0.12)) {
      r.vt = ModelIv::SinceNow(rng.Bernoulli(0.5)
                                   ? rng.Uniform(he - 2 * 365, he - 1)
                                   : rng.Uniform(hs, he - 2 * 365 - 1));
    } else {
      const int64_t s = rng.Uniform(hs, he - 201);
      r.vt = ModelIv::Fixed(s, s + rng.Uniform(1, 180));
    }
    model.Add(std::move(r));
  }
  NoteSetup("inputs generated");
  server::Catalog catalog;
  OngoingRelation mirror = ToTable(model.rows);  // the traced run's plain copy
  Result<uint64_t> loaded = catalog.RegisterTable("T", mirror);
  if (!loaded.ok()) {
    res.Fail("RegisterTable: " + loaded.status().ToString());
    return res;
  }
  if (!opt.trace) mirror = OngoingRelation();
  NoteSetup("loaded");
  server::Session session(1, &catalog, {});
  uint64_t last_seq = *loaded;
  int64_t next_id = kRows;
  int64_t tc = he;  // advances one day per commit
  const int64_t since = he - 180;
  const std::string read_sql =
      "SELECT * FROM T WHERE VT OVERLAPS PERIOD [DATE '" + DateString(since) +
      "', NOW)";

  std::vector<std::vector<double>> commit_ms(3);
  std::vector<double> read_ms, bind_ms;
  double timed_ms = 0;  // the running round's timed work

  Tracer tracer;
  Tracer* tr = opt.trace ? &tracer : nullptr;

  auto fail_op = [&](const std::string& what) {
    ++res.failed;
    if (res.first_error.empty()) res.first_error = what;
  };

  // Builds the next statement of kind `op` and applies it to the model.
  auto next_statement = [&](Op op) {
    ++tc;
    const std::string date = "DATE '" + DateString(tc) + "'";
    if (op == Op::kInsert) {
      TRow r{next_id++, 0, Owner(rng), ModelIv::SinceNow(tc)};
      std::string sql = "INSERT INTO T VALUES (" + std::to_string(r.id) +
                        ", 0, '" + r.owner + "', PERIOD [" + date + ", NOW))";
      model.Add(std::move(r));
      return sql;
    }
    const int64_t id = model.PickOpen(rng);
    const int64_t ver = model.OpenRow(id).ver;
    const std::string where = " WHERE ID = " + std::to_string(id) +
                              " AND Ver = " + std::to_string(ver) + " AT " +
                              date;
    if (op == Op::kDelete) {
      model.Close(id, tc);
      return "DELETE FROM T" + where;
    }
    TRow r{id, ver + 1, Owner(rng), ModelIv::SinceNow(tc)};
    std::string sql = "UPDATE T SET Ver = " + std::to_string(r.ver) +
                      ", Owner = '" + r.owner + "'" + where;
    model.Close(id, tc);
    model.Add(std::move(r));
    return sql;
  };

  auto bind_and_check = [&](const OngoingRelation& ongoing, bool measure) {
    for (int64_t rt : {he - 90, tc, tc + 3650}) {
      auto t0 = Clock::now();
      OngoingRelation bound = InstantiateRelation(ongoing, rt);
      const double b = MsSince(t0);
      // The checks run on measured rounds only, so that set-up holds no
      // work of the benchmark's own beyond generating the inputs.
      if (!measure) continue;
      bind_ms.push_back(b);
      timed_ms += b;
      bool ok = true;
      if (!(FingerprintFixed(bound, &ok) == NaiveRead(model.rows, since, rt)) ||
          !ok) {
        res.Fail("read at rt " + DateString(rt) + " differs from the model");
      }
    }
  };

  auto round = [&](bool measure) {
    for (Op op : kRound) {
      const std::string sql = next_statement(op);
      ++res.attempted;
      size_t affected = 0;
      uint64_t seq = 0;
      if (!tr || !measure) {
        auto t0 = Clock::now();
        Result<server::ExecResult> r = session.Execute(sql);
        const double ms = MsSince(t0);
        if (!r.ok()) {
          fail_op(sql + ": " + r.status().ToString());
          continue;
        }
        if (measure) {
          commit_ms[static_cast<int>(op)].push_back(ms);
          timed_ms += ms;
        }
        affected = r->result.affected;
        seq = r->snapshot_seq;
      } else {
        // Traced replay of the commit through the layer calls.
        tr->NewRequest();
        Result<uint64_t> r = [&]() -> Result<uint64_t> {
          Scoped statement(tr, "statement");
          sql::Catalog view = [&] {
            Scoped span(tr, "catalog.pin");
            return catalog.PinSnapshot().View();
          }();
          Result<sql::ParsedStatement> ps = [&] {
            Scoped span(tr, "sql.parse");
            return sql::ParseStatement(sql, view);
          }();
          if (!ps.ok()) return ps.status();
          Scoped span(tr, std::string("catalog.") + kOpName[static_cast<int>(op)]);
          return ApplyDml(catalog, view, *ps, &affected);
        }();
        if (!r.ok()) {
          fail_op(sql + ": " + r.status().ToString());
          continue;
        }
        seq = *r;
        Result<sql::ParsedStatement> ps =
            sql::ParseStatement(sql, catalog.PinSnapshot().View());
        tr->NewRequest();
        Scoped span(tr, "modifications.apply");
        if (!ps.ok() || !ApplyPlain(&mirror, *ps).ok()) {
          res.Fail("plain modification failed: " + sql);
        }
      }
      if (seq != last_seq + 1) {
        res.Fail("commit sequence jumped from " + std::to_string(last_seq) +
                 " to " + std::to_string(seq));
      }
      last_seq = seq;
      if (affected != 1) res.Fail(sql + ": affected " + std::to_string(affected));
    }

    // The fresh-snapshot read beside the writes.
    ++res.attempted;
    auto t0 = Clock::now();
    Result<server::ExecResult> r = session.Execute(read_sql);
    const double ms = MsSince(t0);
    if (!r.ok() || !r->result.relation.has_value()) {
      fail_op("read: " + r.status().ToString());
      return;
    }
    if (r->snapshot_seq != last_seq) {
      res.Fail("read saw commit " + std::to_string(r->snapshot_seq) +
               ", expected " + std::to_string(last_seq));
    }
    if (measure) {
      read_ms.push_back(ms);
      timed_ms += ms;
    }
    bind_and_check(*r->result.relation, measure);
    if (!tr || !measure) return;

    // The read's layers beside the writes (spans only: its per-layer
    // metrics are taken on ongoing_read).
    ReplayedSelect rep;
    std::string error;
    if (!ReplaySelect(tr, catalog, read_sql, 1, &rep, &error)) {
      res.Fail("read replay: " + error);
      return;
    }
    for (int64_t rt : {he - 90, tc, tc + 3650}) {
      tr->NewRequest();
      Scoped span(tr, "bind");
      OngoingRelation bound = InstantiateRelation(rep.result, rt);
    }
    ProbeIndexAndKernels(tr, rep.plan, tc, rep.result.size());
    tr->NewRequest();
    Scoped span(tr, "relation.copy");
    OngoingRelation copy = mirror;
  };

  const size_t rss_round = opt.trace ? 0 : kRssRound;
  const TimedRounds timed =
      RunRounds(kWarmupRounds, opt.seconds, rss_round, [&](bool measure) {
        timed_ms = 0;
        round(measure);
        return timed_ms;
      });

  if (!opt.trace) {
    res.PutEndToEnd(MeanOfClassQuantiles(commit_ms), timed,
                    static_cast<double>(std::size(kRound)));
    std::vector<double> all;
    for (const auto& v : commit_ms) all.insert(all.end(), v.begin(), v.end());
    std::fprintf(stderr, "commits: n=%zu p50=%.3f p90=%.3f p99=%.3f ms\n",
                 all.size(), Quantile(all, 0.5), Quantile(all, 0.9),
                 Quantile(all, 0.99));
    for (int k = 0; k < 3; ++k) {
      std::fprintf(stderr, "  %-7s p10=%.3f p50=%.3f ms\n", kOpName[k],
                   Quantile(commit_ms[k], kLatencyQuantile), Median(commit_ms[k]));
    }
    std::fprintf(stderr, "reads: n=%zu p50=%.3f p90=%.3f ms; bind p50=%.3f ms\n",
                 read_ms.size(), Quantile(read_ms, 0.5), Quantile(read_ms, 0.9),
                 Median(bind_ms));
    return res;
  }

  res.Put("catalog.insert_ms", "ms", Median(tracer.DurationsMs("catalog.insert")));
  res.Put("catalog.update_ms", "ms", Median(tracer.DurationsMs("catalog.update")));
  res.Put("catalog.delete_ms", "ms", Median(tracer.DurationsMs("catalog.delete")));
  Result<size_t> versions = catalog.MasterVersionCount("T");
  Result<uint64_t> horizon = catalog.GcHorizon("T");
  res.Put("catalog.master_versions", "count", versions.ok() ? *versions : 0);
  res.Put("catalog.gc_lag", "count",
          horizon.ok() ? static_cast<double>(catalog.commit_seq() - *horizon) : 0);
  res.Put("modifications.apply_us", "us",
          Median(tracer.DurationsMs("modifications.apply")) * 1000);
  res.Put("relation.copy_ms", "ms", Median(tracer.DurationsMs("relation.copy")));
  if (!tracer.Write(std::string(kOutDir) + "/trace_" + opt.workload + ".jsonl")) {
    res.Fail("cannot write the trace file");
  }
  return res;
}

}  // namespace e2ebench
