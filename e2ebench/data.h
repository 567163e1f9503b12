// The benchmark's inputs and its own model of them.
//
// Inputs are generated here from the run's seed (never by the
// program's dataset generators, so a change to those cannot move the
// benchmark). Every generated row is kept twice: once as a program
// tuple loaded into ongoingdb, once as a plain model row that the naive
// checks evaluate with the fixed-interval definitions below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/time.h"
#include "harness.h"
#include "relation/relation.h"

namespace e2ebench {

/// An ongoing interval [ts, te) of the model: each endpoint is a+b and
/// instantiates at rt to rt clamped into [a, b].
struct ModelIv {
  int64_t sa = 0, sb = 0, ea = 0, eb = 0;

  static ModelIv Fixed(int64_t s, int64_t e) { return {s, s, e, e}; }
  static ModelIv SinceNow(int64_t s) {
    return {s, s, ongoingdb::kMinInfinity, ongoingdb::kMaxInfinity};
  }
  bool open() const {
    return ea == ongoingdb::kMinInfinity && eb == ongoingdb::kMaxInfinity;
  }
  /// Torp close at tc: end := min(end, tc), endpoint-wise.
  void Close(int64_t tc) {
    ea = std::min(ea, tc);
    eb = std::min(eb, tc);
  }
  static int64_t Clamp(int64_t rt, int64_t a, int64_t b) {
    return rt <= a ? a : (rt < b ? rt : b);
  }
  int64_t StartAt(int64_t rt) const { return Clamp(rt, sa, sb); }
  int64_t EndAt(int64_t rt) const { return Clamp(rt, ea, eb); }
  ongoingdb::Value ToValue() const;
};

// Fixed-interval predicates (the paper's definitions, on [s, e)).
inline bool NonEmptyF(int64_t s, int64_t e) { return s < e; }
inline bool OverlapsF(int64_t s1, int64_t e1, int64_t s2, int64_t e2) {
  return s1 < e2 && s2 < e1 && NonEmptyF(s1, e1) && NonEmptyF(s2, e2);
}
inline bool ContainsF(int64_t s, int64_t e, int64_t t) {
  return s <= t && t < e;
}

/// One model row: an integer key, one text attribute, a valid time.
/// B rows: (ID, Product, VT); A: (ID, Email, VT); S: (ID, Severity, VT).
struct ModelRow {
  int64_t id = 0;
  std::string text;
  ModelIv vt;
};

/// Bug-tracker tables shaped like the MozillaBugs data set of the
/// paper's evaluation (datasets/mozilla.h): B ~15% ongoing with ~870-byte
/// descriptions, A ~1.475 rows/bug ~11% ongoing, S ~1.1 rows/bug ~14%
/// ongoing, 20 years of history ending 2014/01/01, half the ongoing
/// intervals starting in the last two years.
struct BugTables {
  std::vector<ModelRow> b, a, s;
  ongoingdb::OngoingRelation B, A, S;
  int64_t history_start = 0;
  int64_t history_end = 0;
};

BugTables GenerateBugTables(uint64_t seed, int64_t num_bugs);

/// A (ID, Email, VT) or S (ID, Severity, VT) program relation from
/// model rows.
ongoingdb::OngoingRelation ToRelation(const std::vector<ModelRow>& rows,
                                      const std::string& text_column);

/// Hash of an instantiated (ID, text, VT) row at rt — the
/// FingerprintFixed encoding of the program's instantiated tuple.
inline void HashRow(const ModelRow& r, int64_t rt, TupleHash* h) {
  h->Int(r.id);
  h->Str(r.text);
  h->Iv(r.vt.StartAt(rt), r.vt.EndAt(rt));
}

/// Naive fixed-time evaluation at rt of
///   outer JOIN inner ON outer.ID = inner.ID AND outer.VT OVERLAPS inner.VT
/// over model rows, as the multiset fingerprint of SELECT *.
Fingerprint NaiveJoin(const std::vector<ModelRow>& outer,
                      const std::vector<ModelRow>& inner, int64_t rt);

}  // namespace e2ebench
