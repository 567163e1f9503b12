#include "data.h"

#include <array>
#include <cstdlib>
#include <unordered_map>

namespace e2ebench {

using namespace ongoingdb;

namespace {

constexpr std::array<const char*, 6> kProducts = {
    "Firefox", "Thunderbird", "SeaMonkey", "Core", "Toolkit", "Bugzilla"};
constexpr std::array<const char*, 8> kComponents = {
    "Spam filter", "Rendering", "JavaScript", "Networking",
    "UI",          "Storage",   "Security",   "Build"};
constexpr std::array<const char*, 5> kOses = {"Linux", "Windows", "macOS",
                                              "Android", "All"};
constexpr std::array<const char*, 5> kSeverities = {
    "trivial", "minor", "normal", "major", "critical"};

template <size_t N>
const char* Pick(Rng& rng, const std::array<const char*, N>& a) {
  return a[static_cast<size_t>(rng.Uniform(0, N - 1))];
}

void MustOk(const Status& st, const char* what) {
  if (!st.ok()) {
    std::fprintf(stderr, "e2ebench: %s: %s\n", what, st.ToString().c_str());
    std::exit(2);
  }
}

}  // namespace

Value ModelIv::ToValue() const {
  return Value::Ongoing(
      OngoingInterval(OngoingTimePoint(sa, sb), OngoingTimePoint(ea, eb)));
}

BugTables GenerateBugTables(uint64_t seed, int64_t num_bugs) {
  BugTables t;
  t.history_end = Date(2014, 1, 1);
  t.history_start = t.history_end - 20 * 365;
  const int64_t hs = t.history_start, he = t.history_end;
  Rng rng(seed);
  t.B = OngoingRelation(Schema({{"ID", ValueType::kInt64},
                                {"Product", ValueType::kString},
                                {"Component", ValueType::kString},
                                {"OS", ValueType::kString},
                                {"Description", ValueType::kString},
                                {"VT", ValueType::kOngoingInterval}}));
  t.B.Reserve(static_cast<size_t>(num_bugs));
  // Descriptions are seeded slices of one random-letter pool: drawing
  // every letter from the generator would make the benchmark's own
  // input generation a large share of set-up time.
  std::string pool(4096, ' ');
  for (char& c : pool) c = static_cast<char>('a' + rng.Next() % 26);
  pool += pool;
  std::string description;

  for (int64_t id = 0; id < num_bugs; ++id) {
    const bool ongoing = rng.Bernoulli(0.15);
    int64_t start;
    ModelIv vt;
    if (ongoing) {
      // Half of the ongoing bugs start within the last two years.
      start = rng.Bernoulli(0.5)
                  ? rng.Uniform(he - 2 * 365, he - 1)
                  : hs + static_cast<int64_t>(
                             (1.0 - rng.Real() * rng.Real()) *
                             static_cast<double>(he - 2 * 365 - 1 - hs));
      vt = ModelIv::SinceNow(start);
    } else {
      start = rng.Uniform(hs, he - 201);
      vt = ModelIv::Fixed(start, std::min(start + rng.Uniform(1, 180), he));
    }
    ModelRow b{id, Pick(rng, kProducts), vt};
    const char* component = Pick(rng, kComponents);
    const char* os = Pick(rng, kOses);
    description.assign(pool, static_cast<size_t>(rng.Uniform(0, 4095)),
                       static_cast<size_t>(rng.Uniform(435, 1305)));
    MustOk(t.B.Insert({Value::Int64(id), Value::String(b.text),
                       Value::String(component), Value::String(os),
                       Value::String(description), vt.ToValue()}),
           "insert B");
    t.b.push_back(std::move(b));

    // Assignment and severity histories: consecutive intervals per bug,
    // the last one ongoing iff the bug is.
    auto history = [&](std::vector<ModelRow>* out, double extra_rows,
                       auto text) {
      int rows = 1;
      while (extra_rows > 0 && rng.Bernoulli(extra_rows)) {
        ++rows;
        extra_rows -= 1.0;
      }
      int64_t cursor = start;
      for (int k = 0; k < rows; ++k) {
        ModelIv row_vt;
        if (k == rows - 1) {
          row_vt = ongoing ? ModelIv::SinceNow(cursor)
                           : ModelIv::Fixed(cursor, std::max(vt.eb, cursor + 1));
        } else {
          const int64_t end = cursor + rng.Uniform(1, 60);
          row_vt = ModelIv::Fixed(cursor, end);
          cursor = end;
        }
        out->push_back({id, text(), row_vt});
      }
    };
    history(&t.a, 0.475, [&] {
      return "dev" + std::to_string(rng.Uniform(0, 499)) + "@mozilla.org";
    });
    history(&t.s, 0.099, [&] { return std::string(Pick(rng, kSeverities)); });
  }

  t.A = ToRelation(t.a, "Email");
  t.S = ToRelation(t.s, "Severity");
  return t;
}

OngoingRelation ToRelation(const std::vector<ModelRow>& rows,
                           const std::string& text_column) {
  OngoingRelation r(Schema({{"ID", ValueType::kInt64},
                            {text_column, ValueType::kString},
                            {"VT", ValueType::kOngoingInterval}}));
  r.Reserve(rows.size());
  for (const ModelRow& row : rows) {
    MustOk(r.Insert({Value::Int64(row.id), Value::String(row.text),
                     row.vt.ToValue()}),
           "insert row");
  }
  return r;
}

Fingerprint NaiveJoin(const std::vector<ModelRow>& outer,
                      const std::vector<ModelRow>& inner, int64_t rt) {
  std::unordered_multimap<int64_t, const ModelRow*> by_id;
  by_id.reserve(inner.size());
  for (const ModelRow& r : inner) by_id.emplace(r.id, &r);
  Fingerprint fp;
  for (const ModelRow& o : outer) {
    const int64_t os = o.vt.StartAt(rt), oe = o.vt.EndAt(rt);
    auto [lo, hi] = by_id.equal_range(o.id);
    for (auto it = lo; it != hi; ++it) {
      const ModelRow& i = *it->second;
      if (!OverlapsF(os, oe, i.vt.StartAt(rt), i.vt.EndAt(rt))) continue;
      TupleHash h;
      HashRow(o, rt, &h);
      HashRow(i, rt, &h);
      fp.Add(h.value());
    }
  }
  return fp;
}

}  // namespace e2ebench
