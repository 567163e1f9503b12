// Shared plumbing of the end-to-end benchmark: clocks and sample
// statistics, an order-independent multiset fingerprint of relations,
// the span tracer of the traced run, and the result record every
// workload fills in.
//
// Nothing here calls into ongoingdb beyond reading Values: the
// fingerprints the checks compare are computed the same way over the
// program's results and over the benchmark's own naive evaluation.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "relation/relation.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// The process's start (set first thing in main): set-up time is taken
/// from here.
Clock::time_point& ProcessStart();

/// Prints to stderr the time since the process's start at which a
/// set-up phase ended: the reference breakdown of setup_s.
void NoteSetup(const char* phase);

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> v);

/// The q-quantile (0..1) of a sample, nearest rank.
double Quantile(std::vector<double> v, double q);

/// The quantile every end-to-end latency reports. On a shared
/// host, phases of memory contention lasting seconds slow every
/// operation by up to 1.5x while a CPU-only loop stays within a few
/// per cent; a run's median lands in whichever phase took more than
/// half of the run and so jumps between runs, while its 10th percentile
/// tracks the least contended phase of the run. The median, p90 and
/// p99 are printed beside it as reference figures.
inline constexpr double kLatencyQuantile = 0.1;

/// The kLatencyQuantile of each class's samples, averaged over the
/// classes (each class weighs the same, whatever its sample count).
double MeanOfClassQuantiles(const std::vector<std::vector<double>>& per_class);

/// What the shared loop of every workload measured.
struct TimedRounds {
  double setup_s = 0;             ///< process start -> warm-up done
  std::vector<double> round_ms;   ///< timed work of each measured round
  double peak_rss_mb = 0;         ///< after the fixed rss round
  /// Operations per second over the whole run: every measured round's
  /// operations divided by the rounds' summed timed work.
  double Rate(double ops_per_round) const {
    double ms = 0;
    for (double r : round_ms) ms += r;
    return ops_per_round * static_cast<double>(round_ms.size()) / (ms / 1000.0);
  }
};

/// Runs `warmup` unmeasured rounds, `round(false)`, then measured
/// rounds, `round(true)`, each returning its timed milliseconds, until
/// `seconds` of wall time have passed and at least `rss_round` rounds
/// (and one) have run. Every run attempts whole rounds of the same
/// operation sequence. The peak RSS is read right after measured round
/// `rss_round`, so that it reflects the same amount of work in every
/// run however many rounds the run completes (a workload whose rounds
/// grow its data would otherwise read larger the faster it ran); with
/// `rss_round` = 0 it is read after the last round.
template <typename Round>
TimedRounds RunRounds(int warmup, double seconds, size_t rss_round,
                      Round&& round);

/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// 64-bit finalizer (splitmix64's), used for hashing and the RNG.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// A small deterministic generator: the same seed gives the same inputs
/// on every platform (no std:: distributions, whose output is
/// implementation-defined).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix64(seed ^ 0x5eedULL)) {}
  uint64_t Next() { return Mix64(state_++); }
  /// Uniform integer in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Real() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Bernoulli(double p) { return Real() < p; }

 private:
  uint64_t state_;
};

/// Hash of one tuple, folded attribute by attribute. The program side
/// feeds it from Values, the naive side from the benchmark's own rows.
class TupleHash {
 public:
  void Int(int64_t v) { Fold(1, static_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
    Fold(2, h);
  }
  void Iv(int64_t start, int64_t end) {
    Fold(3, static_cast<uint64_t>(start));
    Fold(4, static_cast<uint64_t>(end));
  }
  uint64_t value() const { return h_; }

 private:
  void Fold(uint64_t tag, uint64_t v) { h_ = Mix64(h_ ^ Mix64(v + tag)); }
  uint64_t h_ = 0;
};

/// Multiset fingerprint: count plus two independent sums of tuple
/// hashes, so order does not matter and multiplicity does.
struct Fingerprint {
  uint64_t n = 0, s1 = 0, s2 = 0;
  void Add(uint64_t h) {
    ++n;
    s1 += Mix64(h);
    s2 += Mix64(h ^ 0xa5a5a5a5a5a5a5a5ULL) * (h | 1);
  }
  bool operator==(const Fingerprint&) const = default;
};

/// Fingerprint of an *instantiated* relation (every value fixed).
/// Sets *ok = false on a value type the naive side never produces.
Fingerprint FingerprintFixed(const ongoingdb::OngoingRelation& r, bool* ok);

/// Fingerprint of an ongoing relation: values with their ongoing
/// endpoints, plus each tuple's reference-time set.
Fingerprint FingerprintOngoing(const ongoingdb::OngoingRelation& r);

/// Civil date "yyyy/mm/dd" of a day number (days since 1970-01-01), the
/// SQL date-literal format.
std::string DateString(int64_t days);

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// What one workload run reports.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First failed check, for stderr.
  std::string first_error;

  void Fail(const std::string& what) {
    if (correct) first_error = what;
    correct = false;
  }
  void Put(const std::string& name, const std::string& unit, double v) {
    metrics.push_back({name, unit, v});
  }
  /// The end-to-end metrics of an untraced run, in BENCHMARK.json's
  /// order; `ops_per_round` is the operations of one round.
  void PutEndToEnd(double op_ms, const TimedRounds& timed,
                   double ops_per_round) {
    Put("op_ms_p10", "ms", op_ms);
    Put("ops_per_s", "1/s", timed.Rate(ops_per_round));
    Put("peak_rss_mb", "MB", timed.peak_rss_mb);
    Put("setup_s", "s", timed.setup_s);
  }
};

/// Span recorder of the traced run. Spans are kept in memory and
/// written out when the run ends; a span's parent is the innermost span
/// open when it began, and spans opened under one request id belong to
/// one operation. Single-threaded: every span is opened on the client
/// thread around a call into one layer.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t request = 0;
  };

  /// Starts a new request id (one replayed operation).
  uint64_t NewRequest() { return ++request_; }

  int Begin(const std::string& name);
  void End(int id);
  /// Names a span after the fact (a call whose outcome picks the layer
  /// path it took).
  void Rename(int id, std::string name) { spans_[id].name = std::move(name); }

  /// Accumulates a count recorded at a layer boundary.
  void Count(const std::string& name, double v) { counts_[name] += v; }
  double count(const std::string& name) const {
    auto it = counts_.find(name);
    return it == counts_.end() ? 0 : it->second;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (ms) of every closed span with this name.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Per span name: {count, total ms, self ms}; self time is a span's
  /// duration minus the part of it its child spans cover.
  struct Layer {
    uint64_t spans = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::map<std::string, Layer> Layers() const;

  /// Writes every span as one JSON line, then a summary line per span
  /// name. Returns false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - ProcessStart())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counts_;
  uint64_t request_ = 0;
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* t, const std::string& name)
      : t_(t), id_(t ? t->Begin(name) : -1) {}
  ~Scoped() {
    if (t_) t_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* t_;
  int id_;
};

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Where a traced run writes its span files, relative to the working
/// directory.
inline constexpr const char* kOutDir = ".bench_out";

template <typename Round>
TimedRounds RunRounds(int warmup, double seconds, size_t rss_round,
                      Round&& round) {
  for (int i = 0; i < warmup; ++i) round(false);
  TimedRounds out;
  out.setup_s = MsSince(ProcessStart()) / 1000.0;
  NoteSetup("warmed up");
  const auto start = Clock::now();
  while (out.round_ms.empty() || out.round_ms.size() < rss_round ||
         MsSince(start) < seconds * 1000.0) {
    out.round_ms.push_back(round(true));
    if (out.round_ms.size() == rss_round) out.peak_rss_mb = PeakRssMb();
  }
  if (rss_round == 0) out.peak_rss_mb = PeakRssMb();
  return out;
}

RunResult RunOngoingRead(const RunOptions& opt, bool parallel);
RunResult RunCommitStream(const RunOptions& opt);
RunResult RunViewRefresh(const RunOptions& opt);

}  // namespace e2ebench
