#include "harness.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace e2ebench {

using ongoingdb::OngoingRelation;
using ongoingdb::Value;
using ongoingdb::ValueType;

Clock::time_point& ProcessStart() {
  static Clock::time_point start = Clock::now();
  return start;
}

void NoteSetup(const char* phase) {
  std::fprintf(stderr, "setup: %s at %.3f s\n", phase,
               MsSince(ProcessStart()) / 1000.0);
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(k, v.size() - 1)];
}

double MeanOfClassQuantiles(const std::vector<std::vector<double>>& per_class) {
  double sum = 0;
  for (const auto& v : per_class) sum += Quantile(v, kLatencyQuantile);
  return per_class.empty() ? 0 : sum / static_cast<double>(per_class.size());
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

Fingerprint FingerprintFixed(const OngoingRelation& r, bool* ok) {
  Fingerprint fp;
  for (const auto& t : r.tuples()) {
    TupleHash h;
    for (const Value& v : t.values()) {
      switch (v.type()) {
        case ValueType::kInt64:
          h.Int(v.AsInt64());
          break;
        case ValueType::kString:
          h.Str(v.AsString());
          break;
        case ValueType::kFixedInterval:
          h.Iv(v.AsInterval().start, v.AsInterval().end);
          break;
        default:
          *ok = false;
      }
    }
    fp.Add(h.value());
  }
  return fp;
}

Fingerprint FingerprintOngoing(const OngoingRelation& r) {
  Fingerprint fp;
  for (const auto& t : r.tuples()) {
    TupleHash h;
    for (const Value& v : t.values()) {
      switch (v.type()) {
        case ValueType::kInt64:
          h.Int(v.AsInt64());
          break;
        case ValueType::kString:
          h.Str(v.AsString());
          break;
        case ValueType::kFixedInterval:
          h.Iv(v.AsInterval().start, v.AsInterval().end);
          break;
        case ValueType::kOngoingInterval: {
          const auto& iv = v.AsOngoingInterval();
          h.Iv(iv.start().a(), iv.start().b());
          h.Iv(iv.end().a(), iv.end().b());
          break;
        }
        default:
          h.Str(v.ToString());
      }
    }
    for (const auto& iv : t.rt().intervals()) h.Iv(iv.start, iv.end);
    fp.Add(h.value());
  }
  return fp;
}

std::string DateString(int64_t days) {
  // Howard Hinnant's civil_from_days.
  days += 719468;
  const int64_t era = (days >= 0 ? days : days - 146096) / 146097;
  const int64_t doe = days - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp < 10 ? mp + 3 : mp - 9;
  const int64_t y = yoe + era * 400 + (m <= 2);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04lld/%02lld/%02lld",
                static_cast<long long>(y), static_cast<long long>(m),
                static_cast<long long>(d));
  return buf;
}

int Tracer::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request_;
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::map<std::string, Tracer::Layer> Tracer::Layers() const {
  // Children of one parent run one after another on the client thread,
  // so the part of a span they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, Layer> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& l = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    ++l.spans;
    l.total_ms += dur / 1e6;
    l.self_ms += std::max<int64_t>(0, dur - child_ns[i]) / 1e6;
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request\": %llu}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  for (const auto& [name, l] : Layers()) {
    std::fprintf(f,
                 "{\"layer\": \"%s\", \"spans\": %llu, \"total_ms\": %.4f, "
                 "\"self_ms\": %.4f}\n",
                 name.c_str(), static_cast<unsigned long long>(l.spans),
                 l.total_ms, l.self_ms);
  }
  for (const auto& [name, v] : counts_) {
    std::fprintf(f, "{\"count\": \"%s\", \"value\": %.6g}\n", name.c_str(), v);
  }
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
