#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/trace.h"

namespace perfbench {

double SecondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Tail(std::vector<double> values, size_t beyond, double* percentile) {
  if (values.empty()) {
    if (percentile != nullptr) *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t index = n > beyond ? n - beyond - 1 : 0;
  if (percentile != nullptr) *percentile = static_cast<double>(index + 1) / n;
  return values[index];
}

void Metrics::Set(const std::string& name, double value, const std::string& unit) {
  for (auto& entry : values_) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  values_.push_back({name, {value, unit}});
}

std::string Metrics::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < values_.size(); ++i) {
    const double value = values_[i].second.first;
    char number[64];
    // %.17g keeps every digit; non-finite values have no JSON spelling.
    std::snprintf(number, sizeof(number), "%.17g", std::isfinite(value) ? value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + values_[i].first + "\": {\"value\": " + number + ", \"unit\": \"" +
           values_[i].second.second + "\"}";
  }
  out += "}";
  return out;
}

bool Checks::Expect(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 10) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

int64_t Checks::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

int64_t Checks::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

Usage Usage::Now() {
  Usage usage;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  usage.cpu_seconds = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec +
                      ru.ru_stime.tv_usec * 1e-6;
  usage.involuntary_switches = ru.ru_nivcsw;
  usage.wall = Clock::now();
  return usage;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

Tracer::Tracer() : epoch_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_).count();
}

uint64_t Tracer::NewOp() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_op_++;
}

int Tracer::Begin(const std::string& name, uint64_t op, int parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, op, parent, now, -1});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void Tracer::ImportEngineSpans(const reptile::TraceContext& trace,
                               Clock::time_point trace_epoch, uint64_t op, int parent) {
  const int64_t base =
      std::chrono::duration_cast<std::chrono::nanoseconds>(trace_epoch - epoch_).count();
  std::lock_guard<std::mutex> lock(mu_);
  for (const reptile::TraceSpan& span : trace.Spans()) {
    const int64_t start = base + static_cast<int64_t>(span.start_seconds * 1e9);
    const int64_t end = start + static_cast<int64_t>(span.duration_seconds * 1e9);
    spans_.push_back(Span{"engine." + span.name, op, parent, start, end});
  }
}

std::map<std::string, Tracer::NameTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent != kNoParent && span.end_ns >= 0) {
      children[static_cast<size_t>(span.parent)].push_back({span.start_ns, span.end_ns});
    }
  }
  std::map<std::string, NameTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, cursor);
      const int64_t to = std::min(end, span.end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    NameTotals& entry = totals[span.name];
    const double duration = (span.end_ns - span.start_ns) * 1e-9;
    entry.total_seconds += duration;
    entry.self_seconds += duration - covered * 1e-9;
    ++entry.count;
  }
  return totals;
}

bool Tracer::WriteJson(const std::string& path) const {
  const std::map<std::string, NameTotals> totals = Totals();
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"spans\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i > 0 ? ",\n" : "") << "{\"id\":" << i << ",\"op\":" << span.op
        << ",\"name\":\"" << span.name << "\",\"parent\":" << span.parent
        << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns << "}";
  }
  out << "\n],\n\"totals\":{";
  bool first = true;
  for (const auto& [name, entry] : totals) {
    out << (first ? "\n" : ",\n") << "\"" << name << "\":{\"count\":" << entry.count
        << ",\"total_s\":" << entry.total_seconds << ",\"self_s\":" << entry.self_seconds
        << "}";
    first = false;
  }
  out << "\n}}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
