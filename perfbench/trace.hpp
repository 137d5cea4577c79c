#pragma once
// In-memory span recorder of the traced run, written at exit as Chrome
// trace-event JSON (open it in Perfetto or chrome://tracing).
//
// Spans are recorded by the benchmark's own code around its calls into
// each layer's public functions; nothing inside the library is
// instrumented. A span carries its name, start, end, the id of the span
// that caused it, and a request id shared by the spans of one request.
// A disabled tracer records nothing and costs one branch per span. Every
// span is recorded by the benchmark's main thread, so the tracer is not
// thread-safe and writes every span on one track.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Record {
    const char* name = "";  ///< a string literal
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0: root
    std::int64_t request = -1;  ///< -1: not part of a request
    Clock::time_point start, end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const noexcept { return enabled_; }
  std::uint64_t next_id() noexcept { return ++last_id_; }
  void record(const Record& r) { spans_.push_back(r); }
  std::size_t size() const noexcept { return spans_.size(); }

  /// Writes every span as a complete ("X") event, timestamps in
  /// microseconds from the earliest span. `meta_json` (a JSON object) is
  /// stored under "otherData". Returns false when the file can't be
  /// written.
  bool write(const std::string& path, const std::string& meta_json) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    Clock::time_point origin = Clock::time_point::max();
    for (const Record& r : spans_) origin = std::min(origin, r.start);
    std::fprintf(f, "{\"otherData\": %s,\n\"traceEvents\": [\n",
                 meta_json.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      const double ts = micros(r.start - origin);
      const double dur = micros(r.end - r.start);
      std::fprintf(f,
                   "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"id\": %llu, \"parent\": %llu, "
                   "\"request\": %lld}}%s\n",
                   r.name, ts, dur,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent),
                   static_cast<long long>(r.request),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  static double micros(Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }

  const bool enabled_;
  std::uint64_t last_id_ = 0;
  std::vector<Record> spans_;
};

/// Scoped span: records [construction, destruction) when the tracer is on.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0,
       std::int64_t request = -1)
      : tracer_(tracer) {
    if (!tracer_.enabled()) return;
    rec_.name = name;
    rec_.id = tracer_.next_id();
    rec_.parent = parent;
    rec_.request = request;
    rec_.start = Tracer::Clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (!tracer_.enabled()) return;
    rec_.end = Tracer::Clock::now();
    tracer_.record(rec_);
  }
  std::uint64_t id() const noexcept { return rec_.id; }

 private:
  Tracer& tracer_;
  Tracer::Record rec_;
};

}  // namespace perfbench
