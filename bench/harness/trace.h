// Span recorder for the benchmark harness: Chrome trace-event JSON.
//
// Spans are taken at the harness's own call boundaries into the library
// (iteration, publish, query, set-up steps). Each thread appends to its
// own vector, so recording takes no lock after a thread's first span;
// the vectors are written out once, when the run ends and every thread
// has joined. A disabled recorder reads no clock and stores nothing, so
// untraced runs pay one branch per span.
//
// Durations the library reports itself (phase times, worker walls) are
// not timestamps; derived() lays them out as child spans in pipeline
// order inside their parent, with category "derived".
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace knnpc_bench {

class Trace {
 public:
  using Clock = std::chrono::steady_clock;

  struct Event {
    std::string name;
    const char* category = "harness";
    std::int64_t start_ns = 0;
    std::int64_t duration_ns = 0;
    /// Pre-rendered JSON object body ("\"k\":1,..."), may be empty.
    std::string args;
  };

  explicit Trace(bool enabled) : enabled_(enabled) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  /// RAII span: records [construction, destruction) on the calling thread.
  class Span {
   public:
    Span(Trace& trace, std::string name)
        : trace_(trace.enabled() ? &trace : nullptr) {
      if (trace_ != nullptr) {
        event_.name = std::move(name);
        event_.start_ns = trace_->now_ns();
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (trace_ != nullptr) {
        event_.duration_ns = trace_->now_ns() - event_.start_ns;
        trace_->add(std::move(event_));
      }
    }

    void arg(const char* key, double value) {
      if (trace_ == nullptr) return;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g",
                    event_.args.empty() ? "" : ",", key, value);
      event_.args += buf;
    }
    [[nodiscard]] std::int64_t start_ns() const noexcept {
      return event_.start_ns;
    }

   private:
    Trace* trace_;
    Event event_;
  };

  /// A library-reported duration laid out at [start_ns, start_ns + s).
  void derived(std::string name, std::int64_t start_ns, double seconds,
               std::string args = {}) {
    if (!enabled_) return;
    Event e;
    e.name = std::move(name);
    e.category = "derived";
    e.start_ns = start_ns;
    e.duration_ns = static_cast<std::int64_t>(seconds * 1e9);
    e.args = std::move(args);
    add(std::move(e));
  }

  void add(Event event) {
    if (enabled_) buffer().push_back(std::move(event));
  }

  /// Writes every thread's spans as one Chrome trace-event file. Call only
  /// after all recording threads have joined. Returns false on I/O error.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (std::size_t tid = 0; tid < buffers_.size(); ++tid) {
      for (const Event& e : *buffers_[tid]) {
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{%s}}",
                     first ? "" : ",", e.name.c_str(), e.category, tid + 1,
                     static_cast<double>(e.start_ns) / 1e3,
                     static_cast<double>(e.duration_ns) / 1e3,
                     e.args.c_str());
        first = false;
      }
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  /// The calling thread's span vector, registered on first use.
  std::vector<Event>& buffer() {
    thread_local const Trace* owner = nullptr;
    thread_local std::vector<Event>* mine = nullptr;
    if (owner != this) {
      const std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Event>>());
      mine = buffers_.back().get();
      owner = this;
    }
    return *mine;
  }

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<std::vector<Event>>> buffers_;
};

}  // namespace knnpc_bench
