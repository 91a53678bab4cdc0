#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace adqbench {

double Tracer::now_us() const { return to_us(std::chrono::steady_clock::now()); }

double Tracer::to_us(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void Tracer::add(const std::string& name, const std::string& layer,
                 double ts_us, double dur_us) {
  if (!enabled()) return;
  Span s{name, layer, thread_index(), ts_us, dur_us, 0, false};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

void Tracer::add_async(const std::string& name, const std::string& layer,
                       std::uint64_t id, double ts_us, double dur_us) {
  if (!enabled()) return;
  Span s{name, layer, thread_index(), ts_us, dur_us, id, true};
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(s));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

ScopedSpan::ScopedSpan(const char* name, const char* layer)
    : name_(name), layer_(layer) {
  if (tracer().enabled()) start_us_ = tracer().now_us();
}

ScopedSpan::~ScopedSpan() {
  if (start_us_ < 0.0) return;
  tracer().add(name_, layer_, start_us_, tracer().now_us() - start_us_);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  const auto head = [&](const Span& s, const char* ph, double ts) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"" + json_escape(s.name) + "\",\"cat\":\"" +
           json_escape(s.layer) + "\",\"ph\":\"" + ph + "\"";
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%d,\"ts\":%.3f",
                  s.tid, ts);
    out += buf;
  };
  for (const Span& s : spans) {
    if (s.async) {
      char id[48];
      std::snprintf(id, sizeof(id), ",\"id\":\"0x%llx\"}",
                    static_cast<unsigned long long>(s.id));
      head(s, "b", s.ts_us);
      out += id;
      head(s, "e", s.ts_us + s.dur_us);
      out += id;
    } else {
      head(s, "X", s.ts_us);
      std::snprintf(buf, sizeof(buf), ",\"dur\":%.3f}", s.dur_us);
      out += buf;
    }
  }
  out += "]}\n";
  return out;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  // Synchronous spans nest per thread: sort each thread's spans by start
  // (longer first on ties) and keep a stack of open ancestors; a span's
  // duration is subtracted from its innermost enclosing span's self time.
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts_us != y.ts_us) return x.ts_us < y.ts_us;
    return x.dur_us > y.dur_us;
  });
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur_us;
  std::vector<std::size_t> open;
  int tid = -1;
  for (const std::size_t i : order) {
    const Span& s = spans[i];
    if (s.async) continue;
    if (s.tid != tid) {
      open.clear();
      tid = s.tid;
    }
    while (!open.empty()) {
      const Span& top = spans[open.back()];
      if (s.ts_us < top.ts_us + top.dur_us) break;
      open.pop_back();
    }
    if (!open.empty()) self[open.back()] -= s.dur_us;
    open.push_back(i);
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SelfTime& t = by_name[spans[i].name];
    t.name = spans[i].name;
    t.layer = spans[i].layer;
    ++t.count;
    t.total_ms += spans[i].dur_us / 1000.0;
    t.self_ms += std::max(0.0, self[i]) / 1000.0;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

}  // namespace adqbench
