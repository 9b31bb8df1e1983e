#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <thread>

namespace perfbench {

// ---- Samples ----------------------------------------------------------------

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::quantile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                     static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

// ---- Timeline ---------------------------------------------------------------

Samples Timeline::values() const {
  Samples out;
  for (const Point& p : points_) out.add(p.value);
  return out;
}

std::vector<Samples> Timeline::windows(std::int64_t start, std::int64_t end,
                                       double window_s) const {
  const auto width = static_cast<std::int64_t>(window_s * 1e9);
  const std::int64_t n = width > 0 ? (end - start) / width : 0;
  std::vector<Samples> out(static_cast<std::size_t>(std::max<std::int64_t>(n, 0)));
  for (const Point& p : points_) {
    if (p.t_ns < start) continue;
    const std::int64_t w = (p.t_ns - start) / width;
    if (w < n) out[static_cast<std::size_t>(w)].add(p.value);
  }
  return out;
}

Samples Timeline::window_rates(std::int64_t start, std::int64_t end,
                               double window_s) const {
  Samples rates;
  for (const Samples& w : windows(start, end, window_s)) {
    rates.add(static_cast<double>(w.size()) / window_s);
  }
  return rates;
}

Samples Timeline::window_quantiles(double p, std::int64_t start,
                                   std::int64_t end, double window_s) const {
  Samples per_window;
  for (const Samples& w : windows(start, end, window_s)) {
    if (w.size() > 0) per_window.add(w.quantile(p));
  }
  return per_window;
}

// ---- MetricSet / Outcome ----------------------------------------------------

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  for (auto& [n, m] : items_) {
    if (n == name) {
      m = Metric{value, unit, samples};
      return;
    }
  }
  items_.emplace_back(name, Metric{value, unit, samples});
}

const Metric* MetricSet::find(const std::string& name) const {
  for (const auto& [n, m] : items_) {
    if (n == name) return &m;
  }
  return nullptr;
}

double MetricSet::value(const std::string& name) const {
  const Metric* m = find(name);
  return m == nullptr ? 0.0 : m->value;
}

void SetupTimes::report(Outcome& out) const {
  out.e2e.set("setup_s", cpu_s.median(), "s", cpu_s.size());
  out.detail.set("setup_s", cpu_s.median(), "s", cpu_s.size());
  out.detail.set("setup_wall_s", wall_s.median(), "s", wall_s.size());
}

void Outcome::error(const std::string& what) {
  // Keep the first few; one violation already fails the run.
  if (errors.size() < 20) errors.push_back(what);
}

// ---- Tracer -----------------------------------------------------------------

namespace {
struct LocalBuffer {
  const Tracer* owner = nullptr;
  Tracer::Buffer* buffer = nullptr;
};
thread_local LocalBuffer t_local;
std::atomic<std::uint64_t> g_thread_seq{0};
}  // namespace

Tracer::Buffer& Tracer::local() {
  if (t_local.owner != this) {
    auto buffer = std::make_unique<Buffer>();
    buffer->spans.reserve(1 << 20);
    t_local.owner = this;
    t_local.buffer = buffer.get();
    util::MutexLock lock(mu_);
    buffers_.emplace(g_thread_seq.fetch_add(1), std::move(buffer));
  }
  return *t_local.buffer;
}

std::string Tracer::layer_of(const char* name) {
  const std::string s(name);
  if (s.rfind("op.", 0) == 0) return "bench";
  const auto dot = s.rfind('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

Tracer::LayerTimes Tracer::summarize() const {
  LayerTimes out;
  util::MutexLock lock(mu_);
  for (const auto& [tid, buffer] : buffers_) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      out.self_ns[layer_of(s.name)] += dur - child_ns[i];
      out.dur_us[s.name].add(dur / 1000.0);
      if (s.parent < 0) out.root_ns += dur;
    }
  }
  return out;
}

bool Tracer::write(const std::string& path, std::size_t max_per_thread) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  util::MutexLock lock(mu_);
  for (const auto& [tid, buffer] : buffers_) {
    const std::vector<Span>& spans = buffer->spans;
    for (std::size_t i = 0; i < std::min(spans.size(), max_per_thread); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "{\"thread\":%llu,\"id\":%zu,\"parent\":%d,\"op\":%llu,"
                   "\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   static_cast<unsigned long long>(tid), i, s.parent,
                   static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op) {
  if (tracer == nullptr) return;
  buffer_ = &tracer->local();
  Span span;
  span.name = name;
  span.op = op;
  span.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  index_ = static_cast<std::int32_t>(buffer_->spans.size());
  buffer_->open.push_back(index_);
  span.start_ns = now_ns();
  buffer_->spans.push_back(span);
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  buffer_->spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  buffer_->open.pop_back();
}

// ---- checked messages -------------------------------------------------------

namespace {

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store64(std::uint8_t* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

/// Order-sensitive checksum of the filler after the header.
std::uint64_t body_sum(const std::uint8_t* p, std::size_t n) {
  std::uint64_t s = 0x6a09e667f3bcc909ULL;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) s = std::rotl(s, 5) ^ load64(p + i);
  for (; i < n; ++i) s = std::rotl(s, 5) ^ p[i];
  return s;
}

std::uint64_t header_mix(std::uint64_t tag, std::uint64_t seq) {
  SplitMix m(tag * 0x100000001b3ULL ^ seq);
  return m.next();
}

}  // namespace

MessageWriter::MessageWriter(std::uint64_t tag, std::size_t size) : tag_(tag) {
  resize(size);
}

void MessageWriter::resize(std::size_t size) {
  buf_.assign(std::max(size, kHeaderBytes), 0);
  SplitMix fill(tag_ ^ size);
  for (std::size_t i = kHeaderBytes; i < buf_.size(); ++i) {
    buf_[i] = static_cast<std::uint8_t>(fill.next());
  }
  body_sum_ = body_sum(buf_.data() + kHeaderBytes, buf_.size() - kHeaderBytes);
}

util::ByteSpan MessageWriter::next() {
  ++seq_;
  store64(buf_.data(), tag_);
  store64(buf_.data() + 8, seq_);
  store64(buf_.data() + 16, header_mix(tag_, seq_) ^ body_sum_);
  return util::ByteSpan(buf_.data(), buf_.size());
}

std::string MessageChecker::accept(util::ByteSpan body) {
  if (body.size() < kHeaderBytes) return "short message";
  const std::uint64_t tag = load64(body.data());
  const std::uint64_t seq = load64(body.data() + 8);
  const std::uint64_t sum = load64(body.data() + 16);
  if (tag != tag_) return "message of connection " + std::to_string(tag);
  const std::uint64_t want =
      header_mix(tag, seq) ^
      body_sum(body.data() + kHeaderBytes, body.size() - kHeaderBytes);
  if (sum != want) return "corrupt body at seq " + std::to_string(seq);
  if (seq < next_) return "duplicate seq " + std::to_string(seq);
  if (seq > next_) {
    return "gap or reorder: got seq " + std::to_string(seq) + ", expected " +
           std::to_string(next_);
  }
  ++next_;
  return {};
}

// ---- process counters -------------------------------------------------------

ProcCounters ProcCounters::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcCounters out;
  out.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
                  1e6;
  out.ctx_switches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  out.max_rss_bytes = static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
  return out;
}

unsigned nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void pin_to_cpu(unsigned cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % nproc(), &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

}  // namespace perfbench
