#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

Pair UniformPairs::next() {
  const auto u = static_cast<std::uint32_t>(rng_.below(n_));
  const auto v = static_cast<std::uint32_t>(rng_.below(n_));
  return {u, v};
}

ZipfPairs::ZipfPairs(std::uint32_t n, double s, std::uint64_t hot_seed,
                     std::uint64_t seed)
    : n_(n), pairs_(std::uint64_t{n} * n), rng_(seed) {
  // n < 2^16 keeps rank * mul below 2^64 in next().
  if (n == 0 || n >= (1u << 16)) {
    throw std::invalid_argument("ZipfPairs: n must be in [1, 65535]");
  }
  cdf_.resize(pairs_);
  double acc = 0;
  for (std::uint64_t r = 0; r < pairs_; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -s);
    cdf_[r] = acc;
  }
  for (double& c : cdf_) c /= acc;
  // rank -> pair index is r * mul + add (mod pairs), a bijection whenever
  // gcd(mul, pairs) == 1.
  Rng layout(hot_seed);
  mul_ = layout.next() % pairs_ | 1;
  while (std::gcd(mul_, pairs_) != 1) mul_ += 2;
  add_ = layout.below(pairs_);
}

Pair ZipfPairs::next() {
  const double x = rng_.unit();
  auto rank = static_cast<std::uint64_t>(
      std::lower_bound(cdf_.begin(), cdf_.end(), x) - cdf_.begin());
  if (rank >= pairs_) rank = pairs_ - 1;
  const std::uint64_t idx = (rank * mul_ % pairs_ + add_) % pairs_;
  return {static_cast<std::uint32_t>(idx / n_),
          static_cast<std::uint32_t>(idx % n_)};
}

OpMix::OpMix(std::vector<std::uint32_t> shares, std::uint64_t seed)
    : rng_(seed) {
  for (std::uint32_t kind = 0; kind < shares.size(); ++kind) {
    block_.insert(block_.end(), shares[kind], kind);
  }
  if (block_.empty()) throw std::invalid_argument("OpMix: empty mix");
  refill();
}

void OpMix::refill() {
  for (std::size_t i = block_.size() - 1; i > 0; --i) {
    std::swap(block_[i], block_[rng_.below(i + 1)]);
  }
  pos_ = 0;
}

std::uint32_t OpMix::next() {
  if (pos_ == block_.size()) refill();
  return block_[pos_++];
}

double tail_percentile(std::uint64_t n) {
  if (n < 20) return 50.0;
  // Percentile p leaves n - ceil(p n / 100) samples beyond it; the largest
  // p (to 0.1) with at least ten beyond, capped at 99.
  double p = std::floor(1000.0 * static_cast<double>(n - 10) /
                        static_cast<double>(n)) / 10.0;
  while (n - static_cast<std::uint64_t>(
                 std::ceil(p / 100.0 * static_cast<double>(n))) < 10) {
    p -= 0.1;
  }
  return std::min(99.0, p);
}

namespace {
constexpr std::uint64_t kExact = 1024;  // exact buckets below this
constexpr int kSubBits = 7;             // 128 sub-buckets per octave
constexpr int kExactBits = 10;

std::size_t bucket_of(std::uint64_t ns) {
  if (ns < kExact) return static_cast<std::size_t>(ns);
  const int e = 63 - __builtin_clzll(ns);  // e >= kExactBits
  const std::uint64_t sub = (ns >> (e - kSubBits)) & ((1u << kSubBits) - 1);
  return kExact + (static_cast<std::size_t>(e - kExactBits) << kSubBits) + sub;
}

double bucket_mid(std::size_t b) {
  if (b < kExact) return static_cast<double>(b);
  const std::size_t k = b - kExact;
  const int e = static_cast<int>(k >> kSubBits) + kExactBits;
  const std::uint64_t sub = k & ((1u << kSubBits) - 1);
  const double lo = std::ldexp(static_cast<double>((1u << kSubBits) | sub),
                               e - kSubBits);
  return lo + std::ldexp(0.5, e - kSubBits);
}
}  // namespace

LatencyHistogram::LatencyHistogram()
    : buckets_(kExact + (static_cast<std::size_t>(64 - kExactBits) << kSubBits),
               0) {}

void LatencyHistogram::record(std::uint64_t ns) {
  ++buckets_[bucket_of(ns)];
  ++count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<std::uint64_t>(rank, 1, count_);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank) return bucket_mid(b);
  }
  return bucket_mid(buckets_.size() - 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------- Tracer

Tracer::Tracer(std::uint32_t op_stride, std::size_t op_span_cap)
    : op_stride_(std::max<std::uint32_t>(1, op_stride)),
      op_span_cap_(op_span_cap) {
  spans_.reserve(op_span_cap + 4096);
}

bool Tracer::sample_op() {
  const bool take = ops_seen_++ % op_stride_ == 0 && op_spans_ < op_span_cap_;
  op_id_ = take ? ops_seen_ : 0;
  return take;
}

std::uint32_t Tracer::intern(const char* name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::begin(const char* name, std::uint64_t items) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = stack_.empty() ? kNone : stack_.back();
  if (op_id_ != 0) ++op_spans_;
  spans_.push_back({intern(name), parent, op_id_, items,
                    ns_since(origin_, Clock::now()), 0});
  stack_.push_back(id);
  return id;
}

void Tracer::end(std::uint32_t id) {
  spans_[id].end_ns = ns_since(origin_, Clock::now());
  stack_.pop_back();
  if (stack_.empty()) op_id_ = 0;
}

void Tracer::counter(const char* name, double value) {
  counters_.push_back(
      {intern(name), stack_.empty() ? kNone : stack_.back(), value});
}

bool Tracer::write_json(const std::string& path,
                        const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"op_stride\":%u,\"names\":[",
               json_escape(workload).c_str(), op_stride_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    std::fprintf(f, "%s\"%s\"", i ? "," : "", json_escape(names_[i]).c_str());
  }
  // Spans as arrays [name, start_ns, end_ns, parent, op, items] to keep the
  // document small; parent is -1 for roots, op is 0 outside a request.
  std::fputs("],\"span_fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\","
             "\"op\",\"items\"],\"spans\":[",
             f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[%u,%llu,%llu,%lld,%llu,%llu]", i ? "," : "", s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.items));
  }
  std::fputs("],\"counters\":[", f);
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    const Counter& c = counters_[i];
    std::fprintf(f, "%s[%u,%lld,%.17g]", i ? "," : "", c.name,
                 c.span == kNone ? -1LL : static_cast<long long>(c.span),
                 c.value);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------- machine

CpuPicker::CpuPicker() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

int CpuPicker::repin() {
  const auto pin = [](std::size_t cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0;
  };
  int best = -1;
  std::uint64_t best_ns = 0;
  std::uint64_t current_ns = 0;
  for (const std::size_t cpu : cpus_) {
    if (!pin(cpu)) continue;
    std::uint64_t ns = ~std::uint64_t{0};
    for (int rep = 0; rep < 3; ++rep) {  // fastest of three ~0.5 ms loops
      const auto t0 = Clock::now();
      for (int i = 0; i < 250'000; ++i) {
        spin_ = spin_ * 6364136223846793005ULL + 1442695040888963407ULL;
        spin_ ^= spin_ >> 29;
      }
      ns = std::min(ns, ns_since(t0, Clock::now()));
    }
    if (static_cast<int>(cpu) == current_) current_ns = ns;
    if (best < 0 || ns < best_ns) {
      best = static_cast<int>(cpu);
      best_ns = ns;
    }
  }
  if (best < 0) return -1;
  // Stay put unless another CPU is clearly faster: a move costs the cache.
  if (current_ns != 0 && current_ns * 10 <= best_ns * 11) best = current_;
  pin(static_cast<std::size_t>(best));
  if (best != current_) ++moves_;
  current_ = best;
  return best;
}

void CpuPicker::unpin() {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const std::size_t cpu : cpus_) CPU_SET(cpu, &all);
  if (!cpus_.empty()) sched_setaffinity(0, sizeof all, &all);
  current_ = -1;
}

MachineInfo machine_info() {
  MachineInfo m;
  const long cpus = sysconf(_SC_NPROCESSORS_ONLN);
  m.nproc = cpus > 0 ? static_cast<unsigned>(cpus) : 0;
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      m.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  if (m.cpu_model.empty()) m.cpu_model = "unknown";
#if defined(__clang__)
  m.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  m.compiler = std::string("gcc ") + __VERSION__;
#else
  m.compiler = "unknown";
#endif
  m.build_type = PERFBENCH_BUILD_TYPE;
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------- JSON

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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonLine::key(const std::string& k) {
  if (!body_.empty()) body_ += ",";
  body_.append("\"").append(json_escape(k)).append("\":");
}

JsonLine& JsonLine::num(const std::string& k, double v) {
  key(k);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  body_ += buf;
  return *this;
}

JsonLine& JsonLine::integer(const std::string& k, std::uint64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonLine& JsonLine::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonLine& JsonLine::str(const std::string& k, const std::string& v) {
  key(k);
  body_.append("\"").append(json_escape(v)).append("\"");
  return *this;
}

JsonLine& JsonLine::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
