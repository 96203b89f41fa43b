// Benchmark-side helpers: seeded input generators, the op-mix schedule, the
// tail-percentile rule, failure accounting, in-memory span tracing and the
// machine/build record.  Nothing here calls into the library, so a change to
// the program under test can never move the benchmark's inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- inputs

/// SplitMix64.  The benchmark owns its generator so that inputs depend only
/// on --seed, never on the library's RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.  The modulo bias is below 2^-40 for
  /// every bound the benchmark uses.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

using Pair = std::pair<std::uint32_t, std::uint32_t>;

/// Uniform (u, v) pairs over [0, n)^2.
class UniformPairs {
 public:
  UniformPairs(std::uint32_t n, std::uint64_t seed) : n_(n), rng_(seed) {}
  Pair next();

 private:
  std::uint32_t n_;
  Rng rng_;
};

/// Zipf-skewed (u, v) pairs: pair popularity follows rank^-s over all n^2
/// ordered pairs.  A bijection seeded by `hot_seed` scatters the ranks over
/// the pair space (which pairs are hot); `seed` drives the draws.
class ZipfPairs {
 public:
  ZipfPairs(std::uint32_t n, double s, std::uint64_t hot_seed,
            std::uint64_t seed);
  Pair next();

 private:
  std::uint32_t n_;
  std::uint64_t pairs_;
  std::uint64_t mul_;
  std::uint64_t add_;
  std::vector<double> cdf_;
  Rng rng_;
};

/// Deterministic op schedule with exact shares: every block of
/// sum(shares) consecutive ops holds exactly shares[i] ops of kind i, in a
/// seeded order.
class OpMix {
 public:
  OpMix(std::vector<std::uint32_t> shares, std::uint64_t seed);
  std::uint32_t next();
  std::uint32_t block_size() const {
    return static_cast<std::uint32_t>(block_.size());
  }

 private:
  void refill();
  std::vector<std::uint32_t> block_;
  std::size_t pos_ = 0;
  Rng rng_;
};

// ---------------------------------------------------------------- results

/// The tail percentile reported as p99: the highest percentile, capped at
/// 99, that leaves at least ten samples beyond it; the median when fewer
/// than 20 samples leave no such percentile at or above it.
double tail_percentile(std::uint64_t n);

/// Latency histogram with bounded memory, so the benchmark's own footprint
/// does not grow with throughput (peak_rss_mb would otherwise reward a
/// slower program).  Values below 1024 ns are exact; above, 128 buckets per
/// octave keep the relative error under 0.8%.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void record(std::uint64_t ns);
  std::uint64_t count() const { return count_; }
  /// Value at percentile p in [0, 100]: the ceil(p/100 * n)-th smallest
  /// sample (rank 1 for p = 0).  0 when empty.
  double percentile(double p) const;

 private:
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

/// Attempted/failed accounting: a failed or wrong answer counts against
/// the attempted operations.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  /// Marks one already-attempted op as failed (a check after the fact).
  void fail_late() { ++failed; }
  bool all_ok() const { return attempted > 0 && failed == 0; }
};

double median(std::vector<double> v);

using Clock = std::chrono::steady_clock;

inline std::uint64_t ns_since(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Discards rendered text but counts its bytes, so rendering cost is paid
/// and checked without growing a buffer.
class CountingBuf : public std::streambuf {
 public:
  std::uint64_t bytes = 0;

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) ++bytes;
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    bytes += static_cast<std::uint64_t>(n);
    return n;
  }
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run.  Spans carry a name, start,
/// end, parent span and the id of the op (request) they belong to; counters
/// attach a value to the innermost open span.  Everything is written out
/// once, at the end, as one JSON document.  Single-threaded: the benchmark
/// has one client thread.
class Tracer {
 public:
  /// Per-op spans are recorded for every `op_stride`-th op until
  /// `op_span_cap` op spans exist; build and probe spans are always kept.
  Tracer(std::uint32_t op_stride, std::size_t op_span_cap);

  /// Decides whether the next op is traced (call once per op).
  bool sample_op();

  std::uint32_t begin(const char* name, std::uint64_t items = 1);
  void end(std::uint32_t id);
  void counter(const char* name, double value);

  /// Writes {"spans": [...], "counters": [...], ...} to `path`.
  bool write_json(const std::string& path, const std::string& workload) const;

  std::size_t span_count() const { return spans_.size(); }

 private:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;  // kNone for roots
    std::uint64_t op;      // 0 outside ops
    std::uint64_t items;   // calls the span covers (batched probes)
    std::uint64_t start_ns;
    std::uint64_t end_ns;
  };
  struct Counter {
    std::uint32_t name;
    std::uint32_t span;
    double value;
  };
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t intern(const char* name);

  Clock::time_point origin_ = Clock::now();
  std::uint32_t op_stride_;
  std::size_t op_span_cap_;
  std::size_t op_spans_ = 0;
  std::uint64_t ops_seen_ = 0;
  std::uint64_t op_id_ = 0;  // nonzero while a sampled op is open
  std::vector<const char*> names_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
  std::vector<Counter> counters_;
};

/// RAII span; a no-op when the tracer is null (the untraced run).
class Scope {
 public:
  Scope(Tracer* tr, const char* name, std::uint64_t items = 1)
      : tr_(tr), id_(tr ? tr->begin(name, items) : 0) {}
  ~Scope() {
    if (tr_) tr_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tr_;
  std::uint32_t id_;
};

// ---------------------------------------------------------------- machine

/// Keeps the client thread on the fastest vCPU.  On a shared VM the vCPUs
/// differ in speed -- up to twice on the same integer loop, for tens of
/// seconds, with neighbour load on their sibling hardware threads -- so the
/// client would otherwise measure whichever vCPU the scheduler picked.  The
/// workloads re-pin between timed phases, never inside one.  Threads created
/// while the client is pinned inherit the pin, so create pools first.
class CpuPicker {
 public:
  CpuPicker();  ///< captures the CPUs the process may run on
  /// Times a fixed ~0.5 ms integer loop on every allowed CPU and pins the
  /// calling thread to the fastest.  Returns it, or -1 when affinity is
  /// unavailable (the thread then stays where it is).
  int repin();
  /// Lets the calling thread run on every allowed CPU again, so a thread it
  /// creates next is not pinned; repin() pins it back.
  void unpin();
  int current() const { return current_; }
  std::uint64_t moves() const { return moves_; }

 private:
  std::vector<std::size_t> cpus_;
  int current_ = -1;
  std::uint64_t moves_ = 0;
  std::uint64_t spin_ = 1;  // loop state, kept so the loop is not elided
};

struct MachineInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
};
MachineInfo machine_info();
double peak_rss_mb();

/// Minimal JSON object writer for the result line (keys are identifiers
/// chosen by the benchmark; string values are escaped).
class JsonLine {
 public:
  JsonLine& num(const std::string& key, double v);
  JsonLine& integer(const std::string& key, std::uint64_t v);
  JsonLine& boolean(const std::string& key, bool v);
  JsonLine& str(const std::string& key, const std::string& v);
  JsonLine& raw(const std::string& key, const std::string& json);
  std::string done() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};
std::string json_escape(const std::string& s);

}  // namespace perfbench
