#include "harness/runner.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "util/json.h"

namespace tsx::harness {

namespace {

using util::json_escape;
using util::json_fixed;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

void Digest::bytes(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::add_u64(uint64_t v) { bytes(&v, sizeof(v)); }

void Digest::add(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  add_u64(bits);
}

void Digest::add(const std::string& s) {
  bytes(s.data(), s.size());
  add_u64(s.size());  // length-delimit fields
}

std::string Digest::hex(uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

Runner::Runner(RunnerOptions opt) : opt_(std::move(opt)) {
  jobs_ = opt_.jobs;
  if (jobs_ == 0) {
    jobs_ = std::thread::hardware_concurrency();
    if (jobs_ == 0) jobs_ = 1;
  }
}

void Runner::run(std::vector<Job> jobs) {
  const size_t n = jobs.size();
  std::ostream& progress =
      opt_.progress_stream ? *opt_.progress_stream : std::cerr;
  const Clock::time_point t0 = Clock::now();
  std::vector<double> job_seconds(n, 0.0);
  std::vector<std::exception_ptr> errors(n);

  const unsigned workers =
      static_cast<unsigned>(std::min<size_t>(jobs_, n ? n : 1));

  // Resolve the progress policy once: quiet wins, then the explicit
  // assume_tty override, then auto-detection (an injected progress_stream is
  // a test seam that wants the lines; plain stderr emits only when it is a
  // terminal, so redirected logs stay clean).
  bool progress_on = !opt_.quiet;
  if (progress_on) {
    if (opt_.assume_tty >= 0) {
      progress_on = opt_.assume_tty != 0;
    } else if (opt_.progress_stream) {
      progress_on = true;
    } else {
      progress_on = isatty(fileno(stderr)) != 0;
    }
  }

  std::mutex io_mu;
  double last_report = 0.0;
  auto report = [&](size_t done, bool final) {
    if (!progress_on) return;
    double el = seconds_since(t0);
    {
      std::lock_guard<std::mutex> g(io_mu);
      // Throttle: at most ~1 line/second plus the final summary.
      if (!final && el - last_report < 1.0) return;
      last_report = el;
      progress << "[" << opt_.bench_id << "] " << done << "/" << n
               << " jobs, " << (workers > 1 ? "jobs=" : "serial, jobs=")
               << workers << ", " << static_cast<int>(el * 10) / 10.0
               << "s elapsed" << (final ? " (done)" : "") << "\n";
    }
  };

  auto run_one = [&](size_t i) {
    const Clock::time_point j0 = Clock::now();
    try {
      jobs[i].fn();
    } catch (...) {
      errors[i] = std::current_exception();
    }
    job_seconds[i] = seconds_since(j0);
  };

  if (workers <= 1) {
    // Exact serial path: inline, in index order, on the calling thread.
    for (size_t i = 0; i < n; ++i) {
      run_one(i);
      report(i + 1, false);
    }
  } else {
    // Costliest first, index breaking ties: the pool's last job to finish
    // is then a cheap one, not a costly one started late.
    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return jobs[a].cost > jobs[b].cost;
    });
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          size_t k = next.fetch_add(1, std::memory_order_relaxed);
          if (k >= n) return;
          run_one(order[k]);
          report(done.fetch_add(1, std::memory_order_relaxed) + 1, false);
        }
      });
    }
    for (auto& t : pool) t.join();
  }
  report(n, true);

  emit_manifest(jobs, job_seconds, seconds_since(t0));

  for (size_t i = 0; i < n; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

void Runner::emit_manifest(const std::vector<Job>& jobs,
                           const std::vector<double>& job_seconds,
                           double wall_seconds) const {
  std::ofstream file;
  std::ostream* os = opt_.manifest_stream;
  if (!os) {
    if (opt_.manifest.empty()) return;
    if (opt_.manifest == "-" || opt_.manifest == "true") {
      os = &std::cerr;
    } else {
      file.open(opt_.manifest);
      if (!file) {
        std::cerr << "[" << opt_.bench_id << "] cannot write manifest to '"
                  << opt_.manifest << "'\n";
        return;
      }
      os = &file;
    }
  }
  Digest d;  // FNV-1a over config digest + per-job seeds: one run fingerprint
  d.add(opt_.config_digest);
  for (const Job& j : jobs) d.add(j.seed);

  *os << "{\n"
      << "  \"bench\": \"" << json_escape(opt_.bench_id) << "\",\n"
      << "  \"config_digest\": \"" << Digest::hex(opt_.config_digest)
      << "\",\n"
      << "  \"run_digest\": \"" << d.hex() << "\",\n";
  if (opt_.manifest_members_fn) opt_.manifest_members_fn(*os);
  *os << "  \"jobs_flag\": " << jobs_ << ",\n"
      << "  \"total_jobs\": " << jobs.size() << ",\n"
      << "  \"wall_seconds\": " << json_fixed(wall_seconds, 6) << ",\n"
      << "  \"jobs\": [\n";
  for (size_t i = 0; i < jobs.size(); ++i) {
    *os << "    {\"index\": " << i << ", \"label\": \""
        << json_escape(jobs[i].label) << "\", \"seed\": " << jobs[i].seed
        << ", \"seconds\": " << json_fixed(job_seconds[i], 6) << "}"
        << (i + 1 < jobs.size() ? ",\n" : "\n");
  }
  *os << "  ]\n}\n";
  os->flush();
}

}  // namespace tsx::harness
