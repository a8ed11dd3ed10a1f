#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/runtime.h"
#include "eigenbench/eigenbench.h"
#include "harness/runner.h"
#include "obs/registry.h"

namespace {

using tsx::harness::Digest;
using tsx::harness::Job;
using tsx::harness::Runner;
using tsx::harness::RunnerOptions;

RunnerOptions quiet(unsigned jobs) {
  RunnerOptions opt;
  opt.jobs = jobs;
  opt.quiet = true;
  return opt;
}

// A synthetic job mix with deliberately skewed durations: under a pool the
// completion order differs from the index order, which is exactly what the
// Runner must hide from the caller.
std::vector<uint64_t> synthetic_sweep(unsigned jobs) {
  Runner r(quiet(jobs));
  return r.map<uint64_t>(
      24,
      [](size_t i) {
        // Later indices finish first; earlier ones sleep.
        std::this_thread::sleep_for(std::chrono::microseconds((24 - i) * 50));
        uint64_t v = 0x9e3779b97f4a7c15ull * (i + 1);
        v ^= v >> 29;
        return v;
      },
      [](size_t i) {
        Job j;
        j.seed = i;
        j.label = "synthetic";
        return j;
      });
}

TEST(Runner, ResultsInIndexOrderRegardlessOfJobCount) {
  auto serial = synthetic_sweep(1);
  auto pooled = synthetic_sweep(8);
  EXPECT_EQ(serial, pooled);
}

TEST(Runner, SerialPathRunsInlineOnCallingThread) {
  Runner r(quiet(1));
  std::thread::id main_id = std::this_thread::get_id();
  std::vector<size_t> order;
  std::vector<Job> jobs;
  for (size_t i = 0; i < 5; ++i) {
    Job j;
    j.fn = [&, i] {
      EXPECT_EQ(std::this_thread::get_id(), main_id);
      order.push_back(i);
    };
    jobs.push_back(std::move(j));
  }
  r.run(std::move(jobs));
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

// A pool starts jobs in descending cost, index breaking ties. The costliest
// job holds its worker until every other job has run, so the second worker
// takes all the others one at a time, in dispatch order. The serial path
// ignores the hint.
TEST(Runner, PoolStartsCostliestJobsFirst) {
  const std::vector<double> cost = {1, 5, 0, 5, 9, 2, 0, 7};
  const size_t costliest = 4;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<size_t> started;
  size_t others_done = 0;
  std::vector<Job> js;
  for (size_t i = 0; i < cost.size(); ++i) {
    Job j;
    j.cost = cost[i];
    j.fn = [&, i] {
      std::unique_lock<std::mutex> g(mu);
      if (i == costliest) {
        cv.wait_for(g, std::chrono::seconds(10),
                    [&] { return others_done == cost.size() - 1; });
        return;
      }
      started.push_back(i);
      ++others_done;
      cv.notify_all();
    };
    js.push_back(std::move(j));
  }
  Runner(quiet(2)).run(std::move(js));
  EXPECT_EQ(started, (std::vector<size_t>{7, 1, 3, 5, 0, 2, 6}));

  std::vector<size_t> serial;
  std::vector<Job> sj;
  for (size_t i = 0; i < cost.size(); ++i) {
    Job j;
    j.cost = cost[i];
    j.fn = [&serial, i] { serial.push_back(i); };
    sj.push_back(std::move(j));
  }
  Runner(quiet(1)).run(std::move(sj));
  EXPECT_EQ(serial, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Runner, RethrowsLowestIndexedFailure) {
  for (unsigned jobs : {1u, 8u}) {
    Runner r(quiet(jobs));
    std::vector<Job> js;
    for (size_t i = 0; i < 16; ++i) {
      Job j;
      j.fn = [i] {
        if (i == 3) throw std::runtime_error("job3 failed");
        if (i == 11) throw std::runtime_error("job11 failed");
      };
      js.push_back(std::move(j));
    }
    try {
      r.run(std::move(js));
      FAIL() << "expected a rethrow (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "job3 failed") << "jobs=" << jobs;
    }
  }
}

TEST(Runner, AllJobsCompleteDespiteFailures) {
  Runner r(quiet(4));
  std::atomic<int> completed{0};
  std::vector<Job> js;
  for (size_t i = 0; i < 12; ++i) {
    Job j;
    j.fn = [&completed, i] {
      if (i % 3 == 0) throw std::runtime_error("boom");
      completed.fetch_add(1);
    };
    js.push_back(std::move(j));
  }
  EXPECT_THROW(r.run(std::move(js)), std::runtime_error);
  EXPECT_EQ(completed.load(), 8);  // 12 jobs minus the 4 throwers
}

TEST(Runner, ZeroJobsDefaultsToHardwareConcurrency) {
  Runner r(quiet(0));
  unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(r.jobs(), hw == 0 ? 1u : hw);
}

TEST(Runner, ManifestRecordsJobsAndDigest) {
  std::ostringstream manifest;
  RunnerOptions opt = quiet(2);
  opt.bench_id = "unit_manifest";
  opt.config_digest = 0xabcdef;
  opt.manifest_stream = &manifest;
  Runner r(opt);
  std::vector<Job> js;
  for (size_t i = 0; i < 3; ++i) {
    Job j;
    j.fn = [] {};
    j.seed = 100 + i;
    j.label = "cell" + std::to_string(i);
    js.push_back(std::move(j));
  }
  r.run(std::move(js));
  std::string m = manifest.str();
  EXPECT_NE(m.find("\"bench\": \"unit_manifest\""), std::string::npos) << m;
  EXPECT_NE(m.find("\"config_digest\": \"0x0000000000abcdef\""),
            std::string::npos)
      << m;
  EXPECT_NE(m.find("\"total_jobs\": 3"), std::string::npos) << m;
  EXPECT_NE(m.find("\"seed\": 102"), std::string::npos) << m;
  EXPECT_NE(m.find("\"label\": \"cell1\""), std::string::npos) << m;
  // No manifest_members_fn installed -> no obs member appears.
  EXPECT_EQ(m.find("\"elide_locks\""), std::string::npos) << m;
}

TEST(Runner, ManifestEmbedsElideLockCounters) {
  std::ostringstream manifest;
  RunnerOptions opt = quiet(1);
  opt.bench_id = "unit_elide_manifest";
  opt.manifest_stream = &manifest;
  opt.manifest_members_fn = [](std::ostream& os) {
    os << "  \"elide_locks\": [{\"name\": \"m\", \"acquisitions\": 7, "
          "\"attempts\": 9, \"elided\": 5, \"fallbacks\": 2, "
          "\"lock_acquires\": 2, \"self_stops\": 0}],\n";
  };
  Runner r(opt);
  std::vector<Job> js(1);
  js[0].fn = [] {};
  r.run(std::move(js));
  std::string m = manifest.str();
  EXPECT_NE(m.find("\"elide_locks\": [{\"name\": \"m\""), std::string::npos)
      << m;
  EXPECT_NE(m.find("\"acquisitions\": 7"), std::string::npos) << m;
  EXPECT_NE(m.find("\"fallbacks\": 2"), std::string::npos) << m;
}

TEST(Runner, ManifestOmitsElideLocksWhenFnReturnsEmpty) {
  std::ostringstream manifest;
  RunnerOptions opt = quiet(1);
  opt.bench_id = "unit_elide_manifest_empty";
  opt.manifest_stream = &manifest;
  opt.manifest_members_fn = [](std::ostream&) {};
  Runner r(opt);
  std::vector<Job> js(1);
  js[0].fn = [] {};
  r.run(std::move(js));
  EXPECT_EQ(manifest.str().find("\"elide_locks\""), std::string::npos)
      << manifest.str();
}

// JSON's structure, short of a parser: strings close, a closed string is
// followed by ':', ',', '}' or ']', and brackets balance outside strings.
// An unescaped quote inside a member value breaks the first two.
bool json_structure_ok(const std::string& s) {
  std::string open;
  bool in_string = false, after_string = false;
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
        after_string = true;
      }
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (after_string && c != ':' && c != ',' && c != '}' && c != ']') {
      return false;
    }
    after_string = false;
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      open.push_back(c == '{' ? '}' : ']');
    } else if (c == '}' || c == ']') {
      if (open.empty() || open.back() != c) return false;
      open.pop_back();
    }
  }
  return !in_string && open.empty();
}

TEST(Runner, ManifestEscapesLockNames) {
  tsx::obs::Registry reg;
  tsx::obs::Capture cap;
  cap.pmu.emplace();
  cap.pmu->elide.emplace_back();
  cap.pmu->elide[0].name = "shard \"7\"";
  reg.add(std::move(cap));

  std::ostringstream manifest;
  RunnerOptions opt = quiet(1);
  opt.manifest_stream = &manifest;
  opt.manifest_members_fn = [&reg](std::ostream& os) {
    reg.write_manifest_members(os);
  };
  Runner r(opt);
  r.run(std::vector<Job>(1, Job{[] {}, 0, "cell"}));
  std::string m = manifest.str();
  EXPECT_NE(m.find(R"("name": "shard \"7\"")"), std::string::npos) << m;
  EXPECT_TRUE(json_structure_ok(m)) << m;
}

// ---- bench::run_cells: the one sweep path of every bench driver ----

tsx::bench::BenchArgs sweep_args(int jobs) {
  tsx::bench::BenchArgs a;
  a.jobs = jobs;
  a.progress = 0;
  return a;
}

// Cell i returns "cell<i>@<i>"; earlier cells finish last under a pool.
std::vector<tsx::bench::Cell<std::string>> labelled_cells(size_t n) {
  std::vector<tsx::bench::Cell<std::string>> cells;
  for (size_t i = 0; i < n; ++i) {
    cells.push_back({"cell" + std::to_string(i), 100 + i,
                     [i, n](const std::string& label) {
                       std::this_thread::sleep_for(
                           std::chrono::microseconds((n - i) * 50));
                       return label + "@" + std::to_string(i);
                     }});
  }
  return cells;
}

TEST(RunCells, ResultsComeBackInCellOrder) {
  for (int jobs : {1, 4}) {
    std::vector<std::string> got = tsx::bench::run_cells(
        sweep_args(jobs), "unit_cells", {}, labelled_cells(16));
    ASSERT_EQ(got.size(), 16u);
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], "cell" + std::to_string(i) + "@" + std::to_string(i))
          << "jobs=" << jobs;
    }
  }
}

TEST(RunCells, DuplicateLabelIsRejectedBeforeAnyCellRuns) {
  std::atomic<int> ran{0};
  std::vector<tsx::bench::Cell<int>> cells;
  for (const char* label : {"a", "b", "a"}) {
    cells.push_back({label, 0, [&ran](const std::string&) { return ++ran; }});
  }
  EXPECT_THROW(tsx::bench::run_cells(sweep_args(4), "unit_dup", {}, cells),
               std::invalid_argument);
  EXPECT_EQ(ran.load(), 0);
}

TEST(RunCells, ManifestListsOneJobPerCell) {
  tsx::bench::BenchArgs args = sweep_args(4);
  args.manifest = testing::TempDir() + "run_cells_manifest.json";
  tsx::bench::run_cells(args, "unit_manifest_cells", {}, labelled_cells(5));
  std::stringstream m;
  m << std::ifstream(args.manifest).rdbuf();
  EXPECT_NE(m.str().find("\"total_jobs\": 5,"), std::string::npos) << m.str();
  for (size_t i = 0; i <= 5; ++i) {
    std::string job = "{\"index\": " + std::to_string(i) +
                      ", \"label\": \"cell" + std::to_string(i) +
                      "\", \"seed\": " + std::to_string(100 + i) + ",";
    EXPECT_EQ(m.str().find(job) != std::string::npos, i < 5) << m.str();
  }
}

// Progress-line policy: redirected output (stderr not a TTY) must stay free
// of throttled status lines, with a --progress override.
TEST(Runner, ProgressForcedOffEmitsNothing) {
  std::ostringstream progress;
  RunnerOptions opt;
  opt.jobs = 1;
  opt.progress_stream = &progress;
  opt.assume_tty = 0;  // forced off beats the injected-stream auto-on
  Runner r(opt);
  std::vector<Job> js(3);
  for (Job& j : js) j.fn = [] {};
  r.run(std::move(js));
  EXPECT_EQ(progress.str(), "");
}

TEST(Runner, ProgressForcedOnEmitsFinalSummary) {
  std::ostringstream progress;
  RunnerOptions opt;
  opt.jobs = 1;
  opt.bench_id = "unit_progress";
  opt.progress_stream = &progress;
  opt.assume_tty = 1;
  Runner r(opt);
  std::vector<Job> js(3);
  for (Job& j : js) j.fn = [] {};
  r.run(std::move(js));
  EXPECT_NE(progress.str().find("[unit_progress] 3/3 jobs"),
            std::string::npos)
      << progress.str();
  EXPECT_NE(progress.str().find("(done)"), std::string::npos);
}

TEST(Digest, OrderAndValueSensitive) {
  Digest a, b, c;
  a.add(uint64_t{1});
  a.add(uint64_t{2});
  b.add(uint64_t{2});
  b.add(uint64_t{1});
  c.add(uint64_t{1});
  c.add(uint64_t{2});
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(a.value(), c.value());
  EXPECT_EQ(a.hex().substr(0, 2), "0x");
}

// The load-bearing guarantee behind --jobs: distinct TxRuntime/Machine
// instances share no mutable state, so simulations running concurrently on
// host threads produce bit-identical reports to the same simulations run
// serially. This is the harness-level proof for the full bench drivers'
// byte-identical stdout (also enforced end-to-end in CI).
TEST(Runner, ConcurrentSimulationsMatchSerialBitForBit) {
  using tsx::core::Backend;

  auto simulate = [](size_t i) {
    tsx::core::RunConfig cfg;
    cfg.backend = i % 2 ? Backend::kRtm : Backend::kTinyStm;
    cfg.threads = 2;
    cfg.seed = 7000 + i;
    cfg.machine.seed = 7000 + i;
    tsx::eigenbench::EigenConfig eb;
    eb.loops = 20;
    eb.reads_mild = 18;
    eb.writes_mild = 2;
    eb.ws_bytes = 8 * 1024;
    auto res = tsx::eigenbench::run(cfg, eb);
    // Fingerprint everything the bench drivers derive rows from.
    Digest d;
    d.add(res.report.wall_cycles);
    d.add(res.report.joules());
    d.add(res.report.rtm.abort_rate());
    d.add(res.report.stm.abort_rate());
    d.add(res.read_checksum);
    return d.value();
  };
  auto meta = [](size_t i) {
    Job j;
    j.seed = 7000 + i;
    return j;
  };

  Runner serial(quiet(1));
  Runner pooled(quiet(6));
  auto a = serial.map<uint64_t>(12, simulate, meta);
  auto b = pooled.map<uint64_t>(12, simulate, meta);
  EXPECT_EQ(a, b);
}

}  // namespace
