#include "metro_workload.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/metro.hpp"
#include "exec/thread_pool.hpp"
#include "host_probe.hpp"
#include "timed_scheduler.hpp"

namespace perfbench {

namespace {

using gol::core::MetroConfig;
using gol::core::MetroResult;
using gol::core::MetroSimulation;

// City shapes. Households are laid out as 25 per neighborhood and four
// neighborhoods per tower area (100 households per area).
//  - metro_browse: 12 areas on 12 shards, so every shard holds exactly one
//    area and the window exchange has nothing to reconcile. Many tiny
//    flows: the event core, engine bookkeeping and timer wheel dominate.
//    With nothing to exchange the window length does not change the
//    result (the digests are the same at 5 s and 30 s), so browse uses
//    30 s windows: six times fewer barriers, each of which waits for the
//    slowest vCPU of a shared host.
//  - metro_video: the same city fetching 1 MB segments on 16 shards of
//    three neighborhoods each, so shard edges cut tower areas and the
//    cross-shard exchange and barrier run every window. Few large flows
//    sharing DSLAM and sector links: incremental water-fill dominates.
//  - metro_opt: a small browsing city under the min-cost-flow `opt`
//    scheduler, whose planning dominates shard time.
MetroConfig shapeFor(const std::string& workload, std::uint64_t seed) {
  MetroConfig c;
  c.households_per_neighborhood = 25;
  c.neighborhoods_per_area = 4;
  c.window_s = 5.0;
  c.seed = seed;
  if (workload == "metro_browse") {
    c.neighborhoods = 48;
    c.shards = 12;
    c.window_s = 30.0;
    c.horizon_s = 900;
    c.mean_think_s = 40;
    c.mean_item_bytes = 2e3;
    c.items_per_txn = 16;
    c.scheduler = "greedy";
  } else if (workload == "metro_video") {
    c.neighborhoods = 48;
    c.shards = 16;
    c.horizon_s = 600;
    c.mean_think_s = 120;
    c.mean_item_bytes = 1e6;
    c.items_per_txn = 8;
    c.scheduler = "greedy";
  } else if (workload == "metro_opt") {
    c.neighborhoods = 8;
    c.shards = 8;
    c.horizon_s = 300;
    c.mean_think_s = 40;
    c.mean_item_bytes = 2e3;
    c.items_per_txn = 16;
    c.scheduler = "opt";
  } else {
    throw std::invalid_argument("unknown metro workload: " + workload);
  }
  return c;
}

/// Distinct cities a run cycles through. Per-transaction cost depends on
/// the drawn workload, so a run's medians cover several cities rather than
/// one; city c of run seed s is simulated with seed s * kCities + c.
constexpr int kCities = 4;

struct Rep {
  int city = 0;
  bool traced = false;
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;         ///< Process CPU, construction + run().
  double run_cpu_s = 0;     ///< Process CPU inside run().
  double worker_cpu_s = 0;  ///< run_cpu_s minus the calling thread's share.
  double invol_switches = 0;
  double rss_mb = 0;  ///< VmRSS right after run().
  /// Host slowdown around this repetition: the mean of the probes just
  /// before and just after it. Times divided by it are at reference speed.
  HostProbe::Slowdown slowdown;
  MetroResult res;
  SchedulerStats sched;
};

Rep runOnce(const MetroConfig& cfg, int city, bool traced,
            gol::exec::ThreadPool& pool) {
  Rep r;
  r.city = city;
  r.traced = traced;
  MetroConfig c = cfg;
  c.seed = cfg.seed * kCities + static_cast<std::uint64_t>(city);
  if (traced) c.scheduler = timedPolicy(cfg.scheduler);
  collectSchedulerStats();  // drop blocks of an earlier repetition

  const rusage ru0 = selfUsage();
  const auto t0 = Clock::now();
  std::optional<MetroSimulation> sim;
  sim.emplace(c);
  r.setup_s = secondsSince(t0);

  const rusage ru1 = selfUsage();
  const rusage th1 = threadUsage();
  const auto t1 = Clock::now();
  r.res = sim->run(pool);
  r.run_s = secondsSince(t1);
  const rusage th2 = threadUsage();
  const rusage ru2 = selfUsage();

  r.cpu_s = cpuSeconds(ru2) - cpuSeconds(ru0);
  r.run_cpu_s = cpuSeconds(ru2) - cpuSeconds(ru1);
  r.worker_cpu_s = r.run_cpu_s - (cpuSeconds(th2) - cpuSeconds(th1));
  r.invol_switches = static_cast<double>(ru2.ru_nivcsw - ru1.ru_nivcsw);
  r.rss_mb = currentRssMb();
  sim.reset();
  if (traced) r.sched = collectSchedulerStats();
  return r;
}

double perTxnUs(double seconds, const MetroResult& res) {
  return res.transactions ? seconds * 1e6 / static_cast<double>(res.transactions)
                          : 0;
}

/// Median over `reps` of f(rep).
double med(const std::vector<const Rep*>& reps,
           const std::function<double(const Rep&)>& f) {
  std::vector<double> v;
  for (const Rep* r : reps) v.push_back(f(*r));
  return median(v);
}

/// End-to-end metrics of a set of repetitions. `rss` is the memory figure:
/// the process peak for the plain run, VmRSS after run() when comparing
/// plain and traced repetitions of one process. With `at_reference` every
/// time is divided by its repetition's host slowdown; without, the times
/// are as the clock read them.
void endToEnd(const std::vector<const Rep*>& reps, double rss,
              bool at_reference, Metrics& m) {
  auto t = [at_reference](const Rep& r, double seconds) {
    return at_reference ? seconds / r.slowdown.wall : seconds;
  };
  auto cpu = [at_reference](const Rep& r, double seconds) {
    return at_reference ? seconds / r.slowdown.cpu : seconds;
  };
  m["setup_s"] = med(reps, [&](const Rep& r) { return t(r, r.setup_s); });
  m["sim_txn_per_s"] = med(reps, [&](const Rep& r) {
          return static_cast<double>(r.res.transactions) / t(r, r.run_s);
        });
  m["peak_rss_mb"] = rss;
  double ok = 0, all = 0;
  std::vector<double> run_ms;
  for (const Rep* r : reps) {
    ok += static_cast<double>(r->res.items_ok);
    all += static_cast<double>(r->res.items_ok + r->res.items_failed);
    run_ms.push_back(t(*r, r->run_s) * 1e3);
  }
  m["ok_share"] = all > 0 ? ok / all : 0;
  m["txn_p50_ms"] = quantile(run_ms, 0.5);
  m["txn_p90_ms"] = quantile(run_ms, 0.90);
  m["client_cpu_us_per_txn"] = med(reps, [&](const Rep& r) {
          return perTxnUs(cpu(r, r.cpu_s), r.res);
        });
  m["proxy_cpu_us_per_txn"] = med(reps, [&](const Rep& r) {
          return perTxnUs(cpu(r, r.worker_cpu_s), r.res);
        });
}

void perLayer(const std::vector<const Rep*>& reps, unsigned threads,
              Metrics& m) {
  auto busy = [](const Rep& r) {
    double s = 0;
    for (const auto& st : r.res.shards) s += st.busy_s;
    return s;
  };
  m["sim.events"] = med(reps, [](const Rep& r) {
          return static_cast<double>(r.res.events);
        });
  m["sim.windows"] = med(reps, [](const Rep& r) {
          return static_cast<double>(r.res.windows);
        });
  m["sim.busy_s"] = med(reps, busy);
  m["sim.busy_us_per_event"] = med(reps, [&](const Rep& r) {
          return busy(r) * 1e6 / static_cast<double>(r.res.events);
        });
  m["sim.idle_share"] = med(reps, [&](const Rep& r) {
          return 1.0 - busy(r) / (r.run_s * threads);
        });
  m["sim.busy_skew"] = med(reps, [&](const Rep& r) {
          double mx = 0;
          for (const auto& st : r.res.shards) mx = std::max(mx, st.busy_s);
          return mx / (busy(r) / static_cast<double>(r.res.shards.size()));
        });
  m["exec.threads"] = threads;
  m["exec.cpu_share"] = med(reps, [&](const Rep& r) {
          return r.run_cpu_s / (r.run_s * threads);
        });
  m["exec.invol_ctx_switches"] = med(reps, [](const Rep& r) { return r.invol_switches; });
  m["host.wall_slowdown"] = med(reps, [](const Rep& r) { return r.slowdown.wall; });
  m["host.cpu_slowdown"] = med(reps, [](const Rep& r) { return r.slowdown.cpu; });
  m["core.txns"] = med(reps, [](const Rep& r) {
          return static_cast<double>(r.res.transactions);
        });
  m["core.items_ok"] = med(reps, [](const Rep& r) {
          return static_cast<double>(r.res.items_ok);
        });
  m["core.items_failed"] = med(reps, [](const Rep& r) {
          return static_cast<double>(r.res.items_failed);
        });
  m["core.cell_byte_share"] = med(reps, [](const Rep& r) {
          return r.res.cell_bytes / r.res.bytes;
        });
  auto dec = [](const Rep& r) { return static_cast<double>(r.sched.decisions); };
  m["core.sched.decisions"] = med(reps, dec);
  m["core.sched.self_s"] = med(reps, [](const Rep& r) {
          return r.sched.self_s;
        });
  m["core.sched.ns_per_decision"] = med(reps, [&](const Rep& r) {
          return r.sched.self_s * 1e9 / dec(r);
        });
  m["core.sched.busy_share"] = med(reps, [&](const Rep& r) {
          return r.sched.self_s / busy(r);
        });
  m["core.sched.idle_share"] = med(reps, [&](const Rep& r) {
          return static_cast<double>(r.sched.idle) / dec(r);
        });
  m["core.sched.dup_share"] = med(reps, [&](const Rep& r) {
          return static_cast<double>(r.sched.duplicates) / dec(r);
        });
}

}  // namespace

bool isMetroWorkload(const std::string& workload) {
  return workload == "metro_browse" || workload == "metro_video" ||
         workload == "metro_opt";
}

void runMetro(const std::string& workload, std::uint64_t seed, double seconds,
              bool trace, Outcome& out) {
  const MetroConfig cfg = shapeFor(workload, seed);
  const unsigned threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  gol::exec::ThreadPool pool(threads);
  HostProbe probe(threads);

  // Cycle through the cities until the time is up; every repetition of a
  // city must give the same digest. A traced run follows each plain
  // repetition with a traced one of the same city, so both see the same
  // box conditions and the digests show the decorator changes nothing.
  const int per_city = trace ? 2 : 1;
  std::vector<Rep> reps;
  const auto start = Clock::now();
  HostProbe::Slowdown before = probe.sample();
  while (reps.size() < static_cast<std::size_t>(kCities * per_city) ||
         secondsSince(start) < seconds) {
    const int k = static_cast<int>(reps.size());
    reps.push_back(
        runOnce(cfg, (k / per_city) % kCities, trace && k % 2 == 1, pool));
    const HostProbe::Slowdown after = probe.sample();
    reps.back().slowdown = {(before.wall + after.wall) / 2,
                            (before.cpu + after.cpu) / 2};
    before = after;
  }

  std::vector<std::uint64_t> digests(kCities);
  for (int c = 0; c < kCities; ++c) {
    digests[static_cast<std::size_t>(c)] =
        reps[static_cast<std::size_t>(c * per_city)].res.digest;
    std::printf("%s seed=%" PRIu64 " city=%d digest=%016" PRIx64 "\n",
                workload.c_str(), seed, c,
                digests[static_cast<std::size_t>(c)]);
  }
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    const MetroResult& res = r.res;
    const std::string tag = "repetition " + std::to_string(i) + ": ";
    out.check(res.transactions > 0, tag + "no transaction completed");
    out.check(res.items_ok + res.items_failed ==
                  res.transactions *
                      static_cast<std::uint64_t>(cfg.items_per_txn),
              tag + "items ok + failed != items requested");
    out.check(res.cell_bytes <= res.bytes * (1 + 1e-12),
              tag + "cellular bytes exceed total bytes");
    out.check(res.digest == digests[static_cast<std::size_t>(r.city)],
              tag + (r.traced ? "traced " : "") +
                  "digest differs from the city's first repetition");
    out.attempted += res.items_ok + res.items_failed;
    out.failed += res.items_failed;
  }
  std::vector<const Rep*> plain, traced;
  for (const Rep& r : reps) (r.traced ? traced : plain).push_back(&r);
  if (!trace) {
    endToEnd(plain, peakRssMb(), true, out.metrics);
    out.aside_label = "as clocked";
    endToEnd(plain, peakRssMb(), false, out.aside);
    return;
  }
  perLayer(traced, threads, out.metrics);
  Metrics p, t;
  endToEnd(plain, med(plain, [](const Rep& r) { return r.rss_mb; }), true, p);
  endToEnd(traced, med(traced, [](const Rep& r) { return r.rss_mb; }), true, t);
  for (const auto& [name, value] : p) {
    out.metrics["trace.overhead." + name] = t[name] - value;
  }
}

}  // namespace perfbench
