#include "live_workload.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "http/checksum.hpp"
#include "proto/epoll_loop.hpp"
#include "proto/multipath_client.hpp"
#include "proto/origin_server.hpp"
#include "proto/proxy.hpp"
#include "proto/quota_journal.hpp"
#include "proto/tenant_governor.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

using namespace gol::proto;
namespace fs = std::filesystem;

constexpr int kPhones = 3;
constexpr int kItemsPerTxn = 8;
/// Item sizes are drawn uniformly from [kMinItemBytes, kMaxItemBytes].
constexpr std::size_t kMinItemBytes = 3584;
constexpr std::size_t kMaxItemBytes = 4608;
/// Open-loop arrival rate. Every transaction leaves about 20 TIME_WAIT
/// sockets (client attempts and the proxies' upstream connections) for
/// 60 s; at this rate their count levels off near 20k, inside the 28k-port
/// ephemeral range, so back-to-back runs see the same port allocator. 17
/// rather than 20 keeps arrivals from phase-locking to the proxies' 50 ms
/// journal tick (see README.md).
constexpr double kTxnPerSecond = 17.0;
/// Start-ups of the server set per run; setup_s is their median.
constexpr int kSetupCycles = 9;
/// The latency percentiles are taken in each of this many equal slices of
/// the window (by due time) and the median over the slices is reported: a
/// few seconds of host stalls or slow fsyncs then move one slice, not the
/// run's figure. A 30 s run has ~100 transactions per slice.
constexpr int kLatencySlices = 5;
/// Grace after the window for the last due transactions to finish.
constexpr auto kFinishGrace = std::chrono::seconds(10);
constexpr auto kChildTimeout = std::chrono::seconds(15);

// proxy_host's service settings, minus shaping and emulated latency.
constexpr auto kJournalTick = std::chrono::milliseconds(50);
constexpr double kUnshapedBps = 1e12;
constexpr double kTenantQuotaBytes = 1e15;

volatile std::sig_atomic_t g_stop = 0;

void onTerm(int) { g_stop = 1; }

void installChildSignals() {
  struct sigaction sa {};
  sa.sa_handler = onTerm;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
}

void serveUntilTerm(EpollLoop& loop) {
  while (g_stop == 0) {
    loop.runUntil([] { return g_stop != 0; }, std::chrono::hours(1));
  }
}

int originMain() {
  installChildSignals();
  EpollLoop loop;
  OriginServer origin(loop);
  std::printf("READY port=%u\n", origin.port());
  std::fflush(stdout);
  serveUntilTerm(loop);
  std::printf("REPORT requests=%zu\n", origin.requestsServed());
  std::fflush(stdout);
  return 0;
}

int proxyMain(std::uint16_t upstream, const std::string& journal_path,
              bool trace) {
  installChildSignals();
  EpollLoop loop;
  gol::telemetry::Registry registry;

  QuotaJournalConfig jcfg;
  jcfg.path = journal_path;
  jcfg.days_per_month = 1;
  jcfg.sync_interval = kJournalTick;
  QuotaJournal journal(jcfg);
  const ReplayResult recovered = journal.open();

  TenantGovernorConfig gcfg;
  gcfg.days_per_month = 1;
  gcfg.default_monthly_allowance_bytes = kTenantQuotaBytes;
  TenantGovernor governor(gcfg);
  governor.restore(recovered.state);
  governor.attachJournal(&journal);
  double charged = 0;
  std::size_t charges = 0;
  governor.on_charge = [&](const std::string&, double bytes) {
    charged += bytes;
    ++charges;
  };

  ProxyConfig pcfg;
  pcfg.upstream_port = upstream;
  pcfg.down_bps = kUnshapedBps;
  pcfg.up_bps = kUnshapedBps;
  pcfg.latency = std::chrono::microseconds(0);
  pcfg.max_connections = 64;
  pcfg.accept_queue_limit = 16;
  pcfg.buffer_watermark = 128 * 1024;
  pcfg.idle_timeout = std::chrono::milliseconds(2000);
  pcfg.drain_deadline = std::chrono::milliseconds(5000);
  pcfg.governor = &governor;
  OnloadProxy proxy(loop, pcfg);
  if (trace) {
    proxy.instrument(&registry);
    governor.instrument(&registry);
  }

  // Group-commit heartbeat, as in proxy_host. Flushes it did not issue
  // happened inline, on the relay path.
  std::size_t tick_flushes = 0;
  std::vector<double> tick_us;
  std::function<void()> tick = [&] {
    const std::size_t before = journal.flushes();
    const auto t0 = Clock::now();
    journal.flush();
    if (journal.flushes() != before) {
      ++tick_flushes;
      if (trace) tick_us.push_back(secondsSince(t0) * 1e6);
    }
    loop.runAfter(kJournalTick, [&] { tick(); });
  };
  loop.runAfter(kJournalTick, [&] { tick(); });

  std::printf("READY port=%u\n", proxy.port());
  std::fflush(stdout);
  serveUntilTerm(loop);

  proxy.beginDrain();
  loop.runUntil([&] { return proxy.drainComplete(); },
                pcfg.drain_deadline + std::chrono::seconds(2));
  const std::size_t flushes = journal.flushes();
  const std::size_t records = journal.appendedRecords();
  governor.checkpoint();

  std::ostringstream report;
  report.precision(17);
  report << "REPORT charged=" << charged << " charges=" << charges
         << " admits=" << governor.admitted()
         << " denied=" << governor.deniedQuota()
         << " relayed=" << proxy.bytesRelayedDown() + proxy.bytesRelayedUp()
         << " shed_busy=" << proxy.shedBusy()
         << " bp_pauses=" << proxy.backpressurePauses()
         << " accepts=" << registry.counter("gol.proto.proxy_accepts").value()
         << " records=" << records << " flushes=" << flushes
         << " tick_flushes=" << tick_flushes
         << " forced=" << proxy.drainForcedCloses() << " tick_us=";
  for (std::size_t i = 0; i < tick_us.size(); ++i) {
    report << (i ? "," : "") << tick_us[i];
  }
  std::printf("%s\n", report.str().c_str());
  std::fflush(stdout);
  return proxy.drainForcedCloses() > 0 ? 3 : 0;
}

std::string selfExe() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::system_error(errno, std::generic_category(), "readlink");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// One server child: `perfbench child ...` with its stdout on a pipe.
/// Destruction kills and reaps it if it was not stopped.
class Child {
 public:
  explicit Child(const std::vector<std::string>& args) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) < 0)
      throw std::system_error(errno, std::generic_category(), "pipe2");
    std::vector<std::string> argv_s = {selfExe(), "child"};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    pid_ = ::fork();
    if (pid_ < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::system_error(errno, std::generic_category(), "fork");
    }
    if (pid_ == 0) {
      // A server must not outlive a generator that was killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(fds[1], STDOUT_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
  }
  ~Child() {
    if (!reaped_) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::close(out_fd_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Reads one stdout line, waiting until `deadline`.
  std::string readLine(Clock::time_point deadline) {
    for (;;) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (left.count() <= 0) throw std::runtime_error("child timed out");
      pollfd pfd{out_fd_, POLLIN, 0};
      const int r = ::poll(&pfd, 1, static_cast<int>(left.count()));
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
      if (n == 0) throw std::runtime_error("child exited before replying");
      if (n < 0 && errno != EINTR && errno != EAGAIN)
        throw std::system_error(errno, std::generic_category(), "read");
      if (n > 0) buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  void terminate() { ::kill(pid_, SIGTERM); }

  /// After terminate(): reads the REPORT line and reaps the child.
  void collect(Clock::time_point deadline) {
    report_ = readLine(deadline);
    int status = 0;
    if (::wait4(pid_, &status, 0, &usage_) != pid_)
      throw std::system_error(errno, std::generic_category(), "wait4");
    reaped_ = true;
    exited_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  /// Parsed `key=value` fields of the REPORT line.
  std::map<std::string, std::string> report() const {
    std::map<std::string, std::string> kv;
    std::istringstream in(report_);
    std::string word;
    while (in >> word) {
      const auto eq = word.find('=');
      if (eq != std::string::npos) kv[word.substr(0, eq)] = word.substr(eq + 1);
    }
    return kv;
  }
  double field(const std::string& key) const {
    const auto kv = report();
    const auto it = kv.find(key);
    return it == kv.end() ? 0 : std::stod(it->second);
  }
  bool exitedOk() const { return exited_ok_; }
  const rusage& usage() const { return usage_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string buf_;
  std::string report_;
  bool reaped_ = false;
  bool exited_ok_ = false;
  rusage usage_{};
};

std::uint16_t readyPort(Child& c, Clock::time_point deadline) {
  const std::string line = c.readLine(deadline);
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "READY port=%u", &port) != 1 || port == 0)
    throw std::runtime_error("unexpected child greeting: " + line);
  return static_cast<std::uint16_t>(port);
}

/// The origin plus the phone proxies, each its own process.
struct Servers {
  std::unique_ptr<Child> origin;
  std::vector<std::unique_ptr<Child>> proxies;
  std::uint16_t origin_port = 0;
  std::vector<std::uint16_t> proxy_ports;
  std::vector<std::string> journals;
};

Servers startServers(const fs::path& dir, bool trace) {
  Servers s;
  const auto deadline = Clock::now() + kChildTimeout;
  s.origin = std::make_unique<Child>(std::vector<std::string>{"origin"});
  s.origin_port = readyPort(*s.origin, deadline);
  for (int p = 0; p < kPhones; ++p) {
    const std::string phone = "phone" + std::to_string(p);
    s.journals.push_back((dir / (phone + ".wal")).string());
    s.proxies.push_back(std::make_unique<Child>(std::vector<std::string>{
        "proxy", std::to_string(s.origin_port), s.journals.back(),
        trace ? "1" : "0"}));
  }
  for (auto& p : s.proxies) s.proxy_ports.push_back(readyPort(*p, deadline));
  return s;
}

/// Drains every server, then checks each phone's journal against the
/// charges its governor reported.
void stopServers(Servers& s, Outcome& out) {
  const auto deadline = Clock::now() + kChildTimeout;
  for (auto& p : s.proxies) p->terminate();
  s.origin->terminate();
  for (auto& p : s.proxies) p->collect(deadline);
  s.origin->collect(deadline);
  out.check(s.origin->exitedOk(), "origin did not exit cleanly");
  for (std::size_t i = 0; i < s.proxies.size(); ++i) {
    const Child& p = *s.proxies[i];
    const std::string who = "phone" + std::to_string(i);
    out.check(p.exitedOk(), who + " did not drain cleanly");
    std::ifstream in(s.journals[i], std::ios::binary);
    const std::string image((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    const ReplayResult replay = QuotaJournal::replay(image, 1);
    double used = 0;
    for (const auto& [tenant, ledger] : replay.state) used += ledger.used_month;
    out.check(!replay.torn, who + " journal has a torn tail after drain");
    out.check(used == p.field("charged"),
              who + " journal replays " + std::to_string(used) +
                  " bytes, governor charged " +
                  std::to_string(p.field("charged")));
    fs::remove(s.journals[i]);
  }
}

std::size_t openFdCount() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator("/proc/self/fd"))
    ++n;
  return n;
}

/// TIME_WAIT sockets on the box, from /proc/net/sockstat.
double timeWaitSockets() {
  std::ifstream in("/proc/net/sockstat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("TCP:", 0) != 0) continue;
    std::istringstream words(line);
    std::string w;
    while (words >> w) {
      if (w == "tw" && words >> w) return std::stod(w);
    }
  }
  return 0;
}

void sleepUntil(Clock::time_point t) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      t.time_since_epoch())
                      .count();
  timespec ts{static_cast<time_t>(ns / 1000000000),
              static_cast<long>(ns % 1000000000)};
  while (::clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

/// Client-side books summed over the transactions of a phase.
struct ClientTotals {
  double attempts = 0, duplicates = 0, retries = 0;
  double delivered = 0, wasted = 0, corrupt = 0;
};

/// One measured phase: start the servers (kSetupCycles times, keeping the
/// last set), drive the open-loop client for `seconds`, stop the servers.
/// Fills `e2e` always, `whole` with the latency percentiles of the whole
/// window, and `layer` when tracing.
void runPhase(std::uint64_t seed, double seconds, bool trace,
              const fs::path& dir, Outcome& out, Metrics& e2e, Metrics& whole,
              Metrics& layer) {
  std::vector<double> setups;
  std::optional<Servers> servers;
  for (int c = 0; c < kSetupCycles; ++c) {
    if (servers) stopServers(*servers, out);
    servers.reset();
    const auto t0 = Clock::now();
    servers.emplace(startServers(dir, trace));
    setups.push_back(secondsSince(t0));
  }

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> size_dist(kMinItemBytes,
                                                       kMaxItemBytes);
  gol::telemetry::Registry registry;
  ClientTotals tot;
  std::vector<std::vector<double>> latency_ms(kLatencySlices);
  std::vector<double> late_ms;
  std::size_t due = 0, ok = 0;
  bool stuck = false;
  const double tw_start = timeWaitSockets();
  const rusage ru0 = selfUsage();
  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kTxnPerSecond));
  const auto window_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  auto sliceOf = [&](Clock::time_point due_at) -> std::vector<double>& {
    const double at = std::chrono::duration<double>(due_at - t0).count();
    const int i = static_cast<int>(at / seconds * kLatencySlices);
    return latency_ms[static_cast<std::size_t>(
        std::clamp(i, 0, kLatencySlices - 1))];
  };
  {
    EpollLoop loop;
    if (trace) loop.instrument(&registry);
    std::vector<Endpoint> endpoints = {{"adsl", servers->origin_port}};
    for (int p = 0; p < kPhones; ++p) {
      endpoints.push_back({"phone" + std::to_string(p),
                           servers->proxy_ports[static_cast<std::size_t>(p)]});
    }
    MultipathHttpClient client(loop, endpoints, ClientConfig{});

    std::deque<Clock::time_point> backlog;
    Clock::time_point next_due = t0;
    bool active = false;
    Clock::time_point active_due;
    std::size_t active_bytes = 0;
    for (;;) {
      const auto now = Clock::now();
      while (next_due < window_end && next_due <= now) {
        backlog.push_back(next_due);
        ++due;
        next_due = t0 + period * static_cast<long>(due);
      }
      if (active && client.done()) {
        active = false;
        const MultipathResult& r = client.result();
        for (int a : r.per_item_attempts) tot.attempts += a;
        tot.duplicates += static_cast<double>(r.duplicated_items);
        tot.retries += static_cast<double>(r.retries);
        tot.wasted += static_cast<double>(r.wasted_bytes);
        tot.corrupt += static_cast<double>(r.corrupt_payloads);
        double delivered = static_cast<double>(r.salvaged_bytes);
        for (const auto& [ep, b] : r.per_endpoint_bytes) delivered += b;
        tot.delivered += delivered;
        if (r.complete && r.failed_items == 0) {
          ++ok;
          sliceOf(active_due).push_back(
              std::chrono::duration<double, std::milli>(now - active_due)
                  .count());
          if (delivered != static_cast<double>(active_bytes)) {
            out.check(false, "a completed transaction delivered " +
                                 std::to_string(delivered) + " of " +
                                 std::to_string(active_bytes) + " bytes");
          }
        } else {
          sliceOf(active_due).push_back(
              std::numeric_limits<double>::infinity());
        }
      }
      if (!active && !backlog.empty()) {
        active_due = backlog.front();
        backlog.pop_front();
        late_ms.push_back(
            std::chrono::duration<double, std::milli>(now - active_due)
                .count());
        std::vector<FetchItem> items;
        active_bytes = 0;
        for (int i = 0; i < kItemsPerTxn; ++i) {
          const std::size_t n = size_dist(rng);
          items.push_back({"/obj/" + std::to_string(n), n,
                           gol::http::fnv1aFiller(n)});
          active_bytes += n;
        }
        client.start(std::move(items));
        active = true;
      }
      if (!active && backlog.empty() && next_due >= window_end) break;
      if (now >= window_end + kFinishGrace) {
        stuck = active;
        break;
      }
      if (active) {
        loop.poll(std::chrono::milliseconds(20));
      } else {
        sleepUntil(next_due);
        loop.poll(std::chrono::milliseconds(0));
      }
    }
  }
  const rusage ru1 = selfUsage();
  out.check(!stuck, "a started transaction did not terminate");
  out.check(tot.corrupt == 0, "corrupt payloads: " + std::to_string(tot.corrupt));

  stopServers(*servers, out);
  const double tw_end = timeWaitSockets();
  out.attempted += due;
  out.failed += due - ok;
  // Transactions still queued or running when the loop gave up.
  std::size_t recorded = 0;
  for (const auto& s : latency_ms) recorded += s.size();
  for (std::size_t i = recorded; i < due; ++i) {
    latency_ms.back().push_back(std::numeric_limits<double>::infinity());
  }
  auto sliceMedian = [&](double q) {
    std::vector<double> per_slice;
    for (const auto& s : latency_ms) {
      if (!s.empty()) per_slice.push_back(quantile(s, q));
    }
    return median(per_slice);
  };

  const double okd = std::max<double>(1, static_cast<double>(ok));
  double proxy_cpu = 0, proxy_sys = 0;
  for (const auto& p : servers->proxies) {
    proxy_cpu += cpuSeconds(p->usage());
    proxy_sys += sysSeconds(p->usage());
  }
  const double client_cpu = cpuSeconds(ru1) - cpuSeconds(ru0);
  e2e["setup_s"] = median(setups);
  e2e["sim_txn_per_s"] = static_cast<double>(ok) / seconds;
  e2e["peak_rss_mb"] = peakRssMb();
  e2e["ok_share"] = due ? static_cast<double>(ok) / static_cast<double>(due) : 0;
  e2e["txn_p50_ms"] = sliceMedian(0.5);
  e2e["txn_p90_ms"] = sliceMedian(0.90);
  std::vector<double> all_ms;
  for (const auto& s : latency_ms) all_ms.insert(all_ms.end(), s.begin(), s.end());
  whole["txn_p50_ms"] = quantile(all_ms, 0.5);
  whole["txn_p90_ms"] = quantile(all_ms, 0.90);
  e2e["client_cpu_us_per_txn"] = client_cpu * 1e6 / okd;
  e2e["proxy_cpu_us_per_txn"] = proxy_cpu * 1e6 / okd;
  if (!trace) return;

  auto sumField = [&](const std::string& key) {
    double s = 0;
    for (const auto& p : servers->proxies) s += p->field(key);
    return s;
  };
  layer["proto.client.attempts_per_txn"] = tot.attempts / okd;
  layer["proto.client.dup_per_txn"] = tot.duplicates / okd;
  layer["proto.client.retries_per_txn"] = tot.retries / okd;
  layer["proto.client.waste_share"] = tot.wasted / std::max(1.0, tot.delivered + tot.wasted);
  layer["proto.client.sys_share"] = (sysSeconds(ru1) - sysSeconds(ru0)) / std::max(1e-9, client_cpu);
  layer["proto.loop.polls_per_txn"] = registry.counter("gol.proto.poll_iterations").value() / okd;
  layer["proto.loop.events_per_txn"] = registry.counter("gol.proto.events_dispatched").value() / okd;
  layer["proto.loop.timers_per_txn"] = registry.counter("gol.proto.timers_fired").value() / okd;
  layer["gen.late_ms_p99"] = quantile(late_ms, 0.99);
  layer["gen.txn_count"] = static_cast<double>(due);
  layer["proto.proxy.accepts_per_txn"] = sumField("accepts") / okd;
  layer["proto.proxy.bytes_per_txn"] = sumField("relayed") / okd;
  layer["proto.proxy.sys_share"] = proxy_sys / std::max(1e-9, proxy_cpu);
  layer["proto.proxy.shed_busy"] = sumField("shed_busy");
  layer["proto.proxy.bp_pauses"] = sumField("bp_pauses");
  layer["proto.governor.admits_per_txn"] = sumField("admits") / okd;
  layer["proto.governor.charges_per_txn"] = sumField("charges") / okd;
  layer["proto.governor.denied"] = sumField("denied");
  layer["proto.journal.records_per_txn"] = sumField("records") / okd;
  const double flushes = sumField("flushes");
  layer["proto.journal.flushes_per_s"] = flushes / seconds;
  layer["proto.journal.inline_flush_share"] = flushes > 0 ? (flushes - sumField("tick_flushes")) / flushes : 0;
  std::vector<double> ticks;
  for (const auto& p : servers->proxies) {
    std::istringstream in(p->report()["tick_us"]);
    std::string v;
    while (std::getline(in, v, ',')) {
      if (!v.empty()) ticks.push_back(std::stod(v));
    }
  }
  layer["proto.journal.tick_flush_us_p50"] = quantile(ticks, 0.5);
  layer["proto.journal.tick_flush_us_p99"] = quantile(ticks, 0.99);
  layer["proto.origin.cpu_us_per_txn"] = cpuSeconds(servers->origin->usage()) * 1e6 / okd;
  layer["proto.origin.requests_per_txn"] = servers->origin->field("requests") / okd;
  layer["kernel.tcp_tw_start"] = tw_start;
  layer["kernel.tcp_tw_end"] = tw_end;
}

}  // namespace

int childMain(int argc, char** argv) {
  try {
    const std::string role = argc >= 1 ? argv[0] : "";
    if (role == "origin" && argc == 1) return originMain();
    if (role == "proxy" && argc == 4) {
      return proxyMain(static_cast<std::uint16_t>(std::atoi(argv[1])), argv[2],
                       std::atoi(argv[3]) == 1);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench child: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "usage: perfbench child origin | proxy PORT WAL 0|1\n");
  return 2;
}

void runLive(std::uint64_t seed, double seconds, bool trace, Outcome& out) {
  ::signal(SIGPIPE, SIG_IGN);
  const fs::path dir =
      fs::absolute(".bench_build") / ("live-" + std::to_string(::getpid()));
  fs::create_directories(dir);
  struct RemoveDir {
    fs::path dir;
    ~RemoveDir() {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  } cleanup{dir};

  const std::size_t fds_before = openFdCount();
  if (!trace) {
    Metrics unused;
    out.aside_label = "whole window";
    runPhase(seed, seconds, false, dir, out, out.metrics, out.aside, unused);
  } else {
    // A plain half and a traced half: the per-layer numbers come from the
    // traced half, and the end-to-end difference is the tracing overhead.
    Metrics plain, traced, unused;
    runPhase(seed, seconds / 2, false, dir, out, plain, unused, unused);
    const double plain_rss = currentRssMb();
    runPhase(seed, seconds / 2, true, dir, out, traced, unused, out.metrics);
    traced["peak_rss_mb"] = currentRssMb();
    plain["peak_rss_mb"] = plain_rss;
    for (const auto& [name, value] : plain) {
      out.metrics["trace.overhead." + name] = traced[name] - value;
    }
  }
  out.check(openFdCount() == fds_before,
            "generator fd count changed across the run");
}

}  // namespace perfbench
