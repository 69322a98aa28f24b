#include "timed_scheduler.hpp"

#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

#include "core/scheduler.hpp"

namespace perfbench {

namespace {

using gol::core::EngineView;
using gol::core::Item;
using gol::core::ItemStatus;
using gol::core::Scheduler;
using gol::core::Transaction;

// Counter blocks outlive their wrappers (household engines are destroyed
// with the MetroSimulation). The mutex is taken once per wrapper creation,
// which happens while shards run when engines are built lazily.
std::mutex g_blocks_mu;
std::vector<std::shared_ptr<SchedulerStats>> g_blocks;

class TimedScheduler final : public Scheduler {
 public:
  explicit TimedScheduler(const std::string& policy)
      : inner_(gol::core::makeScheduler(policy)),
        stats_(std::make_shared<SchedulerStats>()) {
    std::lock_guard<std::mutex> lock(g_blocks_mu);
    g_blocks.push_back(stats_);
  }

  std::string name() const override { return inner_->name(); }

  void onTransactionStart(const Transaction& txn,
                          const std::vector<double>& rates) override {
    inner_->onTransactionStart(txn, rates);
  }

  std::optional<std::size_t> nextItem(const EngineView& view,
                                      std::size_t path) override {
    const auto t0 = std::chrono::steady_clock::now();
    const auto pick = inner_->nextItem(view, path);
    stats_->self_s += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ++stats_->decisions;
    if (!pick) {
      ++stats_->idle;
    } else if (view.items->status(*pick) == ItemStatus::kInFlight) {
      ++stats_->duplicates;
    }
    return pick;
  }

  void onItemComplete(std::size_t path, const Item& item,
                      double seconds) override {
    inner_->onItemComplete(path, item, seconds);
  }
  void onItemRequeued(std::size_t item) override {
    inner_->onItemRequeued(item);
  }
  void onPathDown(std::size_t path) override { inner_->onPathDown(path); }
  void onPathUp(std::size_t path) override { inner_->onPathUp(path); }
  void onPathAdded(std::size_t path, double rate) override {
    inner_->onPathAdded(path, rate);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  std::shared_ptr<SchedulerStats> stats_;
};

gol::core::SchedulerRegistrar g_timed_greedy(
    timedPolicy("greedy"),
    [] { return std::make_unique<TimedScheduler>("greedy"); },
    /*alias=*/true);
gol::core::SchedulerRegistrar g_timed_opt(
    timedPolicy("opt"), [] { return std::make_unique<TimedScheduler>("opt"); },
    /*alias=*/true);

}  // namespace

std::string timedPolicy(const std::string& policy) {
  return "perfbench-timed-" + policy;
}

SchedulerStats collectSchedulerStats() {
  std::lock_guard<std::mutex> lock(g_blocks_mu);
  SchedulerStats total;
  for (const auto& b : g_blocks) total.add(*b);
  g_blocks.clear();
  return total;
}

}  // namespace perfbench
