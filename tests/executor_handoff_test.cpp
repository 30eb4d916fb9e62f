// Lost-wake-up hammer for the executor's handoff: the scheduling thread
// sleeps when it has nothing to do and each worker parks on its own
// word, so every wake-up is targeted.  One lane offers 20k tiny jobs
// with random 0-50 us gaps, which flips the scheduling thread between
// asleep and busy thousands of times.  About 10 % of the jobs checkpoint
// until a 100-300 us critical time aborts them; a later one of higher
// PUD can make a running one infeasible, so it parks and expires while
// parked.  The backlog cap sheds what the CPUs cannot serve, so the
// rejection path runs too.  A wake-up lost anywhere in the protocol
// leaves drain() blocked forever: the test bounds it and fails instead
// of hanging.  Runs under TSan in scripts/check.sh.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>

#include "lockfree/msqueue.hpp"
#include "rt/executor.hpp"
#include "sched/rua.hpp"
#include "support/rng.hpp"

namespace lfrt {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kJobs = 20000;
constexpr std::size_t kQueueCapacity = 128;
constexpr std::size_t kMaxLive = 16;
// A lost wake-up never recovers, so any budget that comfortably covers
// a sanitized run tells the two apart.
constexpr auto kBudget = std::chrono::seconds(120);

void spin_until(Clock::time_point t) {
  while (Clock::now() < t) std::this_thread::yield();
}

// critical == 0 makes a normal job.
rt::RtJob make_job(int i, double utility, Time critical,
                   const std::shared_ptr<lockfree::MsQueue<int>>& q) {
  rt::RtJob job;
  auto pending = std::make_shared<std::atomic<int>>(0);
  if (critical > 0) {
    // Doomed: checkpointed quanta until the abort lands (the 5 ms cap
    // is never reached).  Utilities and critical times are drawn per
    // job, so a later doomed job of higher PUD can make a running one
    // infeasible: RUA drops it from the schedule, its body parks at the
    // next checkpoint, and its critical time expires while parked.
    job.tuf = make_step_tuf(utility, critical);
    job.expected_exec = critical * 9 / 10;
    job.body = [q, pending, i](rt::JobContext& ctx) {
      if (q->enqueue(i)) pending->store(1);
      const auto end = Clock::now() + std::chrono::milliseconds(5);
      while (Clock::now() < end && !ctx.aborted()) ctx.checkpoint();
      ctx.checkpoint();
      if (q->dequeue()) pending->store(0);
    };
  } else {
    // Never expires within the test: no abort deadline wakes the
    // scheduling thread on these jobs' behalf, so a lost wake-up stalls.
    job.tuf = make_step_tuf(10.0, sec(3600));
    job.expected_exec = usec(5);
    job.body = [q, pending, i](rt::JobContext& ctx) {
      ctx.checkpoint();
      if (q->enqueue(i)) pending->store(1);
      ctx.checkpoint();
      if (q->dequeue()) pending->store(0);
      ctx.checkpoint();
    };
  }
  job.abort_handler = [q, pending] {
    // Compensation: take back the node the half-done body left behind.
    if (pending->load() > 0 && q->dequeue()) pending->store(0);
  };
  return job;
}

class ExecutorHandoff : public ::testing::TestWithParam<int> {};

TEST_P(ExecutorHandoff, LaneHammerNeverLosesAWakeUp) {
  const int cpus = GetParam();
  auto q = std::make_shared<lockfree::MsQueue<int>>(kQueueCapacity);
  const sched::RuaScheduler rua(sched::Sharing::kLockFree);
  rt::ExecutorConfig cfg;
  cfg.cpu_count = cpus;
  cfg.worker_reserve = 0;
  cfg.retain_job_records = false;
  cfg.max_live_jobs = kMaxLive;
  rt::Executor ex(rua, cfg);
  rt::IngestLane& lane = ex.open_lane(256);
  std::int64_t offered = 0;

  auto run = std::async(std::launch::async, [&] {
    Rng rng(0xC0FFEE + static_cast<std::uint64_t>(cpus));
    auto due = Clock::now();
    for (int i = 0; i < kJobs; ++i) {
      due += std::chrono::microseconds(rng.uniform(0, 50));
      spin_until(due);
      const bool doomed = rng.uniform(0, 9) == 0;
      const double utility = doomed ? rng.uniform_real(1.0, 100.0) : 10.0;
      const Time critical = doomed ? rng.uniform(usec(100), usec(300)) : 0;
      // A full lane leaves no trace of the rejected offer: rebuild.
      while (!lane.offer(make_job(i, utility, critical, q)))
        std::this_thread::yield();
      ++offered;
    }
    ex.drain();
  });
  if (run.wait_for(kBudget) != std::future_status::ready) {
    // The executor cannot be shut down past a lost wake-up (shutdown
    // drains first), and the future's destructor would join the stuck
    // thread: report and end the process instead of hanging ctest.
    std::fprintf(stderr,
                 "ExecutorHandoff: drain() did not return within %llds at "
                 "cpus=%d (lost wake-up)\n",
                 static_cast<long long>(kBudget.count()), cpus);
    std::fflush(stderr);
    std::_Exit(1);
  }
  run.get();
  const rt::ExecutorReport rep = ex.shutdown();

  EXPECT_EQ(offered, kJobs);
  EXPECT_EQ(rep.lane_ingested, offered);
  EXPECT_EQ(rep.submitted + rep.rejected, offered);
  EXPECT_EQ(rep.completed + rep.aborted, rep.submitted);
  EXPECT_EQ(rep.counted_jobs, rep.submitted + rep.rejected);
  EXPECT_GT(rep.completed, 0);
  EXPECT_GT(rep.aborted, 0) << "no doomed job ever aborted";
  // A worker is idle or bound to a live job, and the pool grows only
  // when none is idle: it never outgrows the live backlog.
  EXPECT_LE(rep.worker_pool_peak,
            std::max<std::int64_t>(cpus, rep.peak_live_records));

  // No pool node leaked: every abort handler took back its node, so the
  // pool refills to exactly its capacity.
  while (q->dequeue()) {
  }
  for (std::size_t n = 0; n < kQueueCapacity; ++n)
    ASSERT_TRUE(q->enqueue(static_cast<int>(n)))
        << "node leaked: refill stalled at " << n << "/" << kQueueCapacity;
  EXPECT_FALSE(q->enqueue(-1));
}

INSTANTIATE_TEST_SUITE_P(Cpus, ExecutorHandoff, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace lfrt
