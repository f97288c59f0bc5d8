#include "src/runtime/executor.h"

#include <utility>

#include "src/common/logging.h"

namespace walter {

namespace {

thread_local Executor* g_current_executor = nullptr;

// RAII marker for "this thread is running executor e's loop". Nested pumps of
// the same executor are fine; pumping a different executor from inside a loop
// is not (that would interleave two owners' state on one stack).
class ScopedCurrent {
 public:
  explicit ScopedCurrent(Executor* e) : prev_(g_current_executor) {
    WCHECK(prev_ == nullptr || prev_ == e,
           "executor loop entered from another executor's thread");
    g_current_executor = e;
  }
  ~ScopedCurrent() { g_current_executor = prev_; }

 private:
  Executor* prev_;
};

// Bound on any single sleep so a stop request or newly set deadline is
// noticed promptly even when the next timer is far away.
constexpr std::chrono::milliseconds kMaxSleepSlice(20);

}  // namespace

Executor::Executor(Simulator* sim, const WallClock* clock)
    : sim_(sim), clock_(clock) {}

Executor::~Executor() {
  WCHECK(!thread_.joinable(), "executor destroyed while its thread is running");
}

Executor* Executor::Current() { return g_current_executor; }

void Executor::Post(Callback fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    inbox_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void Executor::PostSync(const std::function<void()>& fn) {
  if (Current() == this || !thread_.joinable()) {
    // Own loop, or no loop running: the caller is (or may safely act as) the
    // owner thread.
    ScopedCurrent cur(this);
    fn();
    return;
  }
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
  Post([&fn, &done_mu, &done_cv, &done]() {
    fn();
    // Notify while holding the mutex: the waiter owns the cv/mutex on its
    // stack and destroys them the moment it observes `done`, so an unlocked
    // notify could touch a dead condition variable.
    std::lock_guard<std::mutex> lk(done_mu);
    done = true;
    done_cv.notify_one();
  });
  std::unique_lock<std::mutex> lk(done_mu);
  done_cv.wait(lk, [&done]() { return done; });
}

void Executor::Loop(const std::function<bool()>& done) {
  ScopedCurrent cur(this);
  // Reused across passes, so a pass in steady state allocates nothing. Local,
  // not a member: a nested pump (a callback pumping this executor) drains
  // into its own batch while this one is mid-iteration.
  std::deque<Callback> batch;
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    if (done()) {
      return;
    }
    // Fire timers due at the current wall instant, then drain the mailbox.
    // RunUntil also advances sim().Now() to wall time when no timers are due,
    // so handlers always read a fresh virtual clock.
    batch.swap(inbox_);
    lk.unlock();
    sim_->RunUntil(clock_->VirtualNow());
    for (Callback& fn : batch) {
      fn();
    }
    batch.clear();
    sim_->RunUntil(clock_->VirtualNow());
    SimTime next = sim_->NextEventTime();
    lk.lock();
    if (!inbox_.empty() || done()) {
      continue;
    }
    auto wake = std::chrono::steady_clock::now() + kMaxSleepSlice;
    if (next != Simulator::kNoPendingEvent) {
      wake = std::min(wake, clock_->RealFor(next));
    }
    cv_.wait_until(lk, wake);
  }
}

void Executor::Start() {
  WCHECK(!thread_.joinable(), "executor started twice");
  stop_ = false;
  thread_ = std::thread([this]() { Loop([this]() { return stop_; }); });
}

void Executor::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

void Executor::PumpFor(SimDuration virtual_d) {
  // Done once the simulator itself has run to the deadline, not merely once
  // the wall clock has passed it: a caller descheduled across the deadline
  // must still fire the timers due before it.
  const SimTime deadline = clock_->VirtualNow() + virtual_d;
  Loop([this, deadline]() { return sim_->Now() >= deadline; });
}

bool Executor::PumpUntil(const std::function<bool()>& pred,
                         SimDuration max_virtual_wait) {
  const SimTime deadline = clock_->VirtualNow() + max_virtual_wait;
  bool ok = false;
  Loop([this, &pred, &ok, deadline]() {
    if (pred()) {
      ok = true;
      return true;
    }
    return sim_->Now() >= deadline;  // as in PumpFor
  });
  return ok;
}

ThreadedRuntime::ThreadedRuntime(const Options& options, Simulator* control_sim)
    : clock_(options.time_scale) {
  WCHECK(options.workers > 0, "threaded runtime needs at least one worker");
  for (size_t i = 0; i < options.workers; ++i) {
    // Distinct seeds per worker: loss decisions and jittered timers diverge
    // per thread instead of replaying one stream.
    worker_sims_.push_back(
        std::make_unique<Simulator>(options.seed * 7919 + i + 1));
    workers_.push_back(
        std::make_unique<Executor>(worker_sims_.back().get(), &clock_));
  }
  control_ = std::make_unique<Executor>(control_sim, &clock_);
}

ThreadedRuntime::~ThreadedRuntime() { Stop(); }

void ThreadedRuntime::Start() {
  WCHECK(!started_, "threaded runtime started twice");
  for (auto& w : workers_) {
    w->Start();
  }
  started_ = true;
}

void ThreadedRuntime::Stop() {
  for (auto& w : workers_) {
    w->Stop();
  }
  started_ = false;
}

}  // namespace walter
