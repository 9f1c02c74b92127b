#include "itask/scheduler.h"

#include <algorithm>

#include "chaos/chaos.h"
#include "common/logging.h"
#include "itask/runtime.h"

namespace itask::core {

Scheduler::Scheduler(IrsRuntime* runtime, int max_workers)
    : runtime_(runtime),
      max_workers_(max_workers),
      interrupt_latency_(&runtime->metrics().histogram("irs.interrupt_latency_ns",
                                                       obs::InterruptLatencyBoundsNs())) {
  workers_.reserve(static_cast<std::size_t>(max_workers_));
  for (int i = 0; i < max_workers_; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
}

Scheduler::~Scheduler() { Stop(); }

void Scheduler::Start() {
  std::lock_guard lock(mu_);
  // A previous Stop() leaves stop_ set and the threads joined; clear the flag
  // so Stop -> Start -> Stop cycles work (one runtime running several jobs).
  // Parallelism restarts from one worker: slow start is per job (§5.1).
  stop_ = false;
  target_.store(1, std::memory_order_relaxed);
  for (int i = 0; i < max_workers_; ++i) {
    if (!workers_[static_cast<std::size_t>(i)]->thread.joinable()) {
      workers_[static_cast<std::size_t>(i)]->thread = std::thread([this, i] { WorkerLoop(i); });
    }
  }
}

void Scheduler::Stop() {
  {
    std::lock_guard lock(mu_);
    if (stop_) {
      return;
    }
    stop_ = true;
    cv_.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) {
      worker->thread.join();
    }
  }
}

void Scheduler::NotifyWork() {
  std::lock_guard lock(mu_);
  TryDispatchLocked();
}

void Scheduler::OnGrowSignal(bool force) {
  std::lock_guard lock(mu_);
  const int target = target_.load(std::memory_order_relaxed);
  if (force && active_.load(std::memory_order_relaxed) == 0 && target < 1) {
    target_.store(1, std::memory_order_relaxed);
  } else if (target < max_workers_) {
    // Slow start: one more worker per GROW signal (paper §5.1).
    target_.store(target + 1, std::memory_order_relaxed);
  }
  TryDispatchLocked();
}

void Scheduler::OnReduceSignal() {
  CHAOS_POINT("sched.reduce");
  // Step 1: lazy serialization of inactive partitions often suffices
  // (paper Figure 8, lines 13-14).
  const std::uint64_t needed = runtime_->BytesNeededForSafeZone();
  if (needed == 0) {
    return;
  }
  const std::uint64_t freed = runtime_->partition_manager().SpillStep(needed);
  if (freed >= needed) {
    return;
  }
  CHAOS_POINT("sched.victim_select");

  // Step 2: pick one victim among running workers (lines 15-17) by the rules:
  // MITask-first (merge instances survive), finish-line, speed.
  std::lock_guard lock(mu_);
  if (runtime_->config().random_victims) {
    // Ablation: random victim instead of the priority rules.
    std::vector<Worker*> busy;
    for (auto& worker : workers_) {
      if (worker->busy && !worker->terminate_requested.load(std::memory_order_relaxed)) {
        busy.push_back(worker.get());
      }
    }
    if (!busy.empty()) {
      static std::atomic<std::uint64_t> counter{0};
      const std::uint64_t pick =
          (counter.fetch_add(0x9e3779b97f4a7c15ULL) >> 17) % busy.size();
      RequestTerminationLocked(busy[pick], obs::InterruptRule::kRandom);
    }
    return;
  }
  const NodeServices& services = runtime_->services();
  if (services.job_id != memsim::kNoJob && services.heap->JobOverage(services.job_id) > 0) {
    // Budget rule (multi-tenant): a job paying for its own overage interrupts
    // its cheapest-to-serialize instance — fewest tuples since activation
    // means the least staged output to release — instead of the §5.4 rules,
    // which optimize job completion rather than eviction cost.
    Worker* victim = nullptr;
    std::uint64_t victim_tuples = 0;
    for (auto& worker : workers_) {
      if (!worker->busy || worker->terminate_requested.load(std::memory_order_relaxed) ||
          worker->spec_id < 0) {
        continue;
      }
      const std::uint64_t tuples = worker->tuples.load(std::memory_order_relaxed);
      if (victim == nullptr || tuples < victim_tuples) {
        victim = worker.get();
        victim_tuples = tuples;
      }
    }
    if (victim != nullptr) {
      RequestTerminationLocked(victim, obs::InterruptRule::kBudget);
    }
    return;
  }
  Worker* victim = nullptr;
  int victim_merge = 0;
  int victim_distance = -1;
  std::uint64_t victim_tuples = 0;
  int candidates = 0;
  // Which of the §5.4 rules last discriminated between the victim and a peer.
  // With a single candidate no rule ever fires and the pick is attributed to
  // kOnlyCandidate.
  obs::InterruptRule rule = obs::InterruptRule::kOnlyCandidate;
  for (auto& worker : workers_) {
    if (!worker->busy || worker->terminate_requested.load(std::memory_order_relaxed) ||
        worker->spec_id < 0) {
      continue;
    }
    ++candidates;
    const TaskSpec& spec = runtime_->graph().spec(worker->spec_id);
    const int merge = spec.is_merge ? 1 : 0;
    const int distance = spec.finish_distance;
    const std::uint64_t tuples = worker->tuples.load(std::memory_order_relaxed);
    // Prefer: non-merge victims; then farther from the finish line; then the
    // slowest instance (fewest tuples since activation).
    bool better = false;
    if (victim == nullptr) {
      better = true;
    } else if (merge != victim_merge) {
      better = merge < victim_merge;
      rule = obs::InterruptRule::kMitaskFirst;
    } else if (distance != victim_distance) {
      better = distance > victim_distance;
      rule = obs::InterruptRule::kFinishLine;
    } else {
      better = tuples < victim_tuples;
      rule = obs::InterruptRule::kSpeed;
    }
    if (better) {
      victim = worker.get();
      victim_merge = merge;
      victim_distance = distance;
      victim_tuples = tuples;
    }
  }
  if (victim != nullptr) {
    RequestTerminationLocked(victim, candidates == 1 ? obs::InterruptRule::kOnlyCandidate : rule);
  }
}

void Scheduler::RequestTerminationLocked(Worker* victim, obs::InterruptRule rule) {
  victim->terminate_rule.store(static_cast<std::uint8_t>(rule), std::memory_order_relaxed);
  victim->terminate_request_ns.store(runtime_->tracer()->NowNs(), std::memory_order_relaxed);
  victim->terminate_requested.store(true, std::memory_order_release);
  ++stats_.victim_requests;
  const int target = target_.load(std::memory_order_relaxed);
  if (target > 0) {
    target_.store(target - 1, std::memory_order_relaxed);
  }
  runtime_->tracer()->Emit(obs::EventKind::kVictimSelect, runtime_->trace_node(),
                           victim->tuples.load(std::memory_order_relaxed), 0,
                           static_cast<std::uint32_t>(victim->spec_id),
                           static_cast<std::uint8_t>(rule));
}

bool Scheduler::ApproveTermination(int worker_id) {
  // Acquire pairs with RequestTerminationLocked's release store: a scale loop
  // that observes the flag must also observe the rule/request-time stamps
  // written just before it, or the interrupt-latency attribution in
  // WorkerLoop reads garbage. (The flag itself needs no lock — it is a
  // single-writer-per-activation boolean the victim polls at safe points.)
  return workers_[static_cast<std::size_t>(worker_id)]->terminate_requested.load(
      std::memory_order_acquire);
}

void Scheduler::StampOmeInterrupt(int worker_id) {
  Worker& worker = *workers_[static_cast<std::size_t>(worker_id)];
  worker.terminate_rule.store(static_cast<std::uint8_t>(obs::InterruptRule::kOme),
                              std::memory_order_relaxed);
  worker.terminate_request_ns.store(runtime_->tracer()->NowNs(), std::memory_order_relaxed);
}

void Scheduler::CountTuple(int worker_id) {
  workers_[static_cast<std::size_t>(worker_id)]->tuples.fetch_add(1, std::memory_order_relaxed);
}

void Scheduler::ActiveBySpec(std::array<int, kMaxSpecs>& out) const {
  out.fill(0);
  std::lock_guard lock(mu_);
  for (const auto& worker : workers_) {
    if (worker->busy && worker->spec_id >= 0) {
      ++out[static_cast<std::size_t>(worker->spec_id)];
    }
  }
}

Scheduler::Stats Scheduler::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

void Scheduler::TryDispatchLocked() {
  if (stop_) {
    return;
  }
  while (active_.load(std::memory_order_relaxed) < target_.load(std::memory_order_relaxed)) {
    Worker* idle = nullptr;
    for (auto& worker : workers_) {
      if (!worker->busy) {
        idle = worker.get();
        break;
      }
    }
    if (idle == nullptr) {
      return;
    }
    WorkAssignment work = runtime_->SelectWork();
    if (!work.valid()) {
      return;
    }
    ++stats_.activations;
    const bool requeued = (work.single && work.single->requeued()) ||
                          std::any_of(work.group.begin(), work.group.end(),
                                      [](const PartitionPtr& p) { return p->requeued(); });
    if (requeued) {
      ++stats_.reactivations;
      runtime_->tracer()->Emit(obs::EventKind::kTaskReactivate, runtime_->trace_node(), 0, 0,
                               static_cast<std::uint32_t>(work.spec->id));
    }
    idle->assignment = std::move(work);
    idle->busy = true;
    idle->spec_id = idle->assignment.spec->id;
    idle->terminate_requested.store(false, std::memory_order_relaxed);
    idle->tuples.store(0, std::memory_order_relaxed);
    const int now_active = active_.fetch_add(1, std::memory_order_relaxed) + 1;
    stats_.peak_active = std::max(stats_.peak_active, now_active);
    cv_.notify_all();
  }
}

void Scheduler::WorkerLoop(int id) {
  // Tenant identity for the heap's per-job accounting: every byte this worker
  // allocates or frees is attributed to the runtime's job.
  memsim::JobScope job_scope(runtime_->services().job_id);
  Worker& self = *workers_[static_cast<std::size_t>(id)];
  std::unique_lock lock(mu_);
  while (true) {
    cv_.wait(lock, [&] { return stop_ || self.assignment.valid(); });
    if (stop_) {
      return;
    }
    WorkAssignment work = std::move(self.assignment);
    self.assignment.Clear();
    lock.unlock();
    CHAOS_POINT("worker.run");

    const int spec_id = work.spec->id;  // ExecuteActivation clears |work|.
    const bool completed = runtime_->ExecuteActivation(id, work);

    // Interrupt latency: request stamp (monitor victim selection or an
    // absorbed OME) -> the scale loop yielding.
    const std::uint64_t request_ns =
        self.terminate_request_ns.exchange(0, std::memory_order_relaxed);
    if (!completed) {
      const auto rule =
          static_cast<obs::InterruptRule>(self.terminate_rule.load(std::memory_order_relaxed));
      std::uint64_t latency_ns = 0;
      if (request_ns != 0) {
        const std::uint64_t now = runtime_->tracer()->NowNs();
        latency_ns = now > request_ns ? now - request_ns : 0;
        interrupt_latency_->Observe(latency_ns);
      }
      runtime_->tracer()->Emit(obs::EventKind::kTaskInterrupt, runtime_->trace_node(), latency_ns,
                               0, static_cast<std::uint32_t>(spec_id),
                               static_cast<std::uint8_t>(rule));
    }

    lock.lock();
    if (!completed) {
      ++stats_.interrupts;
    }
    self.terminate_rule.store(0, std::memory_order_relaxed);
    self.busy = false;
    self.spec_id = -1;
    self.terminate_requested.store(false, std::memory_order_relaxed);
    active_.fetch_sub(1, std::memory_order_relaxed);
    TryDispatchLocked();
  }
}

}  // namespace itask::core
