#include "exec/drive.hpp"

#include <algorithm>
#include <chrono>
#include <future>
#include <optional>
#include <thread>

#include "exec/eval_cache.hpp"
#include "obs/trace.hpp"

namespace baco {

namespace {
using Clock = std::chrono::steady_clock;
using Task = std::pair<std::uint64_t, Configuration>;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Drive-loop instrumentation handles, registered once per process. */
struct EngineMetrics {
  obs::Histogram& objective = hist("engine.objective_seconds");
  obs::Histogram& queue_wait = hist("engine.queue_wait_seconds");
  obs::Histogram& tell = hist("engine.tell_seconds");
  obs::Counter& dispatched = counter("engine.dispatched_total");
  obs::Counter& cache_hits = counter("engine.cache_hits_total");
  obs::Counter& cache_misses = counter("engine.cache_misses_total");
  obs::Gauge& inflight_peak = gauge("engine.inflight_peak");
  obs::Gauge& queue_depth = gauge("engine.pool_queue_depth");
  /** Suggest-ahead pipeline accounting: speculative suggests launched,
   *  slots refilled from a prefetched suggestion, and how long the loop
   *  blocked waiting for an unfinished speculation. */
  obs::Counter& ahead_launched = counter("engine.suggest_ahead_total");
  obs::Counter& ahead_used = counter("engine.suggest_ahead_used_total");
  obs::Histogram& ahead_wait = hist("engine.suggest_ahead_wait_seconds");

  static EngineMetrics& get()
  {
      static EngineMetrics m;
      return m;
  }

 private:
  static obs::Histogram& hist(const char* name)
  {
      return obs::MetricsRegistry::global().histogram(name);
  }
  static obs::Counter& counter(const char* name)
  {
      return obs::MetricsRegistry::global().counter(name);
  }
  static obs::Gauge& gauge(const char* name)
  {
      return obs::MetricsRegistry::global().gauge(name);
  }
};

/**
 * Pool lanes for `lanes` concurrent evaluations. submit() never runs
 * work on the pool's calling lane, so that lane comes on top — except
 * for a single evaluation lane, which the pool runs inline.
 */
int
pool_lanes(int lanes)
{
    int n = lanes > 0 ? lanes
                      : static_cast<int>(
                            std::max(1u, std::thread::hardware_concurrency()));
    return n == 1 ? 1 : n + 1;
}

/**
 * Start a group of tasks: cache hits land in `landed` at once, the
 * misses go to the backend in one submit.
 */
void
dispatch(EvalBackend& backend, EvalCache* cache, const std::string& ns,
         std::vector<Task> tasks, std::deque<Landed>& landed)
{
    EngineMetrics& em = EngineMetrics::get();
    std::vector<Task> misses;
    misses.reserve(tasks.size());
    for (Task& t : tasks) {
        if (cache) {
            if (std::optional<EvalResult> hit = cache->lookup(ns, t.second)) {
                em.cache_hits.add();
                landed.push_back(Landed{t.first, *hit, 0.0, true, nullptr});
                continue;
            }
            em.cache_misses.add();
        }
        misses.push_back(std::move(t));
    }
    if (!misses.empty())
        backend.submit(std::move(misses));
}

}  // namespace

// ---------------------------------------------------------------------------
// PoolBackend
// ---------------------------------------------------------------------------

PoolBackend::PoolBackend(BlackBoxFn objective, std::uint64_t run_seed,
                         int lanes)
    : objective_(std::move(objective)),
      run_seed_(run_seed),
      pool_(pool_lanes(lanes))
{
}

void
PoolBackend::submit(std::vector<Task> tasks)
{
    EngineMetrics& em = EngineMetrics::get();
    em.dispatched.add(static_cast<std::uint64_t>(tasks.size()));
    const Clock::time_point submitted = Clock::now();
    for (Task& t : tasks) {
        pool_.submit([this, &em, submitted, index = t.first,
                      config = std::move(t.second)] {
            Landed l;
            l.index = index;
            RngEngine rng = eval_rng_for(run_seed_, index);
            const Clock::time_point t0 = Clock::now();
            em.queue_wait.record(
                std::chrono::duration<double>(t0 - submitted).count());
            em.queue_depth.set_max(static_cast<double>(pool_.queue_depth()));
            try {
                obs::ScopedTimer timer(em.objective, "engine.objective",
                                       "engine");
                l.result = objective_(config, rng);
            } catch (...) {
                l.error = std::current_exception();
            }
            l.seconds = seconds_since(t0);
            land(std::move(l));
        });
    }
}

void
PoolBackend::land(Landed l)
{
    MutexLock lock(mutex_);
    landed_.push_back(std::move(l));
    cv_.notify_one();
}

std::vector<Landed>
PoolBackend::wait()
{
    MutexLock lock(mutex_);
    while (landed_.empty())
        cv_.wait(mutex_);
    std::vector<Landed> out(std::make_move_iterator(landed_.begin()),
                            std::make_move_iterator(landed_.end()));
    landed_.clear();
    return out;
}

// ---------------------------------------------------------------------------
// The loop
// ---------------------------------------------------------------------------

std::vector<EvalResult>
evaluate_round(EvalBackend& backend, EvalCache* cache,
               const std::string& cache_namespace, std::uint64_t first_index,
               const std::vector<Configuration>& configs,
               double* eval_seconds)
{
    const std::size_t n = configs.size();
    std::vector<Task> tasks;
    tasks.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        tasks.emplace_back(first_index + i, configs[i]);
    std::deque<Landed> landed;
    dispatch(backend, cache, cache_namespace, std::move(tasks), landed);

    std::vector<Landed> round(n);
    std::size_t missing = n;
    std::exception_ptr error;
    for (;;) {
        for (Landed& l : landed) {
            if (l.error && !error)
                error = l.error;
            round[l.index - first_index] = std::move(l);
            --missing;
        }
        landed.clear();
        if (missing == 0)
            break;
        for (Landed& l : backend.wait())
            landed.push_back(std::move(l));
    }
    if (error)
        std::rethrow_exception(error);

    std::vector<EvalResult> results;
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (cache && !round[i].from_cache)
            cache->insert(cache_namespace, configs[i], round[i].result);
        if (eval_seconds)
            *eval_seconds += round[i].seconds;
        results.push_back(round[i].result);
    }
    return results;
}

void
drive(AskTellTuner& tuner, EvalBackend& backend, const ExecRequest& req)
{
    using Mode = ExecutionPolicy::Mode;
    const ExecutionPolicy& p = req.policy;
    // Barrier policies open a round only once the last one is told and
    // tell it whole; async ones refill every free slot and tell each
    // result as it lands.
    const bool barrier = p.mode != Mode::kAsync &&
                         !(p.mode == Mode::kDistributed && p.async);
    const int slots = p.mode == Mode::kSerial ? 1 : std::max(1, p.batch_size);
    // With one slot there is nothing to overlap: the pipeline stays off,
    // so the tuner sees exactly the serial loop's call sequence.
    const bool use_ahead = !barrier && p.suggest_ahead && slots >= 2;
    EngineMetrics& em = EngineMetrics::get();

    struct InFlight {
        std::uint64_t index = 0;
        Configuration config;
        bool landed = false;  ///< barrier: landed, awaiting the rest
        Landed result;
    };
    std::vector<InFlight> inflight;   // dispatched, not told; dispatch order
    std::deque<Landed> landed;        // landed, not yet processed
    std::deque<Configuration> ready;  // prefetched, not yet dispatched
    std::future<std::vector<Configuration>> ahead;  // running speculation
    bool tuner_dry = false;
    int told = 0;
    std::exception_ptr error;
    auto fail = [&] {
        if (!error)
            error = std::current_exception();
    };
    auto room = [&] {
        return req.max_evals < 0 ||
               told + static_cast<int>(inflight.size()) < req.max_evals;
    };
    // Entries join `inflight` only once their submit went through, so a
    // failed submit leaves nothing behind to wait for.
    auto start = [&](std::vector<Task> tasks) {
        std::vector<InFlight> started;
        started.reserve(tasks.size());
        for (const Task& t : tasks)
            started.push_back(InFlight{t.first, t.second, false, {}});
        dispatch(backend, req.cache, req.cache_namespace, std::move(tasks),
                 landed);
        inflight.insert(inflight.end(), std::make_move_iterator(started.begin()),
                        std::make_move_iterator(started.end()));
        em.inflight_peak.set_max(static_cast<double>(inflight.size()));
    };
    // The suggested-but-unobserved set: everything in flight plus any
    // prefetched suggestion not yet dispatched — the constant-liar
    // fantasies of every suggest_with_pending() call.
    auto pending_snapshot = [&] {
        std::vector<Configuration> pending;
        pending.reserve(inflight.size() + ready.size());
        for (const InFlight& f : inflight)
            pending.push_back(f.config);
        pending.insert(pending.end(), ready.begin(), ready.end());
        return pending;
    };
    // The tuner is single-threaded state: the loop absorbs the
    // speculation's result (or failure) before any tell or suggest.
    auto collect_ahead = [&] {
        if (!ahead.valid())
            return;
        const Clock::time_point t0 = Clock::now();
        try {
            std::vector<Configuration> got = ahead.get();
            tuner_dry = tuner_dry || got.empty();
            for (Configuration& c : got)
                ready.push_back(std::move(c));
        } catch (...) {
            fail();
        }
        em.ahead_wait.record(seconds_since(t0));
    };
    auto pending_of = [](std::vector<InFlight>::const_iterator from,
                         std::vector<InFlight>::const_iterator to) {
        std::vector<PendingEval> pending;
        pending.reserve(static_cast<std::size_t>(to - from));
        for (; from != to; ++from)
            pending.push_back(PendingEval{from->index, from->config});
        return pending;
    };
    auto tell_one = [&](InFlight f, const std::vector<PendingEval>& rest) {
        AsyncEvent ev;
        ev.index = f.index;
        ev.config = std::move(f.config);
        ev.result = f.result.result;
        ev.eval_seconds = f.result.seconds;
        ev.from_cache = f.result.from_cache;
        tell_async_result(tuner, std::move(ev), req.cache,
                          req.cache_namespace, req.checkpoint_path, rest,
                          req.on_event);
        ++told;
    };

    // Evaluation indices are dealt sequentially over the run: observed
    // plus in-flight always cover a prefix of the index space, so the
    // next free index is their combined count. A resumed run's in-flight
    // work goes out first, under its original indices, as one round.
    std::uint64_t next_index =
        tuner.history().size() + req.resume_pending.size();
    std::vector<Task> resumed;
    resumed.reserve(req.resume_pending.size());
    for (const PendingEval& pe : req.resume_pending) {
        next_index = std::max(next_index, pe.index + 1);
        resumed.emplace_back(pe.index, pe.config);
    }
    std::sort(resumed.begin(), resumed.end(),
              [](const Task& a, const Task& b) { return a.first < b.first; });
    bool resume_round = barrier && !resumed.empty();
    if (!resumed.empty())
        start(std::move(resumed));

    // Once `error` is set the loop stops suggesting and telling and only
    // drains: the backend's evaluations must all land before it unwinds.
    for (;;) {
        // ---- Refill (skipped once aborting or capped). ----
        try {
            while (!error && static_cast<int>(inflight.size()) < slots &&
                   room()) {
                std::vector<Configuration> next;
                if (barrier) {
                    if (!inflight.empty() || tuner.remaining() <= 0)
                        break;
                    int n = slots;
                    if (req.max_evals >= 0)
                        n = std::min(n, req.max_evals - told);
                    next = tuner.suggest(n);
                } else if (!ready.empty()) {
                    next.push_back(std::move(ready.front()));
                    ready.pop_front();
                    em.ahead_used.add();
                } else if (!tuner_dry) {
                    next = tuner.suggest_with_pending(1, pending_snapshot());
                }
                if (next.empty())
                    break;
                std::vector<Task> tasks;
                tasks.reserve(next.size());
                for (Configuration& c : next)
                    tasks.emplace_back(next_index++, std::move(c));
                start(std::move(tasks));
            }
        } catch (...) {
            fail();
        }

        // ---- Overlap the next suggestion with the running evaluations.
        // Launched only when a prefetch could be dispatched (budget and
        // caps leave room for one more): a suggestion draws from the
        // tuner's RNG and dedup state, so one never dispatched would be
        // silently lost from the search.
        if (use_ahead && !error && !ahead.valid() && !tuner_dry &&
            !inflight.empty() && ready.empty() && room() &&
            tuner.remaining() > static_cast<int>(inflight.size())) {
            em.ahead_launched.add();
            ahead = std::async(std::launch::async,
                               [&tuner, pending = pending_snapshot()] {
                                   return tuner.suggest_with_pending(1,
                                                                     pending);
                               });
        }

        if (inflight.empty()) {
            if (!ahead.valid())
                break;
            collect_ahead();
            continue;  // the refill may dispatch it
        }

        // ---- Take the next landed result. ----
        if (landed.empty()) {
            try {
                for (Landed& l : backend.wait())
                    landed.push_back(std::move(l));
            } catch (...) {
                fail();  // the backend cannot finish: nothing to drain
                break;
            }
        }
        collect_ahead();
        Landed l = std::move(landed.front());
        landed.pop_front();
        auto it = std::find_if(
            inflight.begin(), inflight.end(),
            [&](const InFlight& f) { return f.index == l.index; });
        if (it == inflight.end())
            continue;  // its round was abandoned by a failed submit
        if (l.error && !error)
            error = l.error;
        if (error) {
            // Aborting: forget what landed, keep waiting for the rest.
            inflight.erase(it);
            inflight.erase(
                std::remove_if(inflight.begin(), inflight.end(),
                               [](const InFlight& f) { return f.landed; }),
                inflight.end());
            continue;
        }
        it->landed = true;
        it->result = std::move(l);

        // ---- Tell. ----
        try {
            obs::ScopedTimer timer(em.tell, "engine.tell", "engine");
            if (!barrier) {
                InFlight f = std::move(*it);
                inflight.erase(it);
                tell_one(std::move(f),
                         req.checkpoint_path.empty()
                             ? std::vector<PendingEval>{}
                             : pending_of(inflight.begin(), inflight.end()));
                continue;
            }
            if (std::any_of(inflight.begin(), inflight.end(),
                            [](const InFlight& f) { return !f.landed; }))
                continue;  // the round is not complete yet
            std::vector<InFlight> round = std::move(inflight);
            inflight.clear();
            if (resume_round) {
                // A killed async run's in-flight work: told one at a
                // time in index order, each checkpoint keeping the
                // untold rest pending.
                resume_round = false;
                for (auto f = round.begin(); f != round.end(); ++f)
                    tell_one(std::move(*f), pending_of(f + 1, round.end()));
                continue;
            }
            std::vector<Configuration> configs;
            std::vector<EvalResult> results;
            configs.reserve(round.size());
            results.reserve(round.size());
            double eval_seconds = 0.0;
            for (InFlight& f : round) {
                if (req.cache && !f.result.from_cache)
                    req.cache->insert(req.cache_namespace, f.config,
                                      f.result.result);
                eval_seconds += f.result.seconds;
                configs.push_back(std::move(f.config));
                results.push_back(f.result.result);
            }
            const std::size_t first = tuner.history().size();
            const double best = tuner.history().best_value;
            tuner.observe(configs, results);
            // Black-box time is charged separately so tuner_seconds
            // stays pure search overhead.
            tuner.mutable_history().eval_seconds += eval_seconds;
            told += static_cast<int>(round.size());
            if (!req.checkpoint_path.empty())
                save_checkpoint(req.checkpoint_path, tuner);
            emit_round_events(tuner.history(), first, best, req.on_event);
        } catch (...) {
            fail();
        }
    }
    if (error)
        std::rethrow_exception(error);
}

void
emit_round_events(const TuningHistory& h, std::size_t first, double best,
                  const AsyncResultFn& on_event)
{
    if (!on_event)
        return;
    for (std::size_t i = first; i < h.observations.size(); ++i) {
        const Observation& o = h.observations[i];
        if (o.feasible && o.value < best)
            best = o.value;
        AsyncEvent ev;
        ev.index = i;
        ev.config = o.config;
        ev.result = EvalResult{o.value, o.feasible};
        ev.evals = i + 1;
        ev.best = best;
        on_event(ev);
    }
}

void
tell_async_result(AskTellTuner& tuner, AsyncEvent ev, EvalCache* cache,
                  const std::string& cache_namespace,
                  const std::string& checkpoint_path,
                  const std::vector<PendingEval>& still_pending,
                  const AsyncResultFn& on_result)
{
    if (cache && !ev.from_cache)
        cache->insert(cache_namespace, ev.config, ev.result);
    tuner.observe_one(ev.config, ev.result);
    tuner.mutable_history().eval_seconds += ev.eval_seconds;
    if (!checkpoint_path.empty())
        save_checkpoint(checkpoint_path, tuner, still_pending);
    if (on_result) {
        ev.evals = tuner.history().size();
        ev.best = tuner.history().best_value;
        on_result(ev);
    }
}

}  // namespace baco
