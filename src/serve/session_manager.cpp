#include "serve/session_manager.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include <sys/stat.h>

#include "api/method_registry.hpp"
#include "core/thread_annotations.hpp"
#include "exec/checkpoint.hpp"
#include "exec/eval_cache.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/stats_util.hpp"
#include "suite/registry.hpp"

namespace baco::serve {

namespace {
using Clock = std::chrono::steady_clock;

/** Serve-layer instrumentation handles, registered once per process. */
struct ServeMetrics {
  obs::Histogram& suggest = hist("serve.suggest_seconds");
  obs::Histogram& observe = hist("serve.observe_seconds");
  obs::Histogram& spill = hist("serve.spill_seconds");
  obs::Histogram& reload = hist("serve.reload_seconds");

  static ServeMetrics& get()
  {
      static ServeMetrics m;
      return m;
  }

 private:
  static obs::Histogram& hist(const char* name)
  {
      return obs::MetricsRegistry::global().histogram(name);
  }
};

}  // namespace

struct SessionManager::Session {
  // Deliberately a raw std::mutex, not baco::Mutex: acquire() hands the
  // held lock to its caller through a std::unique_lock out-parameter — a
  // dynamic ownership transfer the static analysis cannot express. The
  // session-level discipline stays TSAN's job; the stripes are
  // statically checked.
  std::mutex mutex;
  std::string name;
  const Benchmark* benchmark = nullptr;
  std::string method;  ///< canonical registry name (a reload rebuilds it)
  int budget = 0;
  int doe = 0;         ///< DoE samples the tuner is built with
  std::uint64_t seed = 0;
  std::string cache_namespace;

  /** The live tuner and its space; both null while spilled. */
  std::shared_ptr<SearchSpace> space;
  std::unique_ptr<AskTellTuner> tuner;
  /** tuner == nullptr, readable without the session mutex (size()). */
  std::atomic<bool> spilled{false};

  /** The suggested-but-unobserved batch (at most one per session). */
  std::vector<Configuration> pending;
  std::uint64_t pending_first = 0;

  /**
   * Per-session request latencies, served back over the stats frame.
   * The record outlives spills, so these are lifetime totals.
   */
  obs::Histogram suggest_hist;
  obs::Histogram observe_hist;

  Clock::time_point last_touch = Clock::now();
};

struct SessionManager::Stripe {
  mutable Mutex mutex;
  std::unordered_map<std::string, std::shared_ptr<Session>> sessions
      BACO_GUARDED_BY(mutex);
};

bool
valid_session_name(const std::string& name)
{
    if (name.empty() || name.size() > 128)
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

SessionManager::SessionManager(SessionManagerOptions opt) : opt_(opt)
{
    if (opt_.stripes < 1)
        opt_.stripes = 1;
    stripes_ = std::make_unique<Stripe[]>(
        static_cast<std::size_t>(opt_.stripes));
    // Best-effort creation of the (single-level) checkpoint directory;
    // a still-unwritable path surfaces as an error on the first observe.
    if (!opt_.checkpoint_dir.empty())
        ::mkdir(opt_.checkpoint_dir.c_str(), 0777);
}

SessionManager::~SessionManager() = default;

SessionManager::Stripe&
SessionManager::stripe_for(const std::string& name) const
{
    std::size_t h = std::hash<std::string>{}(name);
    return stripes_[h % static_cast<std::size_t>(opt_.stripes)];
}

std::shared_ptr<SessionManager::Session>
SessionManager::find(const std::string& name) const
{
    Stripe& s = stripe_for(name);
    MutexLock lock(s.mutex);
    auto it = s.sessions.find(name);
    return it == s.sessions.end() ? nullptr : it->second;
}

std::shared_ptr<SessionManager::Session>
SessionManager::acquire(const std::string& name,
                        std::unique_lock<std::mutex>& lock_out)
{
    for (;;) {
        std::shared_ptr<Session> session = find(name);
        if (!session)
            return nullptr;
        std::unique_lock<std::mutex> lock(session->mutex);
        // close_session or evict_idle may have removed the record while
        // we waited for its mutex; the name may even belong to a session
        // re-opened since. Retry the lookup instead of serving the
        // request on state the registry no longer has.
        if (find(name) != session)
            continue;
        bool reloaded = false;
        if (!session->tuner) {
            obs::ScopedTimer reload_timer(ServeMetrics::get().reload,
                                          "serve.reload", "serve");
            build_tuner(*session, /*resume=*/true);
            session->spilled = false;
            reload_count_ += 1;
            reloaded = true;
            obs::log_info("serve", "session_reloaded",
                          obs::LogFields().str("session", name).num(
                              "evals", session->tuner->history().size()));
        }
        lock_out = std::move(lock);
        if (reloaded)
            enforce_live_cap(session.get());
        return session;
    }
}

bool
SessionManager::build_tuner(Session& session, bool resume) const
{
    // Remote construction goes through the same MethodRegistry as local
    // Study construction, so the two can never drift.
    std::shared_ptr<SearchSpace> space =
        session.benchmark->make_space(SpaceVariant{});
    MethodSpec spec;
    spec.budget = session.budget;
    spec.doe_samples = session.doe;
    spec.seed = session.seed;
    std::unique_ptr<AskTellTuner> tuner =
        MethodRegistry::global().make(session.method, *space, spec);

    bool restored = false;
    std::string ckpt = checkpoint_path(session.name);
    if (resume && !ckpt.empty()) {
        // A missing checkpoint means a session that never observed
        // anything: the fresh tuner is its state. A present-but-unusable
        // one is an error, never a silent cold start whose next observe
        // would overwrite the file.
        std::optional<CheckpointData> data = load_checkpoint(ckpt);
        struct stat st;
        if (!data && ::stat(ckpt.c_str(), &st) == 0)
            throw std::runtime_error("checkpoint is unreadable: " + ckpt);
        if (data) {
            if (data->seed != tuner->run_seed())
                throw std::runtime_error("checkpoint seed does not match "
                                         "the requested session seed");
            if (!tuner->restore(data->history, data->sampler_state))
                throw std::runtime_error("checkpoint could not be restored");
            restored = true;
        }
    }
    session.cache_namespace =
        EvalCache::namespace_key(session.benchmark->name, *space);
    session.space = std::move(space);
    session.tuner = std::move(tuner);
    return restored;
}

bool
SessionManager::spill_locked(Session& session)
{
    // Mid-batch sessions are not spillable (exactly the evict_idle rule),
    // nor is a record close or eviction already removed: its checkpoint
    // may have been superseded by a re-opened session of the same name.
    if (!session.tuner || !session.pending.empty() ||
        find(session.name).get() != &session) {
        return false;
    }
    obs::ScopedTimer spill_timer(ServeMetrics::get().spill, "serve.spill",
                                 "serve");
    // A spill without a durable checkpoint would silently discard history.
    if (!save_checkpoint(checkpoint_path(session.name), *session.tuner))
        return false;
    obs::log_info("serve", "session_spilled",
                  obs::LogFields().str("session", session.name).num(
                      "evals", session.tuner->history().size()));
    session.tuner.reset();  // before the space it refers to
    session.space.reset();
    session.spilled = true;
    spill_count_ += 1;
    return true;
}

void
SessionManager::enforce_live_cap(const Session* held)
{
    if (opt_.max_live_sessions == 0 || opt_.checkpoint_dir.empty())
        return;
    std::size_t live = size();
    if (live <= opt_.max_live_sessions)
        return;

    // Snapshot every spillable session, oldest touch first, then spill
    // until the cap holds. Best-effort: candidates that became busy since
    // the snapshot are skipped — the next open or reload enforces again.
    // The held session is skipped outright: try_lock on a mutex this
    // thread owns is undefined behaviour.
    std::vector<std::pair<Clock::time_point, std::shared_ptr<Session>>>
        candidates;
    for (int s = 0; s < opt_.stripes; ++s) {
        Stripe& stripe = stripes_[s];
        MutexLock lock(stripe.mutex);
        for (auto& [name, session] : stripe.sessions) {
            if (session.get() == held)
                continue;
            std::unique_lock<std::mutex> guard(session->mutex,
                                               std::try_to_lock);
            if (guard.owns_lock() && session->tuner &&
                session->pending.empty())
                candidates.emplace_back(session->last_touch, session);
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t excess = live - opt_.max_live_sessions;
    for (const auto& [touch, session] : candidates) {
        if (excess == 0)
            break;
        std::unique_lock<std::mutex> guard(session->mutex, std::try_to_lock);
        if (guard.owns_lock() && spill_locked(*session))
            --excess;
    }
}

std::string
SessionManager::checkpoint_path(const std::string& name) const
{
    if (opt_.checkpoint_dir.empty())
        return {};
    return opt_.checkpoint_dir + "/" + name + ".ckpt.jsonl";
}

Message
SessionManager::handle(const Message& request)
{
    try {
        switch (request.type) {
          case MsgType::kOpenSession: return open_session(request);
          case MsgType::kSuggest: return suggest(request);
          case MsgType::kObserve: return observe(request);
          case MsgType::kCheckpoint: return checkpoint(request);
          case MsgType::kClose: return close_session(request);
          case MsgType::kStats: return session_stats(request);
          default:
            return make_error(request.id,
                              std::string("unsupported request type ") +
                                  msg_type_name(request.type));
        }
    } catch (const std::exception& e) {
        return make_error(request.id, e.what());
    }
}

Message
SessionManager::open_session(const Message& req)
{
    if (!valid_session_name(req.session))
        return make_error(req.id, "invalid session name");
    const Benchmark& bench = suite::find_benchmark(req.benchmark);

    auto session = std::make_shared<Session>();
    session->name = req.session;
    session->benchmark = &bench;
    session->budget = req.budget > 0 ? req.budget : bench.full_budget;
    session->doe = req.doe > 0 ? req.doe : bench.doe_samples;
    session->seed = req.seed;
    // The canonical name, so a spilled session reloads the exact same
    // method even if the client opened it through an alias. An unknown
    // name stays as given: build_tuner then throws with the closest
    // registered methods (caught into an error frame by handle()).
    session->method =
        MethodRegistry::global().resolve(req.method).value_or(req.method);
    bool resumed = build_tuner(*session, req.resume);

    Message reply;
    reply.type = MsgType::kOpened;
    reply.id = req.id;
    reply.session = req.session;
    reply.evals = session->tuner->history().size();
    reply.budget = session->budget;
    reply.resumed = resumed;

    Stripe& stripe = stripe_for(req.session);
    {
        MutexLock lock(stripe.mutex);
        // A spilled session is still open — only disk-resident.
        if (!stripe.sessions.emplace(req.session, session).second)
            return make_error(req.id,
                              "session already open: " + req.session);
    }
    enforce_live_cap(nullptr);
    return reply;
}

Message
SessionManager::suggest(const Message& req)
{
    if (req.n > kMaxBatch)
        return make_error(req.id, "suggest n exceeds the batch cap of " +
                                      std::to_string(kMaxBatch));
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    session->last_touch = Clock::now();

    obs::ScopedTimer session_timer(session->suggest_hist);
    obs::ScopedTimer serve_timer(ServeMetrics::get().suggest,
                                 "serve.suggest", "serve");
    if (session->pending.empty()) {
        int n = std::max(1, req.n);
        session->pending_first = session->tuner->history().size();
        session->pending = session->tuner->suggest(n);
    }
    // else: idempotent retry — re-send the outstanding batch.

    Message reply;
    reply.type = MsgType::kConfigs;
    reply.id = req.id;
    reply.index = session->pending_first;
    reply.configs = session->pending;
    return reply;
}

Message
SessionManager::observe(const Message& req)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    session->last_touch = Clock::now();

    obs::ScopedTimer session_timer(session->observe_hist);
    obs::ScopedTimer serve_timer(ServeMetrics::get().observe,
                                 "serve.observe", "serve");
    if (session->pending.empty())
        return make_error(req.id, "observe with no batch outstanding");
    if (req.results.size() != session->pending.size())
        return make_error(req.id, "observe size does not match batch");
    for (std::size_t i = 0; i < req.results.size(); ++i) {
        if (!configs_equal(req.results[i].config, session->pending[i]))
            return make_error(req.id,
                              "observe configs do not match the "
                              "outstanding batch (order matters)");
    }

    std::vector<EvalResult> results;
    results.reserve(req.results.size());
    for (const ObservedResult& r : req.results)
        results.push_back(EvalResult{r.value, r.feasible});
    session->tuner->observe(session->pending, results);
    session->tuner->mutable_history().eval_seconds += req.eval_seconds;

    if (opt_.cache) {
        for (std::size_t i = 0; i < results.size(); ++i) {
            opt_.cache->insert(session->cache_namespace, session->pending[i],
                               results[i]);
        }
    }

    session->pending.clear();
    std::string ckpt = checkpoint_path(session->name);
    if (!ckpt.empty() && !save_checkpoint(ckpt, *session->tuner)) {
        // The observation is recorded in memory, but the durability
        // promise is broken — tell the client instead of a silent ok.
        return make_error(req.id,
                          "results recorded but checkpoint write failed: " +
                              ckpt);
    }

    Message reply;
    reply.type = MsgType::kOk;
    reply.id = req.id;
    reply.evals = session->tuner->history().size();
    reply.best = session->tuner->history().best_value;
    return reply;
}

Message
SessionManager::checkpoint(const Message& req)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    session->last_touch = Clock::now();

    std::string ckpt = checkpoint_path(session->name);
    if (ckpt.empty())
        return make_error(req.id, "checkpointing disabled (no directory)");
    if (!session->pending.empty()) {
        // A checkpoint taken mid-batch would capture the sampler stream
        // after the pending suggest() without its observations — resuming
        // from it could not reproduce the uninterrupted run.
        return make_error(req.id, "cannot checkpoint with a batch in "
                                  "flight; observe it first");
    }
    if (!save_checkpoint(ckpt, *session->tuner))
        return make_error(req.id, "checkpoint write failed: " + ckpt);

    Message reply;
    reply.type = MsgType::kOk;
    reply.id = req.id;
    reply.evals = session->tuner->history().size();
    reply.best = session->tuner->history().best_value;
    reply.text = ckpt;
    return reply;
}

Message
SessionManager::close_session(const Message& req)
{
    Stripe& stripe = stripe_for(req.session);
    std::shared_ptr<Session> session;
    {
        MutexLock lock(stripe.mutex);
        auto it = stripe.sessions.find(req.session);
        if (it == stripe.sessions.end())
            return make_error(req.id, "no such session: " + req.session);
        session = it->second;
        stripe.sessions.erase(it);
    }
    std::lock_guard<std::mutex> lock(session->mutex);
    Message reply;
    reply.type = MsgType::kOk;
    reply.id = req.id;
    std::string ckpt = checkpoint_path(session->name);
    if (!session->tuner) {
        // Spilled: the spill's checkpoint is already the durable resume
        // point; report the progress it holds.
        if (std::optional<CheckpointData> data = load_checkpoint(ckpt)) {
            reply.evals = data->history.size();
            reply.best = data->history.best_value;
        }
        return reply;
    }
    if (!ckpt.empty() && session->pending.empty() &&
        !save_checkpoint(ckpt, *session->tuner)) {
        // The session is closed either way; surface the lost durability.
        return make_error(req.id,
                          "session closed but checkpoint write failed: " +
                              ckpt);
    }
    reply.evals = session->tuner->history().size();
    reply.best = session->tuner->history().best_value;
    return reply;
}

Message
SessionManager::session_stats(const Message& req)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(req.session, lock);
    if (!session)
        return make_error(req.id, "no such session: " + req.session);
    // Deliberately not touching last_touch: polling stats must not keep
    // an otherwise idle session from being evicted or spilled.

    Message reply;
    reply.type = MsgType::kStatsReport;
    reply.id = req.id;
    reply.session = session->name;
    reply.stats_version = kStatsVersion;
    reply.stats.push_back(stat_counter(
        "session.evals",
        static_cast<double>(session->tuner->history().size())));
    reply.stats.push_back(
        stat_gauge("session.best", session->tuner->history().best_value));
    reply.stats.push_back(stat_gauge(
        "session.budget", static_cast<double>(session->budget)));
    reply.stats.push_back(stat_gauge(
        "session.pending", static_cast<double>(session->pending.size())));
    reply.stats.push_back(stat_histogram("session.suggest_seconds",
                                         session->suggest_hist.snapshot()));
    reply.stats.push_back(stat_histogram("session.observe_seconds",
                                         session->observe_hist.snapshot()));
    return reply;
}

std::optional<SessionInfo>
SessionManager::info(const std::string& name)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(name, lock);
    if (!session)
        return std::nullopt;
    SessionInfo out;
    out.name = session->name;
    out.benchmark = session->benchmark->name;
    out.cache_namespace = session->cache_namespace;
    out.seed = session->tuner->run_seed();
    out.evals = session->tuner->history().size();
    out.budget = session->budget;
    out.best = session->tuner->history().best_value;
    return out;
}

bool
SessionManager::with_tuner(
    const std::string& name,
    const std::function<void(AskTellTuner&, const SessionInfo&,
                             const std::string&)>& fn)
{
    std::unique_lock<std::mutex> lock;
    std::shared_ptr<Session> session = acquire(name, lock);
    if (!session)
        return false;
    if (!session->pending.empty())
        return false;
    session->last_touch = Clock::now();
    SessionInfo info;
    info.name = session->name;
    info.benchmark = session->benchmark->name;
    info.cache_namespace = session->cache_namespace;
    info.seed = session->tuner->run_seed();
    info.evals = session->tuner->history().size();
    info.budget = session->budget;
    info.best = session->tuner->history().best_value;
    fn(*session->tuner, info, checkpoint_path(name));
    session->last_touch = Clock::now();
    return true;
}

std::size_t
SessionManager::size() const
{
    std::size_t n = 0;
    for (int s = 0; s < opt_.stripes; ++s) {
        Stripe& stripe = stripes_[s];
        MutexLock lock(stripe.mutex);
        for (const auto& [name, session] : stripe.sessions)
            n += session->spilled ? 0 : 1;
    }
    return n;
}

std::size_t
SessionManager::spilled_sessions() const
{
    std::size_t n = 0;
    for (int s = 0; s < opt_.stripes; ++s) {
        Stripe& stripe = stripes_[s];
        MutexLock lock(stripe.mutex);
        for (const auto& [name, session] : stripe.sessions)
            n += session->spilled ? 1 : 0;
    }
    return n;
}

std::uint64_t
SessionManager::spill_count() const
{
    return spill_count_;
}

std::uint64_t
SessionManager::reload_count() const
{
    return reload_count_;
}

std::size_t
SessionManager::evict_idle()
{
    if (opt_.idle_timeout_seconds <= 0.0)
        return 0;
    auto now = Clock::now();
    std::size_t evicted = 0;
    for (int s = 0; s < opt_.stripes; ++s) {
        Stripe& stripe = stripes_[s];
        MutexLock lock(stripe.mutex);
        for (auto it = stripe.sessions.begin();
             it != stripe.sessions.end();) {
            // last_touch is written under the session mutex; a session
            // whose mutex is held is mid-request — by definition not
            // idle — so skipping on try_lock failure is both the race
            // fix and the right policy. A session with a suggested-but-
            // unobserved batch is mid-exchange (the client is off
            // evaluating), not idle, no matter how stale last_touch is.
            // A spilled session is evicted like a live one: its
            // checkpoint stays on disk for a resume=true re-open.
            std::shared_ptr<Session> session = it->second;
            std::unique_lock<std::mutex> guard(session->mutex,
                                               std::try_to_lock);
            if (guard.owns_lock() && session->pending.empty() &&
                std::chrono::duration<double>(now - session->last_touch)
                        .count() > opt_.idle_timeout_seconds) {
                it = stripe.sessions.erase(it);
                ++evicted;
            } else {
                ++it;
            }
        }
    }
    return evicted;
}

void
SessionManager::checkpoint_all()
{
    if (opt_.checkpoint_dir.empty())
        return;
    for (int s = 0; s < opt_.stripes; ++s) {
        std::vector<std::shared_ptr<Session>> sessions;
        {
            Stripe& stripe = stripes_[s];
            MutexLock lock(stripe.mutex);
            for (auto& [name, session] : stripe.sessions)
                sessions.push_back(session);
        }
        for (auto& session : sessions) {
            std::lock_guard<std::mutex> lock(session->mutex);
            if (session->tuner && session->pending.empty())
                save_checkpoint(checkpoint_path(session->name),
                                *session->tuner);
        }
    }
}

}  // namespace baco::serve
