// The served workloads: socket clients of one in-process Acceptor on an
// ephemeral loopback TCP port.
//
//   serve_sessions  rounds of 8 budget-400 Uniform sessions on distinct
//                   TACO/RISE benchmarks, spread over 2 clients,
//                   one suggest(1)/observe pair per step, evaluated
//                   client-side. The tuner costs almost nothing, so
//                   protocol, transport and the session stripes do the
//                   work. Its traced run adds a checkpointed pass: the
//                   same sessions with every observe checkpointed to a
//                   fresh directory, so the O(n) checkpoint rewrite does
//                   the work (see run_checkpointed_sessions()).
//   serve_fleet     rounds of 4 concurrent barriered run frames (batch 4),
//                   one per client, for Uniform sessions; all runs share
//                   one Coordinator with 4 of the library's loopback
//                   workers, so dispatch, evaluate/result framing and the
//                   round-robin scheduler do the work.

#include <atomic>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "api/study.hpp"
#include "common.hpp"
#include "serve/client.hpp"
#include "serve/coordinator.hpp"
#include "serve/server.hpp"
#include "serve/session_manager.hpp"
#include "serve/transport.hpp"
#include "serve/worker.hpp"
#include "suite/registry.hpp"

namespace perfbench {

using namespace baco;
using namespace baco::serve;

namespace {

/** Client connections. A serve_sessions client keeps the server's
 *  thread for its connection busy too, so 2 clients fill 4 cores; more
 *  would oversubscribe them and make the figures follow the scheduler.
 *  A serve_fleet client only waits on its run frame. */
constexpr int kSessionClients = 2;
constexpr int kFleetClients = 4;
/** Seconds one round of 8 sessions on 2 clients takes on a 4-core x86
 *  machine. */
constexpr double kSessionRoundSeconds = 0.1;
constexpr int kSessionBudget = 400;
/** Rounds of the checkpointed pass: 6,400 checkpoint rewrites, 0.3 to
 *  1 ms each on an ext4 virtual disk. */
constexpr std::size_t kCheckpointedRounds = 2;
/** Fleet evaluations per second (all runs together) on the same
 *  machine; sets the number of rounds from --seconds. */
constexpr double kFleetEvalsPerSecond = 48000.0;
constexpr int kFleetRunBudget = 10000;
constexpr int kFleetBatch = 4;
constexpr int kFleetWorkers = 4;
constexpr int kRpcTimeoutMs = 170000;

/** One round's sessions, each on its own benchmark. */
const char* const kSessionBenchmarks[] = {
    "SpMM/scircuit", "SDDMM/email-Enron", "MTTKRP/uber", "TTV/facebook",
    "SpMV/cage12",   "MM_CPU",            "MM_GPU",      "Harris_GPU"};
/** One round's fleet runs, each on its own benchmark. */
const char* const kFleetBenchmarks[] = {"SpMM/scircuit", "TTV/facebook",
                                        "MM_GPU", "Harris_GPU"};

/** A SessionManager behind an Acceptor, listening on 127.0.0.1:0. */
class Server {
 public:
  Server(SessionManagerOptions sopt, Coordinator* coordinator)
      : sessions_(std::move(sopt))
  {
      Listener listener;
      if (!listener.open(*parse_socket_address("tcp:127.0.0.1:0")))
          return;
      address_ = listener.address().str();
      ServerContext ctx;
      ctx.sessions = &sessions_;
      ctx.coordinator = coordinator;
      acceptor_ = std::make_unique<Acceptor>(std::move(listener), ctx);
      thread_ = std::thread([a = acceptor_.get()] { a->run(); });
  }
  ~Server()
  {
      if (acceptor_) {
          acceptor_->stop();
          thread_.join();
      }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  const std::string& address() const { return address_; }
  SessionManager& sessions() { return sessions_; }

 private:
  SessionManager sessions_;
  std::string address_;
  std::unique_ptr<Acceptor> acceptor_;
  std::thread thread_;
};

/** One client connection. */
struct Conn {
  std::unique_ptr<Transport> transport;
  std::unique_ptr<SessionClient> client;
};

bool
connect(const std::string& address, Conn& conn)
{
    conn.transport = connect_socket(address);
    if (!conn.transport)
        return false;
    conn.client = std::make_unique<SessionClient>(*conn.transport);
    return conn.client->handshake();
}

/** One session a client drives, and what the checks need of it. */
struct SessionRun {
  std::string name;
  const Benchmark* bench = nullptr;
  std::uint64_t seed = 0;
  int budget = 0;
  /** serve_sessions: the history as told, step by step. */
  TuningHistory told;
  /** serve_fleet: the run frame's reply. */
  Message done;
  /** Captured when the session ends (see capture()). */
  Signature sig;
  QualityRun quality;
  bool constrained = true;
  double eval_seconds = 0.0;  ///< as the session's history records it
  std::uint64_t infeasible = 0;
};

/** Record what the checks need of a finished session's history. Called
 *  from one thread only (between rounds). */
void
capture(SessionRun& s, const TuningHistory& h)
{
    static std::map<const Benchmark*, std::shared_ptr<SearchSpace>> spaces;
    std::shared_ptr<SearchSpace>& space = spaces[s.bench];
    if (!space)
        space = s.bench->make_space(SpaceVariant{});
    s.sig = signature(h);
    s.quality = quality_of(*s.bench, h, s.budget);
    s.eval_seconds = h.eval_seconds;
    for (const Observation& o : h.observations) {
        s.constrained = s.constrained && space->satisfies(o.config);
        s.infeasible += o.feasible ? 0 : 1;
    }
}

/** What one client lane measured. */
struct ClientLane {
  Tally tally;
  double suggest_rpc_s = 0.0, observe_rpc_s = 0.0;
  double objective_s = 0.0;
  std::uint64_t evals = 0, infeasible = 0;
  std::vector<double> suggest_ms, observe_ms;
};

/**
 * The history an in-process Uniform Study with the session's benchmark
 * and seed produces: ask/tell under the (seed, index) noise streams, or
 * run() under ExecutionPolicy::Batched(batch).
 */
TuningHistory
reference_history(const SessionRun& s, int batch)
{
    StudyBuilder b;
    b.benchmark(*s.bench).method("Uniform").budget(s.budget).seed(s.seed);
    if (batch > 0)
        return b.execution(ExecutionPolicy::Batched(batch, 1))
            .build()
            .run()
            .history;
    Study study = b.build();
    for (std::uint64_t i = 0; study.remaining() > 0; ++i) {
        std::vector<Configuration> c = study.ask(1);
        if (c.empty())
            break;
        study.tell(c[0], evaluate_on(*s.bench, c[0], s.seed, i));
    }
    return study.result().history;
}

/**
 * Check every captured session against its in-process reference (built
 * on kLanes threads): full budget, identical history, known constraints
 * satisfied. Adds each session's quality to the pass.
 */
void
check_sessions(const std::vector<SessionRun>& runs, int batch, Pass& pass)
{
    std::vector<char> same(runs.size(), 0);
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kLanes; ++t)
        threads.emplace_back([&] {
            for (std::size_t i; (i = next++) < runs.size();) {
                try {
                    same[i] = signature(reference_history(runs[i], batch)) ==
                              runs[i].sig;
                } catch (const std::exception&) {
                    // same[i] stays 0: counted below as a differing history.
                }
            }
        });
    for (std::thread& t : threads)
        t.join();
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const SessionRun& s = runs[i];
        pass.tally.check(s.sig.length == static_cast<std::size_t>(s.budget),
                         s.name + ": history length differs from budget");
        pass.tally.check(same[i] != 0, s.name + ": history differs from the "
                                                "in-process Study");
        pass.tally.check(s.constrained,
                         s.name + ": a suggestion violates a known constraint");
        pass.quality.push_back(s.quality);
    }
}

/** The sessions of one round, by client. */
using Round = std::vector<std::vector<SessionRun*>>;

/** Open every session of `round` on its client; false on any failure. */
bool
open_round(std::vector<Conn>& conns, const Round& round)
{
    for (std::size_t c = 0; c < conns.size(); ++c)
        for (const SessionRun* s : round[c])
            if (conns[c].client->open(s->name, s->bench->name, "Uniform",
                                      s->budget, s->seed)
                    .type != MsgType::kOpened)
                return false;
    return true;
}

void
close_round(std::vector<Conn>& conns, const Round& round, Tally& tally)
{
    for (std::size_t c = 0; c < conns.size(); ++c)
        for (const SessionRun* s : round[c])
            tally.check(conns[c].client->close(s->name).type == MsgType::kOk,
                        s->name + ": close refused");
}

/**
 * Run `rounds` barriered rounds of equal work: in round r, client c runs
 * body(c, r) on its own thread, and busy[c] gains its time. Between
 * rounds, untimed, between(r) runs on this thread once round r is done.
 * Returns the wall time of the work as rounds_wall() estimates it.
 */
double
run_rounds(std::size_t rounds, std::vector<double>& busy,
           const std::function<void(std::size_t, std::size_t)>& body,
           const std::function<void(std::size_t)>& between)
{
    std::vector<double> walls;
    for (std::size_t r = 0; r < rounds; ++r) {
        auto t0 = Clock::now();
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < busy.size(); ++c)
            threads.emplace_back([&, c] {
                auto c0 = Clock::now();
                body(c, r);
                busy[c] += seconds_since(c0);
            });
        for (std::thread& t : threads)
            t.join();
        walls.push_back(seconds_since(t0));
        between(r);
    }
    return rounds_wall(walls);
}

/** One suggest(1) / evaluate / observe step of a session; false when
 *  the session cannot go on. */
bool
step(SessionClient& client, SessionRun& s, ClientLane& lane)
{
    auto t0 = Clock::now();
    Message configs;
    {
        obs::Span span("bench.suggest_rpc", "perfbench");
        configs = client.suggest(s.name, 1);
    }
    auto t1 = Clock::now();
    const std::uint64_t index = s.told.observations.size();
    // Failure messages are built only on failure: this is the timed loop.
    if (configs.type != MsgType::kConfigs || configs.configs.size() != 1 ||
        configs.index != index) {
        lane.tally.check(false, s.name + ": bad configs frame at index " +
                                    std::to_string(index) + ": " +
                                    configs.text);
        return false;
    }
    EvalResult r;
    {
        obs::Span span("bench.evaluate", "perfbench");
        r = evaluate_on(*s.bench, configs.configs[0], s.seed, index);
    }
    auto t2 = Clock::now();
    Message ok;
    {
        obs::Span span("bench.observe_rpc", "perfbench");
        ok = client.observe(s.name,
                            {ObservedResult{configs.configs[0], r.value,
                                            r.feasible}});
    }
    auto t3 = Clock::now();
    if (ok.type != MsgType::kOk) {
        lane.tally.check(false, s.name + ": observe refused: " + ok.text);
        return false;
    }
    lane.tally.attempts(3);  // suggest, evaluate, observe
    s.told.add(configs.configs[0], r);
    lane.suggest_ms.push_back(ms_between(t0, t1));
    lane.observe_ms.push_back(ms_between(t2, t3));
    lane.suggest_rpc_s += ms_between(t0, t1) / 1e3;
    lane.objective_s += ms_between(t1, t2) / 1e3;
    lane.observe_rpc_s += ms_between(t2, t3) / 1e3;
    lane.infeasible += r.feasible ? 0 : 1;
    ++lane.evals;
    return true;
}

/** Fill the serve-side rows of the layer split from the registry. */
void
serve_layers(Layers& L)
{
    L.served = true;
    L.suggest_s = hist_sum(L.delta, "tuner.suggest_seconds");
    L.observe_s = hist_sum(L.delta, "tuner.observe_seconds");
    L.serve_suggest_s = hist_sum(L.delta, "serve.suggest_seconds");
    L.serve_observe_s = hist_sum(L.delta, "serve.observe_seconds");
    if (const obs::MetricValue* m = L.delta.find("serve.suggest_seconds"))
        L.suggest_calls = m->histogram.count;
}

/** A Coordinator with kFleetWorkers of the library's loopback workers
 *  (serve::run_worker_loop threads). */
struct Fleet {
  Coordinator coordinator;
  std::vector<std::thread> workers =
      attach_loopback_workers(coordinator, kFleetWorkers);

  ~Fleet() { stop(); }

  bool ok() const
  {
      return coordinator.num_workers() == static_cast<std::size_t>(kFleetWorkers);
  }

  /** Shut the fleet down and join its workers (idempotent). */
  void stop()
  {
      coordinator.shutdown();
      for (std::thread& t : workers)
          if (t.joinable())
              t.join();
  }
};

/** The clients of one served pass, with a server behind them. */
struct Env {
  std::unique_ptr<Fleet> fleet;  ///< serve_fleet only
  std::unique_ptr<Server> server;
  std::vector<Conn> conns;  ///< destroyed first: clients hang up first
};

/**
 * Start the server (with a fleet: attach its workers first), connect
 * and hand-shake every client, and open the first round's sessions,
 * checkpointing to `checkpoint_dir` when it is set. nullptr on failure,
 * with `why` saying what failed.
 */
std::unique_ptr<Env>
build_env(bool with_fleet, const std::string& checkpoint_dir,
          const Round& first, std::string& why)
{
    auto env = std::make_unique<Env>();
    if (with_fleet) {
        env->fleet = std::make_unique<Fleet>();
        if (!env->fleet->ok()) {
            why = "worker attach failed";
            return nullptr;
        }
    }
    SessionManagerOptions sopt;
    sopt.checkpoint_dir = checkpoint_dir;
    env->server = std::make_unique<Server>(
        sopt, with_fleet ? &env->fleet->coordinator : nullptr);
    if (env->server->address().empty()) {
        why = "listen on 127.0.0.1 failed";
        return nullptr;
    }
    env->conns.resize(first.size());
    for (Conn& c : env->conns)
        if (!connect(env->server->address(), c)) {
            why = "connect/handshake failed";
            return nullptr;
        }
    if (!open_round(env->conns, first)) {
        why = "open_session failed";
        return nullptr;
    }
    return env;
}

/**
 * Time the set-up (see measure_setup()), then build the environment the
 * timed phase uses. Every set-up gets a fresh checkpoint directory under
 * `checkpoint_root` when that is set.
 */
std::unique_ptr<Env>
set_up(bool with_fleet, const std::string& checkpoint_root,
       const Round& first, Pass& pass)
{
    auto fresh_dir = [&checkpoint_root](const std::string& leaf) {
        if (checkpoint_root.empty())
            return std::string();
        const std::string dir = checkpoint_root + "/" + leaf;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        return dir;
    };
    std::string why;
    pass.setup_s = measure_setup([&](int rep) {
        const std::string dir = fresh_dir("setup-" + std::to_string(rep));
        auto t0 = Clock::now();
        std::unique_ptr<Env> env = build_env(with_fleet, dir, first, why);
        const double seconds = seconds_since(t0);
        return env ? seconds : -1.0;  // torn down here, untimed
    });
    pass.tally.check(pass.setup_s > 0.0, "set-up failed");
    std::unique_ptr<Env> env =
        build_env(with_fleet, fresh_dir("run"), first, why);
    pass.tally.check(env != nullptr, why);
    return env;
}

/** The runs of `rounds` rounds of `per_round` sessions each, by round
 *  and client: session k of round r goes to client k % clients.
 *  make(r, k) builds session k of round r. */
std::vector<Round>
assign_rounds(std::size_t rounds, int per_round, int clients,
              std::vector<SessionRun>& runs,
              const std::function<SessionRun(std::size_t, int)>& make)
{
    runs.reserve(rounds * static_cast<std::size_t>(per_round));
    std::vector<Round> by_round(rounds, Round(clients));
    for (std::size_t r = 0; r < rounds; ++r)
        for (int k = 0; k < per_round; ++k) {
            runs.push_back(make(r, k));
            by_round[r][k % clients].push_back(&runs.back());
        }
    return by_round;
}

/**
 * `rounds` rounds of serve_sessions. With `checkpoint_root` set, every
 * session checkpoints each observe to a fresh directory under it, which
 * this pass creates and removes: a checkpoint left by an earlier run
 * would be resumed or overwritten and would change what observe writes.
 */
Pass
serve_sessions(const Options& opt, bool traced, std::size_t rounds,
               const std::string& checkpoint_root,
               const std::string& trace_name)
{
    Pass pass;
    const int per_round = static_cast<int>(std::size(kSessionBenchmarks));
    std::vector<SessionRun> runs;
    const std::vector<Round> by_round = assign_rounds(
        rounds, per_round, kSessionClients, runs, [&](std::size_t r, int k) {
            SessionRun s;
            s.name = "r" + std::to_string(r) + "-s" + std::to_string(k);
            s.bench = &suite::find_benchmark(kSessionBenchmarks[k]);
            s.seed = opt.seed * 100000 + per_round * r + k;
            s.budget = kSessionBudget;
            return s;
        });

    std::unique_ptr<Env> env =
        set_up(false, checkpoint_root, by_round[0], pass);
    if (env) {
        std::vector<ClientLane> lanes(kSessionClients);
        std::vector<double> busy(kSessionClients, 0.0);
        // Latency samples by round: the rounds are equal work, so the
        // figures are medians over rounds (see summarize_rounds()).
        std::vector<std::vector<double>> suggest_ms(rounds), observe_ms(rounds);
        TimedWindow window(traced, opt.out_dir + "/" + trace_name);
        const double wall_s = run_rounds(
            rounds, busy,
            [&](std::size_t c, std::size_t r) {
                ClientLane& lane = lanes[c];
                SessionClient& client = *env->conns[c].client;
                const std::vector<SessionRun*>& mine = by_round[r][c];
                guarded(lane.tally, "client " + std::to_string(c), [&] {
                    bool going = true;
                    for (int i = 0; going && i < kSessionBudget; ++i)
                        for (SessionRun* s : mine)
                            going = going && step(client, *s, lane);
                });
            },
            [&](std::size_t r) {
                // Keep what the checks need, free the told histories and
                // open the next round's sessions.
                for (ClientLane& lane : lanes) {
                    suggest_ms[r].insert(suggest_ms[r].end(),
                                         lane.suggest_ms.begin(),
                                         lane.suggest_ms.end());
                    observe_ms[r].insert(observe_ms[r].end(),
                                         lane.observe_ms.begin(),
                                         lane.observe_ms.end());
                    lane.suggest_ms.clear();
                    lane.observe_ms.clear();
                }
                for (const std::vector<SessionRun*>& mine : by_round[r])
                    for (SessionRun* s : mine) {
                        capture(*s, s->told);
                        s->told = TuningHistory();
                    }
                close_round(env->conns, by_round[r], pass.tally);
                if (r + 1 < rounds)
                    pass.tally.check(open_round(env->conns, by_round[r + 1]),
                                     "open_session failed");
            });
        window.close(pass);
        pass.wall_s = wall_s;

        Layers& L = pass.layers;
        L.lanes = kSessionClients;
        double suggest_rpc_s = 0.0, observe_rpc_s = 0.0;
        for (int c = 0; c < kSessionClients; ++c) {
            ClientLane& lane = lanes[c];
            pass.tally.merge(lane.tally);
            pass.evals += lane.evals;
            L.lane_busy_s += busy[c];
            L.objective_s += lane.objective_s;
            L.infeasible += lane.infeasible;
            suggest_rpc_s += lane.suggest_rpc_s;
            observe_rpc_s += lane.observe_rpc_s;
        }
        serve_layers(L);
        L.wire_suggest_s = suggest_rpc_s - L.serve_suggest_s;
        L.wire_observe_s = observe_rpc_s - L.serve_observe_s;
        L.objective_calls = pass.evals;
        pass.suggest_ms = summarize_rounds(suggest_ms);
        pass.observe_ms = summarize_rounds(observe_ms);
        env.reset();
    }
    if (!checkpoint_root.empty())
        std::filesystem::remove_all(checkpoint_root);

    check_sessions(runs, /*batch=*/0, pass);
    return pass;
}

}  // namespace

Pass
run_serve_sessions(const Options& opt, bool traced)
{
    const std::size_t rounds =
        static_cast<std::size_t>(work_units(opt.seconds, kSessionRoundSeconds));
    return serve_sessions(opt, traced, rounds, std::string(),
                          opt.workload + ".trace.json");
}

Pass
run_checkpointed_sessions(const Options& opt)
{
    return serve_sessions(opt, /*traced=*/true, kCheckpointedRounds,
                          opt.out_dir + "/checkpoints",
                          opt.workload + ".checkpointed.trace.json");
}

Pass
run_serve_fleet(const Options& opt, bool traced)
{
    Pass pass;
    const int per_round = static_cast<int>(std::size(kFleetBenchmarks));
    const std::size_t rounds = static_cast<std::size_t>(work_units(
        opt.seconds, per_round * kFleetRunBudget / kFleetEvalsPerSecond));
    std::vector<SessionRun> runs;
    const std::vector<Round> by_round = assign_rounds(
        rounds, per_round, kFleetClients, runs, [&](std::size_t r, int k) {
            SessionRun s;
            s.name = "r" + std::to_string(r) + "-run" + std::to_string(k);
            s.bench = &suite::find_benchmark(kFleetBenchmarks[k]);
            s.seed = opt.seed * 100000 + per_round * r + k;
            s.budget = kFleetRunBudget;
            return s;
        });

    std::unique_ptr<Env> env = set_up(true, std::string(), by_round[0], pass);
    if (env) {
        std::vector<double> busy(kFleetClients, 0.0);
        TimedWindow window(traced, opt.out_dir + "/" + opt.workload +
                                       ".trace.json");
        const double wall_s = run_rounds(
            rounds, busy,
            [&](std::size_t c, std::size_t r) {
                // One barriered run frame per session, in turn.
                for (SessionRun* s : by_round[r][c]) {
                    Message run;
                    run.type = MsgType::kRun;
                    run.session = s->name;
                    run.n = kFleetBatch;
                    obs::Span span("bench.run_rpc", "perfbench");
                    try {
                        s->done = env->conns[c].client->rpc(std::move(run),
                                                            kRpcTimeoutMs);
                    } catch (const std::exception& e) {
                        s->done = Message();
                        s->done.text = e.what();  // not kDone: a failure
                    }
                }
            },
            [&](std::size_t r) {
                // Capture each run's history from its session and close
                // it, then open the next round's sessions.
                for (const std::vector<SessionRun*>& mine : by_round[r])
                    for (SessionRun* s : mine) {
                        pass.tally.check(
                            s->done.type == MsgType::kDone &&
                                s->done.evals ==
                                    static_cast<std::uint64_t>(s->budget),
                            s->name + ": run did not finish its budget: " +
                                s->done.text);
                        pass.tally.attempts(
                            static_cast<std::uint64_t>(s->budget));
                        pass.evals += static_cast<std::uint64_t>(s->budget);
                        pass.tally.check(
                            env->server->sessions().with_tuner(
                                s->name,
                                [s](AskTellTuner& tuner, const SessionInfo&,
                                    const std::string&) {
                                    capture(*s, tuner.history());
                                }),
                            s->name + ": session missing after its run");
                    }
                close_round(env->conns, by_round[r], pass.tally);
                if (r + 1 < rounds)
                    pass.tally.check(open_round(env->conns, by_round[r + 1]),
                                     "open_session failed");
            });
        window.close(pass);
        pass.wall_s = wall_s;
        Layers& L = pass.layers;
        L.lanes = kFleetClients;
        for (double b : busy)
            L.lane_busy_s += b;
        serve_layers(L);
        pass.suggest_ms = hist_latency_ms(L.delta, "serve.suggest_seconds");
        pass.observe_ms = hist_latency_ms(L.delta, "serve.observe_seconds");
        // The workers evaluate off the lanes; their time is what the
        // sessions' histories recorded from the result frames.
        for (const SessionRun& s : runs) {
            L.objective_s += s.eval_seconds;
            L.infeasible += s.infeasible;
        }
        L.objective_calls = pass.evals;
        L.objective_on_lanes = false;
        env.reset();
    }

    check_sessions(runs, kFleetBatch, pass);
    return pass;
}

}  // namespace perfbench
