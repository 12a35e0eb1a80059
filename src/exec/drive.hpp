#ifndef BACO_EXEC_DRIVE_HPP_
#define BACO_EXEC_DRIVE_HPP_

/**
 * @file
 * The one suggest -> evaluate -> tell loop behind every ExecutionPolicy.
 *
 * drive() runs an ask-tell tuner against an EvalBackend — the place the
 * evaluations happen — under the request's ExecutionPolicy:
 *  - Serial, Batched and Distributed(async=false) are barrier rounds:
 *    suggest a batch (1 for Serial), evaluate it, observe it whole with
 *    one observe() call, checkpoint, repeat. Every evaluation draws its
 *    noise from eval_rng_for(run seed, index), so the history is a pure
 *    function of the seed and the round size, whatever the backend, the
 *    thread count or the worker placement; at round size 1 it is the
 *    serial loop (drive_serial) bit for bit.
 *  - Async and Distributed(async=true) never barrier: each result is
 *    told the moment it lands and the freed slot is refilled through
 *    suggest_with_pending(), which keeps the in-flight configurations as
 *    constant-liar fantasies. Compile times vary by orders of magnitude
 *    across configurations, so no slot idles on the slowest one. The
 *    trade: the history follows completion order, so multi-slot runs
 *    are reproducible per result, not as a whole; one slot is the
 *    serial loop exactly. ExecutionPolicy::suggest_ahead additionally
 *    precomputes the next suggestion on a side lane while evaluations
 *    run (ignored below two slots).
 *
 * Cache, eval cap, checkpoint, resume and events behave identically
 * under every policy: an EvalCache short-circuits repeat
 * configurations, a checkpoint is rewritten after every tell (async
 * checkpoints also record the in-flight work), the in-flight evaluations
 * of a killed async run are re-dispatched under their original indices,
 * and on_event fires once per told result.
 *
 * Two backends exist: PoolBackend (the objective on a thread pool, here)
 * and serve::FleetBackend (a Coordinator run lease over a worker fleet).
 */

#include <cstdint>
#include <deque>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "api/execution_policy.hpp"
#include "core/thread_annotations.hpp"
#include "exec/ask_tell.hpp"
#include "exec/checkpoint.hpp"
#include "exec/thread_pool.hpp"

namespace baco {

class EvalCache;

/**
 * One execution request against an existing ask-tell tuner: what
 * execute() (api/study.hpp) and drive() run. The policy (with its fleet
 * for distributed runs), the objective and the benchmark pick the
 * backend; the rest configure the loop.
 */
struct ExecRequest {
  /** Distributed runs go to policy.fleet, which must have live workers
   *  (not owned — the caller manages the fleet's lifetime). */
  ExecutionPolicy policy;
  /** In-process objective (serial/batched/async modes). */
  BlackBoxFn objective;
  /** Registry benchmark name workers resolve (distributed mode). */
  std::string benchmark;
  EvalCache* cache = nullptr;
  std::string cache_namespace;
  std::string checkpoint_path;
  /** Stop after this many evaluations; -1 = budget exhaustion. */
  int max_evals = -1;
  /**
   * Fires after every tell: in history order for barrier rounds, in
   * completion order for async ones. eval_seconds and from_cache are
   * filled only for results told one at a time (async results and
   * re-dispatched resume_pending work); barrier rounds time whole
   * rounds.
   */
  AsyncResultFn on_event;
  /**
   * In-flight evaluations of a resumed async checkpoint. Every policy
   * re-dispatches them under their original indices before any new
   * suggestion and counts them toward max_evals; barrier policies tell
   * them in index order. Each is told exactly once even when the
   * resumed run picked a different ExecutionPolicy than the killed one.
   */
  std::vector<PendingEval> resume_pending;
};

/** One evaluation that finished, successfully or not. */
struct Landed {
  std::uint64_t index = 0;  ///< evaluation index (noise-stream key)
  EvalResult result;
  double seconds = 0.0;     ///< black-box wall-clock
  bool from_cache = false;
  std::exception_ptr error;  ///< set when the evaluation failed
};

/** Where a drive's evaluations run. */
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;

  /**
   * Start evaluating every (index, configuration) task; evaluation
   * `index` draws from eval_rng_for(run seed, index). A whole round goes
   * in one call.
   */
  virtual void submit(
      std::vector<std::pair<std::uint64_t, Configuration>> tasks) = 0;

  /**
   * Block until at least one submitted evaluation has landed and hand
   * over every landed one. Only called with work outstanding. Failed
   * evaluations land with their error set; wait() itself throws only
   * when the backend can no longer finish the outstanding work.
   */
  virtual std::vector<Landed> wait() = 0;
};

/** The objective on a work-stealing thread pool. */
class PoolBackend : public EvalBackend {
 public:
  /**
   * lanes = concurrent evaluations (0 = hardware concurrency). A single
   * lane evaluates inline inside submit(), spawning no thread.
   */
  PoolBackend(BlackBoxFn objective, std::uint64_t run_seed, int lanes);

  void submit(
      std::vector<std::pair<std::uint64_t, Configuration>> tasks) override;
  std::vector<Landed> wait() override;

 private:
  void land(Landed l) BACO_EXCLUDES(mutex_);

  BlackBoxFn objective_;
  std::uint64_t run_seed_;
  Mutex mutex_;
  CondVar cv_;
  std::deque<Landed> landed_ BACO_GUARDED_BY(mutex_);
  /** Declared last, so destroyed first: its destructor runs every
   *  still-queued task, which lands into the members above. */
  ThreadPool pool_;
};

/**
 * Evaluate one round and wait for all of it — the barrier primitive.
 * Each configuration is first looked up in the cache (when non-null);
 * the misses go to the backend in one submit, evaluation i under index
 * first_index + i, and are inserted into the cache once landed. Results
 * come back in input order; *eval_seconds (optional) accumulates the
 * summed evaluation time. A failed evaluation is rethrown only after
 * every submitted one has landed.
 */
std::vector<EvalResult> evaluate_round(
    EvalBackend& backend, EvalCache* cache,
    const std::string& cache_namespace, std::uint64_t first_index,
    const std::vector<Configuration>& configs,
    double* eval_seconds = nullptr);

/**
 * Drive `tuner` on `backend` under req's ExecutionPolicy until the
 * budget, req.max_evals or the tuner's suggestions run out (see the
 * file comment). Any error — from the objective, a worker, the tuner,
 * the checkpoint or on_event — is rethrown only after the in-flight
 * evaluations have drained.
 */
void drive(AskTellTuner& tuner, EvalBackend& backend, const ExecRequest& req);

/**
 * Fire on_event once per history entry from `first` on, in history
 * order, with the as-if-serial evals/best counters (best: the incumbent
 * before entry `first`). Rounds observed whole report their results
 * this way.
 */
void emit_round_events(const TuningHistory& history, std::size_t first,
                       double best, const AsyncResultFn& on_event);

/**
 * The per-tell step of results told one at a time (async results,
 * resumed in-flight work, Study::tell_pending): cache the result, tell
 * the tuner, charge the black-box time, checkpoint with the still
 * in-flight work, then notify the caller. ev arrives with index/config/
 * result/eval_seconds/from_cache filled; evals and best are stamped here
 * after the tell.
 */
void tell_async_result(AskTellTuner& tuner, AsyncEvent ev, EvalCache* cache,
                       const std::string& cache_namespace,
                       const std::string& checkpoint_path,
                       const std::vector<PendingEval>& still_pending,
                       const AsyncResultFn& on_result);

}  // namespace baco

#endif  // BACO_EXEC_DRIVE_HPP_
