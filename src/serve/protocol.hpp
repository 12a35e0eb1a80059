#ifndef BACO_SERVE_PROTOCOL_HPP_
#define BACO_SERVE_PROTOCOL_HPP_

/**
 * @file
 * The versioned JSONL wire protocol of the distributed tuning service.
 *
 * Every frame is one flat JSON object on one line, built from the same
 * jsonl vocabulary as the cache and checkpoint files; configurations
 * travel as the checkpoint's typed array ([{"i":4},{"r":0.5},...]). A
 * connection opens with a hello/welcome version handshake and then
 * exchanges request/response pairs correlated by "id".
 *
 * Session-control messages (client <-> server):
 *   hello / welcome            version + role handshake
 *   open_session -> opened     create or resume a named tuning session
 *   suggest -> configs         ask the session's tuner for a batch
 *   observe -> ok              report the batch's evaluation results
 *   checkpoint -> ok           force a crash-safe checkpoint to disk
 *   close -> ok                checkpoint (if enabled) and drop a session
 *   run -> done                server-side drive loop (sharded over the
 *                              coordinator's workers when attached); with
 *                              "async":true the server drives the session
 *                              tell-as-results-land and STREAMS one
 *                              result frame per landed evaluation
 *                              (index/value/feasible/evals/best) before
 *                              the final done frame
 *   stats -> stats_report      observability snapshot: with "session",
 *                              the session's counters and latency
 *                              histograms; with an empty session, the
 *                              server-wide registry plus acceptor and
 *                              session-manager totals. The report carries
 *                              "sv" (stats schema version) and a typed
 *                              entry array; see StatEntry.
 *   shutdown                   end the connection's serve loop
 *
 * Evaluation messages (coordinator <-> worker):
 *   hello (role=worker)        worker registration with capacity and an
 *                              optional advertised heartbeat interval
 *                              ("heartbeat_ms")
 *   evaluate -> result         evaluate one configuration of a registry
 *                              benchmark under eval_rng_for(seed, index)
 *   heartbeat                  unsolicited worker liveness beacon (id 0)
 *                              carrying the worker's completed-eval count;
 *                              the coordinator folds it into WorkerHealth
 *   goodbye                    worker's final frame before a clean exit:
 *                              total evals plus any unshipped trace spans
 *
 * Run multiplexing: evaluate frames dispatched on behalf of a concurrent
 * run carry an optional "run" tag (the coordinator's run id), which the
 * worker echoes on the matching result; heartbeat/goodbye frames carry
 * the last run the worker served. The tag is emitted only when nonzero,
 * so single-run traffic stays byte-identical to the untagged wire
 * format and pre-tag workers remain compatible (the coordinator
 * correlates by dispatch id; the tag is validation + observability).
 * Error frames may carry an optional machine-readable "code" — "busy"
 * marks a run refused by admission control (--max-active-runs).
 *
 * Trace context: when the server runs with tracing enabled, evaluate
 * frames carry an optional versioned trace context ("tcv" =
 * kTraceVersion, "trace" = run id, "span" = parent span id). Workers
 * open child spans under it and ship their span buffers back as a
 * "spans" array on result/goodbye frames (see WireSpan), which the
 * coordinator merges into the server's Chrome trace as per-worker
 * tracks.
 *
 * Any request can be answered with an error frame. Unknown fields are
 * ignored, so adding optional fields is backward-compatible;
 * incompatible changes bump kProtocolVersion and are rejected at the
 * handshake.
 *
 * Decode rules (one field list per frame type drives both encode and
 * decode, over the shared jsonl::Object reader):
 *  - only top-level keys count: a key nested inside another value
 *    (an unknown field's object, say) never stands in for the frame's
 *    own field;
 *  - every present field must pass its typed read, optional ones
 *    included: "budget":"x", "budget":12x or "async":yes make the frame
 *    malformed rather than a silent 0, prefix or false;
 *  - integers are range-checked: "n":4294967297 is malformed, not a
 *    batch of 1 after narrowing to int;
 *  - a required field that is absent makes the frame malformed.
 */

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/types.hpp"

namespace baco::serve {

/** Bumped on incompatible wire changes; checked at the handshake. */
inline constexpr int kProtocolVersion = 1;

/** Every frame kind of the protocol. */
enum class MsgType {
  kHello,
  kWelcome,
  kOpenSession,
  kOpened,
  kSuggest,
  kConfigs,
  kObserve,
  kOk,
  kCheckpoint,
  kClose,
  kRun,
  kDone,
  kEvaluate,
  kResult,
  kStats,
  kStatsReport,
  kHeartbeat,
  kGoodbye,
  kShutdown,
  kError,
};

/** Schema version of the stats_report entry array ("sv"). */
inline constexpr int kStatsVersion = 1;

/** Schema version of the propagated trace context ("tcv"). */
inline constexpr int kTraceVersion = 1;

/**
 * Largest n a suggest or run frame may ask for (and the async run's
 * in-flight slot cap): the tuner proposes n configurations, and the
 * async path starts up to n evaluation threads, under the session lock.
 */
inline constexpr int kMaxBatch = 64;

/** Wire name of a frame kind ("open_session", "configs", ...). */
const char* msg_type_name(MsgType t);

/** One evaluated configuration inside an observe frame. */
struct ObservedResult {
  Configuration config;
  double value = 0.0;
  bool feasible = true;
};

/**
 * One metric inside a stats_report frame. Every field is emitted, zeros
 * included, and every field is required on decode. kind is "counter",
 * "gauge" or "histogram"; counters/gauges use value, histograms use
 * count/sum and the extracted percentiles (seconds).
 */
struct StatEntry {
  std::string name;
  std::string kind = "counter";
  double value = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/**
 * One completed span inside a result/goodbye frame's "spans" array.
 * Like StatEntry, every field is emitted and required on decode.
 * Timestamps are microseconds on the worker's own clock; the merged
 * export renders each worker as its own track, so cross-process clock
 * alignment is not required.
 */
struct WireSpan {
  std::string name;
  std::string category;
  std::uint64_t thread_id = 0;
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
};

/**
 * A decoded protocol frame: the superset of all message fields. encode()
 * emits only the fields its type defines; decode() fills only those it
 * finds. The protocol is small enough that one flat struct beats a
 * variant hierarchy for testability.
 */
struct Message {
  MsgType type = MsgType::kError;

  int version = kProtocolVersion;  ///< hello/welcome
  std::uint64_t id = 0;            ///< request/response correlation

  std::string session;    ///< session name ([A-Za-z0-9_.-]+)
  std::string benchmark;  ///< registry benchmark name (open_session/evaluate)
  std::string method;     ///< suite method name (open_session)
  std::string text;       ///< error message / hello role / checkpoint path

  int n = 0;         ///< suggest: batch size; run: batch size
  int budget = 0;    ///< open_session: evaluations (0 = benchmark default)
  int doe = 0;       ///< open_session: DoE samples (0 = benchmark default)
  int capacity = 0;  ///< worker hello: concurrent evaluation slots
  int heartbeat_ms = 0;  ///< worker hello: beacon interval (0 = none)

  bool resume = false;   ///< open_session: resume from checkpoint if present
  bool resumed = false;  ///< opened: whether a checkpoint was restored
  bool async = false;    ///< run: drive asynchronously, stream result frames

  std::uint64_t seed = 0;   ///< open_session/evaluate: run seed
  std::uint64_t index = 0;  ///< evaluate/result: evaluation index;
                            ///< configs: first index of the batch
  std::uint64_t evals = 0;  ///< responses: history size so far
  std::uint64_t run = 0;    ///< evaluate/result: coordinator run id;
                            ///< heartbeat/goodbye: last run served.
                            ///< 0 = untagged (omitted on the wire)
  std::string code;  ///< error: optional machine-readable code ("busy")

  double value = 0.0;   ///< result: measured objective
  bool feasible = true; ///< result: hidden-constraint outcome
  double best = std::numeric_limits<double>::infinity();  ///< responses
  double eval_seconds = 0.0;  ///< result/observe: black-box wall-clock

  Configuration config;                ///< evaluate
  std::vector<Configuration> configs;  ///< configs response
  std::vector<ObservedResult> results; ///< observe request

  int stats_version = kStatsVersion;   ///< stats_report: entry schema ("sv")
  std::vector<StatEntry> stats;        ///< stats_report payload

  int trace_version = 0;      ///< evaluate/result: "tcv"; 0 = no context
  std::string trace_run;      ///< trace context: run id
  std::uint64_t span_id = 0;  ///< trace context: parent span id
  std::vector<WireSpan> spans;  ///< result/goodbye: worker span buffer
};

/** Serialize m as one JSONL frame (no trailing newline). */
std::string encode(const Message& m);

/**
 * Parse one frame under the decode rules above. Returns false on a
 * malformed frame or unknown type, with a diagnostic in *error (when
 * non-null). Strict about framing: the line must be one complete JSON
 * object, so a truncated frame — a crash mid-write, a cut pipe — is
 * rejected rather than parsed as a shorter valid message. Never throws.
 */
bool decode(const std::string& line, Message& out,
            std::string* error = nullptr);

/** Convenience error frame answering request id. */
Message make_error(std::uint64_t id, const std::string& text);

}  // namespace baco::serve

#endif  // BACO_SERVE_PROTOCOL_HPP_
