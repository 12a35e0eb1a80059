#include "serve/protocol.hpp"

#include <charconv>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "exec/jsonl.hpp"

namespace baco::serve {

namespace {

// Field-list flags. Each frame type lists its keys once, in wire order,
// and the Writer and Reader below both walk that list.
constexpr unsigned kRequired = 1;   ///< decode: absent means malformed
constexpr unsigned kOmitEmpty = 2;  ///< encode: skipped when 0 / empty
constexpr unsigned kReadOnly = 4;   ///< encode: never written

template <class V>
void
fields(V& v, ObservedResult& r)
{
    v("config", r.config, kRequired);
    v("value", r.value, kRequired);
    v("feasible", r.feasible, kRequired);
}

template <class V>
void
fields(V& v, StatEntry& e)
{
    v("name", e.name, kRequired);
    v("kind", e.kind, kRequired);
    v("value", e.value, kRequired);
    v("count", e.count, kRequired);
    v("sum", e.sum, kRequired);
    v("p50", e.p50, kRequired);
    v("p90", e.p90, kRequired);
    v("p99", e.p99, kRequired);
}

template <class V>
void
fields(V& v, WireSpan& s)
{
    v("name", s.name, kRequired);
    v("cat", s.category, kRequired);
    v("tid", s.thread_id, kRequired);
    v("ts", s.start_us, kRequired);
    v("dur", s.duration_us, kRequired);
}

/**
 * The optional trace context of evaluate/result frames: written only
 * when a run id is set (so untraced frames keep the pre-trace bytes),
 * read only under a "tcv" key.
 */
template <class V>
void
trace_context(V& v, Message& m)
{
    if (v.section("tcv", m.trace_version, kTraceVersion,
                  !m.trace_run.empty())) {
        v("trace", m.trace_run);
        v("span", m.span_id);
    }
}

template <class V>
void
fields(V& v, Message& m)
{
    // Every frame but the handshake pair and shutdown leads with its
    // request id; those three still take one from a peer that sends it.
    bool bare = m.type == MsgType::kHello || m.type == MsgType::kWelcome ||
                m.type == MsgType::kShutdown;
    v("id", m.id, bare ? kReadOnly : 0);
    switch (m.type) {
      case MsgType::kHello:
        v("v", m.version, kRequired);
        v("role", m.text, 0, "client");
        v("capacity", m.capacity, kOmitEmpty);
        v("heartbeat_ms", m.heartbeat_ms, kOmitEmpty);
        break;
      case MsgType::kWelcome:
        v("v", m.version, kRequired);
        break;
      case MsgType::kOpenSession:
        v("session", m.session, kRequired);
        v("benchmark", m.benchmark, kRequired);
        v("method", m.method);
        v("budget", m.budget);
        v("doe", m.doe);
        v("seed", m.seed);
        v("resume", m.resume);
        break;
      case MsgType::kOpened:
        v("session", m.session);
        v("evals", m.evals);
        v("budget", m.budget);
        v("resumed", m.resumed);
        break;
      case MsgType::kSuggest:
        v("session", m.session, kRequired);
        v("n", m.n, kRequired);
        break;
      case MsgType::kConfigs:
        v("first_index", m.index);
        v("configs", m.configs, kRequired);
        break;
      case MsgType::kObserve:
        v("session", m.session, kRequired);
        v("eval_seconds", m.eval_seconds);
        v("results", m.results, kRequired);
        break;
      case MsgType::kOk:
        v("evals", m.evals);
        v("best", m.best);
        v("path", m.text, kOmitEmpty);
        break;
      case MsgType::kCheckpoint:
      case MsgType::kClose:
        v("session", m.session, kRequired);
        break;
      case MsgType::kRun:
        v("session", m.session, kRequired);
        v("n", m.n);
        v("budget", m.budget);
        v("async", m.async);
        break;
      case MsgType::kDone:
        v("evals", m.evals);
        v("best", m.best);
        break;
      case MsgType::kEvaluate:
        v("benchmark", m.benchmark, kRequired);
        v("seed", m.seed, kRequired);
        v("index", m.index, kRequired);
        // Run tag only when multiplexed: untagged frames keep the
        // pre-multiplexing bytes.
        v("run", m.run, kOmitEmpty);
        trace_context(v, m);
        v("config", m.config, kRequired);
        break;
      case MsgType::kResult:
        v("index", m.index);
        v("value", m.value, kRequired);
        v("feasible", m.feasible, kRequired);
        v("eval_seconds", m.eval_seconds);
        // Streaming-progress fields (async server-side runs); harmless
        // extras on coordinator<->worker replies.
        v("evals", m.evals);
        v("best", m.best);
        v("run", m.run, kOmitEmpty);
        trace_context(v, m);
        v("spans", m.spans, kOmitEmpty);
        break;
      case MsgType::kStats:
        v("session", m.session);
        break;
      case MsgType::kStatsReport:
        v("session", m.session);
        v("sv", m.stats_version, kRequired);
        v("stats", m.stats, kRequired);
        break;
      case MsgType::kHeartbeat:
        v("evals", m.evals);
        v("run", m.run, kOmitEmpty);
        break;
      case MsgType::kGoodbye:
        v("evals", m.evals);
        v("run", m.run, kOmitEmpty);
        v("spans", m.spans, kOmitEmpty);
        break;
      case MsgType::kShutdown:
        break;
      case MsgType::kError:
        v("message", m.text);
        v("code", m.code, kOmitEmpty);  // optional machine-readable code
        break;
    }
}

/**
 * Runs a field list to append a frame to one string. The lists take
 * mutable references so the Reader can fill them; the Writer only reads.
 */
class Writer {
 public:
  Writer(std::string& out, bool first) : out_(out), first_(first) {}

  /** Write key: v; fallback is written in place of an empty string. */
  template <class T>
  void operator()(const char* key, const T& v, unsigned flags = 0,
                  const char* fallback = nullptr)
  {
      if ((flags & kReadOnly) || ((flags & kOmitEmpty) && empty(v)))
          return;
      if (!first_)
          out_ += ',';
      first_ = false;
      out_ += '"';
      out_ += key;
      out_ += "\":";
      if constexpr (std::is_same_v<T, std::string>)
          put_str(v.empty() && fallback ? fallback : std::string_view(v));
      else
          put(v);
  }

  /** Open an optional group led by key: value when present. */
  bool section(const char* key, const int&, int value, bool present)
  {
      if (present)
          (*this)(key, value);
      return present;
  }

 private:
  /** Zero, negative, false or empty: what kOmitEmpty leaves out. */
  template <class T>
  static bool empty(const T& v)
  {
      if constexpr (std::is_arithmetic_v<T>)
          return !(v > 0);
      else
          return v.empty();
  }

  template <class T>
  void put_int(T v)
  {
      char buf[24];
      auto res = std::to_chars(buf, buf + sizeof buf, v);
      out_.append(buf, res.ptr);
  }
  void put(int v) { put_int(v); }
  void put(std::uint64_t v) { put_int(v); }
  void put(bool v) { out_ += v ? "true" : "false"; }

  /**
   * A JSON-valid number token: plain %.17g when finite, quoted ("inf",
   * "-inf", "nan") otherwise, since standard JSON has no non-finite
   * literals.
   */
  void put(double v)
  {
      bool finite = std::isfinite(v);
      if (!finite)
          out_ += '"';
      jsonl::append_double(out_, v);
      if (!finite)
          out_ += '"';
  }

  /** A string, stripped of what would break one-line JSON framing. */
  void put_str(std::string_view s)
  {
      out_ += '"';
      for (char c : s) {
          if (c == '"')
              out_ += '\'';
          else if (c == '\n' || c == '\r')
              out_ += ' ';
          else if (c == '\\')
              out_ += '/';
          else
              out_ += c;
      }
      out_ += '"';
  }

  void put(const Configuration& c) { jsonl::write_config(out_, c); }

  /** An array of configurations or of field-listed objects. */
  template <class T>
  void put(const std::vector<T>& items)
  {
      out_ += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
          if (i > 0)
              out_ += ',';
          if constexpr (std::is_same_v<T, Configuration>) {
              put(items[i]);
          } else {
              out_ += '{';
              Writer element(out_, true);
              fields(element, const_cast<T&>(items[i]));
              out_ += '}';
          }
      }
      out_ += ']';
  }

  std::string& out_;
  bool first_;
};

/**
 * Runs a field list over one indexed JSON object. Any present field that
 * fails its typed read, or a required field that is absent, rejects the
 * whole object; the first such failure is kept in why().
 */
class Reader {
 public:
  Reader(const jsonl::Object& obj, const char* what) : obj_(obj), what_(what)
  {
  }

  template <class T>
  void operator()(const char* key, T& v, unsigned flags = 0,
                  const char* = nullptr)
  {
      if (!why_.empty())
          return;
      jsonl::Read r = read(key, v);
      if (r == jsonl::Read::kMalformed)
          why_ = std::string("malformed \"") + key + "\" in " + what_;
      else if (r == jsonl::Read::kAbsent && (flags & kRequired))
          why_ = std::string(what_) + " without \"" + key + "\"";
  }

  /** Read the group's leading key; the group is present when it is. */
  bool section(const char* key, int& v, int, bool)
  {
      (*this)(key, v);
      return why_.empty() && !obj_.raw(key).empty();
  }

  const std::string& why() const { return why_; }

 private:
  template <class T>
  jsonl::Read read(const char* key, T& v)
  {
      return obj_.get(key, v);
  }

  jsonl::Read read(const char* key, Configuration& c)
  {
      return obj_.get(key, c);
  }

  /** An array of configurations or of field-listed objects. */
  template <class T>
  jsonl::Read read(const char* key, std::vector<T>& items)
  {
      const std::string& text = obj_.text();
      return obj_.each(key, [&](std::size_t at, std::size_t end) {
          T& item = items.emplace_back();
          if constexpr (std::is_same_v<T, Configuration>) {
              return jsonl::parse_config(text, at, item) && at == end;
          } else {
              jsonl::Object element;
              if (!element.parse(text, at, end))
                  return false;
              Reader r(element, what_);
              fields(r, item);
              return r.why_.empty();
          }
      });
  }

  const jsonl::Object& obj_;
  const char* what_;
  std::string why_;
};

bool
fail(std::string* error, const std::string& why)
{
    if (error)
        *error = why;
    return false;
}

}  // namespace

const char*
msg_type_name(MsgType t)
{
    switch (t) {
      case MsgType::kHello: return "hello";
      case MsgType::kWelcome: return "welcome";
      case MsgType::kOpenSession: return "open_session";
      case MsgType::kOpened: return "opened";
      case MsgType::kSuggest: return "suggest";
      case MsgType::kConfigs: return "configs";
      case MsgType::kObserve: return "observe";
      case MsgType::kOk: return "ok";
      case MsgType::kCheckpoint: return "checkpoint";
      case MsgType::kClose: return "close";
      case MsgType::kRun: return "run";
      case MsgType::kDone: return "done";
      case MsgType::kEvaluate: return "evaluate";
      case MsgType::kResult: return "result";
      case MsgType::kStats: return "stats";
      case MsgType::kStatsReport: return "stats_report";
      case MsgType::kHeartbeat: return "heartbeat";
      case MsgType::kGoodbye: return "goodbye";
      case MsgType::kShutdown: return "shutdown";
      case MsgType::kError: return "error";
    }
    return "?";
}

std::string
encode(const Message& m)
{
    std::string out;
    out.reserve(128);
    out += "{\"type\":\"";
    out += msg_type_name(m.type);
    out += '"';
    Writer w(out, false);
    fields(w, const_cast<Message&>(m));
    out += '}';
    return out;
}

bool
decode(const std::string& line, Message& out, std::string* error)
{
    out = Message{};
    jsonl::Object obj;
    if (!obj.parse(line))
        return fail(error, "frame is not a complete JSON object");
    std::string type;
    if (obj.get("type", type) != jsonl::Read::kOk)
        return fail(error, "frame has no type field");
    for (int t = 0;; ++t) {
        if (t > static_cast<int>(MsgType::kError))
            return fail(error, "unknown frame type: " + type);
        if (type == msg_type_name(static_cast<MsgType>(t))) {
            out.type = static_cast<MsgType>(t);
            break;
        }
    }
    Reader r(obj, msg_type_name(out.type));
    fields(r, out);
    return r.why().empty() || fail(error, r.why());
}

Message
make_error(std::uint64_t id, const std::string& text)
{
    Message m;
    m.type = MsgType::kError;
    m.id = id;
    m.text = text;
    return m;
}

}  // namespace baco::serve
