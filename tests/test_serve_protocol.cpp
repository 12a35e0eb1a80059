// The serve wire protocol: encode/decode round-trips for every frame
// type, malformed-frame rejection, and the loopback/pipe transports.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/transport.hpp"

namespace baco::serve {
namespace {

Configuration
mixed_config()
{
    return {std::int64_t{8}, 0.375, Permutation{2, 0, 1}};
}

/** Round-trip m through encode/decode (optionally through a transport). */
Message
roundtrip(const Message& m, Transport* via = nullptr)
{
    std::string frame = encode(m);
    if (via) {
        EXPECT_TRUE(via->send(frame));
        frame.clear();
        EXPECT_EQ(via->recv(frame, 2000), RecvStatus::kOk);
    }
    Message out;
    std::string err;
    EXPECT_TRUE(decode(frame, out, &err)) << frame << " : " << err;
    return out;
}

TEST(ServeProtocol, HelloWelcomeRoundtrip)
{
    Message hello;
    hello.type = MsgType::kHello;
    hello.text = "worker";
    hello.capacity = 3;
    Message out = roundtrip(hello);
    EXPECT_EQ(out.type, MsgType::kHello);
    EXPECT_EQ(out.version, kProtocolVersion);
    EXPECT_EQ(out.text, "worker");
    EXPECT_EQ(out.capacity, 3);

    Message welcome;
    welcome.type = MsgType::kWelcome;
    out = roundtrip(welcome);
    EXPECT_EQ(out.type, MsgType::kWelcome);
    EXPECT_EQ(out.version, kProtocolVersion);
}

TEST(ServeProtocol, OpenSessionRoundtrip)
{
    Message m;
    m.type = MsgType::kOpenSession;
    m.id = 42;
    m.session = "exp-1.run_2";
    m.benchmark = "SpMM/scircuit";
    m.method = "BaCO";
    m.budget = 60;
    m.doe = 10;
    m.seed = 0xdeadbeefULL;
    m.resume = true;
    Message out = roundtrip(m);
    EXPECT_EQ(out.type, MsgType::kOpenSession);
    EXPECT_EQ(out.id, 42u);
    EXPECT_EQ(out.session, "exp-1.run_2");
    EXPECT_EQ(out.benchmark, "SpMM/scircuit");
    EXPECT_EQ(out.method, "BaCO");
    EXPECT_EQ(out.budget, 60);
    EXPECT_EQ(out.doe, 10);
    EXPECT_EQ(out.seed, 0xdeadbeefULL);
    EXPECT_TRUE(out.resume);
}

TEST(ServeProtocol, OpenedOkDoneErrorRoundtrip)
{
    Message opened;
    opened.type = MsgType::kOpened;
    opened.id = 7;
    opened.session = "s";
    opened.evals = 12;
    opened.budget = 30;
    opened.resumed = true;
    Message out = roundtrip(opened);
    EXPECT_EQ(out.type, MsgType::kOpened);
    EXPECT_EQ(out.evals, 12u);
    EXPECT_EQ(out.budget, 30);
    EXPECT_TRUE(out.resumed);

    Message ok;
    ok.type = MsgType::kOk;
    ok.id = 8;
    ok.evals = 13;
    ok.best = 1.0625;
    ok.text = "/tmp/s.ckpt.jsonl";
    out = roundtrip(ok);
    EXPECT_EQ(out.type, MsgType::kOk);
    EXPECT_DOUBLE_EQ(out.best, 1.0625);
    EXPECT_EQ(out.text, "/tmp/s.ckpt.jsonl");

    Message done;
    done.type = MsgType::kDone;
    done.id = 9;
    done.evals = 60;
    done.best = 0.5;
    out = roundtrip(done);
    EXPECT_EQ(out.type, MsgType::kDone);
    EXPECT_EQ(out.evals, 60u);
    EXPECT_DOUBLE_EQ(out.best, 0.5);

    out = roundtrip(make_error(11, "something broke"));
    EXPECT_EQ(out.type, MsgType::kError);
    EXPECT_EQ(out.id, 11u);
    EXPECT_EQ(out.text, "something broke");
}

TEST(ServeProtocol, SuggestConfigsRoundtrip)
{
    Message ask;
    ask.type = MsgType::kSuggest;
    ask.id = 3;
    ask.session = "s";
    ask.n = 4;
    Message out = roundtrip(ask);
    EXPECT_EQ(out.type, MsgType::kSuggest);
    EXPECT_EQ(out.n, 4);

    Message configs;
    configs.type = MsgType::kConfigs;
    configs.id = 3;
    configs.index = 16;
    configs.configs = {mixed_config(), {std::int64_t{1}}, {}};
    out = roundtrip(configs);
    EXPECT_EQ(out.type, MsgType::kConfigs);
    EXPECT_EQ(out.index, 16u);
    ASSERT_EQ(out.configs.size(), 3u);
    EXPECT_TRUE(configs_equal(out.configs[0], mixed_config()));
    EXPECT_TRUE(configs_equal(out.configs[1], {std::int64_t{1}}));
    EXPECT_TRUE(out.configs[2].empty());

    // An empty batch (budget exhausted) survives the round trip too.
    configs.configs.clear();
    out = roundtrip(configs);
    EXPECT_TRUE(out.configs.empty());
}

TEST(ServeProtocol, ObserveRoundtripPreservesExactValues)
{
    Message m;
    m.type = MsgType::kObserve;
    m.id = 5;
    m.session = "s";
    m.eval_seconds = 0.125;
    ObservedResult a;
    a.config = mixed_config();
    a.value = 1.0 / 3.0;  // requires %.17g exactness
    a.feasible = true;
    ObservedResult b;
    b.config = {std::int64_t{2}};
    b.value = 0.0;
    b.feasible = false;
    m.results = {a, b};

    Message out = roundtrip(m);
    EXPECT_EQ(out.type, MsgType::kObserve);
    EXPECT_DOUBLE_EQ(out.eval_seconds, 0.125);
    ASSERT_EQ(out.results.size(), 2u);
    EXPECT_TRUE(configs_equal(out.results[0].config, a.config));
    EXPECT_EQ(out.results[0].value, a.value);  // bit-exact
    EXPECT_TRUE(out.results[0].feasible);
    EXPECT_FALSE(out.results[1].feasible);
}

TEST(ServeProtocol, EvaluateResultRoundtrip)
{
    Message m;
    m.type = MsgType::kEvaluate;
    m.id = 77;
    m.benchmark = "SDDMM/email-Enron";
    m.seed = 123456789;
    m.index = 31;
    m.config = mixed_config();
    Message out = roundtrip(m);
    EXPECT_EQ(out.type, MsgType::kEvaluate);
    EXPECT_EQ(out.benchmark, "SDDMM/email-Enron");
    EXPECT_EQ(out.seed, 123456789u);
    EXPECT_EQ(out.index, 31u);
    EXPECT_TRUE(configs_equal(out.config, mixed_config()));

    Message r;
    r.type = MsgType::kResult;
    r.id = 77;
    r.value = 2.5e-3;
    r.feasible = false;
    r.eval_seconds = 0.001;
    out = roundtrip(r);
    EXPECT_EQ(out.type, MsgType::kResult);
    EXPECT_EQ(out.value, 2.5e-3);
    EXPECT_FALSE(out.feasible);
}

TEST(ServeProtocol, RemainingTypesRoundtrip)
{
    for (MsgType t : {MsgType::kCheckpoint, MsgType::kClose}) {
        Message m;
        m.type = t;
        m.id = 4;
        m.session = "sess";
        Message out = roundtrip(m);
        EXPECT_EQ(out.type, t);
        EXPECT_EQ(out.session, "sess");
    }
    Message run;
    run.type = MsgType::kRun;
    run.id = 6;
    run.session = "sess";
    run.n = 8;
    run.budget = 40;
    Message out = roundtrip(run);
    EXPECT_EQ(out.type, MsgType::kRun);
    EXPECT_EQ(out.n, 8);
    EXPECT_EQ(out.budget, 40);

    Message bye;
    bye.type = MsgType::kShutdown;
    out = roundtrip(bye);
    EXPECT_EQ(out.type, MsgType::kShutdown);
}

TEST(ServeProtocol, WorkerHelloAdvertisesHeartbeatInterval)
{
    Message hello;
    hello.type = MsgType::kHello;
    hello.text = "worker";
    hello.capacity = 2;
    hello.heartbeat_ms = 250;
    Message out = roundtrip(hello);
    EXPECT_EQ(out.heartbeat_ms, 250);

    // A beacon-less worker (heartbeat_ms 0) round-trips as 0, matching
    // pre-heartbeat peers whose hellos omit the field entirely.
    hello.heartbeat_ms = 0;
    out = roundtrip(hello);
    EXPECT_EQ(out.heartbeat_ms, 0);
}

TEST(ServeProtocol, HeartbeatRoundtripCarriesCompletedEvals)
{
    Message hb;
    hb.type = MsgType::kHeartbeat;
    hb.evals = 17;
    Message out = roundtrip(hb);
    EXPECT_EQ(out.type, MsgType::kHeartbeat);
    EXPECT_EQ(out.id, 0u);  // unsolicited: not a reply to any request
    EXPECT_EQ(out.evals, 17u);
}

TEST(ServeProtocol, EvaluateCarriesOptionalTraceContext)
{
    Message m;
    m.type = MsgType::kEvaluate;
    m.id = 9;
    m.benchmark = "SDDMM/email-Enron";
    m.config = mixed_config();
    m.trace_version = kTraceVersion;
    m.trace_run = "run-abc123";
    m.span_id = 42;
    Message out = roundtrip(m);
    EXPECT_EQ(out.trace_version, kTraceVersion);
    EXPECT_EQ(out.trace_run, "run-abc123");
    EXPECT_EQ(out.span_id, 42u);

    // Untraced evaluate: no context fields on the wire, decodes to 0.
    m.trace_version = 0;
    m.trace_run.clear();
    m.span_id = 0;
    std::string frame = encode(m);
    EXPECT_EQ(frame.find("tcv"), std::string::npos) << frame;
    out = roundtrip(m);
    EXPECT_EQ(out.trace_version, 0);
    EXPECT_TRUE(out.trace_run.empty());
}

TEST(ServeProtocol, ResultAndGoodbyeShipWorkerSpans)
{
    WireSpan s1;
    s1.name = "worker.evaluate";
    s1.category = "worker";
    s1.thread_id = 1;
    s1.start_us = 100;
    s1.duration_us = 2500;
    WireSpan s2;
    s2.name = "worker.idle";
    s2.category = "worker";
    s2.thread_id = 1;
    s2.start_us = 2600;
    s2.duration_us = 0;

    Message r;
    r.type = MsgType::kResult;
    r.id = 5;
    r.value = 1.25;
    r.spans = {s1, s2};
    Message out = roundtrip(r);
    ASSERT_EQ(out.spans.size(), 2u);
    EXPECT_EQ(out.spans[0].name, "worker.evaluate");
    EXPECT_EQ(out.spans[0].category, "worker");
    EXPECT_EQ(out.spans[0].start_us, 100u);
    EXPECT_EQ(out.spans[0].duration_us, 2500u);
    EXPECT_EQ(out.spans[1].name, "worker.idle");
    EXPECT_EQ(out.spans[1].duration_us, 0u);

    Message bye;
    bye.type = MsgType::kGoodbye;
    bye.evals = 31;
    bye.spans = {s1};
    out = roundtrip(bye);
    EXPECT_EQ(out.type, MsgType::kGoodbye);
    EXPECT_EQ(out.evals, 31u);
    ASSERT_EQ(out.spans.size(), 1u);
    EXPECT_EQ(out.spans[0].name, "worker.evaluate");

    // A span-less result emits no "spans" array at all.
    Message plain;
    plain.type = MsgType::kResult;
    plain.id = 6;
    plain.value = 0.5;
    EXPECT_EQ(encode(plain).find("spans"), std::string::npos);
}

TEST(ServeProtocol, StatsRequestRoundtrip)
{
    Message m;
    m.type = MsgType::kStats;
    m.id = 11;
    m.session = "sess";
    Message out = roundtrip(m);
    EXPECT_EQ(out.type, MsgType::kStats);
    EXPECT_EQ(out.id, 11u);
    EXPECT_EQ(out.session, "sess");

    // Empty session (the server-wide report request) survives too.
    m.session.clear();
    out = roundtrip(m);
    EXPECT_EQ(out.type, MsgType::kStats);
    EXPECT_TRUE(out.session.empty());
}

TEST(ServeProtocol, StatsReportRoundtripPreservesEntries)
{
    Message m;
    m.type = MsgType::kStatsReport;
    m.id = 12;
    m.session = "sess";

    StatEntry counter;
    counter.name = "serve.requests_total";
    counter.kind = "counter";
    counter.value = 1234;
    m.stats.push_back(counter);

    StatEntry gauge;
    gauge.name = "sessions.live";
    gauge.kind = "gauge";
    gauge.value = 3.5;
    m.stats.push_back(gauge);

    // The per-session latency shape the serve tests pin: count/sum plus
    // exact p50/p90/p99 doubles must survive the wire bit-for-bit.
    StatEntry hist;
    hist.name = "session.suggest_seconds";
    hist.kind = "histogram";
    hist.count = 42;
    hist.sum = 0.125;
    hist.p50 = 0.00170898437500012;
    hist.p90 = 0.0312;
    hist.p99 = 1.5e-3;
    m.stats.push_back(hist);

    Message out = roundtrip(m);
    EXPECT_EQ(out.type, MsgType::kStatsReport);
    EXPECT_EQ(out.stats_version, kStatsVersion);
    ASSERT_EQ(out.stats.size(), 3u);
    EXPECT_EQ(out.stats[0].name, "serve.requests_total");
    EXPECT_EQ(out.stats[0].kind, "counter");
    EXPECT_DOUBLE_EQ(out.stats[0].value, 1234.0);
    EXPECT_EQ(out.stats[1].kind, "gauge");
    EXPECT_DOUBLE_EQ(out.stats[1].value, 3.5);
    EXPECT_EQ(out.stats[2].kind, "histogram");
    EXPECT_EQ(out.stats[2].count, 42u);
    EXPECT_DOUBLE_EQ(out.stats[2].sum, 0.125);
    EXPECT_DOUBLE_EQ(out.stats[2].p50, 0.00170898437500012);
    EXPECT_DOUBLE_EQ(out.stats[2].p90, 0.0312);
    EXPECT_DOUBLE_EQ(out.stats[2].p99, 1.5e-3);

    // An empty report (a fresh server) round-trips as well.
    Message empty;
    empty.type = MsgType::kStatsReport;
    empty.id = 13;
    out = roundtrip(empty);
    EXPECT_EQ(out.type, MsgType::kStatsReport);
    EXPECT_TRUE(out.stats.empty());
}

TEST(ServeProtocol, StatsReportNonFiniteValuesSurvive)
{
    Message m;
    m.type = MsgType::kStatsReport;
    m.id = 14;
    StatEntry e;
    e.name = "weird";
    e.kind = "gauge";
    e.value = std::numeric_limits<double>::infinity();
    m.stats.push_back(e);
    Message out = roundtrip(m);
    ASSERT_EQ(out.stats.size(), 1u);
    EXPECT_TRUE(std::isinf(out.stats[0].value));
}

TEST(ServeProtocol, MalformedStatsFramesAreRejected)
{
    Message out;
    std::string err;
    // stats_report requires the version field.
    EXPECT_FALSE(decode("{\"type\":\"stats_report\",\"id\":1,"
                        "\"stats\":[]}",
                        out, &err));
    // Truncated entry array.
    EXPECT_FALSE(decode("{\"type\":\"stats_report\",\"id\":1,\"sv\":1,"
                        "\"stats\":[{\"name\":\"x\",\"kind\":\"counter\"",
                        out, &err));
    // Negative histogram count.
    EXPECT_FALSE(decode(
        "{\"type\":\"stats_report\",\"id\":1,\"sv\":1,\"stats\":"
        "[{\"name\":\"x\",\"kind\":\"histogram\",\"value\":0,"
        "\"count\":-4,\"sum\":0,\"p50\":0,\"p90\":0,\"p99\":0}]}",
        out, &err));
}

TEST(ServeProtocol, ErrorTextIsSanitizedForFraming)
{
    Message m = make_error(1, "bad \"quote\" and\nnewline");
    std::string frame = encode(m);
    EXPECT_EQ(frame.find('\n'), std::string::npos);
    Message out;
    ASSERT_TRUE(decode(frame, out));
    EXPECT_EQ(out.text, "bad 'quote' and newline");
}

TEST(ServeProtocol, MalformedFramesAreRejected)
{
    Message out;
    std::string err;
    EXPECT_FALSE(decode("", out, &err));
    EXPECT_FALSE(decode("this is not json", out, &err));
    EXPECT_FALSE(decode("{\"no_type\":1}", out, &err));
    EXPECT_FALSE(decode("{\"type\":\"martian\"}", out, &err));
    EXPECT_FALSE(err.empty());
    // Required fields missing.
    EXPECT_FALSE(decode("{\"type\":\"suggest\",\"id\":1}", out, &err));
    EXPECT_FALSE(decode("{\"type\":\"evaluate\",\"id\":1,"
                        "\"benchmark\":\"x\",\"seed\":1,\"index\":0}",
                        out, &err));
    // Truncated nested arrays.
    EXPECT_FALSE(decode("{\"type\":\"configs\",\"id\":1,\"first_index\":0,"
                        "\"configs\":[[{\"i\":3}",
                        out, &err));
    EXPECT_FALSE(decode("{\"type\":\"observe\",\"id\":1,\"session\":\"s\","
                        "\"results\":[{\"config\":[{\"i\":3}],\"value\":1}]}",
                        out, &err));
    // Present optional fields that fail their typed read: never a silent
    // zero, false or numeric prefix.
    for (const char* frame : {
             "{\"type\":\"open_session\",\"id\":1,\"session\":\"s\","
             "\"benchmark\":\"b\",\"budget\":\"x\"}",
             "{\"type\":\"open_session\",\"id\":1,\"session\":\"s\","
             "\"benchmark\":\"b\",\"budget\":12x}",
             "{\"type\":\"open_session\",\"id\":1,\"session\":\"s\","
             "\"benchmark\":\"b\",\"seed\":-3}",
             "{\"type\":\"run\",\"id\":1,\"session\":\"s\",\"async\":yes}",
             "{\"type\":\"suggest\",\"id\":\"7q\",\"session\":\"s\",\"n\":1}",
             "{\"type\":\"suggest\",\"id\":\"7\",\"session\":\"s\",\"n\":1}",
             "{\"type\":\"suggest\",\"id\":1,\"session\":5,\"n\":1}",
             "{\"type\":\"observe\",\"id\":1,\"session\":\"s\","
             "\"eval_seconds\":\"0.5\",\"results\":[]}",
             "{\"type\":\"ok\",\"id\":1,\"best\":1.5.2}",
             "{\"type\":\"hello\",\"v\":1,\"capacity\":two}",
             "{\"type\":\"error\",\"id\":1,\"code\":busy}",
             "{\"type\":\"evaluate\",\"id\":1,\"benchmark\":\"x\","
             "\"seed\":1,\"index\":0,\"tcv\":v1,\"config\":[]}",
             "{\"type\":\"result\",\"id\":1,\"value\":1,\"feasible\":true,"
             "\"spans\":[{\"name\":\"w\",\"cat\":\"w\",\"tid\":1,"
             "\"ts\":1.5,\"dur\":0}]}",
         }) {
        EXPECT_FALSE(decode(frame, out, &err)) << frame;
    }
}

TEST(ServeProtocol, IntFieldsOutOfRangeAreRejected)
{
    Message out;
    std::string err;
    // 2^32 + 1 and -(2^32 - 1) both wrap to n = 1 when narrowed, which
    // would slip a huge batch under the kMaxBatch cap.
    for (const char* n : {"4294967297", "-4294967295", "2147483648",
                          "99999999999999999999"}) {
        std::string frame = "{\"type\":\"suggest\",\"id\":1,"
                            "\"session\":\"s\",\"n\":" +
                            std::string(n) + "}";
        EXPECT_FALSE(decode(frame, out, &err)) << frame;
    }
    EXPECT_FALSE(decode("{\"type\":\"suggest\",\"id\":18446744073709551616,"
                        "\"session\":\"s\",\"n\":1}",
                        out, &err));
    // The extremes that do fit are read exactly.
    ASSERT_TRUE(decode("{\"type\":\"suggest\",\"id\":18446744073709551615,"
                       "\"session\":\"s\",\"n\":-2147483648}",
                       out, &err))
        << err;
    EXPECT_EQ(out.id, 18446744073709551615ULL);
    EXPECT_EQ(out.n, std::numeric_limits<int>::min());
}

TEST(ServeProtocol, OnlyTopLevelKeysCount)
{
    Message out;
    std::string err;
    // A key nested inside an unknown field never shadows the frame's own.
    ASSERT_TRUE(decode("{\"type\":\"suggest\",\"id\":1,"
                       "\"extra\":{\"session\":\"evil\",\"n\":[9]},"
                       "\"session\":\"s\",\"n\":1}",
                       out, &err))
        << err;
    EXPECT_EQ(out.session, "s");
    EXPECT_EQ(out.n, 1);
    // Nor does a nested key stand in for a missing top-level one.
    EXPECT_FALSE(decode("{\"type\":\"suggest\",\"id\":1,"
                        "\"extra\":{\"session\":\"s\"},\"n\":1}",
                        out, &err));
    // Strings inside an unknown value may hold brackets, commas and
    // escaped quotes without breaking the skip.
    ASSERT_TRUE(decode("{\"type\":\"close\",\"id\":2,"
                       "\"note\":[\"a]b\",\"c\\\"}d\",{\"e\":\",\"}],"
                       "\"session\":\"s\"}",
                       out, &err))
        << err;
    EXPECT_EQ(out.session, "s");
}

/** A frame of type t with the request id most pins share. */
Message
frame(MsgType t, std::uint64_t id = 7)
{
    Message m;
    m.type = t;
    m.id = id;
    return m;
}

WireSpan
pinned_span()
{
    WireSpan s;
    s.name = "worker.evaluate";
    s.category = "worker";
    s.thread_id = 1;
    s.start_us = 100;
    s.duration_us = 2500;
    return s;
}

/**
 * One literal frame per message type, optional fields both set and
 * unset: the exact bytes every peer of this protocol sees.
 */
std::vector<std::pair<Message, std::string>>
pinned_frames()
{
    const std::string cfg = "[{\"i\":8},{\"r\":0.375},{\"p\":[2,0,1]}]";
    std::vector<std::pair<Message, std::string>> pins;
    auto pin = [&](const Message& m, const std::string& bytes) {
        pins.emplace_back(m, bytes);
    };

    Message m = frame(MsgType::kHello, 0);
    pin(m, "{\"type\":\"hello\",\"v\":1,\"role\":\"client\"}");
    m.text = "worker";
    m.capacity = 3;
    m.heartbeat_ms = 250;
    pin(m, "{\"type\":\"hello\",\"v\":1,\"role\":\"worker\",\"capacity\":3,"
           "\"heartbeat_ms\":250}");

    pin(frame(MsgType::kWelcome, 0), "{\"type\":\"welcome\",\"v\":1}");

    m = frame(MsgType::kOpenSession, 42);
    m.session = "exp-1";
    m.benchmark = "SpMM/scircuit";
    m.method = "BaCO";
    m.budget = 60;
    m.doe = 10;
    m.seed = 7;
    m.resume = true;
    pin(m, "{\"type\":\"open_session\",\"id\":42,\"session\":\"exp-1\","
           "\"benchmark\":\"SpMM/scircuit\",\"method\":\"BaCO\","
           "\"budget\":60,\"doe\":10,\"seed\":7,\"resume\":true}");

    m = frame(MsgType::kOpened);
    m.session = "s";
    m.evals = 12;
    m.budget = 30;
    pin(m, "{\"type\":\"opened\",\"id\":7,\"session\":\"s\",\"evals\":12,"
           "\"budget\":30,\"resumed\":false}");

    m = frame(MsgType::kSuggest, 3);
    m.session = "s";
    m.n = 4;
    pin(m, "{\"type\":\"suggest\",\"id\":3,\"session\":\"s\",\"n\":4}");

    m = frame(MsgType::kConfigs, 3);
    m.index = 16;
    m.configs = {mixed_config(), {}};
    pin(m, "{\"type\":\"configs\",\"id\":3,\"first_index\":16,\"configs\":[" +
               cfg + ",[]]}");
    m.configs.clear();
    pin(m, "{\"type\":\"configs\",\"id\":3,\"first_index\":16,"
           "\"configs\":[]}");

    m = frame(MsgType::kObserve, 5);
    m.session = "s";
    m.eval_seconds = 0.125;
    m.results = {ObservedResult{mixed_config(), 0.5, true},
                 ObservedResult{{std::int64_t{2}},
                                std::numeric_limits<double>::infinity(),
                                false}};
    pin(m, "{\"type\":\"observe\",\"id\":5,\"session\":\"s\","
           "\"eval_seconds\":0.125,\"results\":[{\"config\":" +
               cfg +
               ",\"value\":0.5,\"feasible\":true},{\"config\":[{\"i\":2}],"
               "\"value\":\"inf\",\"feasible\":false}]}");

    m = frame(MsgType::kOk, 8);
    m.evals = 13;
    pin(m, "{\"type\":\"ok\",\"id\":8,\"evals\":13,\"best\":\"inf\"}");
    m.best = 1.0625;
    m.text = "/tmp/s.ckpt.jsonl";
    pin(m, "{\"type\":\"ok\",\"id\":8,\"evals\":13,\"best\":1.0625,"
           "\"path\":\"/tmp/s.ckpt.jsonl\"}");

    m = frame(MsgType::kCheckpoint, 4);
    m.session = "sess";
    pin(m, "{\"type\":\"checkpoint\",\"id\":4,\"session\":\"sess\"}");
    m.type = MsgType::kClose;
    pin(m, "{\"type\":\"close\",\"id\":4,\"session\":\"sess\"}");

    m = frame(MsgType::kRun, 6);
    m.session = "sess";
    m.n = 8;
    m.budget = 40;
    m.async = true;
    pin(m, "{\"type\":\"run\",\"id\":6,\"session\":\"sess\",\"n\":8,"
           "\"budget\":40,\"async\":true}");

    m = frame(MsgType::kDone, 9);
    m.evals = 60;
    m.best = 0.5;
    pin(m, "{\"type\":\"done\",\"id\":9,\"evals\":60,\"best\":0.5}");

    m = frame(MsgType::kEvaluate, 77);
    m.benchmark = "SDDMM/email-Enron";
    m.seed = 123;
    m.index = 31;
    m.config = mixed_config();
    pin(m, "{\"type\":\"evaluate\",\"id\":77,"
           "\"benchmark\":\"SDDMM/email-Enron\",\"seed\":123,\"index\":31,"
           "\"config\":" + cfg + "}");
    m.run = 2;
    m.trace_version = kTraceVersion;
    m.trace_run = "run-abc";
    m.span_id = 42;
    pin(m, "{\"type\":\"evaluate\",\"id\":77,"
           "\"benchmark\":\"SDDMM/email-Enron\",\"seed\":123,\"index\":31,"
           "\"run\":2,\"tcv\":1,\"trace\":\"run-abc\",\"span\":42,"
           "\"config\":" + cfg + "}");

    m = frame(MsgType::kResult, 77);
    m.index = 31;
    m.value = 1.25;
    m.feasible = false;
    m.eval_seconds = 0.5;
    pin(m, "{\"type\":\"result\",\"id\":77,\"index\":31,\"value\":1.25,"
           "\"feasible\":false,\"eval_seconds\":0.5,\"evals\":0,"
           "\"best\":\"inf\"}");
    m.evals = 3;
    m.best = 0.75;
    m.run = 2;
    m.trace_version = kTraceVersion;
    m.trace_run = "run-abc";
    m.span_id = 42;
    m.spans = {pinned_span()};
    pin(m, "{\"type\":\"result\",\"id\":77,\"index\":31,\"value\":1.25,"
           "\"feasible\":false,\"eval_seconds\":0.5,\"evals\":3,"
           "\"best\":0.75,\"run\":2,\"tcv\":1,\"trace\":\"run-abc\","
           "\"span\":42,\"spans\":[{\"name\":\"worker.evaluate\","
           "\"cat\":\"worker\",\"tid\":1,\"ts\":100,\"dur\":2500}]}");

    m = frame(MsgType::kStats, 11);
    m.session = "sess";
    pin(m, "{\"type\":\"stats\",\"id\":11,\"session\":\"sess\"}");

    m = frame(MsgType::kStatsReport, 12);
    m.session = "sess";
    StatEntry counter;
    counter.name = "serve.requests_total";
    counter.value = 1234;
    StatEntry hist;
    hist.name = "h";
    hist.kind = "histogram";
    hist.count = 42;
    hist.sum = 0.125;
    hist.p50 = 0.5;
    hist.p90 = 0.75;
    hist.p99 = std::numeric_limits<double>::infinity();
    m.stats = {counter, hist};
    pin(m, "{\"type\":\"stats_report\",\"id\":12,\"session\":\"sess\","
           "\"sv\":1,\"stats\":[{\"name\":\"serve.requests_total\","
           "\"kind\":\"counter\",\"value\":1234,\"count\":0,\"sum\":0,"
           "\"p50\":0,\"p90\":0,\"p99\":0},{\"name\":\"h\","
           "\"kind\":\"histogram\",\"value\":0,\"count\":42,\"sum\":0.125,"
           "\"p50\":0.5,\"p90\":0.75,\"p99\":\"inf\"}]}");

    m = frame(MsgType::kHeartbeat, 0);
    m.evals = 17;
    pin(m, "{\"type\":\"heartbeat\",\"id\":0,\"evals\":17}");
    m.run = 3;
    pin(m, "{\"type\":\"heartbeat\",\"id\":0,\"evals\":17,\"run\":3}");

    m = frame(MsgType::kGoodbye, 0);
    m.evals = 31;
    pin(m, "{\"type\":\"goodbye\",\"id\":0,\"evals\":31}");
    m.run = 3;
    m.spans = {pinned_span()};
    pin(m, "{\"type\":\"goodbye\",\"id\":0,\"evals\":31,\"run\":3,"
           "\"spans\":[{\"name\":\"worker.evaluate\",\"cat\":\"worker\","
           "\"tid\":1,\"ts\":100,\"dur\":2500}]}");

    pin(frame(MsgType::kShutdown, 0), "{\"type\":\"shutdown\"}");

    m = make_error(11, "something broke");
    pin(m, "{\"type\":\"error\",\"id\":11,\"message\":\"something broke\"}");
    m.text = "bad \"quote\"\\path\nline";
    m.code = "busy";
    pin(m, "{\"type\":\"error\",\"id\":11,"
           "\"message\":\"bad 'quote'/path line\",\"code\":\"busy\"}");
    return pins;
}

TEST(ServeProtocol, EncodedBytesArePinnedForEveryFrameType)
{
    std::vector<bool> seen(static_cast<int>(MsgType::kError) + 1, false);
    for (const auto& [m, bytes] : pinned_frames()) {
        EXPECT_EQ(encode(m), bytes);
        seen[static_cast<int>(m.type)] = true;
        // Decoding the pinned bytes and encoding again is the identity.
        Message out;
        std::string err;
        ASSERT_TRUE(decode(bytes, out, &err)) << bytes << " : " << err;
        EXPECT_EQ(encode(out), bytes);
    }
    for (std::size_t t = 0; t < seen.size(); ++t)
        EXPECT_TRUE(seen[t]) << "no pinned frame for type " << t;
}

TEST(ServeTransport, LoopbackPairDeliversBothDirections)
{
    auto [a, b] = loopback_pair();
    ASSERT_TRUE(a->send("ping"));
    std::string line;
    ASSERT_EQ(b->recv(line, 1000), RecvStatus::kOk);
    EXPECT_EQ(line, "ping");
    ASSERT_TRUE(b->send("pong"));
    ASSERT_EQ(a->recv(line, 1000), RecvStatus::kOk);
    EXPECT_EQ(line, "pong");

    EXPECT_EQ(a->recv(line, 10), RecvStatus::kTimeout);
    b->close();
    EXPECT_EQ(a->recv(line, 1000), RecvStatus::kClosed);
    EXPECT_FALSE(a->send("into the void"));
}

TEST(ServeTransport, LoopbackDrainsQueuedFramesAfterClose)
{
    auto [a, b] = loopback_pair();
    ASSERT_TRUE(a->send("one"));
    ASSERT_TRUE(a->send("two"));
    a->close();
    std::string line;
    // Already-queued frames are still deliverable after the close.
    EXPECT_EQ(b->recv(line, 100), RecvStatus::kOk);
    EXPECT_EQ(line, "one");
    EXPECT_EQ(b->recv(line, 100), RecvStatus::kOk);
    EXPECT_EQ(line, "two");
    EXPECT_EQ(b->recv(line, 100), RecvStatus::kClosed);
}

TEST(ServeTransport, PipePairFramesLines)
{
    auto [a, b] = pipe_pair();
    ASSERT_TRUE(a);
    ASSERT_TRUE(b);
    // Protocol frames cross the fd boundary intact, including several
    // queued at once.
    Message m;
    m.type = MsgType::kEvaluate;
    m.id = 9;
    m.benchmark = "bench";
    m.seed = 3;
    m.index = 7;
    m.config = mixed_config();
    ASSERT_TRUE(a->send(encode(m)));
    ASSERT_TRUE(a->send("second"));
    std::string line;
    ASSERT_EQ(b->recv(line, 2000), RecvStatus::kOk);
    Message out;
    ASSERT_TRUE(decode(line, out));
    EXPECT_TRUE(configs_equal(out.config, mixed_config()));
    ASSERT_EQ(b->recv(line, 2000), RecvStatus::kOk);
    EXPECT_EQ(line, "second");

    EXPECT_EQ(b->recv(line, 10), RecvStatus::kTimeout);
    a->close();
    EXPECT_EQ(b->recv(line, 2000), RecvStatus::kClosed);
}

TEST(ServeTransport, ConcurrentSendersInterleaveWholeFrames)
{
    auto [a, b] = loopback_pair();
    const int kPerThread = 200;
    std::thread t1([&] {
        for (int i = 0; i < kPerThread; ++i)
            a->send("t1-" + std::to_string(i));
    });
    std::thread t2([&] {
        for (int i = 0; i < kPerThread; ++i)
            a->send("t2-" + std::to_string(i));
    });
    int received = 0;
    int next1 = 0;
    int next2 = 0;
    std::string line;
    while (received < 2 * kPerThread &&
           b->recv(line, 2000) == RecvStatus::kOk) {
        ++received;
        // Per-sender FIFO order is preserved.
        if (line.rfind("t1-", 0) == 0)
            EXPECT_EQ(line, "t1-" + std::to_string(next1++));
        else
            EXPECT_EQ(line, "t2-" + std::to_string(next2++));
    }
    t1.join();
    t2.join();
    EXPECT_EQ(received, 2 * kPerThread);
    EXPECT_EQ(next1, kPerThread);
    EXPECT_EQ(next2, kPerThread);
}

}  // namespace
}  // namespace baco::serve
