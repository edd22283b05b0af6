// The trace-event sink: disabled-by-default, fixed JSONL schema, bounded
// ring, chrome://tracing export.  docs/OBSERVABILITY.md documents the
// formats these tests pin down.
#include <gtest/gtest.h>

#include <sstream>

#include "support/trace.hpp"

namespace dynmpi::support {
namespace {

TEST(Trace, DisabledSinkRecordsNothing) {
    TraceSink s;
    EXPECT_FALSE(s.enabled());
    s.instant(1.0, 0, "runtime.grace_enter");
    s.span(1.0, 2.0, 1, "redist.pack");
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.jsonl(), "");
}

TEST(Trace, EnableClearsAndRecords) {
    TraceSink s;
    s.enable();
    s.instant(0.5, 2, "runtime.load_change");
    EXPECT_EQ(s.size(), 1u);
    s.enable(); // re-enable wipes the buffer
    EXPECT_EQ(s.size(), 0u);
}

TEST(Trace, JsonlFixedKeyOrderAndFormat) {
    TraceSink s;
    s.enable();
    s.instant(1.25, 3, "runtime.grace_enter",
              {targ("cycle", 7), targ("grace_cycles", 5)});
    std::string line = s.jsonl();
    EXPECT_EQ(line,
              "{\"t\":1.250000000,\"rank\":3,\"ev\":\"runtime.grace_enter\","
              "\"args\":{\"cycle\":7,\"grace_cycles\":5}}\n");
}

TEST(Trace, SpanCarriesDuration) {
    TraceSink s;
    s.enable();
    s.span(1.0, 1.5, 0, "redist.pack", {targ("bytes", std::uint64_t{4096})});
    std::string line = s.jsonl();
    EXPECT_NE(line.find("\"dur\":0.500000000"), std::string::npos);
    EXPECT_NE(line.find("\"bytes\":4096"), std::string::npos);
}

TEST(Trace, StringArgsAreQuotedAndEscaped) {
    TraceSink s;
    s.enable();
    s.instant(0.0, 0, "runtime.skipped",
              {targ("detail", std::string("a \"b\"\nc"))});
    std::string line = s.jsonl();
    EXPECT_NE(line.find("\"detail\":\"a \\\"b\\\"\\nc\""), std::string::npos);
}

TEST(Trace, BoolAndDoubleArgs) {
    TraceSink s;
    s.enable();
    s.instant(0.0, 0, "runtime.removal_eval",
              {targ("drop", true), targ("predicted_unloaded_s", 0.125)});
    std::string line = s.jsonl();
    EXPECT_NE(line.find("\"drop\":true"), std::string::npos);
    EXPECT_NE(line.find("\"predicted_unloaded_s\":0.125"), std::string::npos);
}

TEST(Trace, ExportSortsByTimeStably) {
    TraceSink s;
    s.enable();
    s.instant(2.0, 0, "b");
    s.instant(1.0, 0, "a");
    s.instant(2.0, 1, "c"); // same time as "b": record order must hold
    auto evs = s.sorted_events();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].name, "a");
    EXPECT_EQ(evs[1].name, "b");
    EXPECT_EQ(evs[2].name, "c");
}

TEST(Trace, RingDropsOldestAndCounts) {
    TraceSink s;
    s.enable(/*capacity=*/4);
    for (int i = 0; i < 10; ++i)
        s.instant(static_cast<double>(i), 0, "ev", {targ("i", i)});
    EXPECT_EQ(s.size(), 4u);
    EXPECT_EQ(s.dropped(), 6u);
    auto evs = s.sorted_events();
    EXPECT_DOUBLE_EQ(evs.front().time_s, 6.0); // 0..5 were dropped
}

TEST(Trace, ExportsReportDroppedEvents) {
    TraceSink s;
    s.enable(/*capacity=*/2);
    for (int i = 0; i < 5; ++i)
        s.instant(0.5 * i, 0, "runtime.grace_enter", {targ("cycle", i)});
    ASSERT_EQ(s.dropped(), 3u);
    // The two survivors, then the loss stamped at the last one's time.
    EXPECT_EQ(s.jsonl(),
              "{\"t\":1.500000000,\"rank\":0,\"ev\":\"runtime.grace_enter\","
              "\"args\":{\"cycle\":3}}\n"
              "{\"t\":2.000000000,\"rank\":0,\"ev\":\"runtime.grace_enter\","
              "\"args\":{\"cycle\":4}}\n"
              "{\"t\":2.000000000,\"rank\":-1,\"ev\":\"trace.dropped\","
              "\"args\":{\"count\":3}}\n");
    EXPECT_NE(s.chrome_trace().find("{\"name\":\"trace.dropped\",\"ph\":\"i\""
                                    ",\"s\":\"t\",\"ts\":2000000.000,"
                                    "\"pid\":0,\"tid\":-1,\"args\":{\"count\":3}}"),
              std::string::npos);
    EXPECT_EQ(s.sorted_events().size(), 2u); // the buffer itself is intact
}

TEST(Trace, LosslessExportsCarryNoDropEvent) {
    TraceSink s;
    s.enable(/*capacity=*/2);
    s.instant(0.0, 0, "runtime.grace_enter", {targ("cycle", 0)});
    s.instant(1.0, 0, "runtime.grace_enter", {targ("cycle", 1)});
    EXPECT_EQ(s.dropped(), 0u);
    EXPECT_EQ(s.jsonl().find("trace.dropped"), std::string::npos);
    EXPECT_EQ(s.chrome_trace().find("trace.dropped"), std::string::npos);
}

TEST(Trace, ByteIdenticalAcrossIdenticalRecordings) {
    auto run = [] {
        TraceSink s;
        s.enable();
        s.instant(0.25, 0, "runtime.load_change", {targ("cycle", 3)});
        s.span(0.25, 0.75, 1, "redist.pack", {targ("rows", 42)});
        return s.jsonl();
    };
    EXPECT_EQ(run(), run());
}

TEST(Trace, ChromeTraceShape) {
    TraceSink s;
    s.enable();
    s.instant(1.0, 2, "runtime.grace_enter", {targ("cycle", 1)});
    s.span(1.0, 2.0, 0, "runtime.cycle");
    std::string j = s.chrome_trace();
    EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos); // instant
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos); // complete span
    EXPECT_NE(j.find("\"tid\":2"), std::string::npos);    // one track per rank
    // 1 s  ->  1e6 µs
    EXPECT_NE(j.find("\"dur\":1000000.000"), std::string::npos);
}

TEST(Trace, JsonEscape) {
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("q\"b\\s"), "q\\\"b\\\\s");
    EXPECT_EQ(json_escape("tab\tnl\n"), "tab\\tnl\\n");
    EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Trace, JsonNumberIsCompactAndDeterministic) {
    EXPECT_EQ(json_number(0.5), "0.5");
    EXPECT_EQ(json_number(3.0), "3");
    EXPECT_EQ(json_number(0.1), json_number(0.1));
}

TEST(Trace, GlobalSinkSingleton) {
    TraceSink& a = trace();
    TraceSink& b = trace();
    EXPECT_EQ(&a, &b);
    // Leave the global sink untouched for other tests.
    EXPECT_FALSE(a.enabled());
}

}  // namespace
}  // namespace dynmpi::support
