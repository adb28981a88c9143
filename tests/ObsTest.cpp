//===- tests/ObsTest.cpp - Observability subsystem tests ---------------------===//
//
// Pins the obs subsystem's external contracts: the Chrome trace_event
// JSON schema (event names, ph/ts/tid fields and the exact empty-trace
// serialization), well-formed span nesting, the aggregated metrics
// table with its bounded memory and bucketed percentiles, exact
// counters under concurrency, and — the zero-cost-when-off guarantee —
// that a full pipeline run at ObsLevel::Off records no span at all.
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "driver/Pipeline.h"
#include "frontend/Parser.h"
#include "ir/Normalize.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"
#include "support/Json.h"

#include "TestPrograms.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <malloc.h>
#include <map>
#include <sstream>
#include <thread>

using namespace alf;

namespace {

const char *JacobiSource = R"(
region R : [1..12, 1..12];
array U, Unew : R;
array Res : R temp;
scalar maxres;

[R] Res  := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * 0.25 - U;
[R] Unew := U + Res * 0.8;
[R] maxres := max << abs(Res);
)";

std::unique_ptr<ir::Program> parseJacobi() {
  frontend::ParseResult R = frontend::parseProgram(JacobiSource, "<test>");
  EXPECT_TRUE(R.succeeded());
  return std::move(R.Prog);
}

/// Runs the whole pipeline (compile + execute) once.
exec::RunResult runPipelineOnce(xform::ExecMode Mode) {
  auto P = parseJacobi();
  driver::Pipeline PL(*P, driver::PipelineOptions());
  driver::CompileStatus St =
      PL.tryCompile(driver::CompileRequest{xform::Strategy::C2F3, Mode});
  EXPECT_TRUE(St.ok()) << St.Message;
  return St.Artifact->run(7);
}

class ObsTest : public ::testing::Test {
protected:
  void SetUp() override { obs::reset(); }
  void TearDown() override { obs::reset(); }
};

//===----------------------------------------------------------------------===//
// Levels
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, LevelNamesRoundTrip) {
  for (obs::ObsLevel L : {obs::ObsLevel::Off, obs::ObsLevel::Counters,
                          obs::ObsLevel::Trace})
    EXPECT_EQ(obs::obsLevelNamed(obs::getObsLevelName(L)), L);
  EXPECT_FALSE(obs::obsLevelNamed("verbose").has_value());
}

TEST_F(ObsTest, ScopedLevelRestores) {
  obs::ObsLevel Before = obs::level();
  {
    obs::ScopedLevel Scoped(obs::ObsLevel::Trace);
    EXPECT_EQ(obs::level(), obs::ObsLevel::Trace);
  }
  EXPECT_EQ(obs::level(), Before);
}

//===----------------------------------------------------------------------===//
// ObsLevel::Off records nothing (zero-cost-when-off contract)
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, OffRecordsZeroEventsAcrossFullPipelineRun) {
  obs::ScopedLevel Scoped(obs::ObsLevel::Off);
  runPipelineOnce(xform::ExecMode::Sequential);
  runPipelineOnce(xform::ExecMode::Parallel);
  EXPECT_EQ(obs::numTraceEvents(), 0u);
  EXPECT_TRUE(obs::metricsTable().empty());
  EXPECT_EQ(obs::numDroppedEvents(), 0u);
}

TEST_F(ObsTest, OffSpanIsInert) {
  obs::ScopedLevel Scoped(obs::ObsLevel::Off);
  obs::Span S("test.span");
  EXPECT_FALSE(S.active());
}

TEST_F(ObsTest, CountersAggregatesWithoutStoringEvents) {
  obs::ScopedLevel Scoped(obs::ObsLevel::Counters);
  runPipelineOnce(xform::ExecMode::Sequential);
  EXPECT_EQ(obs::numTraceEvents(), 0u) << "Counters must not store events";
  EXPECT_FALSE(obs::metricsTable().empty());
  EXPECT_TRUE(obs::metricsFor("pipeline.execute").has_value());
}

//===----------------------------------------------------------------------===//
// Golden: Chrome trace JSON schema
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, EmptyTraceGolden) {
  std::ostringstream OS;
  obs::writeChromeTrace(OS);
  // Golden-pinned: the exact serialization of an empty trace. A change
  // here is a format break every stored trace consumer will see.
  EXPECT_EQ(OS.str(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

TEST_F(ObsTest, ChromeTraceSchemaGolden) {
  {
    obs::ScopedLevel Scoped(obs::ObsLevel::Trace);
    runPipelineOnce(xform::ExecMode::Sequential);
    ALF_COUNTER(Marker, "test.marker", "A traced test event");
    obs::instant(Marker, "detail text");
  }
  std::ostringstream OS;
  obs::writeChromeTrace(OS);

  std::string Error;
  std::optional<json::Value> Root = json::parse(OS.str(), &Error);
  ASSERT_TRUE(Root.has_value()) << "trace is not valid JSON: " << Error;

  // Top-level object layout.
  ASSERT_TRUE(Root->isObject());
  EXPECT_EQ(Root->getString("displayTimeUnit").value_or(""), "ms");
  const json::Value *Events = Root->get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_GT(Events->size(), 0u);

  // Per-event schema: names, ph/ts/tid fields and types.
  std::map<std::string, unsigned> NameCounts;
  for (const json::Value &E : Events->items()) {
    ASSERT_TRUE(E.isObject());
    ASSERT_TRUE(E.getString("name").has_value());
    EXPECT_EQ(E.getString("cat").value_or(""), "alf");
    std::string Ph = E.getString("ph").value_or("");
    EXPECT_TRUE(Ph == "X" || Ph == "i") << "unexpected phase " << Ph;
    ASSERT_TRUE(E.getNumber("ts").has_value());
    EXPECT_GE(*E.getNumber("ts"), 0.0);
    ASSERT_TRUE(E.getNumber("dur").has_value());
    EXPECT_EQ(E.getNumber("pid").value_or(-1), 1.0);
    ASSERT_TRUE(E.getNumber("tid").has_value());
    const json::Value *Args = E.get("args");
    ASSERT_NE(Args, nullptr);
    ASSERT_TRUE(Args->getNumber("depth").has_value());
    if (Ph == "i") {
      EXPECT_EQ(E.getNumber("dur").value_or(-1), 0.0);
      EXPECT_EQ(E.getString("s").value_or(""), "t");
    }
    // Interpreter nests share one row; the trace names the cluster.
    if (*E.getString("name") == "kernel.nest") {
      std::string Cluster = Args->getString("detail").value_or("");
      EXPECT_FALSE(Cluster.empty()) << "kernel.nest without a cluster id";
      EXPECT_EQ(Cluster.find_first_not_of("0123456789"), std::string::npos)
          << Cluster;
    }
    ++NameCounts[*E.getString("name")];
  }

  // The pinned event names a sequential pipeline run must produce.
  for (const char *Required :
       {"pipeline.normalize", "pipeline.asdg", "pipeline.strategy",
        "pipeline.scalarize", "pipeline.execute", "exec.interpreter",
        "kernel.nest", "test.marker"})
    EXPECT_TRUE(NameCounts.count(Required))
        << "missing required event " << Required;
  // The always-on storage counters are registered even while they read 0.
  for (const char *Required :
       {"exec.storage.bytes_copied", "exec.storage.slab_bytes"})
    EXPECT_TRUE(obs::metricsFor(Required).has_value())
        << "missing required counter " << Required;
  // ALF_VERIFY=full is exported by ctest, so verification spans fire too.
  EXPECT_TRUE(NameCounts.count("pipeline.verify"));
}

TEST_F(ObsTest, TraceFileIsChromeLoadable) {
  {
    obs::ScopedLevel Scoped(obs::ObsLevel::Trace);
    runPipelineOnce(xform::ExecMode::Sequential);
  }
  std::string Path = ::testing::TempDir() + "/alf_obs_test_trace.json";
  ASSERT_TRUE(obs::writeChromeTraceFile(Path));
  std::ifstream In(Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  EXPECT_TRUE(json::parse(Buf.str(), &Error).has_value()) << Error;
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Span nesting
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, SpanNestingWellFormed) {
  {
    obs::ScopedLevel Scoped(obs::ObsLevel::Trace);
    runPipelineOnce(xform::ExecMode::Sequential);
  }
  std::vector<obs::TraceEvent> Events = obs::traceEvents();
  ASSERT_FALSE(Events.empty());

  // Per thread, replay the complete ('X') events as an interval forest:
  // a child (greater depth) must lie within its parent's [start, end],
  // and depths may only grow one level at a time downward.
  std::map<unsigned, std::vector<const obs::TraceEvent *>> PerThread;
  for (const obs::TraceEvent &E : Events)
    if (E.Ph == 'X')
      PerThread[E.Tid].push_back(&E);

  for (auto &[Tid, Tev] : PerThread) {
    // Events are recorded at span *end*; sort by start for the replay.
    std::sort(Tev.begin(), Tev.end(),
              [](const obs::TraceEvent *A, const obs::TraceEvent *B) {
                if (A->StartNs != B->StartNs)
                  return A->StartNs < B->StartNs;
                return A->Depth < B->Depth;
              });
    std::vector<const obs::TraceEvent *> Stack;
    for (const obs::TraceEvent *E : Tev) {
      while (!Stack.empty() &&
             E->StartNs >= Stack.back()->StartNs + Stack.back()->DurNs)
        Stack.pop_back();
      EXPECT_EQ(E->Depth, Stack.size())
          << "event " << E->Name << " depth disagrees with its enclosing "
          << "spans on tid " << Tid;
      if (!Stack.empty()) {
        EXPECT_GE(E->StartNs, Stack.back()->StartNs);
        EXPECT_LE(E->StartNs + E->DurNs,
                  Stack.back()->StartNs + Stack.back()->DurNs)
            << "event " << E->Name << " escapes its parent "
            << Stack.back()->Name;
      }
      Stack.push_back(E);
    }
  }
}

TEST_F(ObsTest, InstantEventsCarryThreadDepth) {
  obs::ScopedLevel Scoped(obs::ObsLevel::Trace);
  {
    obs::Span Outer("test.outer");
    ALF_COUNTER(InnerMark, "test.inner_mark", "A traced test event");
    obs::instant(InnerMark);
  }
  std::vector<obs::TraceEvent> Events = obs::traceEvents();
  ASSERT_EQ(Events.size(), 2u);
  // The instant fires inside the span, so it records the deeper depth;
  // the span records its own (outer) depth.
  const obs::TraceEvent &Mark = Events[0];
  const obs::TraceEvent &Span = Events[1];
  EXPECT_STREQ(Mark.Name, "test.inner_mark");
  EXPECT_EQ(Mark.Ph, 'i');
  EXPECT_STREQ(Span.Name, "test.outer");
  EXPECT_EQ(Span.Ph, 'X');
  EXPECT_EQ(Mark.Depth, Span.Depth + 1);
  EXPECT_EQ(Mark.Tid, Span.Tid);
}

TEST_F(ObsTest, ThreadsGetDistinctTids) {
  obs::ScopedLevel Scoped(obs::ObsLevel::Trace);
  {
    obs::Span Main("test.main_thread");
    std::thread T([] { obs::Span Worker("test.worker_thread"); });
    T.join();
  }
  std::vector<obs::TraceEvent> Events = obs::traceEvents();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_NE(Events[0].Tid, Events[1].Tid);
}

//===----------------------------------------------------------------------===//
// Metrics table
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, MetricsAggregateCountsTotalsAndBytes) {
  obs::ScopedLevel Scoped(obs::ObsLevel::Counters);
  for (int I = 0; I < 5; ++I) {
    obs::Span S("test.repeated");
    S.setBytes(100);
  }
  std::optional<obs::MetricRow> Row = obs::metricsFor("test.repeated");
  ASSERT_TRUE(Row.has_value());
  EXPECT_EQ(Row->Count, 5u);
  EXPECT_EQ(Row->Bytes, 500u);
  EXPECT_GE(Row->TotalNs, Row->MaxNs);
  EXPECT_LE(Row->P50Ns, Row->P95Ns);
  EXPECT_LE(Row->P95Ns, Row->MaxNs);
}

TEST_F(ObsTest, MetricsTableSortedByName) {
  obs::ScopedLevel Scoped(obs::ObsLevel::Counters);
  { obs::Span S("test.zebra"); }
  { obs::Span S("test.aardvark"); }
  { obs::Span S("test.middle"); }
  std::vector<obs::MetricRow> Rows = obs::metricsTable();
  ASSERT_GE(Rows.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      Rows.begin(), Rows.end(),
      [](const obs::MetricRow &A, const obs::MetricRow &B) {
        return A.Name < B.Name;
      }));
}

/// Bytes of heap in use: arena chunks plus mmap-served large blocks.
long heapInUse() {
  struct mallinfo2 Info = mallinfo2();
  return static_cast<long>(Info.uordblks + Info.hblkhd);
}

TEST_F(ObsTest, SpanRowMemoryStaysFlat) {
  obs::ScopedLevel Scoped(obs::ObsLevel::Counters);
  { obs::Span First("test.flat"); } // creates the row
  const int Spans = 1000000;
  long Before = heapInUse();
  for (int I = 0; I < Spans; ++I)
    obs::Span S("test.flat");
  long Grown = heapInUse() - Before;
  EXPECT_LT(Grown, 64 * 1024) << "heap grew with the number of spans";
  std::optional<obs::MetricRow> Row = obs::metricsFor("test.flat");
  ASSERT_TRUE(Row.has_value());
  EXPECT_EQ(Row->Count, static_cast<uint64_t>(Spans) + 1);
}

TEST_F(ObsTest, PercentilesWithinAnEighthOfExact) {
  {
    obs::ScopedLevel Scoped(obs::ObsLevel::Trace);
    volatile uint64_t Sink = 0;
    for (unsigned I = 0; I < 2000; ++I) {
      obs::Span S("test.spread");
      for (unsigned J = 0; J < (I % 50) * 40; ++J)
        Sink = Sink + J;
    }
  }
  // The trace keeps every exact duration; the row only its histogram.
  std::vector<uint64_t> Durs;
  for (const obs::TraceEvent &E : obs::traceEvents())
    Durs.push_back(E.DurNs);
  ASSERT_EQ(Durs.size(), 2000u);
  std::sort(Durs.begin(), Durs.end());
  std::optional<obs::MetricRow> Row = obs::metricsFor("test.spread");
  ASSERT_TRUE(Row.has_value());
  EXPECT_EQ(Row->MaxNs, Durs.back());
  for (auto [Got, P] : {std::pair{Row->P50Ns, 0.50}, {Row->P95Ns, 0.95}}) {
    double Want = static_cast<double>(Durs[static_cast<size_t>(P * 2000)]);
    EXPECT_LE(std::fabs(static_cast<double>(Got) - Want), Want / 8)
        << "p" << P * 100;
    EXPECT_LE(Got, Row->MaxNs);
  }
}

TEST_F(ObsTest, ConcurrentCountersAndSpansAreExact) {
  ALF_COUNTER(ThreadBumps, "test.threads.bumps", "Bumped from 8 threads");
  obs::ScopedLevel Scoped(obs::ObsLevel::Counters);
  constexpr unsigned NumThreads = 8, PerThread = 100000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([] {
      for (unsigned I = 0; I < PerThread; ++I) {
        ++ThreadBumps;
        obs::Span S("test.threads.span");
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(obs::counterValue("test.threads.bumps"), NumThreads * PerThread);
  std::optional<obs::MetricRow> Row = obs::metricsFor("test.threads.span");
  ASSERT_TRUE(Row.has_value());
  EXPECT_EQ(Row->Count, NumThreads * PerThread);
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

TEST_F(ObsTest, CountersIncrementAndReset) {
  ALF_COUNTER(TestCounter, "test.counter", "A test counter");
  obs::reset();
  uint64_t Before = TestCounter.value();
  ++TestCounter;
  TestCounter += 4;
  EXPECT_EQ(TestCounter.value(), Before + 5);
  EXPECT_EQ(obs::counterValue("test.counter"), Before + 5);
  obs::reset();
  EXPECT_EQ(TestCounter.value(), 0u);
}

TEST_F(ObsTest, PassesReportTheirWork) {
  obs::reset();
  auto P = tp::makeTomcatvFragment(8);
  ir::normalizeProgram(*P);
  analysis::ASDG G = analysis::ASDG::build(*P);
  auto LP = scalarize::scalarizeWithStrategy(G, xform::Strategy::C2);
  (void)LP;
  EXPECT_EQ(obs::counterValue("normalize.compiler_temps"), 2u);
  EXPECT_GE(obs::counterValue("fusion.merges"), 1u);
  EXPECT_EQ(obs::counterValue("contract.arrays"), 3u);
  EXPECT_GE(obs::counterValue("scalarize.loop_nests"), 1u);
}

TEST_F(ObsTest, PrintSkipsZeroCounters) {
  obs::reset();
  ALF_COUNTER(NeverBumpedHere, "test.never", "Should not appear when zero");
  (void)NeverBumpedHere;
  std::ostringstream OS;
  obs::writeCounterTable(OS);
  EXPECT_EQ(OS.str().find("Should not appear when zero"),
            std::string::npos);
  ALF_COUNTER(BumpedHere, "test.bumped", "Should appear in the report");
  ++BumpedHere;
  std::ostringstream OS2;
  obs::writeCounterTable(OS2);
  EXPECT_NE(OS2.str().find("Should appear in the report"),
            std::string::npos);
}

TEST_F(ObsTest, ResetClearsEverything) {
  {
    obs::ScopedLevel Scoped(obs::ObsLevel::Trace);
    obs::Span S("test.span");
  }
  EXPECT_GT(obs::numTraceEvents(), 0u);
  obs::reset();
  EXPECT_EQ(obs::numTraceEvents(), 0u);
  EXPECT_TRUE(obs::metricsTable().empty());
}

} // namespace
