//===- tests/ServeTest.cpp - serving-layer tests ----------------------------===//
//
// The alfd serving stack bottom-up: TaskQueue drain semantics, wire
// protocol framing (including every malformed-input classification),
// KernelCache single-flight under a thundering herd, the JitEngine's
// per-hash single-flight, and an in-process Server driven end to end
// over a real Unix-domain socket.
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"
#include "serve/KernelCache.h"
#include "serve/Protocol.h"
#include "serve/Server.h"

#include "driver/Pipeline.h"
#include "exec/NativeJit.h"
#include "frontend/Parser.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "support/Ulp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace alf;
using namespace alf::serve;

namespace {

//===----------------------------------------------------------------------===//
// TaskQueue
//===----------------------------------------------------------------------===//

TEST(TaskQueueTest, DrainsEveryJobOnDestruction) {
  std::atomic<unsigned> Ran{0};
  {
    TaskQueue Q(2);
    for (unsigned I = 0; I < 64; ++I)
      Q.submit([&Ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Ran.fetch_add(1);
      });
    // Destruction must block until all 64 have run, not drop the queue.
  }
  EXPECT_EQ(Ran.load(), 64u);
}

TEST(TaskQueueTest, SubmitFromInsideAJob) {
  std::atomic<unsigned> Ran{0};
  {
    TaskQueue Q(1);
    Q.submit([&] {
      Ran.fetch_add(1);
      Q.submit([&Ran] { Ran.fetch_add(1); });
    });
  }
  EXPECT_EQ(Ran.load(), 2u);
}

//===----------------------------------------------------------------------===//
// Protocol framing
//===----------------------------------------------------------------------===//

/// A connected socket pair; [0] is "ours", [1] the peer's.
struct SocketPair {
  int Fds[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0); }
  ~SocketPair() {
    closeA();
    closeB();
  }
  void closeA() {
    if (Fds[0] >= 0)
      ::close(Fds[0]);
    Fds[0] = -1;
  }
  void closeB() {
    if (Fds[1] >= 0)
      ::close(Fds[1]);
    Fds[1] = -1;
  }
};

/// Writes a raw frame with an explicit length prefix (which may lie
/// about the payload, unlike writeFrame).
void writeRaw(int Fd, uint32_t Len, const std::string &Payload) {
  uint8_t Hdr[4] = {static_cast<uint8_t>(Len >> 24),
                    static_cast<uint8_t>(Len >> 16),
                    static_cast<uint8_t>(Len >> 8),
                    static_cast<uint8_t>(Len)};
  ASSERT_EQ(::write(Fd, Hdr, 4), 4);
  if (!Payload.empty()) {
    ASSERT_EQ(::write(Fd, Payload.data(),
                      static_cast<ssize_t>(Payload.size())),
              static_cast<ssize_t>(Payload.size()));
  }
}

TEST(ProtocolTest, RoundTrip) {
  SocketPair SP;
  json::Value Req = json::Value::object();
  Req.set("op", json::Value::str("health"));
  Req.set("n", json::Value::number(42));
  ASSERT_TRUE(writeFrame(SP.Fds[0], Req));

  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out), FrameRead::Ok);
  EXPECT_EQ(Out.getString("op").value_or(""), "health");
  EXPECT_EQ(Out.getNumber("n").value_or(0), 42);
}

TEST(ProtocolTest, BackToBackFramesStayInSync) {
  SocketPair SP;
  for (unsigned I = 0; I < 4; ++I) {
    json::Value V = json::Value::object();
    V.set("i", json::Value::number(I));
    ASSERT_TRUE(writeFrame(SP.Fds[0], V));
  }
  for (unsigned I = 0; I < 4; ++I) {
    json::Value Out;
    ASSERT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
              FrameRead::Ok);
    EXPECT_EQ(Out.getNumber("i").value_or(-1), I);
  }
}

TEST(ProtocolTest, CleanEofOnFrameBoundary) {
  SocketPair SP;
  SP.closeA();
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out), FrameRead::Eof);
}

TEST(ProtocolTest, OversizedLengthPrefixIsTooLarge) {
  SocketPair SP;
  writeRaw(SP.Fds[0], 1024 + 1, "");
  json::Value Out;
  std::string Why;
  EXPECT_EQ(readFrame(SP.Fds[1], /*MaxBytes=*/1024, Out, &Why),
            FrameRead::TooLarge);
  EXPECT_FALSE(Why.empty());
}

TEST(ProtocolTest, ZeroLengthFrameIsMalformed) {
  SocketPair SP;
  writeRaw(SP.Fds[0], 0, "");
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
            FrameRead::Malformed);
}

TEST(ProtocolTest, NonJsonPayloadIsMalformed) {
  SocketPair SP;
  const std::string Garbage = "hello?";
  writeRaw(SP.Fds[0], static_cast<uint32_t>(Garbage.size()), Garbage);
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
            FrameRead::Malformed);
}

TEST(ProtocolTest, NonObjectRootIsMalformed) {
  SocketPair SP;
  const std::string Arr = "[1, 2, 3]";
  writeRaw(SP.Fds[0], static_cast<uint32_t>(Arr.size()), Arr);
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
            FrameRead::Malformed);
}

TEST(ProtocolTest, TruncatedPayloadIsIoError) {
  SocketPair SP;
  writeRaw(SP.Fds[0], 64, "only-a-little"); // promises 64, delivers 13
  SP.closeA();
  json::Value Out;
  EXPECT_EQ(readFrame(SP.Fds[1], DefaultMaxFrameBytes, Out),
            FrameRead::IoError);
}

//===----------------------------------------------------------------------===//
// KernelCache single-flight
//===----------------------------------------------------------------------===//

CompileKey keyFor(uint64_t Hash) {
  CompileKey K;
  K.ProgramHash = Hash;
  return K;
}

TEST(KernelCacheTest, ThunderingHerdCompilesOnce) {
  KernelCache Cache(/*NumShards=*/4);
  uint64_t HitsBefore = obs::counterValue("serve.cache.hit");
  uint64_t MissesBefore = obs::counterValue("serve.cache.miss");
  uint64_t CoalescedBefore = obs::counterValue("serve.cache.coalesced");
  std::atomic<unsigned> Compiles{0};
  const unsigned NumThreads = 16;

  std::vector<std::shared_ptr<const CompiledEntry>> Entries(NumThreads);
  std::vector<CacheOutcome> Outcomes(NumThreads, CacheOutcome::Hit);
  std::vector<std::thread> Threads;
  Threads.reserve(NumThreads);
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      Entries[I] = Cache.get(
          keyFor(7), [&Compiles] {
            Compiles.fetch_add(1);
            // Long enough that the herd piles up behind the slot.
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            CompiledEntry E;
            E.OK = true;
            E.CompileNs = 3;
            return E;
          },
          &Outcomes[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  EXPECT_EQ(Compiles.load(), 1u);
  unsigned Misses = 0;
  for (unsigned I = 0; I < NumThreads; ++I) {
    ASSERT_TRUE(Entries[I]);
    // Everyone shares the one published entry object.
    EXPECT_EQ(Entries[I].get(), Entries[0].get());
    Misses += Outcomes[I] == CacheOutcome::Miss;
  }
  EXPECT_EQ(Misses, 1u);
  EXPECT_EQ(obs::counterValue("serve.cache.miss") - MissesBefore, 1u);
  EXPECT_EQ(obs::counterValue("serve.cache.hit") - HitsBefore +
                obs::counterValue("serve.cache.coalesced") - CoalescedBefore,
            NumThreads - 1);
}

TEST(KernelCacheTest, DistinctKeysCompileIndependently) {
  KernelCache Cache;
  std::atomic<unsigned> Compiles{0};
  auto Fn = [&Compiles] {
    Compiles.fetch_add(1);
    CompiledEntry E;
    E.OK = true;
    return E;
  };
  Cache.get(keyFor(1), Fn);
  Cache.get(keyFor(2), Fn);
  CompileKey K = keyFor(1);
  K.Strat = xform::Strategy::Baseline; // same program, different strategy
  Cache.get(K, Fn);
  EXPECT_EQ(Compiles.load(), 3u);
  EXPECT_EQ(Cache.size(), 3u);
}

TEST(KernelCacheTest, FailedCompilesAreNegativelyCached) {
  KernelCache Cache;
  std::atomic<unsigned> Compiles{0};
  auto Fn = [&Compiles] {
    Compiles.fetch_add(1);
    CompiledEntry E;
    E.OK = false;
    E.ErrorCode = "parse";
    E.ErrorMessage = "1:1: nope";
    return E;
  };
  CacheOutcome O1, O2;
  auto E1 = Cache.get(keyFor(9), Fn, &O1);
  auto E2 = Cache.get(keyFor(9), Fn, &O2);
  EXPECT_EQ(Compiles.load(), 1u) << "a broken program must not re-parse";
  EXPECT_EQ(O1, CacheOutcome::Miss);
  EXPECT_EQ(O2, CacheOutcome::Hit);
  ASSERT_TRUE(E2);
  EXPECT_FALSE(E2->OK);
  EXPECT_EQ(E2->ErrorCode, "parse");
  EXPECT_EQ(E1.get(), E2.get());
}

TEST(KernelCacheTest, MissesRunOnTheDispatchQueue) {
  TaskQueue Q(1);
  KernelCache Cache(/*NumShards=*/2, &Q);
  std::thread::id CompileTid;
  auto E = Cache.get(keyFor(3), [&CompileTid] {
    CompileTid = std::this_thread::get_id();
    CompiledEntry En;
    En.OK = true;
    return En;
  });
  ASSERT_TRUE(E);
  EXPECT_TRUE(E->OK);
  EXPECT_NE(CompileTid, std::this_thread::get_id())
      << "compile should have run on the queue worker, not the caller";
}

//===----------------------------------------------------------------------===//
// JitEngine single-flight
//===----------------------------------------------------------------------===//

const char *JitHerdSource = R"(
region R : [1..16, 1..16];
array U, V : R;
array T : R temp;
scalar s;
[R] T := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * 0.25 - U;
[R] V := U + T * 0.8;
[R] s := + << abs(T);
)";

TEST(JitSingleFlightTest, HerdOfIdenticalKernelsCompilesOnce) {
  if (!exec::JitEngine::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";

  frontend::ParseResult PR =
      frontend::parseProgram(JitHerdSource, "<herd>");
  ASSERT_TRUE(PR.succeeded());
  driver::Pipeline PL(*PR.Prog);
  driver::CompileStatus St = PL.tryCompile(driver::CompileRequest());
  ASSERT_TRUE(St.ok());

  char Tmpl[] = "/tmp/alf-servetest-jit-XXXXXX";
  ASSERT_NE(mkdtemp(Tmpl), nullptr);
  exec::JitOptions JO;
  JO.CacheDir = Tmpl;
  exec::JitEngine Jit(JO);

  uint64_t CompilesBefore = obs::counterValue("jit.compiles");
  const unsigned NumThreads = 8;
  std::vector<exec::RunResult> Results(NumThreads);
  std::vector<exec::JitRunInfo> Infos(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      Results[I] = Jit.run(St.Artifact->LP, /*Seed=*/11, &Infos[I]);
    });
  for (std::thread &T : Threads)
    T.join();

  unsigned Compiled = 0;
  for (unsigned I = 0; I < NumThreads; ++I) {
    EXPECT_TRUE(Infos[I].UsedJit) << Infos[I].FallbackReason;
    Compiled += Infos[I].Compiled;
    // Bit-identical across every thread of the herd.
    EXPECT_EQ(Results[I].ScalarsOut, Results[0].ScalarsOut);
    EXPECT_EQ(Results[I].LiveOut, Results[0].LiveOut);
  }
  EXPECT_EQ(Compiled, 1u) << "exactly one thread may invoke the compiler";
  EXPECT_EQ(obs::counterValue("jit.compiles") - CompilesBefore, 1u);

  std::error_code EC;
  std::filesystem::remove_all(Tmpl, EC);
}

//===----------------------------------------------------------------------===//
// Server end to end
//===----------------------------------------------------------------------===//

class ServerTest : public ::testing::Test {
protected:
  void SetUp() override {
    char Tmpl[] = "/tmp/alf-servetest-XXXXXX";
    ASSERT_NE(mkdtemp(Tmpl), nullptr);
    Dir = Tmpl;
    ServerOptions SO;
    SO.SocketPath = Dir + "/alfd.sock";
    SO.CompileThreads = 2;
    SO.MaxProgramBytes = 64 * 1024;
    Srv = std::make_unique<Server>(std::move(SO));
    std::string Error;
    ASSERT_TRUE(Srv->start(&Error)) << Error;
  }

  void TearDown() override {
    Srv->stop();
    Srv->wait();
    Srv.reset();
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  json::Value roundTrip(const json::Value &Req) {
    Client C;
    std::string Error;
    EXPECT_TRUE(C.connect(Srv->options().SocketPath, &Error)) << Error;
    json::Value Resp;
    EXPECT_TRUE(C.request(Req, Resp, &Error)) << Error;
    return Resp;
  }

  std::string Dir;
  std::unique_ptr<Server> Srv;
};

const char *ServerSource = R"(
region R : [1..12, 1..12];
array U, V : R;
array T : R temp;
scalar s;
[R] T := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * 0.25 - U;
[R] V := U + T * 0.8;
[R] s := + << abs(T);
)";

TEST_F(ServerTest, Health) {
  json::Value Resp = roundTrip(Client::makeHealth());
  EXPECT_EQ(Resp.getBool("ok").value_or(false), true);
  EXPECT_EQ(Resp.getString("service").value_or(""), "alfd");
  EXPECT_EQ(Resp.getNumber("protocol").value_or(0), ProtocolVersion);
}

TEST_F(ServerTest, UnknownOpIsStructured) {
  json::Value Req = json::Value::object();
  Req.set("op", json::Value::str("frobnicate"));
  json::Value Resp = roundTrip(Req);
  EXPECT_EQ(Resp.getBool("ok").value_or(true), false);
  EXPECT_EQ(Resp.getString("error").value_or(""), "unknown-op");
}

TEST_F(ServerTest, CompileMissThenHit) {
  json::Value First = roundTrip(Client::makeCompile(ServerSource, "c2"));
  ASSERT_EQ(First.getBool("ok").value_or(false), true)
      << First.getString("message").value_or("");
  EXPECT_EQ(First.getString("cache").value_or(""), "miss");
  EXPECT_EQ(First.getString("strategy").value_or(""), "c2");
  EXPECT_GE(First.getNumber("clusters").value_or(0), 1);
  const json::Value *Contracted = First.get("contracted");
  ASSERT_NE(Contracted, nullptr);
  ASSERT_TRUE(Contracted->isArray());
  ASSERT_EQ(Contracted->size(), 1u);
  EXPECT_EQ(Contracted->items()[0].asString(), "T");

  json::Value Second = roundTrip(Client::makeCompile(ServerSource, "c2"));
  EXPECT_EQ(Second.getString("cache").value_or(""), "hit");

  // A different strategy is a different cache key.
  json::Value Third =
      roundTrip(Client::makeCompile(ServerSource, "baseline"));
  EXPECT_EQ(Third.getString("cache").value_or(""), "miss");
}

// alfd compiles through the same front door as zplc and tryCompile: the
// offset target is aligned, so both statements fuse and T contracts.
TEST_F(ServerTest, TargetOffsetIsAlignedBeforeFusion) {
  std::ifstream In(ALF_TEST_INPUTS_DIR "/target_offset_fuses.zpl");
  ASSERT_TRUE(In.good());
  std::ostringstream Source;
  Source << In.rdbuf();
  json::Value Resp = roundTrip(Client::makeCompile(Source.str(), "c2"));
  ASSERT_EQ(Resp.getBool("ok").value_or(false), true)
      << Resp.getString("message").value_or("");
  EXPECT_EQ(Resp.getNumber("clusters").value_or(0), 1);
  const json::Value *Contracted = Resp.get("contracted");
  ASSERT_NE(Contracted, nullptr);
  ASSERT_TRUE(Contracted->isArray());
  ASSERT_EQ(Contracted->size(), 1u);
  EXPECT_EQ(Contracted->items()[0].asString(), "T");
}

TEST_F(ServerTest, ExecuteIsDeterministic) {
  json::Value A =
      roundTrip(Client::makeExecute(ServerSource, "c2", "", "", 7));
  json::Value B =
      roundTrip(Client::makeExecute(ServerSource, "c2", "", "", 7));
  ASSERT_EQ(A.getBool("ok").value_or(false), true)
      << A.getString("message").value_or("");
  ASSERT_EQ(B.getBool("ok").value_or(false), true);
  const json::Value *SA = A.get("scalars");
  const json::Value *SB = B.get("scalars");
  ASSERT_NE(SA, nullptr);
  ASSERT_NE(SB, nullptr);
  ASSERT_TRUE(SA->getNumber("s").has_value());
  EXPECT_EQ(*SA->getNumber("s"), *SB->getNumber("s"));
  const json::Value *Arrays = A.get("arrays");
  ASSERT_NE(Arrays, nullptr);
  ASSERT_NE(Arrays->get("V"), nullptr);
  EXPECT_EQ(Arrays->get("V")->getNumber("elements").value_or(0), 12 * 12);
}

TEST_F(ServerTest, ParseErrorIsStructuredAndNegativelyCached) {
  const std::string Broken = "region R : [1..4];\n[R] X := nonsense;\n";
  json::Value First = roundTrip(Client::makeCompile(Broken));
  EXPECT_EQ(First.getBool("ok").value_or(true), false);
  EXPECT_EQ(First.getString("error").value_or(""), "parse");
  EXPECT_FALSE(First.getString("message").value_or("").empty());

  // The second submission is served from the negative cache.
  json::Value Second = roundTrip(Client::makeCompile(Broken));
  EXPECT_EQ(Second.getString("error").value_or(""), "parse");

  json::Value Stats = roundTrip(Client::makeStats());
  const json::Value *CacheV = Stats.get("cache");
  ASSERT_NE(CacheV, nullptr);
  EXPECT_GE(CacheV->getNumber("hits").value_or(0), 1);
}

TEST_F(ServerTest, UnknownStrategyIsMalformed) {
  json::Value Resp =
      roundTrip(Client::makeCompile(ServerSource, "bogus-strategy"));
  EXPECT_EQ(Resp.getBool("ok").value_or(true), false);
  EXPECT_EQ(Resp.getString("error").value_or(""), "malformed");
}

TEST_F(ServerTest, SemiringOverrideIsItsOwnCacheKey) {
  json::Value Plain = roundTrip(Client::makeExecute(ServerSource, "c2"));
  ASSERT_EQ(Plain.getBool("ok").value_or(false), true)
      << Plain.getString("message").value_or("");
  EXPECT_EQ(Plain.getString("cache").value_or(""), "miss");

  // Same source text under a min-plus override: a distinct artifact, so
  // a distinct cache entry — and a fold that computes min, not sum.
  json::Value MinPlus = roundTrip(
      Client::makeExecute(ServerSource, "c2", "", "", 0, "min-plus"));
  ASSERT_EQ(MinPlus.getBool("ok").value_or(false), true)
      << MinPlus.getString("message").value_or("");
  EXPECT_EQ(MinPlus.getString("cache").value_or(""), "miss");

  const json::Value *SP = Plain.get("scalars");
  const json::Value *SM = MinPlus.get("scalars");
  ASSERT_NE(SP, nullptr);
  ASSERT_NE(SM, nullptr);
  ASSERT_TRUE(SP->getNumber("s").has_value());
  ASSERT_TRUE(SM->getNumber("s").has_value());
  EXPECT_NE(*SP->getNumber("s"), *SM->getNumber("s"))
      << "the min-plus request must not be served the plus-times artifact";

  // Both keys are now independently warm.
  EXPECT_EQ(roundTrip(Client::makeExecute(ServerSource, "c2", "", "", 0,
                                          "min-plus"))
                .getString("cache")
                .value_or(""),
            "hit");

  json::Value Bad =
      roundTrip(Client::makeCompile(ServerSource, "", "", "", "no-such"));
  EXPECT_EQ(Bad.getBool("ok").value_or(true), false);
  EXPECT_EQ(Bad.getString("error").value_or(""), "malformed");
}

// One program, two jit tiers. ExecMode is part of the CompileKey, so
// the scalar-jit and vectorizing-jit artifacts are distinct cache
// entries — the daemon must never serve one tier the other's kernel —
// and each key warms independently. The jit-simd response additionally
// reports the vectorizer's outcome, which clients use to pick their
// comparison tolerance.
TEST_F(ServerTest, JitAndJitSimdAreDistinctCacheEntriesBothWarm) {
  if (!exec::JitEngine::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";

  json::Value Jit =
      roundTrip(Client::makeExecute(ServerSource, "c2", "jit", "", 7));
  ASSERT_EQ(Jit.getBool("ok").value_or(false), true)
      << Jit.getString("message").value_or("");
  EXPECT_EQ(Jit.getString("cache").value_or(""), "miss");
  const json::Value *JI = Jit.get("jit");
  ASSERT_NE(JI, nullptr);
  EXPECT_EQ(JI->getBool("used_jit").value_or(false), true);
  EXPECT_EQ(JI->get("vectorized_nests"), nullptr)
      << "scalar tier must not report vectorizer fields";

  json::Value Simd =
      roundTrip(Client::makeExecute(ServerSource, "c2", "jit-simd", "", 7));
  ASSERT_EQ(Simd.getBool("ok").value_or(false), true)
      << Simd.getString("message").value_or("");
  EXPECT_EQ(Simd.getString("cache").value_or(""), "miss")
      << "jit-simd was served the scalar-jit artifact";
  const json::Value *SI = Simd.get("jit");
  ASSERT_NE(SI, nullptr);
  EXPECT_EQ(SI->getBool("used_jit").value_or(false), true);
  EXPECT_GE(SI->getNumber("vectorized_nests").value_or(0), 1);

  // `s` is a float + fold the vectorizer lane-splits, so the response
  // must declare the reassociation and the two tiers agree within a
  // small ULP budget (bit-equality is not promised for this program).
  EXPECT_EQ(SI->getBool("reassociated").value_or(false), true);
  const json::Value *SA = Jit.get("scalars");
  const json::Value *SB = Simd.get("scalars");
  ASSERT_NE(SA, nullptr);
  ASSERT_NE(SB, nullptr);
  ASSERT_TRUE(SA->getNumber("s").has_value());
  ASSERT_TRUE(SB->getNumber("s").has_value());
  EXPECT_TRUE(support::agreeWithin(
      *SA->getNumber("s"), *SB->getNumber("s"),
      support::Tolerance::ReassociatedFloat, /*MaxUlps=*/16384))
      << *SA->getNumber("s") << " vs " << *SB->getNumber("s");

  // Warm replay: both keys hit, independently.
  EXPECT_EQ(roundTrip(Client::makeExecute(ServerSource, "c2", "jit", "", 7))
                .getString("cache")
                .value_or(""),
            "hit");
  EXPECT_EQ(
      roundTrip(Client::makeExecute(ServerSource, "c2", "jit-simd", "", 7))
          .getString("cache")
          .value_or(""),
      "hit");
}

// alfd compiles kernels where it compiles programs: a cold jit or
// jit-simd execute runs cc inside its cache miss on a compile-queue
// thread, never on the connection thread serving the request. Only the
// request whose miss ran cc reports "compiled"; the warm replay reports
// every other jit field unchanged.
TEST(ServeCompileQueueTest, ColdJitExecuteRunsCcOnTheCompileQueue) {
  if (!exec::JitEngine::compilerAvailable())
    GTEST_SKIP() << "no system C compiler";
  char Tmpl[] = "/tmp/alf-servetest-XXXXXX";
  ASSERT_NE(mkdtemp(Tmpl), nullptr);
  std::string Dir = Tmpl;
  obs::reset();
  obs::ScopedLevel Level(obs::ObsLevel::Trace);
  {
    ServerOptions SO;
    SO.SocketPath = Dir + "/alfd.sock";
    SO.CompileThreads = 2;
    SO.Jit.CacheDir = Dir + "/kernels"; // cold: cc must run
    Server Srv(std::move(SO));
    std::string Error;
    ASSERT_TRUE(Srv.start(&Error)) << Error;
    auto RoundTrip = [&](const json::Value &Req) {
      Client C;
      EXPECT_TRUE(C.connect(Srv.options().SocketPath, &Error)) << Error;
      json::Value Resp;
      EXPECT_TRUE(C.request(Req, Resp, &Error)) << Error;
      return Resp;
    };
    for (const std::string Exec : {"jit", "jit-simd"}) {
      json::Value Cold =
          RoundTrip(Client::makeExecute(ServerSource, "c2", Exec, "", 7));
      json::Value Warm =
          RoundTrip(Client::makeExecute(ServerSource, "c2", Exec, "", 7));
      ASSERT_EQ(Cold.getBool("ok").value_or(false), true)
          << Exec << ": " << Cold.getString("message").value_or("");
      ASSERT_EQ(Warm.getBool("ok").value_or(false), true) << Exec;
      EXPECT_EQ(Cold.getString("cache").value_or(""), "miss") << Exec;
      EXPECT_EQ(Warm.getString("cache").value_or(""), "hit") << Exec;
      const json::Value *CJ = Cold.get("jit");
      const json::Value *WJ = Warm.get("jit");
      ASSERT_NE(CJ, nullptr) << Exec;
      ASSERT_NE(WJ, nullptr) << Exec;
      EXPECT_EQ(CJ->getBool("compiled").value_or(false), true) << Exec;
      EXPECT_EQ(WJ->getBool("compiled").value_or(true), false) << Exec;
      for (const json::Value *J : {CJ, WJ}) {
        EXPECT_EQ(J->getBool("used_jit").value_or(false), true) << Exec;
        EXPECT_EQ(J->get("fallback"), nullptr) << Exec;
        if (Exec == "jit-simd") {
          EXPECT_GE(J->getNumber("vectorized_nests").value_or(0), 1) << Exec;
          EXPECT_TRUE(J->getNumber("vector_fallbacks").has_value()) << Exec;
          EXPECT_TRUE(J->getBool("reassociated").has_value()) << Exec;
        }
      }
      EXPECT_EQ(Cold.get("scalars")->getNumber("s").value_or(-1),
                Warm.get("scalars")->getNumber("s").value_or(-2))
          << Exec;
    }
    Srv.stop();
    Srv.wait();
  }

  std::set<unsigned> ConnectionTids, CompileQueueTids;
  std::vector<unsigned> CcTids;
  for (const obs::TraceEvent &E : obs::traceEvents()) {
    std::string Name = E.Name;
    if (Name == "serve.request.execute")
      ConnectionTids.insert(E.Tid);
    else if (Name == "pipeline.asdg") // only compiles run the pipeline
      CompileQueueTids.insert(E.Tid);
    else if (Name == "jit.compile")
      CcTids.push_back(E.Tid);
  }
  EXPECT_EQ(CcTids.size(), 2u) << "one cc per tier";
  EXPECT_EQ(ConnectionTids.size(), 4u) << "one connection per request";
  for (unsigned Tid : CcTids) {
    EXPECT_EQ(ConnectionTids.count(Tid), 0u)
        << "cc ran on a connection thread";
    EXPECT_EQ(CompileQueueTids.count(Tid), 1u)
        << "cc ran off the compile queue";
  }
  obs::reset();
  std::error_code EC;
  std::filesystem::remove_all(Dir, EC);
}

TEST_F(ServerTest, UnsafeProgramIsVettedBeforeCompileAndNegativelyCached) {
  // T is read but never written and is not live-in: at the requested
  // safety tier the checker proves the read undefined and the daemon
  // rejects the program before any kernel work is enqueued.
  const std::string Unsafe = R"(
region R : [1..4, 1..4];
array A : R;
array T : R temp;
[R] A := T + 1.0;
)";
  json::Value First =
      roundTrip(Client::makeCompile(Unsafe, "c2", "", "safety"));
  EXPECT_EQ(First.getBool("ok").value_or(true), false);
  EXPECT_EQ(First.getString("error").value_or(""), "unsafe-program");
  const json::Value *Findings = First.get("findings");
  ASSERT_NE(Findings, nullptr);
  ASSERT_TRUE(Findings->isArray());
  ASSERT_GE(Findings->size(), 1u);
  EXPECT_NE(Findings->items()[0].asString().find("safety-init"),
            std::string::npos)
      << Findings->items()[0].asString();
  EXPECT_NE(Findings->items()[0].asString().find("T"), std::string::npos);

  // The rejection is negatively cached, and the cached entry replays the
  // full findings — not just the error code.
  json::Value Second =
      roundTrip(Client::makeCompile(Unsafe, "c2", "", "safety"));
  EXPECT_EQ(Second.getString("error").value_or(""), "unsafe-program");
  EXPECT_EQ(Second.getString("cache").value_or(""), "hit");
  const json::Value *Replayed = Second.get("findings");
  ASSERT_NE(Replayed, nullptr);
  ASSERT_TRUE(Replayed->isArray());
  EXPECT_EQ(Replayed->size(), Findings->size());

  // The same program compiles fine below the safety tier: the rejection
  // came from the new static analysis, not from an earlier stage.
  json::Value Full = roundTrip(Client::makeCompile(Unsafe, "c2", "", "full"));
  EXPECT_EQ(Full.getBool("ok").value_or(false), true)
      << Full.getString("message").value_or("");
}

TEST_F(ServerTest, HugeRegionIsAResourceLimitNotACrash) {
  // 9e18 elements exceed vector::max_size; 2^64 elements wrap int64_t to
  // 0, which would allocate an empty buffer that the kernel writes past;
  // four 2^59-element arrays each fit, but their 2^64-byte total wraps;
  // a rank-3 region of extent 2^32 has a first-dimension stride of 2^64.
  // The storage layout throws std::length_error for all four (under jit
  // the emitter reports it and the kernel falls back first). An extent,
  // or a bound plus an offset, past int64_t is an invalid program
  // instead: the IR verifier rejects it before any footprint arithmetic
  // runs. Each request fails with a stable code under every exec mode,
  // and the same daemon keeps answering.
  std::vector<std::pair<std::string, std::string>> Cases;
  for (const char *Extent : {"3000000000", "4294967296"})
    Cases.push_back({std::string("region G : [1..") + Extent + ", 1.." +
                         Extent + "];\narray a, b : G;\n[G] b := a + 1;\n",
                     "resource-limit"});
  Cases.push_back({"region G : [1..536870912, 1..1073741824];\n"
                   "array a, b, c, d : G;\n[G] d := a + b + c;\n",
                   "resource-limit"});
  Cases.push_back({"region G : [1..4294967296, 1..4294967296, "
                   "1..4294967296];\narray a, b : G;\n[G] b := a + 1;\n",
                   "resource-limit"});
  Cases.push_back({"region R : [-9223372036854775807..9223372036854775807];"
                   "\narray a, b : R;\n[R] b := a + 1;\n",
                   "invalid-program"});
  Cases.push_back({"region R : [1..9223372036854775807];\narray a, b : R;\n"
                   "[R] b := a@(1) + 1;\n",
                   "invalid-program"});
  for (const auto &[Source, Code] : Cases) {
    for (const char *Mode : {"sequential", "parallel", "jit", "jit-simd"}) {
      json::Value Resp = roundTrip(Client::makeExecute(Source, "c2", Mode));
      EXPECT_EQ(Resp.getBool("ok").value_or(true), false) << Mode;
      EXPECT_EQ(Resp.getString("error").value_or(""), Code)
          << Source << Mode << ": "
          << Resp.getString("message").value_or("");
      json::Value Health = roundTrip(Client::makeHealth());
      EXPECT_EQ(Health.getBool("ok").value_or(false), true) << Mode;
    }
  }
}

TEST_F(ServerTest, MalformedFrameIsAnsweredThenDropped) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Srv->options().SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);

  const std::string Garbage = "this is not json";
  writeRaw(Fd, static_cast<uint32_t>(Garbage.size()), Garbage);
  json::Value Resp;
  ASSERT_EQ(readFrame(Fd, DefaultMaxFrameBytes, Resp), FrameRead::Ok);
  EXPECT_EQ(Resp.getBool("ok").value_or(true), false);
  EXPECT_EQ(Resp.getString("error").value_or(""), "malformed");

  // The server hangs up after answering (the stream may be desynced).
  json::Value Next;
  EXPECT_EQ(readFrame(Fd, DefaultMaxFrameBytes, Next), FrameRead::Eof);
  ::close(Fd);
}

TEST_F(ServerTest, OversizedProgramIsRejectedFromItsLengthPrefix) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Srv->options().SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr)),
            0);

  writeRaw(Fd, Srv->options().MaxProgramBytes + 1, "");
  json::Value Resp;
  ASSERT_EQ(readFrame(Fd, DefaultMaxFrameBytes, Resp), FrameRead::Ok);
  EXPECT_EQ(Resp.getString("error").value_or(""), "too-large");
  ::close(Fd);
}

TEST_F(ServerTest, ConcurrentIdenticalCompilesSingleFlight) {
  const unsigned NumThreads = 8;
  std::vector<std::string> Outcomes(NumThreads);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < NumThreads; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      json::Value Resp;
      if (!C.connect(Srv->options().SocketPath))
        return;
      if (C.request(Client::makeCompile(ServerSource, "c2+f3"), Resp))
        Outcomes[I] = Resp.getString("cache").value_or("");
    });
  for (std::thread &T : Threads)
    T.join();

  unsigned Misses = 0, Served = 0;
  for (const std::string &O : Outcomes) {
    ASSERT_FALSE(O.empty());
    Misses += O == "miss";
    Served += O == "hit" || O == "coalesced";
  }
  EXPECT_EQ(Misses, 1u);
  EXPECT_EQ(Served, NumThreads - 1);
}

// Golden: the stats payload's key paths that alfd_load, the serve
// benchmark workload and the tests above read by name.
TEST_F(ServerTest, StatsPayloadKeyPathsGolden) {
  roundTrip(Client::makeCompile(ServerSource, "c2"));
  roundTrip(Client::makeExecute(ServerSource, "c2", "sequential", "", 1));
  { obs::Span S("jit.compile"); } // a jit_compile row without running cc
  json::Value Stats = roundTrip(Client::makeStats());
  EXPECT_EQ(Stats.getBool("ok").value_or(false), true);

  const std::vector<std::pair<const char *, std::vector<const char *>>>
      Counters = {
          {"requests",
           {"total", "compile", "execute", "connections", "in_flight"}},
          {"cache", {"entries", "hits", "misses", "coalesced"}},
          {"admission", {"rejected_busy", "rejected_too_large", "malformed"}},
      };
  for (const auto &[Group, Keys] : Counters) {
    const json::Value *G = Stats.get(Group);
    ASSERT_NE(G, nullptr) << Group;
    for (const char *Key : Keys)
      EXPECT_TRUE(G->getNumber(Key).has_value()) << Group << '.' << Key;
  }
  const json::Value *Latency = Stats.get("latency");
  ASSERT_NE(Latency, nullptr);
  for (const char *Row : {"execute", "compile", "jit_compile"}) {
    const json::Value *R = Latency->get(Row);
    ASSERT_NE(R, nullptr) << "latency." << Row;
    for (const char *Key : {"count", "p50_us", "p95_us", "max_us"})
      EXPECT_TRUE(R->getNumber(Key).has_value())
          << "latency." << Row << '.' << Key;
  }
}

TEST_F(ServerTest, ShutdownOpStopsTheDaemon) {
  json::Value Resp = roundTrip(Client::makeShutdown());
  EXPECT_EQ(Resp.getBool("ok").value_or(false), true);
  Srv->wait(); // returns because the shutdown op fired, not stop()
  Client C;
  EXPECT_FALSE(C.connect(Srv->options().SocketPath));
}

} // namespace
