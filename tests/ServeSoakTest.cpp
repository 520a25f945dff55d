//===- tests/ServeSoakTest.cpp - llsc-served endurance soak ---------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// The serving tier's endurance proof (CTest label "soak"): pushes
/// LLSC_SOAK_JOBS jobs (default 10000; CI trims via the environment)
/// through a live llsc-served event loop over localhost and then fires
/// a real SIGTERM mid-load. Holds the daemon to the three soak
/// invariants from docs/SERVING.md:
///
///   1. zero leaked machines — pool Outstanding is 0 after the run;
///   2. bounded queue latency — fleet p99 queue wait under one second;
///   3. clean SIGTERM drain — admissions cut over to "draining",
///      every accepted job still completes and streams out, and the
///      event loop exits on its own.
///
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Server.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <thread>

using namespace llsc;
using namespace llsc::net;
using namespace llsc::serve;

namespace {

/// Short contended LL/SC fetch-add: every job exercises the full
/// submit -> pool -> run -> stream path without dominating the soak's
/// wall clock.
constexpr const char *SoakAsm = R"(_start: li      r9, #50
loop:   cbz     r9, done
        la      r10, word
try:    ldxr.d  r1, [r10]
        addi    r1, r1, #1
        stxr.d  r2, r1, [r10]
        cbnz    r2, try
        addi    r9, r9, #-1
        b       loop
done:   halt
        .align 64
word:   .quad 0
)";

unsigned soakJobs() {
  if (const char *Env = std::getenv("LLSC_SOAK_JOBS"))
    if (unsigned Jobs = static_cast<unsigned>(std::strtoul(Env, nullptr, 10)))
      return Jobs;
  return 10000;
}

JsonValue submitLine(const std::string &Session, const char *Asm = SoakAsm,
                     double Deadline = 0) {
  JsonValue R = JsonValue::object();
  auto &M = R.membersMut();
  M["verb"] = JsonValue::string("submit");
  M["session"] = JsonValue::string(Session);
  M["name"] = JsonValue::string("soak");
  M["scheme"] = JsonValue::string("hst");
  M["threads"] = JsonValue::integer(1);
  M["asm"] = JsonValue::string(Asm);
  if (Deadline > 0)
    M["deadline"] = JsonValue::number(Deadline);
  return R;
}

/// Pipelined wire submission (in-order replies): \returns accepted
/// count; queue-full is resubmitted with its retry-after honored, and
/// with \p StopOnDraining a draining answer ends the burst.
unsigned submitWire(Client &Conn, const std::string &Session, unsigned Jobs,
                    bool StopOnDraining = false) {
  const std::string Line = submitLine(Session).render();
  constexpr unsigned Window = 32;
  unsigned Accepted = 0, Outstanding = 0, ToSend = Jobs;
  unsigned ConsecutiveRejects = 0;
  bool Draining = false;
  while (ToSend > 0 || Outstanding > 0) {
    while (!Draining && ToSend > 0 && Outstanding < Window) {
      auto Sent = Conn.sendLine(Line);
      EXPECT_TRUE(bool(Sent)) << Sent.error().render();
      --ToSend;
      ++Outstanding;
    }
    if (Outstanding == 0)
      break;
    auto In = Conn.readLine();
    if (!In) {
      ADD_FAILURE() << In.error().render();
      return Accepted;
    }
    auto Resp = JsonValue::parse(*In);
    EXPECT_TRUE(bool(Resp));
    --Outstanding;
    if (Resp->get("ok").asBool(false)) {
      ++Accepted;
      ConsecutiveRejects = 0;
      continue;
    }
    std::string Reason = Resp->get("error").asString(std::string());
    if (Reason == "draining" && StopOnDraining) {
      Draining = true;
      continue;
    }
    EXPECT_EQ(Reason, "queue-full") << Resp->render();
    if (!Draining)
      ++ToSend;
    if (++ConsecutiveRejects >= Window) {
      double RetryAfter = Resp->get("retry_after").asDouble(0.001);
      std::this_thread::sleep_for(std::chrono::duration<double>(
          RetryAfter > 0 ? RetryAfter : 0.001));
      ConsecutiveRejects = 0;
    }
  }
  return Accepted;
}

void beginStream(Client &Conn, const std::string &Session, unsigned Count) {
  JsonValue R = JsonValue::object();
  R.membersMut()["verb"] = JsonValue::string("stream");
  R.membersMut()["session"] = JsonValue::string(Session);
  R.membersMut()["count"] = JsonValue::integer(static_cast<int64_t>(Count));
  auto Sent = Conn.sendLine(R.render());
  EXPECT_TRUE(bool(Sent)) << Sent.error().render();
}

unsigned readStream(Client &Conn) {
  unsigned Delivered = 0;
  while (true) {
    auto Line = Conn.readLine();
    if (!Line) {
      ADD_FAILURE() << Line.error().render();
      return Delivered;
    }
    auto Event = JsonValue::parse(*Line);
    EXPECT_TRUE(bool(Event));
    std::string Kind = Event->get("event").asString(std::string());
    if (Kind == "result") {
      EXPECT_EQ(Event->get("job").get("state").asString("done"), "done");
      ++Delivered;
      continue;
    }
    EXPECT_EQ(Kind, "stream-end") << *Line;
    return Delivered;
  }
}

} // namespace

TEST(ServeSoakTest, TenThousandJobsThenSigtermDrain) {
  const unsigned Jobs = soakJobs();
  SessionService Service([] {
    ServiceConfig C;
    C.Fleet.Workers = 4;
    C.Fleet.QueueCapacity = 64; // Deliberately tight: admission control
                                // must absorb the imbalance.
    return C;
  }());
  ServerConfig SrvCfg;
  SrvCfg.Service = &Service;
  Server Srv(SrvCfg);
  auto Started = Srv.start();
  ASSERT_TRUE(bool(Started)) << Started.error().render();
  std::thread Loop([&Srv] { Srv.run(); });

  Client Conn;
  ASSERT_TRUE(bool(Conn.connect("127.0.0.1", Srv.port())));
  JsonValue Create = JsonValue::object();
  Create.membersMut()["verb"] = JsonValue::string("create-session");
  Create.membersMut()["max_buffered"] =
      JsonValue::integer(static_cast<int64_t>(Jobs));
  auto CreateResp = Conn.call(Create);
  ASSERT_TRUE(bool(CreateResp));
  std::string Session = CreateResp->get("session").asString(std::string());
  ASSERT_FALSE(Session.empty());

  // Phase 1: the full load.
  ASSERT_EQ(submitWire(Conn, Session, Jobs), Jobs);
  beginStream(Conn, Session, Jobs);
  EXPECT_EQ(readStream(Conn), Jobs);

  // Invariant 2: bounded queue latency under sustained full load.
  uint64_t P99 = Service.fleet().queueLatencyQuantileNs(0.99);
  EXPECT_LT(P99, 1'000'000'000u) << "p99 queue wait not bounded";

  // Phase 2: a second burst interrupted by a real SIGTERM. Subscribe
  // first (a drain only owes results to live subscribers), submit half,
  // raise the signal, and verify the admission cut-over.
  Server::installSigtermDrain(&Srv);
  const unsigned Burst = std::min(Jobs, 256u);
  Client Subscriber;
  ASSERT_TRUE(bool(Subscriber.connect("127.0.0.1", Srv.port())));
  beginStream(Subscriber, Session, Burst);
  // One job spins until its deadline, so work is still in flight when
  // the signal lands: the loop exits as soon as nothing is, and a burst
  // arriving after that meets a closed connection, not a cut-over.
  auto Spin = Conn.call(submitLine(Session, "_start: b _start\n", 1.0));
  ASSERT_TRUE(bool(Spin)) << Spin.error().render();
  ASSERT_TRUE(Spin->get("ok").asBool(false)) << Spin->render();
  unsigned Half = 1 + submitWire(Conn, Session, Burst / 2);
  raise(SIGTERM);
  // raise() returns after the handler wrote the drain byte, and the
  // event loop consumes its wake pipe before reading connections — so
  // the post-signal burst must be (at least partly) rejected.
  unsigned Rest = submitWire(Conn, Session, Burst - Burst / 2,
                             /*StopOnDraining=*/true);
  EXPECT_LT(Rest, Burst - Burst / 2) << "admissions never cut over";

  // Invariant 3: every accepted job still completes and streams out,
  // and the event loop exits on its own once drained.
  EXPECT_EQ(readStream(Subscriber), Half + Rest);
  Conn.close();
  Subscriber.close();
  Loop.join();
  Server::installSigtermDrain(nullptr);

  // Invariant 1: nothing leaked.
  Service.drain();
  EXPECT_EQ(Service.fleet().poolStats().Outstanding, 0u);
  FleetStats Fleet = Service.fleet().fleetStats();
  EXPECT_EQ(Fleet.Failed, 0u);
  EXPECT_EQ(Fleet.Completed, Jobs + Half + Rest);
}
