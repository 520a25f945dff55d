//===- tests/ServeDaemonTest.cpp - llsc-served wire protocol --------------------===//
//
// Part of the llsc-dbt project (CGO'21 LL/SC atomic emulation reproduction).
//
//===----------------------------------------------------------------------===//
///
/// Drives a live net::Server over localhost and holds the line-delimited
/// JSON protocol (net/Protocol.h, docs/SERVING.md) to its contract:
/// hello/stats introspection, session lifecycle over the wire, submit
/// admission answers (including queue-full with retry-after), schema-v5
/// result streaming, the snapshot + from fan-out verbs, protocol error
/// answers, and the graceful drain finishing in-flight work before the
/// event loop exits.
///
//===----------------------------------------------------------------------===//

#include "core/StatsReport.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "net/Server.h"

#include <gtest/gtest.h>

#include <thread>

using namespace llsc;
using namespace llsc::net;
using namespace llsc::serve;

namespace {

constexpr const char *QuickAsm = R"(_start: movz    r1, #7
        la      r2, out
        std     r1, [r2]
        halt
        .align 8
out:    .quad 0
)";

constexpr const char *SpinAsm = "_start: b _start\n";

/// One live daemon on an ephemeral port, event loop on its own thread.
struct LiveDaemon {
  SessionService Service;
  Server Srv;
  std::thread Loop;

  explicit LiveDaemon(unsigned Workers = 2, size_t QueueCap = 16)
      : Service([&] {
          ServiceConfig C;
          C.Fleet.Workers = Workers;
          C.Fleet.QueueCapacity = QueueCap;
          return C;
        }()),
        Srv([this] {
          ServerConfig C;
          C.Service = &Service;
          return C;
        }()) {
    auto Started = Srv.start();
    EXPECT_TRUE(bool(Started)) << Started.error().render();
    Loop = std::thread([this] { Srv.run(); });
  }

  ~LiveDaemon() {
    if (Loop.joinable()) {
      Srv.requestStop();
      Loop.join();
    }
    Service.drain();
  }

  Client connect() {
    Client Conn;
    auto Connected = Conn.connect("127.0.0.1", Srv.port());
    EXPECT_TRUE(bool(Connected)) << Connected.error().render();
    return Conn;
  }
};

JsonValue verbRequest(const char *Verb, const std::string &Session = "") {
  JsonValue R = JsonValue::object();
  R.membersMut()["verb"] = JsonValue::string(Verb);
  if (!Session.empty())
    R.membersMut()["session"] = JsonValue::string(Session);
  return R;
}

/// Issues \p Request and expects an ok:true reply.
JsonValue callOk(Client &Conn, const JsonValue &Request) {
  auto Resp = Conn.call(Request);
  EXPECT_TRUE(bool(Resp)) << Resp.error().render();
  EXPECT_TRUE(Resp->get("ok").asBool(false)) << Resp->render();
  return Resp ? *Resp : JsonValue();
}

/// Issues \p Request and expects an ok:false reply; \returns its error.
std::string callError(Client &Conn, const JsonValue &Request) {
  auto Resp = Conn.call(Request);
  EXPECT_TRUE(bool(Resp)) << Resp.error().render();
  EXPECT_FALSE(Resp->get("ok").asBool(true)) << Resp->render();
  return Resp->get("error").asString(std::string());
}

std::string createSession(Client &Conn) {
  JsonValue Resp = callOk(Conn, verbRequest("create-session"));
  return Resp.get("session").asString(std::string());
}

JsonValue submitRequest(const std::string &Session, const char *Asm,
                        double Deadline = 0) {
  JsonValue R = verbRequest("submit", Session);
  auto &M = R.membersMut();
  M["name"] = JsonValue::string("wire-job");
  M["scheme"] = JsonValue::string("hst");
  M["threads"] = JsonValue::integer(1);
  M["asm"] = JsonValue::string(Asm);
  if (Deadline > 0)
    M["deadline"] = JsonValue::number(Deadline);
  return R;
}

/// Reads stream events until stream-end; appends result jobs to \p Jobs.
JsonValue readStream(Client &Conn, std::vector<JsonValue> &Jobs) {
  while (true) {
    auto Line = Conn.readLine();
    EXPECT_TRUE(bool(Line)) << Line.error().render();
    if (!Line)
      return JsonValue();
    auto Event = JsonValue::parse(*Line);
    EXPECT_TRUE(bool(Event)) << Event.error().render();
    std::string Kind = Event->get("event").asString(std::string());
    if (Kind == "result") {
      Jobs.push_back(Event->get("job"));
      continue;
    }
    EXPECT_EQ(Kind, "stream-end") << *Line;
    return *Event;
  }
}

} // namespace

TEST(JsonTest, LongStringMixingPlainRunsAndEscapes) {
  // Submits carry multi-kilobyte strings (assembly, elf_hex); the parser
  // copies plain runs in bulk, so escapes at every position — first,
  // last, back to back, between long runs — must still decode exactly.
  std::string Wire = "\"";
  std::string Expected;
  const std::pair<const char *, const char *> Escapes[] = {
      {"\\n", "\n"},  {"\\t", "\t"},        {"\\\"", "\""},
      {"\\\\", "\\"}, {"\\/", "/"},         {"\\u0041", "A"},
      {"\\u00e9", "\xc3\xa9"}, {"\\u20AC", "\xe2\x82\xac"}};
  for (unsigned N = 0; N < 400; ++N) {
    const auto &[Escaped, Decoded] = Escapes[N % std::size(Escapes)];
    Wire += Escaped;
    Expected += Decoded;
    std::string Run(N % 37, static_cast<char>('a' + N % 26));
    Wire += Run;
    Expected += Run;
  }
  Wire += "\\n\"";
  Expected += "\n";
  ASSERT_GT(Wire.size(), 6000u);

  auto Parsed = JsonValue::parse(Wire);
  ASSERT_TRUE(bool(Parsed)) << Parsed.error().render();
  EXPECT_EQ(Parsed->asString(), Expected);

  // What the server renders, it reads back unchanged.
  auto Round = JsonValue::parse(JsonValue::string(Expected).render());
  ASSERT_TRUE(bool(Round)) << Round.error().render();
  EXPECT_EQ(Round->asString(), Expected);

  EXPECT_FALSE(bool(JsonValue::parse("\"plain run, no closing quote")));
  EXPECT_FALSE(bool(JsonValue::parse("\"ends in a backslash\\")));
  EXPECT_FALSE(bool(JsonValue::parse("\"bad \\q escape\"")));
  EXPECT_FALSE(bool(JsonValue::parse("\"short \\u12\"")));
}

TEST(ServeDaemonTest, HelloReportsProtocolAndSchema) {
  LiveDaemon D;
  Client Conn = D.connect();
  JsonValue Resp = callOk(Conn, verbRequest("hello"));
  EXPECT_EQ(Resp.get("server").asString(std::string()), "llsc-served");
  EXPECT_EQ(Resp.get("proto").asUint(0), ProtocolVersion);
  EXPECT_EQ(Resp.get("schema_version").asUint(0), StatsReport::SchemaVersion);
  EXPECT_FALSE(Resp.get("draining").asBool(true));
}

TEST(ServeDaemonTest, SubmitAndStreamSchemaV5Results) {
  LiveDaemon D;
  Client Conn = D.connect();
  std::string Session = createSession(Conn);
  ASSERT_FALSE(Session.empty());

  for (int J = 0; J < 3; ++J) {
    JsonValue Resp = callOk(Conn, submitRequest(Session, QuickAsm));
    EXPECT_GT(Resp.get("job_id").asUint(0), 0u);
  }

  JsonValue Stream = verbRequest("stream", Session);
  Stream.membersMut()["count"] = JsonValue::integer(3);
  ASSERT_TRUE(bool(Conn.sendLine(Stream.render())));
  std::vector<JsonValue> Jobs;
  JsonValue End = readStream(Conn, Jobs);
  ASSERT_EQ(Jobs.size(), 3u);
  for (const JsonValue &Job : Jobs) {
    // The job object is the schema-v5 StatsReport line (docs/STATS.md):
    // the keys CI asserts on must be present over the wire too. Done
    // jobs stream as the full report, which carries no "state" key —
    // only failure lines spell the state out.
    EXPECT_EQ(Job.get("schema_version").asUint(0), StatsReport::SchemaVersion);
    EXPECT_EQ(Job.get("state").asString("done"), "done");
    EXPECT_EQ(Job.get("name").asString(std::string()), "wire-job");
    EXPECT_FALSE(Job.get("guest_arch").asString(std::string()).empty());
    EXPECT_GT(Job.get("job_id").asUint(0), 0u);
  }
  EXPECT_EQ(End.get("remaining").asUint(99), 0u);
  EXPECT_FALSE(End.get("draining").asBool(true));

  // Terminal state is pollable after the stream collected the result.
  JsonValue Poll = verbRequest("poll", Session);
  Poll.membersMut()["job_id"] = JsonValue::integer(1);
  JsonValue PollResp = callOk(Conn, Poll);
  EXPECT_EQ(PollResp.get("state").asString(std::string()), "done");
}

TEST(ServeDaemonTest, QueueFullAnswersRetryAfterOverTheWire) {
  LiveDaemon D(/*Workers=*/1, /*QueueCap=*/1);
  Client Conn = D.connect();
  std::string Session = createSession(Conn);

  // Occupy the single worker (spin bounded by its deadline), then fill
  // the one queue slot; the next submit must bounce without blocking.
  callOk(Conn, submitRequest(Session, SpinAsm, /*Deadline=*/0.5));
  JsonValue Reject;
  for (int Attempt = 0; Attempt < 50; ++Attempt) {
    auto Resp = Conn.call(submitRequest(Session, QuickAsm));
    ASSERT_TRUE(bool(Resp));
    if (!Resp->get("ok").asBool(false)) {
      Reject = *Resp;
      break;
    }
  }
  ASSERT_TRUE(Reject.isObject()) << "queue never filled";
  EXPECT_EQ(Reject.get("error").asString(std::string()), "queue-full");
  EXPECT_GT(Reject.get("retry_after").asDouble(0), 0.0);
}

TEST(ServeDaemonTest, SnapshotVerbAndFromSubmitsServeClones) {
  LiveDaemon D;
  Client Conn = D.connect();
  std::string Session = createSession(Conn);

  JsonValue Snap = submitRequest(Session, QuickAsm);
  Snap.membersMut()["verb"] = JsonValue::string("snapshot");
  Snap.membersMut()["name"] = JsonValue::string("img");
  JsonValue SnapResp = callOk(Conn, Snap);
  EXPECT_EQ(SnapResp.get("snapshot").asString(std::string()), "img");

  for (int J = 0; J < 2; ++J) {
    JsonValue From = verbRequest("submit", Session);
    From.membersMut()["name"] = JsonValue::string("clone");
    From.membersMut()["from"] = JsonValue::string("img");
    callOk(Conn, From);
  }
  JsonValue Stream = verbRequest("stream", Session);
  Stream.membersMut()["count"] = JsonValue::integer(2);
  ASSERT_TRUE(bool(Conn.sendLine(Stream.render())));
  std::vector<JsonValue> Jobs;
  readStream(Conn, Jobs);
  ASSERT_EQ(Jobs.size(), 2u);
  for (const JsonValue &Job : Jobs)
    EXPECT_EQ(Job.get("state").asString("done"), "done");
  EXPECT_EQ(D.Service.fleet().fleetStats().SnapshotJobs, 2u);

  // A from referencing a snapshot this session never captured is a
  // request error, not a crash.
  JsonValue Bad = verbRequest("submit", Session);
  Bad.membersMut()["from"] = JsonValue::string("nope");
  EXPECT_NE(callError(Conn, Bad).find("unknown snapshot"), std::string::npos);
}

TEST(ServeDaemonTest, ProtocolErrorsAnswerWithoutDroppingTheConnection) {
  LiveDaemon D;
  Client Conn = D.connect();

  // Unparseable line.
  ASSERT_TRUE(bool(Conn.sendLine("this is not json")));
  auto Resp = Conn.readLine();
  ASSERT_TRUE(bool(Resp));
  auto Parsed = JsonValue::parse(*Resp);
  ASSERT_TRUE(bool(Parsed));
  EXPECT_FALSE(Parsed->get("ok").asBool(true));

  // Unknown verb.
  EXPECT_NE(callError(Conn, verbRequest("frobnicate")).find("unknown verb"),
            std::string::npos);

  // Session verbs without a session.
  callError(Conn, verbRequest("submit"));
  callError(Conn, verbRequest("stream"));

  // The connection survived all of it.
  callOk(Conn, verbRequest("hello"));
}

TEST(ServeDaemonTest, CloseSessionFreesTheName) {
  LiveDaemon D;
  Client Conn = D.connect();
  std::string Session = createSession(Conn);
  callOk(Conn, submitRequest(Session, QuickAsm));
  JsonValue Close = verbRequest("close-session", Session);
  JsonValue Resp = callOk(Conn, Close); // Defers until the job finishes.
  EXPECT_TRUE(Resp.get("closed").asBool(false));
  EXPECT_EQ(D.Service.find(Session), nullptr);
}

/// The drain contract over the wire: after requestDrain, new admissions
/// answer "draining", accepted jobs still finish and stream out, and
/// run() returns on its own.
TEST(ServeDaemonTest, DrainFinishesInFlightThenExits) {
  LiveDaemon D;
  Client Submitter = D.connect();
  std::string Session = createSession(Submitter);

  // A subscriber must be live before the drain (a drain only owes
  // results to active streams; unsubscribed buffers are forfeited), and
  // it subscribes for *more* results than will ever arrive, so the
  // drain — not normal completion — is what must end the stream.
  Client Subscriber = D.connect();
  JsonValue Stream = verbRequest("stream", Session);
  Stream.membersMut()["count"] = JsonValue::integer(8);
  ASSERT_TRUE(bool(Subscriber.sendLine(Stream.render())));

  unsigned Accepted = 0;
  for (int J = 0; J < 4; ++J)
    if (Submitter.call(submitRequest(Session, QuickAsm))
            ->get("ok")
            .asBool(false))
      ++Accepted;
  ASSERT_GT(Accepted, 0u);
  // One job still runs when the drain starts: once nothing is in flight
  // the loop exits, and the post-drain submit below would meet a closed
  // connection instead of a "draining" answer.
  callOk(Submitter, submitRequest(Session, SpinAsm, /*Deadline=*/1.0));
  ++Accepted;

  D.Srv.requestDrain();
  // Post-drain admissions bounce.
  EXPECT_EQ(callError(Submitter, submitRequest(Session, QuickAsm)),
            "draining");

  std::vector<JsonValue> Jobs;
  JsonValue End = readStream(Subscriber, Jobs);
  EXPECT_EQ(Jobs.size(), Accepted);
  for (const JsonValue &Job : Jobs)
    EXPECT_EQ(Job.get("state").asString("done"), "done");
  EXPECT_TRUE(End.get("draining").asBool(false));

  D.Loop.join(); // The loop exits unprompted once drained and flushed.
  EXPECT_EQ(D.Service.fleet().poolStats().Outstanding, 0u);
}
