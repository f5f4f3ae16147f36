// End-to-end tests for the network subsystem: a real DiscoveryServer on a
// loopback socket, driven by DiscoveryClient (and by raw sockets for the
// malformed-stream cases). Covers full discovery conversations, transcript
// parity against the in-process DiscoverySession, session-level and
// protocol-level error paths, pipelined requests, idle timeouts, graceful
// shutdown, concurrent clients, and the poll(2) fallback backend.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "core/selectors.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/event_log.h"
#include "obs/journey.h"
#include "obs/registry.h"
#include "service/discovery_session.h"
#include "service/selection_cache.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace setdisc::net {
namespace {

using namespace setdisc::testing;

SessionManagerOptions ManagerOptions(bool verify = false) {
  SessionManagerOptions options;
  options.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  options.num_threads = 4;
  options.discovery.verify_and_backtrack = verify;
  return options;
}

/// A server over `manager` on an ephemeral loopback port, started or the
/// test dies.
std::unique_ptr<DiscoveryServer> StartServer(SessionManager& manager,
                                             ServerOptions options = {}) {
  auto server = std::make_unique<DiscoveryServer>(manager, options);
  Status status = server->Start();
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_NE(server->port(), 0);
  return server;
}

/// Drives one remote conversation to completion, answering from `oracle`.
/// Returns the transport status; *out gets the final state. (Thin wrapper
/// over the library's DriveSession so the tests exercise the shared loop.)
Status DriveRemote(DiscoveryClient& client, std::span<const EntityId> initial,
                   Oracle& oracle, SessionStateMsg* out) {
  return DriveSession(client, initial, oracle, out);
}

/// The in-process reference: the same conversation through DiscoverySession
/// directly (the engine the server multiplexes).
DiscoveryResult DriveInProcess(const SetCollection& c, const InvertedIndex& idx,
                               std::span<const EntityId> initial, Oracle& oracle,
                               const DiscoveryOptions& options) {
  MostEvenSelector selector;
  DiscoverySession session(c, idx, initial, selector, options);
  int guard = 0;
  while (!session.done() && guard++ < 100000) {
    if (session.state() == SessionState::kAwaitingAnswer) {
      session.SubmitAnswer(oracle.AskMembership(session.NextQuestion()));
    } else {
      session.Verify(oracle.ConfirmTarget(session.PendingVerify()));
    }
  }
  return session.TakeResult();
}

void ExpectSameResult(const DiscoveryResult& a, const DiscoveryResult& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.backtracks, b.backtracks);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(a.halted, b.halted);
  ASSERT_EQ(a.transcript.size(), b.transcript.size());
  for (size_t i = 0; i < a.transcript.size(); ++i) {
    EXPECT_EQ(a.transcript[i].first, b.transcript[i].first) << "question " << i;
    EXPECT_EQ(a.transcript[i].second, b.transcript[i].second) << "answer " << i;
  }
}

// ---------------------------------------------------------------------------
// Full conversations
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, FullSessionOverTcpDiscoversEveryTarget) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (SetId target = 0; target < c.num_sets(); ++target) {
    SimulatedOracle oracle(&c, target);
    SessionStateMsg state;
    ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
    ASSERT_EQ(state.state, SessionState::kFinished);
    DiscoveryResult result = ToDiscoveryResult(state.result);
    ASSERT_TRUE(result.found());
    EXPECT_EQ(result.discovered(), target);
    EXPECT_TRUE(client.CloseSession(state.session_id).ok());
  }
  EXPECT_EQ(manager.num_active(), 0u);
}

// The acceptance bar: the transcript of a socket-driven session is
// byte-identical to the in-process engine, across all targets and the §6
// configurations (don't-know exclusion, verification with backtracking).
TEST(DiscoveryServer, SocketTranscriptsMatchInProcessSessionsExactly) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  struct Config {
    bool verify;
    double error_rate;
    double dont_know_rate;
    uint64_t seed;
  };
  for (const Config& config :
       {Config{false, 0.0, 0.0, 31}, Config{false, 0.0, 0.3, 32},
        Config{true, 0.2, 0.0, 33}, Config{true, 0.15, 0.15, 34}}) {
    SessionManagerOptions options = ManagerOptions(config.verify);
    SessionManager manager(c, idx, options);
    auto server = StartServer(manager);
    DiscoveryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

    for (SetId target = 0; target < c.num_sets(); ++target) {
      SimulatedOracle remote_oracle(&c, target, config.error_rate,
                                    config.dont_know_rate, config.seed);
      SessionStateMsg state;
      ASSERT_TRUE(DriveRemote(client, {}, remote_oracle, &state).ok());
      ASSERT_EQ(state.state, SessionState::kFinished);
      DiscoveryResult remote = ToDiscoveryResult(state.result);
      client.CloseSession(state.session_id);

      SimulatedOracle local_oracle(&c, target, config.error_rate,
                                   config.dont_know_rate, config.seed);
      DiscoveryResult local =
          DriveInProcess(c, idx, {}, local_oracle, options.discovery);
      ExpectSameResult(local, remote);
    }
  }
}

TEST(DiscoveryServer, InitialExamplesTravelTheWire) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);
  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  // {d, e} uniquely identifies S2: finished at birth, result in the reply.
  std::vector<EntityId> initial = {kD, kE};
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession(initial, &state).ok());
  EXPECT_EQ(state.state, SessionState::kFinished);
  DiscoveryResult result = ToDiscoveryResult(state.result);
  ASSERT_TRUE(result.found());
  EXPECT_EQ(c.label(result.discovered()), "S2");
  EXPECT_EQ(result.questions, 0);
  // Finished-at-birth sessions are never registered server-side.
  EXPECT_FALSE(client.CloseSession(state.session_id).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);
}

TEST(DiscoveryServer, SessionsAreAddressableAcrossConnections) {
  // The session id in each frame is the address: a conversation opened on
  // one connection can continue on another (reconnect, load-balanced
  // clients...).
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient first;
  // Tokenless session: this test is about raw addressability by id across
  // connections. Token-protected handoff (present the token or get
  // kNotFound) is covered by the crash-recovery and session-store tests.
  first.set_want_token(false);
  ASSERT_TRUE(first.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(first.CreateSession({}, &state).ok());
  ASSERT_EQ(state.state, SessionState::kAwaitingAnswer);
  first.Disconnect();

  DiscoveryClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server->port()).ok());
  SimulatedOracle oracle(&c, /*target=*/3);
  int guard = 0;
  Status s = Status::OK();
  while (s.ok() && state.state == SessionState::kAwaitingAnswer &&
         guard++ < 1000) {
    s = second.Answer(state.session_id, oracle.AskMembership(state.question),
                      &state);
  }
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(state.state, SessionState::kFinished);
  EXPECT_EQ(ToDiscoveryResult(state.result).discovered(), 3u);
}

// ---------------------------------------------------------------------------
// Session-level errors (connection survives)
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, SessionErrorsAreReportedAndConnectionSurvives) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions(/*verify=*/true));
  auto server = StartServer(manager);
  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  SessionStateMsg state;
  // Unknown session.
  EXPECT_FALSE(client.Answer(999999, Oracle::Answer::kYes, &state).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);
  EXPECT_FALSE(client.GetSession(999999, &state).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);

  // Wrong state: Verify while a question is pending.
  ASSERT_TRUE(client.CreateSession({}, &state).ok());
  ASSERT_EQ(state.state, SessionState::kAwaitingAnswer);
  EXPECT_FALSE(client.Verify(state.session_id, true, &state).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kWrongState);

  // The connection is still healthy: the session steps normally.
  SessionStateMsg probe;
  ASSERT_TRUE(client.GetSession(state.session_id, &probe).ok());
  EXPECT_EQ(probe.state, SessionState::kAwaitingAnswer);
  EXPECT_EQ(probe.question, state.question);

  // Close, then the id is gone.
  ASSERT_TRUE(client.CloseSession(state.session_id).ok());
  EXPECT_FALSE(client.Answer(state.session_id, Oracle::Answer::kYes, &state).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);
}

// ---------------------------------------------------------------------------
// Protocol-level errors (connection is poisoned and closed)
// ---------------------------------------------------------------------------

/// Raw-socket helper: reads frames with a poll() deadline so a misbehaving
/// server fails the test instead of hanging it.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    Result<UniqueFd> fd = TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(fd.ok());
    if (fd.ok()) fd_ = std::move(fd.value());
  }

  void Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = SendSome(fd_.get(), bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// kFrame, kNeedMore (deadline hit), or kError; EOF sets eof().
  FrameDecoder::Next ReadFrame(Frame* out, int deadline_ms = 2000) {
    for (int waited = 0; waited <= deadline_ms;) {
      WireStatus error;
      FrameDecoder::Next next = decoder_.Pop(out, &error);
      if (next != FrameDecoder::Next::kNeedMore) return next;
      pollfd pfd{fd_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) {
        waited += 50;
        continue;
      }
      char buf[4096];
      ssize_t got = RecvSome(fd_.get(), buf, sizeof(buf));
      if (got == kRecvEof || got < 0) {
        eof_ = true;
        return FrameDecoder::Next::kNeedMore;
      }
      decoder_.Feed(buf, static_cast<size_t>(got));
    }
    return FrameDecoder::Next::kNeedMore;
  }

  /// True once the server has closed the connection (after draining input).
  bool WaitForEof(int deadline_ms = 2000) {
    Frame scratch;
    ReadFrame(&scratch, deadline_ms);
    return eof_;
  }

  /// Closes our write side (send-then-shutdown idiom); reads keep working.
  void HalfClose() { ::shutdown(fd_.get(), SHUT_WR); }

  bool eof() const { return eof_; }

 private:
  UniqueFd fd_;
  FrameDecoder decoder_;
  bool eof_ = false;
};

TEST(DiscoveryServer, GarbageBytesGetAnErrorFrameThenClose) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  conn.Send("GET / HTTP/1.1\r\nHost: wrong-protocol\r\n\r\n");
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  ASSERT_EQ(frame.type, MsgType::kError);
  ErrorMsg error;
  ASSERT_TRUE(Decode(frame.body, &error));
  EXPECT_EQ(error.status, WireStatus::kBadVersion);  // 'G' is not version 1
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_EQ(server->stats().protocol_errors, 1u);
}

TEST(DiscoveryServer, OversizedFrameIsRefusedBeforeItsBodyArrives) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.max_frame_body = 1024;
  auto server = StartServer(manager, options);

  RawConn conn(server->port());
  std::string header;
  PayloadWriter w(&header);
  w.PutU32(1 << 30);  // a gigabyte body, never sent
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(MsgType::kCreateSession));
  w.PutU16(0);
  conn.Send(header);
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  ASSERT_EQ(frame.type, MsgType::kError);
  ErrorMsg error;
  ASSERT_TRUE(Decode(frame.body, &error));
  EXPECT_EQ(error.status, WireStatus::kOversized);
  EXPECT_TRUE(conn.WaitForEof());
}

TEST(DiscoveryServer, MalformedPayloadAndUnknownTypeCloseTheConnection) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  {
    // Well-framed kAnswer with an out-of-range answer value.
    RawConn conn(server->port());
    std::string body(9, '\0');
    body[8] = 7;  // not a WireAnswer
    conn.Send(EncodeFrame(MsgType::kAnswer, body));
    Frame frame;
    ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
    ASSERT_EQ(frame.type, MsgType::kError);
    ErrorMsg error;
    ASSERT_TRUE(Decode(frame.body, &error));
    EXPECT_EQ(error.status, WireStatus::kMalformed);
    EXPECT_TRUE(conn.WaitForEof());
  }
  {
    // Unknown message type.
    RawConn conn(server->port());
    conn.Send(EncodeFrame(static_cast<MsgType>(0x55), ""));
    Frame frame;
    ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
    ASSERT_EQ(frame.type, MsgType::kError);
    ErrorMsg error;
    ASSERT_TRUE(Decode(frame.body, &error));
    EXPECT_EQ(error.status, WireStatus::kBadType);
    EXPECT_TRUE(conn.WaitForEof());
  }
}

TEST(DiscoveryServer, HalfClosingClientStillGetsItsReplies) {
  // Send-then-shutdown(SHUT_WR): the EOF often arrives in the same read
  // batch as the final request. The server must answer what arrived before
  // the EOF, flush, and only then close.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  conn.Send(Encode(CreateSessionMsg{}) + EncodeStatsRequest());
  conn.HalfClose();
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSessionState);
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kStatsReply);
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_EQ(server->stats().protocol_errors, 0u);
}

TEST(DiscoveryServer, RequestsQueuedBehindAMalformedPayloadAreDropped) {
  // [malformed Answer, Stats] pipelined in one write: the Stats arrived
  // AFTER the poisoned request, so it must NOT be answered — the client
  // would misattribute its reply to the malformed request. Expect exactly
  // one Error frame, then close.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  std::string bad_answer(9, '\0');
  bad_answer[8] = 7;  // not a WireAnswer
  conn.Send(EncodeFrame(MsgType::kAnswer, bad_answer) + EncodeStatsRequest());
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kError);
  ErrorMsg error;
  ASSERT_TRUE(Decode(frame.body, &error));
  EXPECT_EQ(error.status, WireStatus::kMalformed);
  // Nothing else: the Stats frame was dropped, the connection closes.
  Frame extra;
  EXPECT_NE(conn.ReadFrame(&extra, /*deadline_ms=*/500),
            FrameDecoder::Next::kFrame);
  EXPECT_TRUE(conn.eof());
}

TEST(DiscoveryServer, PoisonAfterValidRequestKeepsReplyOrder) {
  // A valid (offloaded) request followed by garbage on the same connection:
  // the request's reply must still come FIRST, then the Error frame, then
  // close — the n-th reply answers the n-th request even on a dying stream.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  conn.Send(Encode(CreateSessionMsg{}) + "\xde\xad\xbe\xef garbage");
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSessionState);
  SessionStateMsg state;
  ASSERT_TRUE(Decode(frame.body, &state));
  EXPECT_EQ(state.state, SessionState::kAwaitingAnswer);
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_TRUE(conn.WaitForEof());
}

TEST(DiscoveryServer, ShutdownWithQueuedPipelinedRequestsIsFast) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.drain_timeout = std::chrono::seconds(10);
  auto server = StartServer(manager, options);

  // Pipeline a pile of requests and never read: some are queued (or still
  // in the socket) when the drain starts. Shutdown must refuse/flush and
  // return in far less than the drain deadline, not stall on them.
  RawConn conn(server->port());
  std::string blast;
  for (int i = 0; i < 50; ++i) blast += Encode(CreateSessionMsg{});
  conn.Send(blast);
  auto start = std::chrono::steady_clock::now();
  server->Shutdown();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "drain stalled on backlog";
}

TEST(DiscoveryServer, PipelinedRequestsAreAnsweredInOrder) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  // One write, three requests: Create (pool-offloaded), Stats (inline),
  // Create again. Replies must come back in exactly this order.
  CreateSessionMsg create;
  conn.Send(Encode(create) + EncodeStatsRequest() + Encode(create));
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSessionState);
  SessionStateMsg first;
  ASSERT_TRUE(Decode(frame.body, &first));
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kStatsReply);
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSessionState);
  SessionStateMsg second;
  ASSERT_TRUE(Decode(frame.body, &second));
  EXPECT_LT(first.session_id, second.session_id);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, IdleConnectionsAreSweptAfterTheTimeout) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  auto server = StartServer(manager, options);

  DiscoveryClient client;
  // Observe the raw sweep: with the retry envelope on, the client would
  // transparently reconnect and the post-sweep RPC would succeed.
  client.set_no_retry();
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state).ok());  // activity
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  // The sweep has closed us; the next RPC dies on transport.
  Status s = client.CreateSession({}, &state);
  EXPECT_FALSE(s.ok());
  EXPECT_GE(server->stats().idle_closed, 1u);
  EXPECT_EQ(server->stats().connections_open, 0u);

  // A fresh connection is welcome — the server itself is healthy.
  DiscoveryClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(again.CreateSession({}, &state).ok());
}

TEST(DiscoveryServer, GracefulShutdownFlushesAndCloses) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  // Tokenless + no retry: the point below is that the bare manager keeps the
  // session after the frontend dies, checked via an id-only in-process Get;
  // a token-protected session would (correctly) refuse that Get, and the
  // retry envelope would spin reconnecting to a server that is gone.
  client.set_want_token(false);
  client.set_no_retry();
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state).ok());
  ASSERT_EQ(state.state, SessionState::kAwaitingAnswer);

  server->Shutdown();
  EXPECT_FALSE(server->running());
  // The conversation is cut...
  EXPECT_FALSE(client.Answer(state.session_id, Oracle::Answer::kYes, &state).ok());
  // ...but the engine (and the session) survive the frontend: the manager
  // can keep serving in-process or behind a new server.
  EXPECT_EQ(manager.num_active(), 1u);
  SessionView view;
  EXPECT_EQ(manager.Get(state.session_id, &view), SessionStatus::kOk);
}

TEST(DiscoveryServer, ShutdownWithNoClientsIsImmediateAndIdempotent) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);
  server->Shutdown();
  server->Shutdown();  // idempotent
  EXPECT_FALSE(server->running());
  // Destruction after shutdown is clean too (covered by the dtor).
}

TEST(DiscoveryServer, RestartAfterShutdownServesAgain) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  DiscoveryServer server(manager, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  uint16_t first_port = server.port();
  {
    DiscoveryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", first_port).ok());
    SessionStateMsg state;
    ASSERT_TRUE(client.CreateSession({}, &state).ok());
  }
  server.Shutdown();

  // The same object must come back up cleanly (fresh listener, no stale
  // drain state) and serve full sessions again.
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  SimulatedOracle oracle(&c, /*target=*/2);
  SessionStateMsg state;
  ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
  ASSERT_EQ(state.state, SessionState::kFinished);
  EXPECT_EQ(ToDiscoveryResult(state.result).discovered(), 2u);
  server.Shutdown();
}

TEST(DiscoveryServer, PipelinedFloodIsBackpressuredNotUnbounded) {
  // Blast far more pipelined requests than the per-connection backlog bound
  // without reading a single reply. The server must pause reading (TCP
  // backpressure) instead of queuing without limit, then answer everything
  // in order as the client drains.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  constexpr int kRequests = 500;  // well past the 128-frame pending bound
  std::string blast;
  for (int i = 0; i < kRequests; ++i) blast += EncodeStatsRequest();

  RawConn conn(server->port());
  // The raw send may itself block once server-side reading pauses and the
  // socket buffers fill; send from a helper thread while this thread reads
  // replies (which is what unblocks everything).
  std::thread sender([&] { conn.Send(blast); });
  int got = 0;
  for (; got < kRequests; ++got) {
    Frame frame;
    if (conn.ReadFrame(&frame, /*deadline_ms=*/10000) !=
        FrameDecoder::Next::kFrame) {
      break;
    }
    ASSERT_EQ(frame.type, MsgType::kStatsReply) << "reply " << got;
  }
  sender.join();
  EXPECT_EQ(got, kRequests);
  EXPECT_EQ(server->stats().protocol_errors, 0u);
}

TEST(DiscoveryServer, ManyConcurrentClientsAllConverge) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  constexpr int kClients = 8;
  constexpr int kSessionsEach = 8;
  std::vector<int> failures(kClients, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        DiscoveryClient client;
        if (!client.Connect("127.0.0.1", server->port()).ok()) {
          failures[t] = kSessionsEach;
          return;
        }
        for (int i = 0; i < kSessionsEach; ++i) {
          SetId target = static_cast<SetId>((t * kSessionsEach + i) %
                                            c.num_sets());
          SimulatedOracle oracle(&c, target);
          SessionStateMsg state;
          Status s = DriveRemote(client, {}, oracle, &state);
          bool ok = s.ok() && state.state == SessionState::kFinished &&
                    ToDiscoveryResult(state.result).discovered() == target;
          if (!ok) ++failures[t];
          client.CloseSession(state.session_id);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(failures[t], 0) << "client " << t;
  }
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_total, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(manager.num_created(),
            static_cast<uint64_t>(kClients * kSessionsEach));
}

TEST(DiscoveryServer, PollFallbackBackendServesIdentically) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.use_epoll = false;  // force the poll(2) backend
  auto server = StartServer(manager, options);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (SetId target = 0; target < c.num_sets(); ++target) {
    SimulatedOracle remote_oracle(&c, target);
    SessionStateMsg state;
    ASSERT_TRUE(DriveRemote(client, {}, remote_oracle, &state).ok());
    DiscoveryResult remote = ToDiscoveryResult(state.result);
    client.CloseSession(state.session_id);

    SimulatedOracle local_oracle(&c, target);
    DiscoveryResult local = DriveInProcess(c, idx, {}, local_oracle, {});
    ExpectSameResult(local, remote);
  }
}

TEST(DiscoveryServer, StatsReplyTracksTraffic) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state).ok());
  StatsReplyMsg stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  EXPECT_EQ(stats.active_sessions, 1u);
  EXPECT_EQ(stats.created_sessions, 1u);
  EXPECT_EQ(stats.connections_open, 1u);
  EXPECT_EQ(stats.connections_total, 1u);
  EXPECT_GE(stats.frames_received, 2u);  // the create + this stats request
  EXPECT_GE(stats.frames_sent, 1u);      // the create reply
}

// ---------------------------------------------------------------------------
// Rich stats and per-session traces over the wire
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, OneStatsRoundTripCarriesTheWholeServingPicture) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SelectionCacheOptions cache_options;
  cache_options.capacity = 1024;
  SelectionCache cache(cache_options);
  SessionManagerOptions options = ManagerOptions();
  options.selection_cache = &cache;
  options.metrics = &obs::MetricsRegistry::Default();
  SessionManager manager(c, idx, options);
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  // Repeat targets so the shared selection cache serves hits too.
  for (SetId target : {SetId{0}, SetId{1}, SetId{2}, SetId{0}, SetId{1}}) {
    SimulatedOracle oracle(&c, target);
    SessionStateMsg state;
    ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
    ASSERT_EQ(state.state, SessionState::kFinished);
    ASSERT_TRUE(client.CloseSession(state.session_id).ok());
  }

  // The acceptance shape: one kStats reply carries step-latency quantiles,
  // the cache hit rate, the delta serve-path mix, and the pool queue depth.
  StatsReplyMsg stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  ASSERT_TRUE(stats.has_rich);
  EXPECT_EQ(stats.rich_version, 2);
  EXPECT_GT(stats.step_latency.count, 0u);
  EXPECT_GT(stats.step_latency.p50, 0u);
  EXPECT_GE(stats.step_latency.p99, stats.step_latency.p50);
  EXPECT_GT(stats.step_latency.sum, 0u);
  EXPECT_GT(stats.cache_lookups, 0u);
  EXPECT_GT(stats.cache_hits, 0u);  // the repeated targets hit
  EXPECT_LE(stats.cache_hits, stats.cache_lookups);
  EXPECT_GT(stats.delta_full + stats.delta_delta + stats.delta_reemit, 0u);

  // The registry dump rides along, including the manager's adopted gauges.
  ASSERT_FALSE(stats.registry.empty());
  bool saw_sessions_created = false;
  for (const auto& [name, value] : stats.registry) {
    if (name == "setdisc_sessions_created_total") {
      saw_sessions_created = true;
      EXPECT_GE(value, 5u);
    }
  }
  EXPECT_TRUE(saw_sessions_created);
}

TEST(DiscoveryServer, TracedSessionShipsItsRingOverTheWire) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state, /*enable_trace=*/true).ok());
  SimulatedOracle oracle(&c, /*target=*/3);
  uint32_t steps = 0;
  while (state.state == SessionState::kAwaitingAnswer) {
    ASSERT_TRUE(client
                    .Answer(state.session_id,
                            oracle.AskMembership(state.question), &state)
                    .ok());
    ++steps;
    ASSERT_LT(steps, 100u);
  }
  ASSERT_EQ(state.state, SessionState::kFinished);
  ASSERT_GT(steps, 0u);

  TraceReplyMsg trace;
  ASSERT_TRUE(client.GetTrace(state.session_id, &trace).ok());
  EXPECT_EQ(trace.session_id, state.session_id);
  ASSERT_EQ(trace.events.size(), static_cast<size_t>(steps));
  for (uint32_t i = 0; i < steps; ++i) {
    const obs::TraceEvent& ev = trace.events[i];
    EXPECT_EQ(ev.step, i);
    EXPECT_EQ(ev.kind, 0);  // clean answers: no verify steps
    EXPECT_GT(ev.total_ns, 0u);
    const uint64_t select =
        ev.phase_ns[static_cast<size_t>(obs::Phase::kSelect)];
    const uint64_t emit = ev.phase_ns[static_cast<size_t>(obs::Phase::kEmit)];
    EXPECT_LE(select + emit, ev.total_ns);
  }
}

TEST(DiscoveryServer, GetTraceErrorsMatchSessionState) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  TraceReplyMsg trace;
  EXPECT_FALSE(client.GetTrace(424242, &trace).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);

  // An untraced session has no ring: asking for one is a state error, and
  // the connection survives it.
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state).ok());
  EXPECT_FALSE(client.GetTrace(state.session_id, &trace).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kWrongState);
  SessionStateMsg probe;
  EXPECT_TRUE(client.GetSession(state.session_id, &probe).ok());
}

// ---------------------------------------------------------------------------
// Steps served on the event loop
// ---------------------------------------------------------------------------

/// The threads Select() ran on, shared by every selector of one manager.
struct SelectLog {
  std::mutex mu;
  std::set<std::thread::id> threads;
  uint64_t selects = 0;
};

/// MostEven behind a forwarding selector that records the thread of every
/// Select — the selector under the manager's CachingSelector, so it runs
/// exactly when a decision is computed rather than served from the cache.
/// `delay` makes each computed decision hold the session mutex that long.
class RecordingSelector : public EntitySelector {
 public:
  RecordingSelector(SelectLog* log, std::chrono::microseconds delay = {})
      : log_(log), delay_(delay) {}

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded) override {
    {
      std::lock_guard<std::mutex> lock(log_->mu);
      log_->threads.insert(std::this_thread::get_id());
      ++log_->selects;
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    return inner_.Select(sub, excluded);
  }
  std::string_view name() const override { return inner_.name(); }
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override {
    inner_.NotePartition(parent, e, kept_contains, kept, std::move(dropped));
  }
  void InvalidateCountState() override { inner_.InvalidateCountState(); }
  void ReleaseMemory() override { inner_.ReleaseMemory(); }

 private:
  MostEvenSelector inner_;
  SelectLog* log_;
  std::chrono::microseconds delay_;
};

/// The ids of every worker of `pool`: one job per worker, each held until
/// all have started, so no worker can take two.
std::set<std::thread::id> WorkerThreads(ThreadPool& pool) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> ids;
  const size_t n = pool.num_threads();
  std::vector<std::future<void>> jobs;
  for (size_t i = 0; i < n; ++i) {
    jobs.push_back(pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait(lock, [&] { return ids.size() == n; });
    }));
  }
  for (std::future<void>& job : jobs) job.get();
  return ids;
}

/// Requests of one op the event loop served in place, so far.
uint64_t InlineServed(const char* op) {
  return obs::MetricsRegistry::Default()
      .GetHistogram("setdisc_request_ns", {{"op", op}, {"path", "inline"}})
      ->Snapshot()
      .count;
}

TEST(DiscoveryServer, InlineStepsNeverSelectOnTheLoopThread) {
  SetCollection c = RandomCollection(/*seed=*/41, /*n=*/96, /*m=*/40, 0.3);
  InvertedIndex idx(c);
  SelectLog log;
  SelectionCache cache;
  SessionManagerOptions options = ManagerOptions();
  options.num_threads = 2;
  options.selector_factory = [&log] {
    return std::make_unique<RecordingSelector>(&log);
  };
  options.selection_cache = &cache;
  SessionManager manager(c, idx, options);
  const std::set<std::thread::id> workers = WorkerThreads(manager.pool());
  ASSERT_EQ(workers.size(), 2u);
  auto server = StartServer(manager);

  // The reference transcripts, with don't-knows so the pooled re-select
  // path is in the mix.
  auto oracle_for = [&c](SetId target) {
    return SimulatedOracle(&c, target, /*error_rate=*/0.0,
                           /*dont_know_rate=*/0.1, /*seed=*/100 + target);
  };
  std::vector<DiscoveryResult> expected(c.num_sets());
  for (SetId target = 0; target < c.num_sets(); ++target) {
    MostEvenSelector selector;
    SimulatedOracle oracle = oracle_for(target);
    expected[target] =
        Discover(c, idx, {}, selector, oracle, options.discovery);
  }

  // Three clients split the targets; the first pass meets a cold cache
  // (every key misses on first use), the second a warm one.
  auto pass = [&] {
    constexpr SetId kClients = 3;
    std::vector<std::thread> clients;
    for (SetId k = 0; k < kClients; ++k) {
      clients.emplace_back([&, k] {
        DiscoveryClient client;
        ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
        for (SetId target = k; target < c.num_sets(); target += kClients) {
          SimulatedOracle oracle = oracle_for(target);
          SessionStateMsg state;
          ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
          ASSERT_EQ(state.state, SessionState::kFinished);
          ExpectSameResult(expected[target], ToDiscoveryResult(state.result));
          EXPECT_TRUE(client.CloseSession(state.session_id).ok());
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };
  pass();
  const uint64_t cold_selects = log.selects;
  const uint64_t before_warm = InlineServed("answer");
  pass();
  EXPECT_GT(InlineServed("answer"), before_warm);
  EXPECT_GT(cold_selects, 0u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, cache.stats().lookups);

  std::lock_guard<std::mutex> lock(log.mu);
  for (std::thread::id id : log.threads) {
    EXPECT_TRUE(workers.count(id) == 1) << "a Select ran off the pool";
  }
}

/// MostEven whose Select, once armed, reports that it started and then
/// waits for the test to open the gate — holding the session mutex.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool armed = false;
  bool entered = false;
  bool open = false;
};

class GatedSelector : public EntitySelector {
 public:
  explicit GatedSelector(Gate* gate) : gate_(gate) {}
  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded) override {
    {
      std::unique_lock<std::mutex> lock(gate_->mu);
      if (gate_->armed) {
        gate_->entered = true;
        gate_->cv.notify_all();
        gate_->cv.wait(lock, [this] { return gate_->open; });
      }
    }
    return inner_.Select(sub, excluded);
  }
  std::string_view name() const override { return inner_.name(); }

 private:
  MostEvenSelector inner_;
  Gate* gate_;
};

// A Get that finds the session mutex held by a pooled step cannot be
// served in place: it falls back to the pool and waits there, so its reply
// shows the step's outcome. A pipelined Get behind it answers after it.
TEST(DiscoveryServer, GetBehindAPooledStepFallsBackToThePool) {
  SetCollection c = RandomCollection(/*seed=*/45, /*n=*/64, /*m=*/32, 0.3);
  InvertedIndex idx(c);
  Gate gate;
  SessionManagerOptions options = ManagerOptions();
  options.num_threads = 2;
  options.selector_factory = [&gate] {
    return std::make_unique<GatedSelector>(&gate);
  };
  SessionManager manager(c, idx, options);
  auto server = StartServer(manager);

  DiscoveryClient creator;
  creator.set_want_token(false);  // the raw frames below carry none
  ASSERT_TRUE(creator.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg created;
  ASSERT_TRUE(creator.CreateSession({}, &created).ok());
  ASSERT_EQ(created.state, SessionState::kAwaitingAnswer);
  const uint64_t id = created.session_id;
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.armed = true;
  }

  // Without a cache the Answer's next question is computed: on the pool,
  // where it stops at the gate holding the session mutex.
  RawConn answerer(server->port());
  answerer.Send(Encode(AnswerMsg{id, Oracle::Answer::kYes}));
  {
    std::unique_lock<std::mutex> lock(gate.mu);
    ASSERT_TRUE(gate.cv.wait_for(lock, std::chrono::seconds(5),
                                 [&] { return gate.entered; }));
  }
  SessionRefMsg ref;
  ref.session_id = id;
  RawConn getter(server->port());
  getter.Send(Encode(MsgType::kGetSession, ref) +
              Encode(MsgType::kGetSession, ref));
  Frame frame;
  // Served in place, the Get would have answered at once, before the step.
  EXPECT_EQ(getter.ReadFrame(&frame, 200), FrameDecoder::Next::kNeedMore);
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.armed = false;
    gate.open = true;
  }
  gate.cv.notify_all();

  ASSERT_EQ(answerer.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  ASSERT_EQ(frame.type, MsgType::kSessionState);
  SessionStateMsg stepped;
  ASSERT_TRUE(Decode(frame.body, &stepped));
  EXPECT_EQ(stepped.questions_asked, 1u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(getter.ReadFrame(&frame), FrameDecoder::Next::kFrame);
    ASSERT_EQ(frame.type, MsgType::kSessionState);
    SessionStateMsg got;
    ASSERT_TRUE(Decode(frame.body, &got));
    EXPECT_EQ(got.questions_asked, 1u) << "Get " << i;
    EXPECT_EQ(got.question, stepped.question);
  }
  EXPECT_TRUE(creator.CloseSession(id).ok());
}

// Two connections answer and Get one session while a third closes it. A
// Get or Answer that finds the session mutex held by a pooled step (a
// cache miss, made slow here) cannot be served in place and falls back to
// the pool; replies on every connection must still come back one per
// request, in request order.
TEST(DiscoveryServer, InlineAndPooledStepsRaceOnOneSession) {
  SetCollection c = RandomCollection(/*seed=*/43, /*n=*/200, /*m=*/48, 0.3);
  InvertedIndex idx(c);
  SelectLog log;
  SelectionCache cache;
  SessionManagerOptions options = ManagerOptions();
  options.num_threads = 2;
  options.selector_factory = [&log] {
    return std::make_unique<RecordingSelector>(
        &log, std::chrono::microseconds(300));
  };
  options.selection_cache = &cache;
  SessionManager manager(c, idx, options);
  auto server = StartServer(manager);

  for (int round = 0; round < 8; ++round) {
    DiscoveryClient creator;
    creator.set_want_token(false);  // the raw frames below carry none
    ASSERT_TRUE(creator.Connect("127.0.0.1", server->port()).ok());
    SessionStateMsg created;
    ASSERT_TRUE(creator.CreateSession({}, &created).ok());
    const uint64_t id = created.session_id;

    // Each stepping connection pipelines alternating Get and Answer
    // requests in one write, then reads every reply.
    constexpr int kRequests = 24;
    auto stepper = [&](Oracle::Answer answer) {
      RawConn conn(server->port());
      std::string batch;
      for (int i = 0; i < kRequests; ++i) {
        SessionRefMsg get;
        get.session_id = id;
        batch += i % 2 == 0 ? Encode(MsgType::kGetSession, get)
                            : Encode(AnswerMsg{id, answer});
      }
      conn.Send(batch);
      int last_asked = -1;
      for (int i = 0; i < kRequests; ++i) {
        Frame frame;
        ASSERT_EQ(conn.ReadFrame(&frame, 5000), FrameDecoder::Next::kFrame)
            << "reply " << i;
        if (frame.type == MsgType::kError) {
          ErrorMsg error;
          ASSERT_TRUE(Decode(frame.body, &error));
          // Closed under us, or finished before this Answer arrived.
          EXPECT_TRUE(error.status == WireStatus::kNotFound ||
                      (i % 2 == 1 && error.status == WireStatus::kWrongState))
              << WireStatusName(error.status);
          continue;
        }
        ASSERT_EQ(frame.type, MsgType::kSessionState);
        SessionStateMsg state;
        ASSERT_TRUE(Decode(frame.body, &state));
        EXPECT_EQ(state.session_id, id);
        // The session only moves forward, and this connection's replies
        // arrive in its request order.
        const int asked = static_cast<int>(state.questions_asked);
        EXPECT_GE(asked, last_asked) << "reply " << i;
        last_asked = asked;
      }
    };
    std::thread a(stepper, Oracle::Answer::kNo);
    std::thread b(stepper, Oracle::Answer::kYes);
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    creator.CloseSession(id);  // may lose the race to the session's end
    a.join();
    b.join();
  }
  EXPECT_EQ(manager.num_active(), 0u);
}

// ---------------------------------------------------------------------------
// Request-journey tracing end to end
// ---------------------------------------------------------------------------

/// Turns journey tracing on for one test and restores the default after.
struct JourneyOn {
  JourneyOn() { obs::SetJourneyEnabled(true); }
  ~JourneyOn() { obs::SetJourneyEnabled(false); }
};

TEST(DiscoveryServer, JourneySpansReconstructTheRequestTree) {
  JourneyOn journey;
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SelectionCache cache;
  SessionManagerOptions options = ManagerOptions();
  options.selection_cache = &cache;
  SessionManager manager(c, idx, options);
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  // The client pins the trace id; the server threads it through the pool
  // job or the in-place attempt, the session, and every step. The same
  // conversation runs twice under it: the first meets a cold cache and is
  // served on the pool; the second's Create runs there too (the first
  // Create missed), and its cached steps are served in place.
  const obs::TraceId trace = obs::MakeTraceId();
  client.set_trace_id(trace.hi, trace.lo);

  uint32_t steps = 0;
  for (int round = 0; round < 2; ++round) {
    SessionStateMsg state;
    ASSERT_TRUE(client.CreateSession({}, &state).ok());
    EXPECT_EQ(client.sent_trace_hi(), trace.hi);
    EXPECT_EQ(client.sent_trace_lo(), trace.lo);
    SimulatedOracle oracle(&c, /*target=*/2);
    while (state.state == SessionState::kAwaitingAnswer) {
      ASSERT_TRUE(client
                      .Answer(state.session_id,
                              oracle.AskMembership(state.question), &state)
                      .ok());
      ++steps;
      ASSERT_LT(steps, 100u);
    }
    ASSERT_EQ(state.state, SessionState::kFinished);
  }
  ASSERT_GT(steps, 0u);

  // Reconstruct the span tree for our trace id from the process ring.
  std::vector<obs::Span> ours;
  for (const obs::Span& s : obs::Journey().Snapshot()) {
    if (s.trace_hi == trace.hi && s.trace_lo == trace.lo) ours.push_back(s);
  }
  size_t create_reqs = 0, answer_reqs = 0, queue_waits = 0, step_spans = 0;
  size_t pooled_reqs = 0;
  std::vector<uint64_t> request_ids;
  for (const obs::Span& s : ours) {
    const std::string name(s.name);
    if (name == "req:create" || name == "req:answer") {
      EXPECT_EQ(s.parent_id, 0u) << name << " must be a root span";
      request_ids.push_back(s.span_id);
      (name == "req:create" ? create_reqs : answer_reqs)++;
      // The path annotation says who served it: the pool, or the loop in
      // place (the cached steps).
      std::string path;
      for (uint8_t i = 0; i < s.num_annotations; ++i) {
        if (std::string(s.ann_key[i]) == "path") path = s.ann_value[i];
      }
      EXPECT_TRUE(path == "pool" || path == "inline") << path;
      if (path == "pool") ++pooled_reqs;
    }
  }
  EXPECT_EQ(create_reqs, 2u);
  EXPECT_EQ(answer_reqs, static_cast<size_t>(steps));
  auto is_request = [&](uint64_t id) {
    return std::find(request_ids.begin(), request_ids.end(), id) !=
           request_ids.end();
  };
  for (const obs::Span& s : ours) {
    const std::string name(s.name);
    if (name == "queue_wait") {
      EXPECT_TRUE(is_request(s.parent_id)) << "queue_wait outside a request";
      ++queue_waits;
    } else if (name == "step:answer") {
      // Every step span hangs off the request that ran it and carries its
      // phase breakdown (step index + serve path annotations at minimum).
      EXPECT_TRUE(is_request(s.parent_id)) << "step outside a request";
      EXPECT_GT(s.duration_ns, 0u);
      ASSERT_GE(s.num_annotations, 2);
      EXPECT_STREQ(s.ann_key[0], "step");
      ++step_spans;
    }
  }
  // One wait child per pooled request; a request served in place has none.
  EXPECT_EQ(queue_waits, pooled_reqs);
  EXPECT_GT(pooled_reqs, 0u);
  EXPECT_LT(pooled_reqs, request_ids.size());
  EXPECT_EQ(step_spans, static_cast<size_t>(steps));

  // The same spans render as loadable Chrome trace JSON.
  const std::string json = obs::SpansToChromeJson(ours);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("req:create"), std::string::npos);
  EXPECT_NE(json.find("step:answer"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  // A client that pins no id still gets a journey: the server mints one.
  client.set_trace_id(0, 0);
  SessionStateMsg untagged;
  ASSERT_TRUE(client.CreateSession({}, &untagged).ok());
  EXPECT_EQ(client.sent_trace_hi(), 0u);
  bool minted = false;
  for (const obs::Span& s : obs::Journey().Snapshot()) {
    if (std::string(s.name) == "req:create" &&
        !(s.trace_hi == trace.hi && s.trace_lo == trace.lo) &&
        (s.trace_hi | s.trace_lo) != 0) {
      minted = true;
    }
  }
  EXPECT_TRUE(minted);
}

TEST(DiscoveryServer, SlowStepThresholdShipsExemplarsInStats) {
  JourneyOn journey;
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.slow_step_ns = 1;  // every step is "slow": deterministic capture
  auto server = StartServer(manager, options);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  client.set_auto_trace(true);
  SimulatedOracle oracle(&c, /*target=*/1);
  SessionStateMsg state;
  ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
  ASSERT_EQ(state.state, SessionState::kFinished);
  ASSERT_NE(client.sent_trace_hi() | client.sent_trace_lo(), 0u);

  StatsReplyMsg stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  ASSERT_TRUE(stats.has_rich);
  EXPECT_EQ(stats.rich_version, 2);
  ASSERT_TRUE(stats.has_exemplars);
  ASSERT_FALSE(stats.exemplars.empty());
  // At least one exemplar belongs to this conversation's auto-minted trace.
  bool found = false;
  for (const WireExemplar& ex : stats.exemplars) {
    if (ex.trace_hi == client.sent_trace_hi() &&
        ex.trace_lo == client.sent_trace_lo()) {
      found = true;
      EXPECT_EQ(ex.session_id, state.session_id);
      EXPECT_GT(ex.total_ns, 0u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace setdisc::net
