// Transport conformance battery: every Transport implementation — pipe
// subprocess, TCP socket, Unix-domain socket, in-process loopback — must
// honor the same contract (util/transport.hpp): lines round trip in order,
// a silent peer times out as TransportTimeout within the stated budget, a
// dead peer surfaces as TransportClosed (never a crash or a hang; this
// binary leaves SIGPIPE at its default disposition to prove it), kill()
// and close() leave the transport permanently dead, oversized frames trip
// the framing cap, and byte-level chunking cannot corrupt framing.
//
// Also pins the EINTR budget fix: recvLine's deadline is fixed when the
// call starts, so a signal storm delays the timeout by at most one
// delivery instead of restarting the budget each wakeup. Under the old
// restart-on-EINTR behavior the regression tests below never time out and
// hit the ctest wall-clock cap instead of passing.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "service/fleet.hpp"
#include "service/service.hpp"
#include "util/faultinject.hpp"
#include "util/transport.hpp"

namespace ns = netsyn::service;
namespace nu = netsyn::util;

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string uniqueSockPath(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/netsyn_tconf_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// One-connection-at-a-time echo peer over a real listening socket: every
/// received line is sent straight back. dropPeer() severs the current
/// connection from the server side — the conformance battery's network
/// partition.
class EchoServer {
 public:
  explicit EchoServer(const nu::SocketEndpoint& ep) : listener_(ep) {
    thread_ = std::thread([this] { serve(); });
  }

  ~EchoServer() {
    stopping_.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conn_) conn_->sever();
    }
    thread_.join();
    listener_.close();
  }

  const nu::SocketEndpoint& endpoint() const {
    return listener_.boundEndpoint();
  }

  /// Severs the live connection (waiting out the accept race first).
  void dropPeer() {
    for (int i = 0; i < 1000; ++i) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (conn_) {
          conn_->sever();
          return;
        }
      }
      usleep(2 * 1000);
    }
    ADD_FAILURE() << "echo server never saw a connection to drop";
  }

 private:
  void serve() {
    while (!stopping_.load(std::memory_order_acquire)) {
      std::unique_ptr<nu::SocketTransport> accepted;
      try {
        accepted = listener_.accept(0.05);
      } catch (const nu::TransportClosed&) {
        break;
      }
      if (!accepted) continue;
      {
        std::lock_guard<std::mutex> lock(mu_);
        conn_ = std::move(accepted);
      }
      try {
        for (;;) {
          const std::string line = conn_->recvLine();
          if (line == "__flood__") {
            // The framing-cap probe: more bytes than the client's cap,
            // deliberately without a newline.
            const std::string blob(4096, 'x');
            conn_->sendBytes(blob.data(), blob.size());
            continue;
          }
          conn_->sendLine(line);
        }
      } catch (const nu::TransportClosed&) {
      }
      std::lock_guard<std::mutex> lock(mu_);
      conn_->close();
      conn_.reset();
    }
  }

  nu::SocketListener listener_;
  std::thread thread_;
  std::mutex mu_;
  std::unique_ptr<nu::SocketTransport> conn_;  ///< severed cross-thread only
  std::atomic<bool> stopping_{false};
};

/// One transport implementation under test, with its capability flags.
class Rig {
 public:
  virtual ~Rig() = default;

  virtual std::unique_ptr<nu::Transport> dial(double recvTimeoutSeconds) = 0;

  /// Makes the peer die out from under the transport.
  virtual void killPeer(nu::Transport& t) = 0;

  /// True when the peer echoes lines byte-for-byte (pipe-to-cat, socket
  /// echo server); the loopback peer answers protocol requests instead.
  virtual bool echoes() const { return true; }

  /// True when a finite receive budget is honored (the loopback executes
  /// requests synchronously and cannot be silent).
  virtual bool canTimeout() const { return true; }

  /// A request line the peer will answer.
  virtual std::string probeLine() const { return "conformance probe line"; }

  virtual bool replyOk(const std::string& sent,
                       const std::string& reply) const {
    return reply == sent;
  }

  /// A transport whose next recvLine must trip the framing cap (the peer
  /// floods bytes without a newline); nullptr when the rig cannot arrange
  /// that.
  virtual std::unique_ptr<nu::Transport> dialFlood() { return nullptr; }

  /// A transport whose peer has closed its read end but is still alive,
  /// and has said so in one line; nullptr when the rig cannot arrange that.
  virtual std::unique_ptr<nu::Transport> dialDeaf() { return nullptr; }
};

class PipeRig : public Rig {
 public:
  std::unique_ptr<nu::Transport> dial(double recvTimeoutSeconds) override {
    return std::make_unique<nu::PipeTransport>("/bin/cat",
                                               std::vector<std::string>{},
                                               recvTimeoutSeconds);
  }

  void killPeer(nu::Transport& t) override {
    ::kill(static_cast<nu::PipeTransport&>(t).pid(), SIGKILL);
  }

  std::unique_ptr<nu::Transport> dialFlood() override {
    // A peer that streams 9 MiB with no newline — past kMaxLineBytes.
    return std::make_unique<nu::PipeTransport>(
        "/bin/sh",
        std::vector<std::string>{
            "-c", "head -c 9437184 /dev/zero | tr '\\0' 'x'"},
        60.0);
  }

  std::unique_ptr<nu::Transport> dialDeaf() override {
    return std::make_unique<nu::PipeTransport>(
        "/bin/sh",
        std::vector<std::string>{"-c", "exec 0<&-; echo deaf; exec sleep 30"},
        30.0);
  }
};

class SocketRig : public Rig {
 public:
  explicit SocketRig(const nu::SocketEndpoint& listenAt) : server_(listenAt) {}

  std::unique_ptr<nu::Transport> dial(double recvTimeoutSeconds) override {
    return std::make_unique<nu::SocketTransport>(server_.endpoint(),
                                                 recvTimeoutSeconds);
  }

  void killPeer(nu::Transport&) override { server_.dropPeer(); }

  std::unique_ptr<nu::Transport> dialFlood() override {
    // Client-side cap far below the server's flood blob.
    auto t = std::make_unique<nu::SocketTransport>(server_.endpoint(), 30.0,
                                                   /*maxLineBytes=*/512);
    t->sendLine("__flood__");
    return t;
  }

 private:
  EchoServer server_;
};

class LoopbackRig : public Rig {
 public:
  std::unique_ptr<nu::Transport> dial(double) override {
    ns::ServiceConfig cfg;
    cfg.workers = 1;
    return std::make_unique<ns::LoopbackTransport>(
        std::make_shared<ns::SynthService>(cfg));
  }

  void killPeer(nu::Transport& t) override { t.kill(); }

  bool echoes() const override { return false; }
  bool canTimeout() const override { return false; }

  std::string probeLine() const override {
    return "{\"op\": \"hello\", \"token\": \"conformance\"}";
  }

  bool replyOk(const std::string&, const std::string& reply) const override {
    return reply.find("\"ok\": true") != std::string::npos;
  }
};

enum class RigKind { kPipe, kTcp, kUnixDomain, kLoopback };

std::unique_ptr<Rig> makeRig(RigKind kind) {
  switch (kind) {
    case RigKind::kPipe:
      return std::make_unique<PipeRig>();
    case RigKind::kTcp:
      return std::make_unique<SocketRig>(
          nu::SocketEndpoint::parse("127.0.0.1:0"));
    case RigKind::kUnixDomain:
      return std::make_unique<SocketRig>(
          nu::SocketEndpoint::parse("unix:" + uniqueSockPath("rig")));
    case RigKind::kLoopback:
      return std::make_unique<LoopbackRig>();
  }
  return nullptr;
}

class TransportConformance : public ::testing::TestWithParam<RigKind> {
 protected:
  void SetUp() override { rig_ = makeRig(GetParam()); }
  std::unique_ptr<Rig> rig_;
};

}  // namespace

TEST_P(TransportConformance, RoundTripsLines) {
  auto t = rig_->dial(30.0);
  ASSERT_TRUE(t->alive());
  const std::string sent = rig_->probeLine();
  for (int i = 0; i < 3; ++i) {
    const std::string reply = t->request(sent);
    EXPECT_TRUE(rig_->replyOk(sent, reply)) << "reply: " << reply;
  }
  if (rig_->echoes()) {
    // Content survives JSON-ish punctuation, spaces, and length changes.
    for (const std::string& line :
         {std::string("{\"op\": \"claim\", \"tasks\": [0, 1, 2]}"),
          std::string(2000, 'y'), std::string("")})
      EXPECT_EQ(t->request(line), line);
  }
  t->close();
  EXPECT_FALSE(t->alive());
}

TEST_P(TransportConformance, PipelinedLinesComeBackInOrder) {
  auto t = rig_->dial(30.0);
  const std::string probe = rig_->probeLine();
  std::vector<std::string> sent;
  for (int i = 0; i < 5; ++i) {
    sent.push_back(rig_->echoes() ? "line-" + std::to_string(i) : probe);
    t->sendLine(sent.back());
  }
  for (int i = 0; i < 5; ++i) {
    const std::string reply = t->recvLine();
    EXPECT_TRUE(rig_->replyOk(sent[static_cast<std::size_t>(i)], reply))
        << "reply " << i << ": " << reply;
  }
}

TEST_P(TransportConformance, SilentPeerTimesOutWithinBudget) {
  if (!rig_->canTimeout())
    GTEST_SKIP() << "rig executes requests synchronously";
  auto t = rig_->dial(0.35);
  const double start = nowSeconds();
  EXPECT_THROW(t->recvLine(), nu::TransportTimeout);
  const double elapsed = nowSeconds() - start;
  EXPECT_GE(elapsed, 0.3);
  EXPECT_LT(elapsed, 5.0);
  // A timed-out transport is dead: the protocol cannot resynchronize.
  EXPECT_FALSE(t->alive());
  EXPECT_THROW(t->recvLine(), nu::TransportClosed);
}

TEST_P(TransportConformance, PeerDeathSurfacesAsTransportClosed) {
  auto t = rig_->dial(30.0);
  if (rig_->echoes()) {
    // A completed round trip first: death mid-session, not mid-dial.
    ASSERT_EQ(t->request("warmup"), "warmup");
  }
  rig_->killPeer(*t);
  EXPECT_THROW(t->recvLine(), nu::TransportClosed);
  EXPECT_FALSE(t->alive());
  // Dead for good — no operation revives the session.
  EXPECT_THROW(t->sendLine("after death"), nu::TransportClosed);
  EXPECT_THROW(t->recvLine(), nu::TransportClosed);
}

// A peer that stops reading: the next write must throw TransportClosed in
// a process that leaves SIGPIPE at its default (terminate) disposition.
TEST_P(TransportConformance, PeerThatStopsReadingSurfacesAsTransportClosed) {
  auto t = rig_->dialDeaf();
  if (!t) GTEST_SKIP() << "rig peer cannot close only its read end";
  ASSERT_EQ(t->recvLine(), "deaf");
  EXPECT_THROW(t->sendLine("nobody reads this"), nu::TransportClosed);
  EXPECT_FALSE(t->alive());
  t->kill();
}

TEST_P(TransportConformance, KillAndCloseAreTerminalAndIdempotent) {
  auto t = rig_->dial(30.0);
  t->kill();
  EXPECT_FALSE(t->alive());
  EXPECT_THROW(t->sendLine("x"), nu::TransportClosed);
  t->kill();   // idempotent
  t->close();  // and interchangeable once dead
  EXPECT_FALSE(t->alive());

  auto u = rig_->dial(30.0);
  u->close();
  EXPECT_FALSE(u->alive());
  EXPECT_THROW(u->recvLine(), nu::TransportClosed);
  u->close();
}

TEST_P(TransportConformance, OversizedLineTripsFramingCap) {
  auto t = rig_->dialFlood();
  if (!t) GTEST_SKIP() << "rig has no framing layer to flood";
  try {
    (void)t->recvLine();
    FAIL() << "a line past the framing cap must sever the transport";
  } catch (const nu::TransportTimeout&) {
    FAIL() << "framing cap must trip before the receive timeout";
  } catch (const nu::TransportClosed&) {
    // The contract: severed, not resized.
  }
  EXPECT_FALSE(t->alive());
}

TEST_P(TransportConformance, EmbeddedNulBytesRoundTrip) {
  if (!rig_->echoes()) GTEST_SKIP() << "peer parses requests as JSON";
  auto t = rig_->dial(30.0);
  const std::string payload("nul\0inside", 10);
  ASSERT_EQ(payload.size(), 10u);
  const std::string reply = t->request(payload);
  EXPECT_EQ(reply, payload);
}

TEST_P(TransportConformance, ChunkedFramesReassembleExactly) {
  auto t = rig_->dial(30.0);
  auto* sock = dynamic_cast<nu::SocketTransport*>(t.get());
  if (!sock) GTEST_SKIP() << "rig has no byte-level write handle";
  // One line dripped a byte at a time across write (and so TCP segment)
  // boundaries: framing must reassemble it bit-exact.
  const std::string line = "{\"op\": \"claim\", \"config\": {\"seed\": 7}}";
  const std::string framed = line + "\n";
  for (char c : framed) sock->sendBytes(&c, 1);
  EXPECT_EQ(t->recvLine(), line);
  // A burst of several lines in one write drains one recvLine at a time.
  const std::string burst = "alpha\nbeta\ngamma\n";
  sock->sendBytes(burst.data(), burst.size());
  EXPECT_EQ(t->recvLine(), "alpha");
  EXPECT_EQ(t->recvLine(), "beta");
  EXPECT_EQ(t->recvLine(), "gamma");
}

INSTANTIATE_TEST_SUITE_P(AllTransports, TransportConformance,
                         ::testing::Values(RigKind::kPipe, RigKind::kTcp,
                                           RigKind::kUnixDomain,
                                           RigKind::kLoopback),
                         [](const ::testing::TestParamInfo<RigKind>& info) {
                           switch (info.param) {
                             case RigKind::kPipe:
                               return "Pipe";
                             case RigKind::kTcp:
                               return "Tcp";
                             case RigKind::kUnixDomain:
                               return "UnixDomain";
                             case RigKind::kLoopback:
                               return "Loopback";
                           }
                           return "Unknown";
                         });

// ------------------------------------------------ EINTR budget regression --

namespace {

extern "C" void onConformanceAlarm(int) {}  // delivery is the point

/// Fires SIGALRM every 30 ms with SA_RESTART off, so every blocking poll
/// in scope keeps waking with EINTR. Restores the previous disposition.
class SignalStorm {
 public:
  SignalStorm() {
    struct sigaction sa {};
    sa.sa_handler = onConformanceAlarm;
    sa.sa_flags = 0;  // deliberately no SA_RESTART: poll must see EINTR
    sigaction(SIGALRM, &sa, &prev_);
    struct itimerval iv {};
    iv.it_interval.tv_usec = 30 * 1000;
    iv.it_value.tv_usec = 30 * 1000;
    setitimer(ITIMER_REAL, &iv, nullptr);
  }

  ~SignalStorm() {
    struct itimerval off {};
    setitimer(ITIMER_REAL, &off, nullptr);
    sigaction(SIGALRM, &prev_, nullptr);
  }

 private:
  struct sigaction prev_ {};
};

}  // namespace

// The pinned bugfix: an EINTR wakeup must resume the *remaining* receive
// budget, not restart it. With restart-on-EINTR semantics a 30 ms signal
// cadence against a 0.4 s budget never expires — this test would hang into
// the ctest timeout instead of passing.
TEST(TransportEintr, PipeRecvBudgetSurvivesSignalStorm) {
  nu::PipeTransport t("/bin/cat", {}, 0.4);
  SignalStorm storm;
  const double start = nowSeconds();
  EXPECT_THROW(t.recvLine(), nu::TransportTimeout);
  const double elapsed = nowSeconds() - start;
  EXPECT_GE(elapsed, 0.35);
  EXPECT_LT(elapsed, 5.0) << "EINTR restarted the budget";
}

TEST(TransportEintr, SocketRecvBudgetSurvivesSignalStorm) {
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  nu::SocketTransport t(fds[0], "storm-peer", 0.4);
  SignalStorm storm;
  const double start = nowSeconds();
  EXPECT_THROW(t.recvLine(), nu::TransportTimeout);
  const double elapsed = nowSeconds() - start;
  EXPECT_GE(elapsed, 0.35);
  EXPECT_LT(elapsed, 5.0) << "EINTR restarted the budget";
  ::close(fds[1]);
}

// --------------------------------------------------- endpoints & listener --

TEST(SocketEndpoint, ParsesAndRoundTripsBothForms) {
  const nu::SocketEndpoint tcp = nu::SocketEndpoint::parse("127.0.0.1:5001");
  EXPECT_FALSE(tcp.isUnix);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 5001);
  EXPECT_EQ(tcp.str(), "127.0.0.1:5001");

  const nu::SocketEndpoint named = nu::SocketEndpoint::parse("localhost:0");
  EXPECT_EQ(named.host, "localhost");
  EXPECT_EQ(named.port, 0);

  const nu::SocketEndpoint un = nu::SocketEndpoint::parse("unix:/tmp/s.sock");
  EXPECT_TRUE(un.isUnix);
  EXPECT_EQ(un.host, "/tmp/s.sock");
  EXPECT_EQ(un.str(), "unix:/tmp/s.sock");
  EXPECT_EQ(nu::SocketEndpoint::parse(un.str()).host, un.host);
}

TEST(SocketEndpoint, RejectsMalformedForms) {
  EXPECT_THROW(nu::SocketEndpoint::parse(""), std::invalid_argument);
  EXPECT_THROW(nu::SocketEndpoint::parse("noport"), std::invalid_argument);
  EXPECT_THROW(nu::SocketEndpoint::parse("host:"), std::invalid_argument);
  EXPECT_THROW(nu::SocketEndpoint::parse(":5001"), std::invalid_argument);
  EXPECT_THROW(nu::SocketEndpoint::parse("host:abc"), std::invalid_argument);
  EXPECT_THROW(nu::SocketEndpoint::parse("host:70000"), std::invalid_argument);
  EXPECT_THROW(nu::SocketEndpoint::parse("unix:"), std::invalid_argument);
  EXPECT_THROW(nu::SocketEndpoint::parse("unix:" + std::string(200, 'p')),
               std::invalid_argument);
}

TEST(SocketListener, EphemeralPortResolvesAndAcceptTimesOutClean) {
  nu::SocketListener l(nu::SocketEndpoint::parse("127.0.0.1:0"));
  EXPECT_NE(l.boundEndpoint().port, 0) << "port 0 must resolve at bind";
  EXPECT_EQ(l.accept(0.05), nullptr) << "no dialer: accept times out";
}

TEST(SocketListener, UnixSocketPathIsUnlinkedOnClose) {
  const std::string path = uniqueSockPath("unlink");
  {
    nu::SocketListener l(nu::SocketEndpoint::parse("unix:" + path));
    struct stat st {};
    ASSERT_EQ(stat(path.c_str(), &st), 0);
    EXPECT_TRUE(S_ISSOCK(st.st_mode));
  }
  struct stat st {};
  EXPECT_NE(stat(path.c_str(), &st), 0) << "listener must unlink its path";
}

TEST(SocketTransport, DialToDeadEndpointThrowsTransportClosed) {
  // Grab an ephemeral port, then close the listener: the dial must fail as
  // TransportClosed (the reconnect loop's retryable signal), not crash.
  nu::SocketEndpoint ep;
  {
    nu::SocketListener l(nu::SocketEndpoint::parse("127.0.0.1:0"));
    ep = l.boundEndpoint();
  }
  EXPECT_THROW(nu::SocketTransport t(ep), nu::TransportClosed);
  EXPECT_THROW(
      nu::SocketTransport u(nu::SocketEndpoint::parse(
          "unix:" + uniqueSockPath("gone"))),
      nu::TransportClosed);
}

// ------------------------------------------------------------ fault sites --

TEST(TransportFaults, ArmedSitesSeverLikeAPartition) {
  auto& reg = nu::FaultRegistry::instance();
  reg.disarmAll();

  reg.armFromText("transport.dial=throw@1");
  EXPECT_THROW(
      nu::SocketTransport t(nu::SocketEndpoint::parse("127.0.0.1:1")),
      nu::TransportClosed);
  reg.disarmAll();

  // A recv fault severs an otherwise healthy connection.
  int fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  {
    nu::SocketTransport t(fds[0], "fault-peer", 1.0);
    reg.armFromText("transport.recv=throw@1");
    EXPECT_THROW(t.recvLine(), nu::TransportClosed);
    EXPECT_FALSE(t.alive());
    reg.disarmAll();
  }
  ::close(fds[1]);

  // An accept fault drops that one connection; the listener survives.
  nu::SocketListener l(nu::SocketEndpoint::parse("127.0.0.1:0"));
  reg.armFromText("transport.accept=throw@1");
  nu::SocketTransport dialer(l.boundEndpoint(), 1.0);
  EXPECT_THROW((void)l.accept(2.0), nu::TransportClosed);
  reg.disarmAll();
  EXPECT_TRUE(l.listening());
  nu::SocketTransport dialer2(l.boundEndpoint(), 5.0);
  auto accepted = l.accept(2.0);
  ASSERT_NE(accepted, nullptr);
  accepted->sendLine("still serving");
  EXPECT_EQ(dialer2.recvLine(), "still serving");
}
