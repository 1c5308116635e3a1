// Line-oriented transport seam for the NDJSON protocol: the one interface
// the fleet coordinator speaks through. Implementations:
// PipeTransport (fork/exec subprocess over a pipe pair), SocketTransport
// (TCP or Unix-domain stream to a remote daemon, dialed or adopted from a
// SocketListener accept), and the in-process LoopbackTransport in
// service/fleet.hpp — a remote host is just another Transport.
//
// Failure model: every way the peer can be gone — EPIPE on write, EOF or
// connection reset on read, a receive that outlives its timeout, a line
// that exceeds the framing cap — surfaces as TransportClosed (timeouts as
// the TransportTimeout subclass). No write raises SIGPIPE, whatever the
// process's disposition: sockets send with MSG_NOSIGNAL, and the pipe
// write blocks the signal on its thread and consumes any it raised. A
// transport that threw TransportClosed
// is dead for good: a line protocol cannot resynchronize mid-frame, so the
// caller must re-dial/respawn and re-hello rather than retry the request.
// kill() simulates abrupt host death (SIGKILL for subprocesses, an
// RST-close for sockets — no shutdown handshake, durable state is whatever
// already hit disk), which is what the chaos/failover tests lean on.
//
// Timeout budget semantics: recvLine's deadline is fixed when the call
// starts (CLOCK_MONOTONIC) and EINTR resumes the *remaining* budget — a
// signal-heavy chaos run can delay a timeout by at most one delivery, not
// extend it unboundedly (pinned by the transport conformance suite).
//
// Chaos surface: the socket path carries deterministic fault-injection
// sites ("transport.dial", "transport.accept", "transport.recv",
// util/faultinject.hpp). A throw-armed fault at any of them severs that
// connection exactly as a network partition would: the transport closes
// and the caller sees TransportClosed.
//
// RetrySchedule is the deterministic backoff companion: reconnect/shed
// delays are seeded draws (splitmix64, the fault-injection registry's
// generator) rather than wall-clock entropy, so a chaos CI run replays the
// exact same schedule every time.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace netsyn::util {

/// The peer end of a transport is gone (write error, EOF, or timeout).
class TransportClosed : public std::runtime_error {
 public:
  explicit TransportClosed(const std::string& what)
      : std::runtime_error(what) {}
};

/// recvLine() outlived its timeout budget. The transport is closed: a peer
/// that stopped answering mid-request cannot be resynchronized on a line
/// protocol, so the caller must treat the host as dead.
class TransportTimeout : public TransportClosed {
 public:
  explicit TransportTimeout(const std::string& what) : TransportClosed(what) {}
};

/// Ceiling on one received line (framing cap): a peer that streams more
/// bytes without a newline is severed (TransportClosed) instead of growing
/// the receive buffer without bound.
inline constexpr std::size_t kMaxLineBytes = 8u << 20;

/// One bidirectional line session with a protocol peer.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends one request line (no trailing newline). Throws TransportClosed
  /// when the peer is gone.
  virtual void sendLine(const std::string& line) = 0;

  /// Receives one response line (newline stripped). Throws TransportClosed
  /// on EOF, TransportTimeout past the receive budget.
  virtual std::string recvLine() = 0;

  /// False once the transport has failed or been closed/killed.
  virtual bool alive() const = 0;

  /// Graceful close: release the session (subprocess peers get EOF on
  /// stdin and exit on their own). Idempotent.
  virtual void close() = 0;

  /// Abrupt peer death for chaos tests (SIGKILL a subprocess; in-process
  /// peers just drop the connection). Defaults to close().
  virtual void kill() { close(); }

  /// One request/response round trip.
  std::string request(const std::string& line) {
    sendLine(line);
    return recvLine();
  }
};

/// A spawned subprocess (synthd-style: NDJSON on stdin/stdout) behind the
/// Transport interface. The receive timeout (0 = wait forever) is the
/// coordinator's host-death detector: a backend that stops answering is
/// indistinguishable from a dead one, and gets treated as such.
class PipeTransport : public Transport {
 public:
  PipeTransport(const std::string& path, const std::vector<std::string>& args,
                double recvTimeoutSeconds = 0.0);
  ~PipeTransport() override;
  PipeTransport(const PipeTransport&) = delete;
  PipeTransport& operator=(const PipeTransport&) = delete;

  void sendLine(const std::string& line) override;
  std::string recvLine() override;
  bool alive() const override { return pid_ > 0 && !closed_; }
  void close() override;
  void kill() override;

  pid_t pid() const { return pid_; }

 private:
  void markClosed();

  pid_t pid_ = -1;
  int writeFd_ = -1;
  int readFd_ = -1;
  bool closed_ = false;
  double recvTimeoutSeconds_ = 0.0;
  std::string buf_;  ///< bytes read past the last returned line
};

/// One parsed transport address: "HOST:PORT" (TCP; HOST may be a hostname
/// or a numeric address, PORT 0 asks the kernel for an ephemeral port) or
/// "unix:PATH" (Unix-domain stream socket at PATH).
struct SocketEndpoint {
  bool isUnix = false;
  std::string host;        ///< TCP host, or the Unix socket path
  std::uint16_t port = 0;  ///< TCP only

  /// Parses the textual forms above. Throws std::invalid_argument on an
  /// empty host/path, a malformed port, or a Unix path too long for
  /// sockaddr_un.
  static SocketEndpoint parse(const std::string& text);

  /// Canonical text form ("HOST:PORT" / "unix:PATH") — parse(str()) round
  /// trips.
  std::string str() const;
};

/// A connected stream socket (TCP or Unix-domain) behind the Transport
/// interface. Dialing ("transport.dial" fault site) throws TransportClosed
/// when the peer is unreachable, so a reconnect loop can retry on seeded
/// backoff. kill() is an abrupt RST-close (SO_LINGER 0): the peer sees a
/// reset, not a clean shutdown — a simulated network partition.
class SocketTransport : public Transport {
 public:
  /// Dials `endpoint`. recvTimeoutSeconds 0 = wait forever; maxLineBytes
  /// caps one received line (kMaxLineBytes default).
  explicit SocketTransport(const SocketEndpoint& endpoint,
                           double recvTimeoutSeconds = 0.0,
                           std::size_t maxLineBytes = kMaxLineBytes);

  /// Adopts an already-connected socket (a SocketListener accept).
  SocketTransport(int fd, std::string peerName, double recvTimeoutSeconds = 0.0,
                  std::size_t maxLineBytes = kMaxLineBytes);

  ~SocketTransport() override;
  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  void sendLine(const std::string& line) override;
  std::string recvLine() override;
  bool alive() const override {
    return fd_.load(std::memory_order_acquire) >= 0;
  }
  void close() override;
  void kill() override;

  /// Cross-thread sever: half-closes both directions (shutdown(2)) so a
  /// recvLine blocked on *another* thread wakes with EOF and closes the
  /// transport itself. Unlike close()/kill() this never releases the fd,
  /// so it is safe to call while the owning thread is mid-recv — the one
  /// transport operation with that guarantee (service::SocketServer's
  /// stop hook).
  void sever();

  /// Raw unframed bytes on the wire — the framing-fuzz hook: tests split
  /// one protocol line across arbitrary write (and thus TCP segment)
  /// boundaries to prove the peer reassembles or cleanly rejects it.
  void sendBytes(const char* data, std::size_t n);

  const std::string& peerName() const { return peer_; }

 private:
  void markClosed();

  std::atomic<int> fd_{-1};  ///< -1 once closed (exchange-and-close)
  double recvTimeoutSeconds_ = 0.0;
  std::size_t maxLineBytes_ = kMaxLineBytes;
  std::string peer_;
  std::string buf_;  ///< bytes read past the last returned line
};

/// A bound, listening stream socket (TCP or Unix-domain). accept() hands
/// out connected SocketTransports ("transport.accept" fault site). For
/// TCP port 0 the kernel-assigned port is visible via boundEndpoint() —
/// how tests and CI avoid port collisions. Unix sockets unlink their path
/// on close.
class SocketListener {
 public:
  explicit SocketListener(const SocketEndpoint& endpoint, int backlog = 16);
  ~SocketListener();
  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  /// The actual bound address (TCP port 0 resolved).
  const SocketEndpoint& boundEndpoint() const { return bound_; }

  /// Waits up to timeoutSeconds (0 = forever) for a connection; returns
  /// nullptr on timeout. `recvTimeoutSeconds` seeds the accepted
  /// transport's receive budget. Throws TransportClosed once the listener
  /// is closed.
  std::unique_ptr<SocketTransport> accept(double timeoutSeconds = 0.0,
                                          double recvTimeoutSeconds = 0.0);

  bool listening() const { return fd_ >= 0; }

  /// Stops accepting (idempotent). Not safe to race with a blocked
  /// accept() on another thread — accept loops must use a finite timeout
  /// and check a stop flag between ticks (service::SocketServer does).
  void close();

 private:
  int fd_ = -1;
  SocketEndpoint bound_;
  bool unlinkOnClose_ = false;
};

/// Deterministic capped-exponential backoff with seeded jitter: attempt n
/// waits min(baseMs * 2^(n-1), capMs) scaled by a jitter factor in
/// [0.5, 1.0) drawn from a splitmix64 stream. Same seed, same schedule —
/// chaos CI replays reconnect timing exactly.
class RetrySchedule {
 public:
  RetrySchedule(double baseMs, double capMs, std::uint64_t seed);

  /// Delay before the next attempt, in milliseconds (advances the stream).
  double nextDelayMs();

  /// Attempts drawn so far.
  std::size_t attempts() const { return attempt_; }

  void reset(std::uint64_t seed);

 private:
  double baseMs_;
  double capMs_;
  std::uint64_t state_;
  std::size_t attempt_ = 0;
};

}  // namespace netsyn::util
