#include "util/transport.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/faultinject.hpp"

namespace netsyn::util {

namespace {

double monotonicSeconds() {
  struct timespec ts {};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Waits for `events` on fd against a fixed deadline. EINTR resumes with
/// the *remaining* budget (the deadline was set when the wait began), so a
/// signal storm can only delay the timeout by its own delivery time, never
/// restart the budget. Returns false on timeout; throws TransportClosed on
/// a poll error. timeoutSeconds <= 0 waits forever.
bool pollFdUntil(int fd, short events, double timeoutSeconds,
                 const char* what) {
  const bool bounded = timeoutSeconds > 0.0;
  const double deadline = bounded ? monotonicSeconds() + timeoutSeconds : 0.0;
  for (;;) {
    int timeoutMs = -1;
    if (bounded) {
      const double leftMs = (deadline - monotonicSeconds()) * 1000.0;
      if (leftMs <= 0.0) return false;
      timeoutMs = static_cast<int>(std::max(1.0, leftMs));
    }
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = events;
    const int r = poll(&pfd, 1, timeoutMs);
    if (r > 0) return true;
    if (r == 0) {
      if (!bounded) continue;  // spurious zero without a budget: re-arm
      return false;
    }
    if (errno == EINTR) continue;  // loop re-derives the remaining budget
    throw TransportClosed(std::string(what) + " poll failed (" +
                          std::strerror(errno) + ")");
  }
}

/// Splits one line off buf (consuming the newline) when present.
bool takeLine(std::string& buf, std::string& line) {
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos) return false;
  line.assign(buf, 0, nl);
  buf.erase(0, nl + 1);
  return true;
}

}  // namespace

PipeTransport::PipeTransport(const std::string& path,
                             const std::vector<std::string>& args,
                             double recvTimeoutSeconds)
    : recvTimeoutSeconds_(recvTimeoutSeconds) {
  int toChild[2];
  int fromChild[2];
  if (pipe(toChild) != 0 || pipe(fromChild) != 0)
    throw std::runtime_error("pipe() failed");
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    dup2(toChild[0], STDIN_FILENO);
    dup2(fromChild[1], STDOUT_FILENO);
    ::close(toChild[0]);
    ::close(toChild[1]);
    ::close(fromChild[0]);
    ::close(fromChild[1]);
    std::vector<std::string> argStore;
    argStore.push_back(path);
    for (const std::string& a : args) argStore.push_back(a);
    std::vector<char*> argv;
    for (std::string& a : argStore) argv.push_back(a.data());
    argv.push_back(nullptr);
    execv(path.c_str(), argv.data());
    std::perror("execv");
    _exit(127);
  }
  ::close(toChild[0]);
  ::close(fromChild[1]);
  writeFd_ = toChild[1];
  readFd_ = fromChild[0];
}

PipeTransport::~PipeTransport() { close(); }

void PipeTransport::markClosed() {
  closed_ = true;
  if (writeFd_ >= 0) {
    ::close(writeFd_);
    writeFd_ = -1;
  }
  if (readFd_ >= 0) {
    ::close(readFd_);
    readFd_ = -1;
  }
}

void PipeTransport::sendLine(const std::string& line) {
  if (closed_) throw TransportClosed("transport already closed");
  const std::string framed = line + "\n";
  // A pipe has no MSG_NOSIGNAL: block SIGPIPE on this thread for the
  // write, and consume the one a write to a reader-less pipe raises, so
  // peer death is EPIPE (TransportClosed) in every process. A SIGPIPE that
  // was already pending before the write is not ours to consume.
  sigset_t sigpipe;
  sigset_t previous;
  sigset_t pending;
  sigemptyset(&sigpipe);
  sigaddset(&sigpipe, SIGPIPE);
  sigpending(&pending);
  const bool alreadyPending = sigismember(&pending, SIGPIPE) == 1;
  pthread_sigmask(SIG_BLOCK, &sigpipe, &previous);
  const char* data = framed.c_str();
  std::size_t left = framed.size();
  int error = 0;
  while (left > 0) {
    const ssize_t n = write(writeFd_, data, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      error = n < 0 ? errno : EIO;
      break;
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  if (error == EPIPE && !alreadyPending) {
    const struct timespec zero {};
    while (sigtimedwait(&sigpipe, nullptr, &zero) < 0 && errno == EINTR) {
    }
  }
  pthread_sigmask(SIG_SETMASK, &previous, nullptr);
  if (error != 0) {
    markClosed();
    throw TransportClosed("write to backend failed (" +
                          std::string(std::strerror(error)) + ")");
  }
}

std::string PipeTransport::recvLine() {
  if (closed_) throw TransportClosed("transport already closed");
  // One fixed deadline for the whole line: partial reads and EINTR wakeups
  // resume the remaining budget rather than restarting it.
  const bool bounded = recvTimeoutSeconds_ > 0.0;
  const double deadline =
      bounded ? monotonicSeconds() + recvTimeoutSeconds_ : 0.0;
  std::string line;
  for (;;) {
    if (takeLine(buf_, line)) return line;
    if (buf_.size() > kMaxLineBytes) {
      markClosed();
      throw TransportClosed("backend line exceeds the framing cap");
    }
    if (bounded) {
      const double left = deadline - monotonicSeconds();
      bool readable = false;
      try {
        readable = left > 0.0 && pollFdUntil(readFd_, POLLIN, left, "backend");
      } catch (const TransportClosed&) {
        markClosed();
        throw;
      }
      if (!readable) {
        markClosed();
        throw TransportTimeout("backend silent past the receive timeout");
      }
    }
    char chunk[4096];
    const ssize_t n = read(readFd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      markClosed();
      throw TransportClosed("backend closed the session");
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void PipeTransport::close() {
  if (pid_ <= 0 && closed_) return;
  markClosed();
  if (pid_ > 0) {
    // Closing stdin is the shutdown signal; give the backend a short grace
    // window to exit before escalating so close() can never hang.
    for (int i = 0; i < 200; ++i) {
      const pid_t r = waitpid(pid_, nullptr, WNOHANG);
      if (r == pid_ || (r < 0 && errno == ECHILD)) {
        pid_ = -1;
        return;
      }
      usleep(10 * 1000);
    }
    ::kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
}

void PipeTransport::kill() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }
  markClosed();
}

// ---------------------------------------------------------------- sockets --

SocketEndpoint SocketEndpoint::parse(const std::string& text) {
  SocketEndpoint ep;
  if (text.rfind("unix:", 0) == 0) {
    ep.isUnix = true;
    ep.host = text.substr(5);
    if (ep.host.empty())
      throw std::invalid_argument("empty unix socket path in '" + text + "'");
    if (ep.host.size() >= sizeof(sockaddr_un{}.sun_path))
      throw std::invalid_argument("unix socket path too long: '" + ep.host +
                                  "'");
    return ep;
  }
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0)
    throw std::invalid_argument("endpoint '" + text +
                                "' is not HOST:PORT or unix:PATH");
  ep.host = text.substr(0, colon);
  const std::string portText = text.substr(colon + 1);
  if (portText.empty() ||
      portText.find_first_not_of("0123456789") != std::string::npos)
    throw std::invalid_argument("bad port in endpoint '" + text + "'");
  const unsigned long port = std::stoul(portText);
  if (port > 65535)
    throw std::invalid_argument("port out of range in endpoint '" + text +
                                "'");
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

std::string SocketEndpoint::str() const {
  if (isUnix) return "unix:" + host;
  return host + ":" + std::to_string(port);
}

namespace {

/// Severs a socket connection when an armed fault fires at `site`: the
/// FaultInjected becomes the same TransportClosed a real partition raises.
void faultSever(const char* site, int& fd) {
  if (!FaultRegistry::armed()) [[likely]]
    return;
  try {
    FaultRegistry::instance().onHit(site);
  } catch (const FaultInjected& e) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
    throw TransportClosed(std::string("fault injected at ") + site + ": " +
                          e.what());
  }
}

int dialTcp(const SocketEndpoint& ep) {
  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string portText = std::to_string(ep.port);
  const int rc = getaddrinfo(ep.host.c_str(), portText.c_str(), &hints, &res);
  if (rc != 0)
    throw TransportClosed("cannot resolve " + ep.str() + " (" +
                          gai_strerror(rc) + ")");
  int fd = -1;
  std::string lastError = "no addresses";
  for (struct addrinfo* ai = res; ai; ai = ai->ai_next) {
    fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      lastError = std::strerror(errno);
      continue;
    }
    int r;
    do {
      r = connect(fd, ai->ai_addr, ai->ai_addrlen);
    } while (r < 0 && errno == EINTR);
    if (r == 0) break;
    lastError = std::strerror(errno);
    ::close(fd);
    fd = -1;
  }
  freeaddrinfo(res);
  if (fd < 0)
    throw TransportClosed("cannot connect to " + ep.str() + " (" + lastError +
                          ")");
  // Line-oriented request/response traffic: don't batch tiny frames.
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

int dialUnix(const SocketEndpoint& ep) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0)
    throw TransportClosed(std::string("socket() failed (") +
                          std::strerror(errno) + ")");
  struct sockaddr_un addr {};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, ep.host.c_str(), sizeof(addr.sun_path) - 1);
  int r;
  do {
    r = connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr);
  } while (r < 0 && errno == EINTR);
  if (r != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw TransportClosed("cannot connect to " + ep.str() + " (" + why + ")");
  }
  return fd;
}

}  // namespace

SocketTransport::SocketTransport(const SocketEndpoint& endpoint,
                                 double recvTimeoutSeconds,
                                 std::size_t maxLineBytes)
    : recvTimeoutSeconds_(recvTimeoutSeconds),
      maxLineBytes_(maxLineBytes),
      peer_(endpoint.str()) {
  int none = -1;
  faultSever("transport.dial", none);
  fd_.store(endpoint.isUnix ? dialUnix(endpoint) : dialTcp(endpoint),
            std::memory_order_release);
}

SocketTransport::SocketTransport(int fd, std::string peerName,
                                 double recvTimeoutSeconds,
                                 std::size_t maxLineBytes)
    : fd_(fd),
      recvTimeoutSeconds_(recvTimeoutSeconds),
      maxLineBytes_(maxLineBytes),
      peer_(std::move(peerName)) {
  if (fd < 0) throw std::invalid_argument("adopted socket fd is invalid");
}

SocketTransport::~SocketTransport() { close(); }

void SocketTransport::markClosed() {
  const int fd = fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

void SocketTransport::sendBytes(const char* data, std::size_t n) {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) throw TransportClosed("transport already closed");
  while (n > 0) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not SIGPIPE.
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      const std::string why = std::strerror(errno);
      markClosed();
      throw TransportClosed("write to " + peer_ + " failed (" + why + ")");
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

void SocketTransport::sendLine(const std::string& line) {
  const std::string framed = line + "\n";
  sendBytes(framed.data(), framed.size());
}

std::string SocketTransport::recvLine() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd < 0) throw TransportClosed("transport already closed");
  {
    int none = -1;
    try {
      faultSever("transport.recv", none);
    } catch (const TransportClosed&) {
      markClosed();
      throw;
    }
  }
  const bool bounded = recvTimeoutSeconds_ > 0.0;
  const double deadline =
      bounded ? monotonicSeconds() + recvTimeoutSeconds_ : 0.0;
  std::string line;
  for (;;) {
    if (takeLine(buf_, line)) return line;
    if (buf_.size() > maxLineBytes_) {
      markClosed();
      throw TransportClosed(peer_ + " sent a line past the framing cap");
    }
    if (bounded) {
      const double left = deadline - monotonicSeconds();
      bool readable = false;
      try {
        readable = left > 0.0 && pollFdUntil(fd, POLLIN, left, peer_.c_str());
      } catch (const TransportClosed&) {
        markClosed();
        throw;
      }
      if (!readable) {
        markClosed();
        throw TransportTimeout(peer_ + " silent past the receive timeout");
      }
    }
    char chunk[4096];
    const ssize_t n = recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      const std::string why =
          n == 0 ? "peer closed the connection" : std::strerror(errno);
      markClosed();
      throw TransportClosed("read from " + peer_ + " failed (" + why + ")");
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void SocketTransport::close() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) shutdown(fd, SHUT_RDWR);
  markClosed();
}

void SocketTransport::kill() {
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) {
    // RST on close: the peer sees an abrupt reset, as a severed network
    // path would deliver — no FIN handshake, no pending-data drain.
    struct linger lg {};
    lg.l_onoff = 1;
    lg.l_linger = 0;
    setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  }
  markClosed();
}

void SocketTransport::sever() {
  // Wake a recv blocked on the owning thread without releasing the fd (no
  // close, so no fd-reuse race): the blocked thread sees EOF and runs
  // markClosed itself.
  const int fd = fd_.load(std::memory_order_acquire);
  if (fd >= 0) shutdown(fd, SHUT_RDWR);
}

SocketListener::SocketListener(const SocketEndpoint& endpoint, int backlog) {
  bound_ = endpoint;
  if (endpoint.isUnix) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0)
      throw std::runtime_error(std::string("socket() failed (") +
                               std::strerror(errno) + ")");
    struct sockaddr_un addr {};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, endpoint.host.c_str(),
                 sizeof(addr.sun_path) - 1);
    // A stale socket file from a dead process would fail the bind; the
    // listener owns the path, so clearing it is safe.
    unlink(endpoint.host.c_str());
    if (bind(fd_, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) !=
        0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
      throw std::runtime_error("cannot bind " + endpoint.str() + " (" + why +
                               ")");
    }
    unlinkOnClose_ = true;
  } else {
    struct addrinfo hints {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    struct addrinfo* res = nullptr;
    const std::string portText = std::to_string(endpoint.port);
    const int rc =
        getaddrinfo(endpoint.host.c_str(), portText.c_str(), &hints, &res);
    if (rc != 0)
      throw std::runtime_error("cannot resolve " + endpoint.str() + " (" +
                               gai_strerror(rc) + ")");
    std::string lastError = "no addresses";
    for (struct addrinfo* ai = res; ai; ai = ai->ai_next) {
      fd_ = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd_ < 0) {
        lastError = std::strerror(errno);
        continue;
      }
      int one = 1;
      setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      if (bind(fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
      lastError = std::strerror(errno);
      ::close(fd_);
      fd_ = -1;
    }
    freeaddrinfo(res);
    if (fd_ < 0)
      throw std::runtime_error("cannot bind " + endpoint.str() + " (" +
                               lastError + ")");
    // Resolve an ephemeral-port bind to the kernel's choice.
    struct sockaddr_storage ss {};
    socklen_t slen = sizeof ss;
    if (getsockname(fd_, reinterpret_cast<struct sockaddr*>(&ss), &slen) ==
        0) {
      if (ss.ss_family == AF_INET)
        bound_.port =
            ntohs(reinterpret_cast<struct sockaddr_in*>(&ss)->sin_port);
      else if (ss.ss_family == AF_INET6)
        bound_.port =
            ntohs(reinterpret_cast<struct sockaddr_in6*>(&ss)->sin6_port);
    }
  }
  if (listen(fd_, backlog) != 0) {
    const std::string why = std::strerror(errno);
    close();
    throw std::runtime_error("cannot listen on " + bound_.str() + " (" + why +
                             ")");
  }
}

SocketListener::~SocketListener() { close(); }

void SocketListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (unlinkOnClose_) {
    unlink(bound_.host.c_str());
    unlinkOnClose_ = false;
  }
}

std::unique_ptr<SocketTransport> SocketListener::accept(
    double timeoutSeconds, double recvTimeoutSeconds) {
  if (fd_ < 0) throw TransportClosed("listener is closed");
  if (!pollFdUntil(fd_, POLLIN, timeoutSeconds, "listener")) return nullptr;
  int conn;
  do {
    conn = ::accept(fd_, nullptr, nullptr);
  } while (conn < 0 && errno == EINTR);
  if (conn < 0)
    throw TransportClosed(std::string("accept failed (") +
                          std::strerror(errno) + ")");
  faultSever("transport.accept", conn);
  if (!bound_.isUnix) {
    int one = 1;
    setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return std::make_unique<SocketTransport>(
      conn, bound_.str() + "#peer", recvTimeoutSeconds);
}

RetrySchedule::RetrySchedule(double baseMs, double capMs, std::uint64_t seed)
    : baseMs_(baseMs), capMs_(capMs), state_(seed) {}

void RetrySchedule::reset(std::uint64_t seed) {
  state_ = seed;
  attempt_ = 0;
}

double RetrySchedule::nextDelayMs() {
  ++attempt_;
  // splitmix64 step — the same generator the fault-injection registry uses
  // for its probability draws, so every "random" delay in a chaos run comes
  // from a seeded stream.
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  const double u =
      static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);  // [0, 1)
  const double factor = static_cast<double>(
      1ull << std::min<std::size_t>(attempt_ - 1, 20));
  const double capped = std::min(baseMs_ * factor, capMs_);
  return capped * (0.5 + 0.5 * u);
}

}  // namespace netsyn::util
