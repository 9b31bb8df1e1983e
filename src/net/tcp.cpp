#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <mutex>
#include <shared_mutex>

namespace naplet::net {

namespace {

util::Status errno_status(const char* what) {
  return util::IoError(std::string(what) + ": " + std::strerror(errno));
}

util::StatusOr<sockaddr_in> make_addr(const std::string& host,
                                      std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return util::InvalidArgument("bad IPv4 address: " + host);
  }
  return addr;
}

Endpoint endpoint_of(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {};
  ::inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof buf);
  return Endpoint{buf, ntohs(addr.sin_port)};
}

Endpoint local_endpoint_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Endpoint{};
  }
  return endpoint_of(addr);
}

Endpoint remote_endpoint_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Endpoint{};
  }
  return endpoint_of(addr);
}

/// Wait for readability; true if readable, false on timeout.
util::StatusOr<bool> wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return errno_status("poll");
  }
}

class TcpStream final : public Stream {
 public:
  explicit TcpStream(int fd) : fd_(fd) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    local_ = local_endpoint_of(fd);
    remote_ = remote_endpoint_of(fd);
  }

  ~TcpStream() override { close(); }

  util::StatusOr<std::size_t> read_some(std::uint8_t* out,
                                        std::size_t max) override {
    for (;;) {
      const ssize_t n = ::recv(fd_.get(), out, max, 0);
      if (n >= 0) return static_cast<std::size_t>(n);
      if (errno == EINTR) continue;
      if (fd_.get() < 0) return util::Cancelled("stream closed");
      return errno_status("recv");
    }
  }

  util::StatusOr<std::size_t> read_some_for(std::uint8_t* out, std::size_t max,
                                            util::Duration timeout) override {
    const int fd = fd_.get();
    if (fd < 0) return util::Cancelled("stream closed");
    auto readable = wait_readable(
        fd, static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(timeout)
                    .count()));
    if (!readable.ok()) return readable.status();
    if (!*readable) return util::Timeout("read timed out");
    return read_some(out, max);
  }

  util::Status write_all(util::ByteSpan data) override {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_.get(), data.data() + sent,
                               data.size() - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (fd_.get() < 0) return util::Cancelled("stream closed");
        return errno_status("send");
      }
      sent += static_cast<std::size_t>(n);
    }
    return util::OkStatus();
  }

  util::Status write_all_vectored(
      std::span<const util::ByteSpan> parts) override {
    // One writev(2) per frame in the common case; the resume loop below
    // only runs when the kernel accepts a partial gather.
    iovec iov[16];
    std::size_t iov_count = 0;
    std::size_t remaining = 0;
    for (const auto& part : parts) {
      if (part.empty()) continue;
      if (iov_count == sizeof iov / sizeof iov[0]) {
        return util::InvalidArgument("too many gather-write parts");
      }
      iov[iov_count].iov_base =
          const_cast<void*>(static_cast<const void*>(part.data()));
      iov[iov_count].iov_len = part.size();
      ++iov_count;
      remaining += part.size();
    }
    std::size_t first = 0;
    while (remaining > 0) {
      msghdr msg{};
      msg.msg_iov = iov + first;
      msg.msg_iovlen = iov_count - first;
      const ssize_t n = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (fd_.get() < 0) return util::Cancelled("stream closed");
        return errno_status("sendmsg");
      }
      remaining -= static_cast<std::size_t>(n);
      std::size_t advanced = static_cast<std::size_t>(n);
      while (advanced > 0 && advanced >= iov[first].iov_len) {
        advanced -= iov[first].iov_len;
        ++first;
      }
      if (advanced > 0) {
        iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) +
                              advanced;
        iov[first].iov_len -= advanced;
      }
    }
    return util::OkStatus();
  }

  util::StatusOr<util::Bytes> drain_pending() override {
    util::Bytes out;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_.get(), buf, sizeof buf, MSG_DONTWAIT);
      if (n > 0) {
        out.insert(out.end(), buf, buf + n);
        continue;
      }
      if (n == 0) break;  // peer shutdown: nothing more is coming
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      if (out.empty()) return errno_status("recv(drain)");
      break;  // return what we have
    }
    return out;
  }

  void close() override {
    const int fd = fd_.get();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    fd_.reset();
  }

  [[nodiscard]] Endpoint local_endpoint() const override { return local_; }
  [[nodiscard]] Endpoint remote_endpoint() const override { return remote_; }

 private:
  Fd fd_;
  Endpoint local_;
  Endpoint remote_;
};

class TcpListener final : public Listener {
 public:
  TcpListener(int fd, Endpoint local) : fd_(fd), local_(std::move(local)) {}
  ~TcpListener() override { close(); }

  util::StatusOr<StreamPtr> accept(
      std::optional<util::Duration> timeout) override {
    const int fd = fd_.get();
    if (fd < 0) return util::Cancelled("listener closed");
    int timeout_ms = -1;
    if (timeout) {
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(*timeout)
              .count());
    }
    auto readable = wait_readable(fd, timeout_ms);
    if (!readable.ok()) {
      if (fd_.get() < 0) return util::Cancelled("listener closed");
      return readable.status();
    }
    if (!*readable) return util::Timeout("accept timed out");
    const int conn = ::accept(fd_.get(), nullptr, nullptr);
    if (conn < 0) {
      if (fd_.get() < 0) return util::Cancelled("listener closed");
      return errno_status("accept");
    }
    return StreamPtr(std::make_unique<TcpStream>(conn));
  }

  [[nodiscard]] Endpoint local_endpoint() const override { return local_; }

  void close() override {
    const int fd = fd_.get();
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    fd_.reset();
  }

 private:
  Fd fd_;
  Endpoint local_;
};

class UdpSocket final : public Datagram {
 public:
  UdpSocket(int fd, Endpoint local) : fd_(fd), local_(std::move(local)) {}
  ~UdpSocket() override { close(); }

  util::Status send_to(const Endpoint& dest, util::ByteSpan data) override {
    auto addr = make_addr(dest.host, dest.port);
    if (!addr.ok()) return addr.status();
    // Shared lock: close() must not release the fd number (which the kernel
    // may reuse) while a sendto/recvfrom on it is in flight.
    std::shared_lock lock(io_mu_);
    const int fd = fd_.get();
    if (fd < 0) return util::Cancelled("datagram socket closed");
    const ssize_t n =
        ::sendto(fd, data.data(), data.size(), MSG_NOSIGNAL,
                 reinterpret_cast<const sockaddr*>(&*addr), sizeof *addr);
    if (n < 0) return errno_status("sendto");
    return util::OkStatus();
  }

  util::StatusOr<Packet> recv_for(util::Duration timeout) override {
    const int fd = fd_.get();
    if (fd < 0) return util::Cancelled("datagram socket closed");
    auto readable = wait_readable(
        fd, static_cast<int>(
                std::chrono::duration_cast<std::chrono::milliseconds>(timeout)
                    .count()));
    if (!readable.ok()) {
      if (fd_.get() < 0) return util::Cancelled("datagram socket closed");
      return readable.status();
    }
    if (!*readable) return util::Timeout("recv timed out");

    std::uint8_t buf[65536];
    sockaddr_in from{};
    socklen_t from_len = sizeof from;
    // The poll above ran unlocked on a snapshot of the fd; re-check under the
    // shared lock so a concurrent close() can't hand the fd number to a new
    // socket between the readability check and the recvfrom.
    std::shared_lock lock(io_mu_);
    if (fd_.get() < 0) return util::Cancelled("datagram socket closed");
    const ssize_t n = ::recvfrom(fd_.get(), buf, sizeof buf, 0,
                                 reinterpret_cast<sockaddr*>(&from), &from_len);
    if (n < 0) {
      if (fd_.get() < 0) return util::Cancelled("datagram socket closed");
      return errno_status("recvfrom");
    }
    return Packet{endpoint_of(from), util::Bytes(buf, buf + n)};
  }

  [[nodiscard]] Endpoint local_endpoint() const override { return local_; }

  void close() override {
    // Exclusive lock: waits out any in-flight sendto/recvfrom (both are
    // short, post-poll syscalls) before ::close can recycle the fd.
    std::unique_lock lock(io_mu_);
    fd_.reset();
  }

 private:
  // Leaf lock around raw fd syscalls; nothing else is acquired under it, so
  // it stays outside the ranked-lock table.
  std::shared_mutex io_mu_;
  Fd fd_;
  Endpoint local_;
};

}  // namespace

void Fd::reset() noexcept {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::close(fd);
}

util::StatusOr<ListenerPtr> TcpNetwork::listen(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  Fd guard(fd);

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  auto addr = make_addr(bind_host_, port);
  if (!addr.ok()) return addr.status();
  if (::bind(fd, reinterpret_cast<sockaddr*>(&*addr), sizeof *addr) != 0) {
    return errno_status("bind");
  }
  if (::listen(fd, 64) != 0) return errno_status("listen");

  Endpoint local = local_endpoint_of(fd);
  return ListenerPtr(std::make_unique<TcpListener>(guard.release(), local));
}

util::StatusOr<StreamPtr> TcpNetwork::connect(const Endpoint& dest,
                                              util::Duration timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  Fd guard(fd);

  auto addr = make_addr(dest.host, dest.port);
  if (!addr.ok()) return addr.status();

  // Non-blocking connect with poll-based timeout.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);

  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&*addr), sizeof *addr);
  if (rc != 0 && errno != EINPROGRESS) return errno_status("connect");
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(timeout)
            .count());
    rc = ::poll(&pfd, 1, timeout_ms);
    if (rc == 0) return util::Timeout("connect timed out: " + dest.to_string());
    if (rc < 0) return errno_status("poll(connect)");
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return util::Unavailable("connect failed: " + dest.to_string() + ": " +
                               std::strerror(err));
    }
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking

  return wrap_tcp_stream(guard.release());
}

util::StatusOr<DatagramPtr> TcpNetwork::bind_datagram(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return errno_status("socket(udp)");
  Fd guard(fd);

  auto addr = make_addr(bind_host_, port);
  if (!addr.ok()) return addr.status();
  if (::bind(fd, reinterpret_cast<sockaddr*>(&*addr), sizeof *addr) != 0) {
    return errno_status("bind(udp)");
  }
  Endpoint local = local_endpoint_of(fd);
  return DatagramPtr(std::make_unique<UdpSocket>(guard.release(), local));
}

StreamPtr wrap_tcp_stream(int fd) { return std::make_unique<TcpStream>(fd); }

}  // namespace naplet::net
