#include "sflow/socket_intake.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace ixp::sflow {

namespace {

void store_be64(std::byte* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

std::uint64_t load_be64(const std::byte* p) {
  return (std::uint64_t{load_be32(p)} << 32) | load_be32(p + 4);
}

/// The agent address sits at payload bytes 4..8 (after the version word).
net::Ipv4Addr peek_agent(std::span<const std::byte> payload) {
  if (payload.size() < 8) return net::Ipv4Addr{};
  return net::Ipv4Addr{load_be32(payload.data() + 4)};
}

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string{what} + ": " + std::strerror(errno);
}

}  // namespace

std::vector<std::byte> encode_replay_frame(std::uint64_t offset,
                                           std::span<const std::byte> payload) {
  std::vector<std::byte> frame(kReplayFrameHeaderBytes + payload.size());
  store_be32(frame.data(), kReplayMagic);
  store_be64(frame.data() + 4, offset);
  std::memcpy(frame.data() + kReplayFrameHeaderBytes, payload.data(),
              payload.size());
  return frame;
}

DatagramEnvelope parse_frame(std::span<const std::byte> bytes) {
  DatagramEnvelope envelope;
  std::span<const std::byte> payload = bytes;
  if (bytes.size() >= kReplayFrameHeaderBytes &&
      load_be32(bytes.data()) == kReplayMagic) {
    envelope.offset = load_be64(bytes.data() + 4);
    payload = bytes.subspan(kReplayFrameHeaderBytes);
  }
  envelope.agent = peek_agent(payload);
  envelope.payload.assign(payload.begin(), payload.end());
  return envelope;
}

// ---- AgentQueues ----------------------------------------------------------

AgentQueues::Row& AgentQueues::row_for(net::Ipv4Addr agent,
                                       std::optional<Eviction>& evicted) {
  const auto [it, first_time] = rows_.try_emplace(agent, Row{});
  if (!first_time) return it->second;
  it->second.id = next_row_id_++;
  arrival_order_.push_back(agent);
  if (rows_.size() <= max_agents_) return it->second;

  // Over the cap: evict the longest-tracked row. Its counters fold into
  // evicted_ so totals stay exact; in-flight envelopes of the victim keep
  // flowing and are credited to evicted_ when taken.
  const net::Ipv4Addr victim = arrival_order_.front();
  arrival_order_.pop_front();
  const Row& gone = rows_.find(victim)->second;
  evicted_ += gone.counters;
  evicted = Eviction{victim, gone.last_sequence.value_or(0)};
  rows_.erase(victim);
  ++evicted_agents_;
  // Backward-shift deletion may have moved the new row.
  return rows_.find(agent)->second;
}

bool AgentQueues::offer(DatagramEnvelope&& envelope) {
  // Only a header decode_into() would accept carries a sequence number.
  std::optional<std::uint32_t> sequence;
  if (const std::span<const std::byte> payload{envelope.payload};
      payload.size() >= Datagram::kHeaderBytes &&
      load_be32(payload.data()) == Datagram::kVersion) {
    sequence = load_be32(payload.data() + 8);
  }

  std::optional<Eviction> evicted;
  bool accepted = false;
  {
    std::lock_guard lock{mutex_};
    Row& row = row_for(envelope.agent, evicted);
    ++row.counters.received;
    if (sequence && !row.last_sequence) {
      row.last_sequence = sequence;
    } else if (sequence) {
      // Only forward gaps count (the standard collector heuristic): a
      // reordered datagram shows up as a gap followed by a late arrival,
      // and the late arrival neither adds a gap nor moves the sequence
      // back.
      const std::uint32_t expected = *row.last_sequence + 1;
      if (*sequence > expected) row.counters.lost += *sequence - expected;
      if (*sequence >= expected) row.last_sequence = sequence;
    }
    if (closed_ || row.queued >= capacity_) {
      ++row.counters.dropped;
    } else {
      ++row.queued;
      fifo_.emplace_back(std::move(envelope), row.id);
      accepted = true;
    }
  }
  if (evicted && eviction_hook_)
    eviction_hook_(evicted->agent, evicted->last_sequence);
  if (accepted) not_empty_.notify_one();
  return accepted;
}

void AgentQueues::pop_front(DatagramEnvelope& out) {
  auto& [envelope, row_id] = fifo_.front();
  out = std::move(envelope);
  const auto found = rows_.find(out.agent);
  if (found != rows_.end() && found->second.id == row_id) {
    ++found->second.counters.taken;
    --found->second.queued;
  } else {
    ++evicted_.taken;  // the row it was counted in was evicted meanwhile
  }
  fifo_.pop_front();
}

bool AgentQueues::take(DatagramEnvelope& out) {
  std::unique_lock lock{mutex_};
  not_empty_.wait(lock, [&] { return !fifo_.empty() || closed_; });
  if (fifo_.empty()) return false;
  pop_front(out);
  return true;
}

bool AgentQueues::try_take(DatagramEnvelope& out) {
  std::lock_guard lock{mutex_};
  if (fifo_.empty()) return false;
  pop_front(out);
  return true;
}

void AgentQueues::close() {
  {
    std::lock_guard lock{mutex_};
    closed_ = true;
  }
  not_empty_.notify_all();
}

bool AgentQueues::closed() const {
  std::lock_guard lock{mutex_};
  return closed_;
}

std::size_t AgentQueues::queued() const {
  std::lock_guard lock{mutex_};
  return fifo_.size();
}

AgentQueuesStats AgentQueues::stats() const {
  std::lock_guard lock{mutex_};
  AgentQueuesStats out;
  out.rows.reserve(arrival_order_.size());
  for (const net::Ipv4Addr agent : arrival_order_) {
    if (const auto found = rows_.find(agent); found != rows_.end()) {
      out.rows.push_back({agent, found->second.counters});
    }
  }
  out.evicted_agents = evicted_agents_;
  out.evicted = evicted_;
  return out;
}

// ---- SocketIntake ---------------------------------------------------------

SocketIntake::~SocketIntake() { shutdown(); }

void SocketIntake::shutdown() {
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  }
  if (udp_fd_ >= 0) {
    ::close(udp_fd_);
    udp_fd_ = -1;
  }
}

bool SocketIntake::listen_unix(const std::string& path, std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix socket path too long: " + path;
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_DGRAM, 0);
  if (fd < 0) {
    set_error(error, "socket(AF_UNIX)");
    return false;
  }
  ::unlink(path.c_str());  // stale socket file from a previous run
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    set_error(error, "bind(unix)");
    ::close(fd);
    return false;
  }
  unix_fd_ = fd;
  unix_path_ = path;
  return true;
}

bool SocketIntake::listen_udp(std::uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    set_error(error, "socket(AF_INET)");
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    set_error(error, "bind(udp)");
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    set_error(error, "getsockname");
    ::close(fd);
    return false;
  }
  udp_fd_ = fd;
  udp_port_ = ntohs(addr.sin_port);
  return true;
}

std::size_t SocketIntake::poll_once(
    int timeout_ms, const std::function<void(DatagramEnvelope&&)>& sink) {
  pollfd fds[2];
  nfds_t nfds = 0;
  if (unix_fd_ >= 0) fds[nfds++] = {unix_fd_, POLLIN, 0};
  if (udp_fd_ >= 0) fds[nfds++] = {udp_fd_, POLLIN, 0};
  if (nfds == 0) return 0;

  const int ready = ::poll(fds, nfds, timeout_ms);
  if (ready <= 0) return 0;

  if (recv_buffer_.size() < kMaxDatagramBytes)
    recv_buffer_.resize(kMaxDatagramBytes);

  std::size_t delivered = 0;
  for (nfds_t i = 0; i < nfds; ++i) {
    if ((fds[i].revents & POLLIN) == 0) continue;
    // Drain everything currently readable without blocking again.
    while (true) {
      const ssize_t n = ::recv(fds[i].fd, recv_buffer_.data(),
                               recv_buffer_.size(), MSG_DONTWAIT);
      if (n <= 0) break;
      sink(parse_frame({recv_buffer_.data(), static_cast<std::size_t>(n)}));
      ++delivered;
    }
  }
  return delivered;
}

// ---- DatagramSender -------------------------------------------------------

DatagramSender::~DatagramSender() {
  if (fd_ >= 0) ::close(fd_);
}

DatagramSender::DatagramSender(DatagramSender&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      frame_buffer_(std::move(other.frame_buffer_)) {}

DatagramSender& DatagramSender::operator=(DatagramSender&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    frame_buffer_ = std::move(other.frame_buffer_);
  }
  return *this;
}

DatagramSender DatagramSender::connect_unix(const std::string& path,
                                            std::string* error) {
  DatagramSender sender;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix socket path too long: " + path;
    return sender;
  }
  const int fd = ::socket(AF_UNIX, SOCK_DGRAM, 0);
  if (fd < 0) {
    set_error(error, "socket(AF_UNIX)");
    return sender;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    set_error(error, "connect(unix)");
    ::close(fd);
    return sender;
  }
  sender.fd_ = fd;
  return sender;
}

DatagramSender DatagramSender::connect_udp(std::uint16_t port,
                                           std::string* error) {
  DatagramSender sender;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    set_error(error, "socket(AF_INET)");
    return sender;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    set_error(error, "connect(udp)");
    ::close(fd);
    return sender;
  }
  sender.fd_ = fd;
  return sender;
}

bool DatagramSender::send(std::span<const std::byte> payload) {
  if (fd_ < 0) return false;
  const ssize_t n = ::send(fd_, payload.data(), payload.size(), 0);
  return n == static_cast<ssize_t>(payload.size());
}

bool DatagramSender::send_framed(std::uint64_t offset,
                                 std::span<const std::byte> payload) {
  frame_buffer_.resize(kReplayFrameHeaderBytes + payload.size());
  store_be32(frame_buffer_.data(), kReplayMagic);
  store_be64(frame_buffer_.data() + 4, offset);
  std::memcpy(frame_buffer_.data() + kReplayFrameHeaderBytes, payload.data(),
              payload.size());
  return send(frame_buffer_);
}

}  // namespace ixp::sflow
