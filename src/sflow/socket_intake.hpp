// Datagram intake for the collector service (`ixpscope serve`).
//
// Three pieces, each independently testable:
//
//   * Replay framing. A live agent sends raw sFlow datagrams; a trace
//     replayer additionally wants the analysis to reproduce the offline
//     `ixpscope analyze` report bit for bit, which requires each record's
//     original trace offset (the stream_seq_key input) to survive the
//     trip through the socket. A replay frame prefixes the payload with
//     kReplayMagic and the 64-bit offset; the magic occupies the slot
//     where a raw sFlow datagram carries its version word (5), so the two
//     shapes are self-discriminating and agents need no configuration.
//
//   * AgentQueues. The bounded hand-off between socket readers and the
//     analysis workers, and the service's one per-agent table. offer()
//     NEVER blocks: when an agent's queue slice is full the datagram is
//     dropped and counted against that agent — a flooding agent loses its
//     own datagrams, not the service, and not its neighbors'. take()
//     blocks until work arrives or close() is called, then drains what
//     remains (the clean-shutdown path). Exact invariant, per agent and in
//     total: received == taken + dropped. offer() also tracks each
//     agent's sFlow sequence number in arrival order and counts forward
//     gaps as `lost`: datagrams the agent sent that never arrived.
//
//   * SocketIntake / DatagramSender. Thin POSIX wrappers: a UDP socket on
//     127.0.0.1 and/or a Unix datagram socket, drained by poll_once();
//     the sender is the matching client used by `ixpscope replay` and the
//     tests. Environments without socket permissions still exercise the
//     full pipeline through parse_frame() + AgentQueues::offer directly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <condition_variable>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sflow/datagram.hpp"
#include "util/flat_hash_map.hpp"

namespace ixp::sflow {

/// First word of a replay frame, big-endian ("IXRP"). Chosen to be
/// impossible as a raw sFlow first word, which is always the version (5).
inline constexpr std::uint32_t kReplayMagic = 0x49585250;

/// Replay frame layout: u32 kReplayMagic | u64 offset | raw payload.
inline constexpr std::size_t kReplayFrameHeaderBytes = 12;

/// offset value meaning "not a replay frame": the service assigns a
/// virtual offset of its own (live agents don't know trace offsets).
inline constexpr std::uint64_t kNoReplayOffset = ~std::uint64_t{0};

/// One datagram as it leaves the intake layer: the raw sFlow payload, the
/// agent peeked from its header (bytes 4..8; 0.0.0.0 when the payload is
/// too short to say), and the replay offset when framed.
struct DatagramEnvelope {
  net::Ipv4Addr agent;
  std::uint64_t offset = kNoReplayOffset;
  std::vector<std::byte> payload;

  [[nodiscard]] bool framed() const noexcept { return offset != kNoReplayOffset; }
};

/// Wraps a payload in a replay frame.
[[nodiscard]] std::vector<std::byte> encode_replay_frame(
    std::uint64_t offset, std::span<const std::byte> payload);

/// Classifies received bytes as a replay frame or a raw datagram and
/// builds the envelope (copies the payload; peeks the agent).
[[nodiscard]] DatagramEnvelope parse_frame(std::span<const std::byte> bytes);

/// Per-agent intake counters. The exact-accounting invariant the overload
/// tests pin down: received == taken + dropped, always. `lost` sits
/// outside it: sequence numbers the agent skipped, i.e. datagrams that
/// never reached offer() at all.
struct AgentIntakeCounters {
  std::uint64_t received = 0;
  std::uint64_t dropped = 0;
  std::uint64_t taken = 0;
  std::uint64_t lost = 0;

  AgentIntakeCounters& operator+=(const AgentIntakeCounters& other) {
    received += other.received;
    dropped += other.dropped;
    taken += other.taken;
    lost += other.lost;
    return *this;
  }
  friend bool operator==(const AgentIntakeCounters&,
                         const AgentIntakeCounters&) = default;
};

struct AgentQueuesStats {
  struct Row {
    net::Ipv4Addr agent;
    AgentIntakeCounters counters;
  };
  /// Live agents in first-appearance order.
  std::vector<Row> rows;
  /// Rows evicted to honor the agent cap, folded together so the totals
  /// never lose a datagram.
  std::uint64_t evicted_agents = 0;
  AgentIntakeCounters evicted;

  [[nodiscard]] AgentIntakeCounters totals() const {
    AgentIntakeCounters sum = evicted;
    for (const auto& row : rows) sum += row.counters;
    return sum;
  }
};

/// The bounded, never-blocking-on-ingest hand-off described in the file
/// header. One global FIFO keeps cross-agent arrival order; the per-agent
/// bound is enforced on offer(). Thread-safe throughout.
class AgentQueues {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  /// Agent rows kept before oldest-first eviction. A real fabric has
  /// hundreds of agents; the cap only matters when forged agent addresses
  /// flood the service, which must not be able to grow memory without
  /// bound.
  static constexpr std::size_t kDefaultMaxAgents = 4096;

  explicit AgentQueues(std::size_t per_agent_capacity = kDefaultCapacity,
                       std::size_t max_agents = kDefaultMaxAgents)
      : capacity_(per_agent_capacity == 0 ? 1 : per_agent_capacity),
        max_agents_(max_agents == 0 ? 1 : max_agents) {}

  /// Enqueues if the sender's slice has room; otherwise counts a drop and
  /// returns false. Never blocks — the service must shed load rather than
  /// stall the socket readers. After close(), everything is a drop.
  /// Either way, a payload with a well-formed sFlow header (>= 20 bytes,
  /// version 5) advances the agent's sequence: a forward jump counts the
  /// skipped numbers as lost, a late arrival counts nothing, and an
  /// agent whose row was evicted starts afresh.
  bool offer(DatagramEnvelope&& envelope);

  /// Blocks until an envelope is available or the queues are closed and
  /// drained; false means end-of-stream.
  bool take(DatagramEnvelope& out);

  /// Non-blocking take; false when nothing is queued right now (or the
  /// stream has ended).
  bool try_take(DatagramEnvelope& out);

  /// Stops intake and wakes every blocked take(); queued envelopes are
  /// still handed out until drained.
  void close();

  [[nodiscard]] bool closed() const;
  [[nodiscard]] std::size_t queued() const;
  [[nodiscard]] AgentQueuesStats stats() const;

  /// Called once per row evicted to honor the agent cap, with the agent
  /// and the last sequence number its row had reached (0 if it never
  /// sent a well-formed header). Runs on the offering thread after the
  /// queue lock is released. Set it before the first offer().
  using EvictionHook =
      std::function<void(net::Ipv4Addr agent, std::uint32_t last_sequence)>;
  void set_eviction_hook(EvictionHook hook) { eviction_hook_ = std::move(hook); }

 private:
  struct Row {
    /// Distinguishes this row from an earlier, evicted row of the same
    /// agent, so envelopes queued under that row are not credited here.
    std::uint64_t id = 0;
    AgentIntakeCounters counters;
    std::size_t queued = 0;
    /// Empty until the agent sends a well-formed header.
    std::optional<std::uint32_t> last_sequence;
  };

  struct Eviction {
    net::Ipv4Addr agent;
    std::uint32_t last_sequence = 0;
  };

  /// The agent's row, created on first sight. Creating one past the cap
  /// evicts the oldest row and reports it in `evicted`. Callers hold
  /// mutex_.
  Row& row_for(net::Ipv4Addr agent, std::optional<Eviction>& evicted);
  /// Pops the FIFO head into `out` and credits its agent. Callers hold
  /// mutex_ and have checked the FIFO is non-empty.
  void pop_front(DatagramEnvelope& out);

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  /// Queued envelopes, each with the id of the row it was counted in.
  std::deque<std::pair<DatagramEnvelope, std::uint64_t>> fifo_;
  util::FlatHashMap<net::Ipv4Addr, Row> rows_;
  std::deque<net::Ipv4Addr> arrival_order_;
  std::size_t capacity_;
  std::size_t max_agents_;
  std::uint64_t next_row_id_ = 0;
  std::uint64_t evicted_agents_ = 0;
  AgentIntakeCounters evicted_;
  bool closed_ = false;
  EvictionHook eviction_hook_;
};

/// Receiving side: a UDP socket on 127.0.0.1 and/or a Unix datagram
/// socket, drained with poll(). Not thread-safe; the service owns one and
/// drains it from its intake thread.
class SocketIntake {
 public:
  /// Largest datagram accepted off a socket (UDP's practical ceiling).
  static constexpr std::size_t kMaxDatagramBytes = 65536;

  SocketIntake() = default;
  ~SocketIntake();
  SocketIntake(const SocketIntake&) = delete;
  SocketIntake& operator=(const SocketIntake&) = delete;

  /// Binds a Unix datagram socket at `path` (unlinking any stale file).
  bool listen_unix(const std::string& path, std::string* error = nullptr);

  /// Binds a UDP socket on 127.0.0.1; port 0 picks an ephemeral port,
  /// readable back via udp_port().
  bool listen_udp(std::uint16_t port, std::string* error = nullptr);

  [[nodiscard]] bool listening() const noexcept {
    return unix_fd_ >= 0 || udp_fd_ >= 0;
  }
  [[nodiscard]] std::uint16_t udp_port() const noexcept { return udp_port_; }
  [[nodiscard]] const std::string& unix_path() const noexcept {
    return unix_path_;
  }

  /// Waits up to `timeout_ms` for readability, then drains every datagram
  /// currently available into `sink`. Returns the number delivered.
  std::size_t poll_once(int timeout_ms,
                        const std::function<void(DatagramEnvelope&&)>& sink);

  /// Closes the sockets (and unlinks the Unix path). Safe to call twice.
  void shutdown();

 private:
  int unix_fd_ = -1;
  int udp_fd_ = -1;
  std::uint16_t udp_port_ = 0;
  std::string unix_path_;
  std::vector<std::byte> recv_buffer_;
};

/// Sending side: the replayer's and the tests' client. Unix datagram
/// sends block when the receiver's buffer is full — the natural
/// backpressure that makes socket replay lossless; UDP sends can be
/// dropped by the kernel and are only suitable for live smoke traffic.
class DatagramSender {
 public:
  DatagramSender() = default;
  ~DatagramSender();
  DatagramSender(DatagramSender&& other) noexcept;
  DatagramSender& operator=(DatagramSender&& other) noexcept;
  DatagramSender(const DatagramSender&) = delete;
  DatagramSender& operator=(const DatagramSender&) = delete;

  static DatagramSender connect_unix(const std::string& path,
                                     std::string* error = nullptr);
  static DatagramSender connect_udp(std::uint16_t port,
                                    std::string* error = nullptr);

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

  /// Sends one raw payload (one datagram). False on any send error.
  bool send(std::span<const std::byte> payload);

  /// Sends one replay-framed payload.
  bool send_framed(std::uint64_t offset, std::span<const std::byte> payload);

 private:
  int fd_ = -1;
  std::vector<std::byte> frame_buffer_;
};

}  // namespace ixp::sflow
