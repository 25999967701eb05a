// Length-prefixed binary framing over POSIX byte streams — the
// persistent-worker command channel (core/shard_driver.h,
// ShardWorkerMode::Persistent) and, since the distributed mode, the
// driver <-> worker-agent transport (core/worker_agent.h).
//
// The driver keeps S worker processes alive across iterations and drives
// them through a strict request/reply protocol: every message is one
// frame, every frame is
//
//   u32 magic "KIPC" | u32 type | u32 payload length | payload bytes
//
// on a byte stream — a pipe pair, a socketpair, or a TCP socket. This
// header owns exactly the framing problems byte streams create — short
// reads and writes straddling the kernel buffer, EOF in the middle of a
// frame, garbage where a header should be, a peer that stops responding,
// a socket that applies backpressure — and turns every one of them into a
// *typed* error (IpcError) instead of a hang, a partial read or undefined
// behaviour. ipc_channel_test is the protocol-conformance suite, run over
// pipe, socketpair and loopback-TCP transports: malformed input of any
// shape must produce an IpcError, never a hang or UB.
//
// Nothing here knows about shards or waves; the command vocabulary lives
// with the shard driver (and the agent vocabulary with the worker agent).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace knnpc {

/// Why an IPC operation failed. Conformance tests assert on the kind, so
/// callers can distinguish "peer exited cleanly" (Eof at a frame
/// boundary) from "peer died mid-message" (TruncatedFrame) from "peer is
/// wedged" (Timeout).
enum class IpcErrorKind {
  /// Clean EOF exactly between frames — the peer closed its write end.
  Eof,
  /// EOF after a partial header or partial payload.
  TruncatedFrame,
  /// The 4 bytes where "KIPC" belongs hold something else.
  BadMagic,
  /// The length prefix exceeds the channel's max_frame_bytes bound. The
  /// payload is never allocated, so a corrupt length cannot drive a
  /// multi-gigabyte allocation. The message carries the frame type, the
  /// observed length and the bound, so a corrupt prefix on a remote link
  /// is diagnosable from the error string alone.
  OversizedFrame,
  /// The deadline passed before a complete frame arrived (recv) or before
  /// the peer drained enough buffer space to accept one (send under
  /// socket backpressure).
  Timeout,
  /// An underlying syscall failed (errno text in the message).
  SysError,
};

/// Human-readable kind name ("eof", "truncated-frame", ...).
const char* ipc_error_kind_name(IpcErrorKind kind) noexcept;

class IpcError : public std::runtime_error {
 public:
  IpcError(IpcErrorKind kind, const std::string& what)
      : std::runtime_error(std::string(ipc_error_kind_name(kind)) + ": " +
                           what),
        kind_(kind) {}

  [[nodiscard]] IpcErrorKind kind() const noexcept { return kind_; }

 private:
  IpcErrorKind kind_;
};

/// One decoded frame.
struct IpcFrame {
  std::uint32_t type = 0;
  std::vector<std::byte> payload;
};

/// One end of a bidirectional framed channel over one or two stream fds.
///
/// Thread-safety: single-owner — send()/recv() must not be called
/// concurrently on the same instance. Distinct channels are independent
/// (the shard driver owns one per worker).
///
/// Ownership: the channel owns its fds and closes them on destruction.
/// When both directions share one fd (a socket), close_read/close_write
/// half-close with shutdown() and the last direction closes the fd.
/// Construction ignores SIGPIPE process-wide (once): a peer that died
/// must surface as an EPIPE SysError from send(), not kill the driver.
///
/// Timeout contract (uniform across send and recv): `timeout_s < 0`
/// blocks forever, `timeout_s == 0` polls exactly once and then throws
/// Timeout, `timeout_s > 0` is a deadline for the whole operation. The zero case still makes progress on data
/// the kernel already buffered — a frame that fully arrived is drained,
/// not reported as a timeout.
class IpcChannel {
 public:
  /// Default bound on a single frame's payload. Generous — a ShardResult
  /// for tens of millions of users fits — while still rejecting a corrupt
  /// length prefix long before it can drive an absurd allocation.
  static constexpr std::uint32_t kDefaultMaxFrameBytes = 1u << 30;

  IpcChannel() = default;
  /// Takes ownership of `read_fd` and `write_fd` (either may be -1 for a
  /// half-open channel; using the missing direction throws SysError).
  /// Passing the same fd twice makes a socket channel: both directions
  /// ride the one fd and close_read/close_write become shutdown()s.
  IpcChannel(int read_fd, int write_fd,
             std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Connects to `host:port` over TCP and wraps the socket as a channel.
  /// The socket is O_NONBLOCK + O_CLOEXEC with TCP_NODELAY (the protocol
  /// is strict request/reply; Nagle would serialise every round-trip with
  /// the delayed-ACK timer) and SO_KEEPALIVE (a silently vanished peer
  /// must eventually surface as a SysError, not an eternal hang) set.
  /// `timeout_s` bounds the connect itself (same <0 / 0 / >0 contract);
  /// failure to connect throws IpcError{Timeout} or IpcError{SysError}.
  static IpcChannel connect_tcp(
      const std::string& host, std::uint16_t port, double timeout_s = -1.0,
      std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

  IpcChannel(IpcChannel&& other) noexcept;
  IpcChannel& operator=(IpcChannel&& other) noexcept;
  IpcChannel(const IpcChannel&) = delete;
  IpcChannel& operator=(const IpcChannel&) = delete;
  ~IpcChannel();

  [[nodiscard]] bool valid() const noexcept {
    return read_fd_ >= 0 || write_fd_ >= 0;
  }
  [[nodiscard]] int read_fd() const noexcept { return read_fd_; }
  [[nodiscard]] int write_fd() const noexcept { return write_fd_; }

  /// Writes one complete frame, looping over short writes and EINTR (a
  /// payload larger than the kernel buffer legitimately takes several
  /// write() calls). On a non-blocking fd that reports EAGAIN — a socket
  /// whose peer applies backpressure — the loop polls for writability
  /// with the remaining deadline instead of spinning; `timeout_s`
  /// follows the channel-wide contract (< 0 forever, 0 poll-once, > 0
  /// deadline for the whole frame) and expiry throws IpcError{Timeout}.
  /// Throws IpcError{SysError} on write failure — including EPIPE when
  /// the peer is gone — and IpcError{OversizedFrame} when the payload
  /// exceeds max_frame_bytes (the peer would be required to reject it).
  void send(std::uint32_t type, std::span<const std::byte> payload,
            double timeout_s = -1.0);

  /// Reads one complete frame. `timeout_s` follows the channel-wide
  /// contract: < 0 blocks forever, 0 polls once (draining a frame the
  /// kernel already buffered) then throws Timeout, > 0 is a deadline for
  /// the whole frame (header and payload) — the caller decides whether
  /// Timeout means a wedged peer. All malformed-input cases throw the
  /// typed errors documented on IpcErrorKind; none of them hang,
  /// over-read or allocate from an untrusted length.
  IpcFrame recv(double timeout_s = -1.0);

  /// Closes one direction early (recv on the peer then sees clean Eof).
  /// On a shared-fd (socket) channel this is a shutdown() half-close;
  /// the fd itself is closed when the second direction goes.
  void close_read() noexcept;
  void close_write() noexcept;

  /// Disowns and returns {read_fd, write_fd} without closing them — for
  /// handing a socket to a spawned worker as its stdio. The channel is
  /// invalid afterwards.
  [[nodiscard]] std::pair<int, int> release() noexcept;

 private:
  /// Reads exactly `size` bytes before `deadline_ns` (monotonic; -1 =
  /// none). `header_done` selects the truncation kind for a mid-buffer
  /// EOF; an EOF with zero bytes read of the *header* is a clean Eof.
  void read_exact(std::byte* out, std::size_t size, std::int64_t deadline_ns,
                  bool header);

  int read_fd_ = -1;
  int write_fd_ = -1;
  std::uint32_t max_frame_bytes_ = kDefaultMaxFrameBytes;
};

/// A listening TCP socket that accepts IpcChannel connections — the
/// worker-agent's front door. Binding port 0 picks an ephemeral port;
/// port() reports the bound one either way.
class IpcListener {
 public:
  IpcListener() = default;
  /// Binds and listens on `host:port`. Throws IpcError{SysError} when
  /// any step (resolve, socket, bind, listen) fails.
  IpcListener(const std::string& host, std::uint16_t port,
              std::uint32_t max_frame_bytes = IpcChannel::kDefaultMaxFrameBytes);

  IpcListener(IpcListener&& other) noexcept;
  IpcListener& operator=(IpcListener&& other) noexcept;
  IpcListener(const IpcListener&) = delete;
  IpcListener& operator=(const IpcListener&) = delete;
  ~IpcListener();

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  [[nodiscard]] int fd() const noexcept { return fd_; }
  /// The actually-bound port (resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Accepts one connection as a channel with the same socket options as
  /// connect_tcp. `timeout_s` follows the channel-wide contract; expiry
  /// throws IpcError{Timeout}.
  IpcChannel accept(double timeout_s = -1.0);

  void close() noexcept;

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint32_t max_frame_bytes_ = IpcChannel::kDefaultMaxFrameBytes;
};

/// A connected pair of unidirectional pipes wrapped as the two ends of a
/// parent/child channel: the parent keeps `parent`, the child ends are
/// passed as the child's stdin/stdout (util/subprocess's stdio wiring).
/// All four fds are O_CLOEXEC so unrelated children never inherit them;
/// dup2() onto fd 0/1 in the spawned child clears the flag on the copies.
struct IpcChannelPair {
  IpcChannel parent;
  /// Child's read end (its stdin) and write end (its stdout). The
  /// Subprocess stdio constructor closes them in the parent after fork.
  int child_read_fd = -1;
  int child_write_fd = -1;
};

/// Creates the two pipes. Throws IpcError{SysError} when pipe2 fails.
IpcChannelPair make_ipc_channel_pair(
    std::uint32_t max_frame_bytes = IpcChannel::kDefaultMaxFrameBytes);

/// Splits "host:port" into its parts ("127.0.0.1:7070" -> {"127.0.0.1",
/// 7070}). Throws IpcError{SysError} on a malformed endpoint (missing
/// colon, empty host, non-numeric or out-of-range port).
std::pair<std::string, std::uint16_t> parse_host_port(
    const std::string& endpoint);

}  // namespace knnpc
