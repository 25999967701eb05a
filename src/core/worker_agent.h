// Remote worker agent: the process that hosts persistent shard workers
// on another machine (or, in tests and the CI smoke job, behind loopback
// TCP on this one).
//
// One agent serves one machine. The driver (core/shard_driver.h with
// ShardConfig::worker_endpoints set) opens two kinds of connections to
// it, both framed IpcChannel streams (util/ipc_channel.h):
//
//   * One CONTROL connection per agent, held for the whole run. It
//     carries the hello and the driver's KILL_WORKER requests, by shard
//     id, when supervision demands a kill; its dropping ends the run.
//   * One WORKER connection per shard. After a short hello the agent
//     spawns `<worker_exe> --shard-worker --shard=N --work-dir=<run dir>`
//     with the accepted socket as the child's stdin AND stdout — the
//     persistent worker's stdio protocol (plan, commands, replies) then
//     runs driver <-> worker over TCP unchanged, byte for byte. The agent
//     keeps only the process handle, for supervision (kill, zombie
//     reaping).
//
// Every connection opens with a hello frame carrying the protocol
// version and the driver's run token; the token names the run directory
// under the agent's work root (the workers' scratch files), so one agent
// can serve runs from several drivers without them trampling each
// other's files. When a run's last control connection drops (driver
// death included) the agent kills and reaps that run's workers — the
// remote mirror of PDEATHSIG — and deletes the run directory.
//
// The agent is single-threaded: one poll loop over the listener and the
// control connections, reaping dead workers each tick. Strict
// request/reply per connection keeps that sufficient — the driver never
// pipelines control commands.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>

#include "util/ipc_channel.h"

namespace knnpc {

/// Frame vocabulary of the agent protocol. Hello payloads carry the
/// protocol version first; a version the agent does not speak is
/// answered with ERR and the connection dropped.
namespace agent_frame {
/// v2: the file frames (manifest, put, get, need, data) are gone; workers
/// spawn with --work-dir instead of a synced plan file.
constexpr std::uint32_t kProtocolVersion = 2;
/// Driver -> agent, first frame on a control connection:
/// u32 version, string run token.
constexpr std::uint32_t kHelloControl = 200;
/// Driver -> agent, first frame on a worker connection:
/// u32 version, string run token, u32 shard. The agent answers OK and
/// then hands the socket to the spawned worker as its stdio.
constexpr std::uint32_t kHelloWorker = 201;
/// Driver -> agent (control): u32 shard to SIGKILL. The agent answers
/// OK whose payload is the dead worker's status description — the
/// remote stand-in for Subprocess::status().describe().
constexpr std::uint32_t kKillWorker = 205;
/// Agent -> driver: success; payload depends on the request.
constexpr std::uint32_t kOk = 210;
/// Agent -> driver: failure; payload is the error message.
constexpr std::uint32_t kErr = 211;
}  // namespace agent_frame

struct WorkerAgentConfig {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; WorkerAgent::port() reports the bound one.
  std::uint16_t port = 0;
  /// Root under which each run token gets its own directory, deleted
  /// when the run ends.
  std::filesystem::path work_root;
  /// Binary to spawn as --shard-worker; empty = this executable.
  std::string worker_exe;
  std::uint32_t max_frame_bytes = IpcChannel::kDefaultMaxFrameBytes;
};

/// The agent itself. Construction binds and listens (so a port-0 caller
/// can read the resolved port before run()); run() blocks in the poll
/// loop until stop() — callable from any thread or a signal-driven
/// flag — is observed, then kills and reaps every worker it spawned and
/// deletes the run directories still present.
class WorkerAgent {
 public:
  explicit WorkerAgent(WorkerAgentConfig config);
  ~WorkerAgent();
  WorkerAgent(const WorkerAgent&) = delete;
  WorkerAgent& operator=(const WorkerAgent&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept;
  void run();
  void stop() noexcept { stop_.store(true, std::memory_order_relaxed); }

 private:
  struct State;
  WorkerAgentConfig config_;
  IpcListener listener_;
  std::unique_ptr<State> state_;
  std::atomic<bool> stop_{false};
};

/// `knnpc_run --worker-agent` entry: runs an agent until SIGINT/SIGTERM.
/// `port_file`, when non-empty, receives the bound port (written
/// atomically, so a launcher polling for the file never reads half a
/// number — how the CI smoke job learns an ephemeral port).
int worker_agent_main(const WorkerAgentConfig& config,
                      const std::filesystem::path& port_file);

// ------------------------------------------------- driver-side client --
// Thin request/reply helpers the shard driver composes; each call is one
// control round-trip. All throw IpcError on transport failure and
// std::runtime_error when the agent answers ERR.

/// Opens a control connection: connect, hello, OK.
IpcChannel agent_connect_control(const std::string& host, std::uint16_t port,
                                 const std::string& token, double timeout_s);

/// Opens a worker connection for `shard`: connect, hello, OK. The
/// returned channel talks directly to the freshly spawned worker.
IpcChannel agent_connect_worker(const std::string& host, std::uint16_t port,
                                const std::string& token, std::uint32_t shard,
                                double timeout_s);

/// SIGKILLs remote worker `shard`; returns its status description.
std::string agent_kill_worker(IpcChannel& control, std::uint32_t shard,
                              double timeout_s);

}  // namespace knnpc
