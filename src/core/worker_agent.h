// Remote worker agent: the process that hosts persistent shard workers
// on another machine (or, in tests and the CI smoke job, behind loopback
// TCP on this one).
//
// One agent serves one machine. The driver (core/shard_driver.h with
// ShardConfig::worker_endpoints set) opens two kinds of connections to
// it, both framed IpcChannel streams (util/ipc_channel.h):
//
//   * One CONTROL connection per agent, held for the whole run. Over it
//     the driver ships the run's files content-addressed (manifest of
//     FNV-1a checksums -> the agent answers which it lacks -> only those
//     transfer; storage/file_sync.h owns the formats), relays spool
//     files between agents, and kills remote workers by shard id when
//     supervision demands it.
//   * One WORKER connection per shard. After a short hello the agent
//     spawns `<worker_exe> --shard-worker` with the
//     accepted socket as the child's stdin AND stdout — the persistent
//     worker's existing stdio protocol then runs driver <-> worker over
//     TCP unchanged, byte for byte. The agent keeps only the process
//     handle, for supervision (kill, zombie reaping).
//
// Every connection opens with a hello frame carrying the protocol
// version and the driver's run token; the token names the run directory
// under the agent's work root, so one agent can serve runs from several
// drivers without them trampling each other's files. A control
// connection dropping (driver death included) kills that run's workers —
// the remote mirror of PDEATHSIG.
//
// The agent is single-threaded: one poll loop over the listener and the
// control connections, reaping dead workers each tick. Strict
// request/reply per connection keeps that sufficient — the driver never
// pipelines control commands.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/file_sync.h"
#include "util/ipc_channel.h"

namespace knnpc {

/// Frame vocabulary of the agent protocol. Hello payloads carry the
/// protocol version first; a version the agent does not speak is
/// answered with ERR and the connection dropped.
namespace agent_frame {
constexpr std::uint32_t kProtocolVersion = 1;
/// Driver -> agent, first frame on a control connection:
/// u32 version, string run token.
constexpr std::uint32_t kHelloControl = 200;
/// Driver -> agent, first frame on a worker connection:
/// u32 version, string run token, u32 shard. The agent answers OK and
/// then hands the socket to the spawned worker as its stdio.
constexpr std::uint32_t kHelloWorker = 201;
/// Driver -> agent (control): serialized sync manifest
/// (storage/file_sync.h). The agent answers NEED.
constexpr std::uint32_t kSyncManifest = 202;
/// Driver -> agent (control): one FileBlob to place under the run dir.
/// The agent answers OK.
constexpr std::uint32_t kFilePut = 203;
/// Driver -> agent (control): string relpath to fetch. The agent
/// answers FILE_DATA (exists = 0 for a missing file).
constexpr std::uint32_t kFileGet = 204;
/// Driver -> agent (control): u32 shard to SIGKILL. The agent answers
/// OK whose payload is the dead worker's status description — the
/// remote stand-in for Subprocess::status().describe().
constexpr std::uint32_t kKillWorker = 205;
/// Agent -> driver: success; payload depends on the request.
constexpr std::uint32_t kOk = 210;
/// Agent -> driver: failure; payload is the error message.
constexpr std::uint32_t kErr = 211;
/// Agent -> driver, reply to SyncManifest: u32 count, then count u32
/// indices into the manifest the agent wants transferred (everything
/// else already matches by checksum and is skipped).
constexpr std::uint32_t kNeed = 212;
/// Agent -> driver, reply to FileGet: a FileBlob.
constexpr std::uint32_t kFileData = 213;
}  // namespace agent_frame

struct WorkerAgentConfig {
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; WorkerAgent::port() reports the bound one.
  std::uint16_t port = 0;
  /// Root under which each run token gets its own directory.
  std::filesystem::path work_root;
  /// Binary to spawn as --shard-worker; empty = this executable.
  std::string worker_exe;
  std::uint32_t max_frame_bytes = IpcChannel::kDefaultMaxFrameBytes;
};

/// The agent itself. Construction binds and listens (so a port-0 caller
/// can read the resolved port before run()); run() blocks in the poll
/// loop until stop() — callable from any thread or a signal-driven
/// flag — is observed, then kills and reaps every worker it spawned.
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
// (or, for the sync push, a few) control round-trips. All throw IpcError
// on transport failure and std::runtime_error when the agent answers ERR.

/// Opens a control connection: connect, hello, OK.
IpcChannel agent_connect_control(const std::string& host, std::uint16_t port,
                                 const std::string& token, double timeout_s);

/// Opens a worker connection for `shard`: connect, hello, OK. The
/// returned channel talks directly to the freshly spawned worker.
IpcChannel agent_connect_worker(const std::string& host, std::uint16_t port,
                                const std::string& token, std::uint32_t shard,
                                double timeout_s);

/// What a sync push actually moved — the source of the
/// ShardWorkerStats::sync_* counters.
struct AgentTransferCounters {
  std::uint64_t files_tx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t files_skipped = 0;
  std::uint64_t bytes_skipped = 0;

  AgentTransferCounters& operator+=(const AgentTransferCounters& o) {
    files_tx += o.files_tx;
    bytes_tx += o.bytes_tx;
    files_skipped += o.files_skipped;
    bytes_skipped += o.bytes_skipped;
    return *this;
  }
};

/// Pushes `manifest` over `control`: sends the manifest, transfers
/// exactly the entries the agent asked for (bytes supplied by `load`,
/// called once per needed relpath), and accounts the rest as skipped.
AgentTransferCounters agent_sync_push(
    IpcChannel& control, const std::vector<SyncFileEntry>& manifest,
    const std::function<std::vector<std::byte>(const std::string&)>& load,
    double timeout_s);

/// Fetches one file from the agent's run dir (exists = false when absent).
FileBlob agent_fetch_file(IpcChannel& control, const std::string& relpath,
                          double timeout_s);

/// SIGKILLs remote worker `shard`; returns its status description.
std::string agent_kill_worker(IpcChannel& control, std::uint32_t shard,
                              double timeout_s);

}  // namespace knnpc
