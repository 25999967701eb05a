#include "core/worker_agent.h"

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "storage/block_file.h"
#include "util/fnv.h"
#include "util/logging.h"
#include "util/serde.h"
#include "util/subprocess.h"

namespace knnpc {
namespace fs = std::filesystem;

namespace {

using namespace agent_frame;

// Hello/control payloads are tiny and ad hoc — length-prefixed strings
// and raw scalars, same little-endian conventions as file_sync's wire
// formats.
void put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  append_record(out, v);
}

void put_string(std::vector<std::byte>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  const std::size_t offset = out.size();
  out.resize(offset + s.size());
  std::memcpy(out.data() + offset, s.data(), s.size());
}

std::uint32_t get_u32(std::span<const std::byte> bytes, std::size_t& offset,
                      const char* what) {
  std::uint32_t v = 0;
  if (!read_record(bytes, offset, v)) {
    throw std::runtime_error(std::string("worker_agent: truncated ") + what);
  }
  return v;
}

std::string get_string(std::span<const std::byte> bytes, std::size_t& offset,
                       const char* what) {
  const std::uint32_t len = get_u32(bytes, offset, what);
  if (offset + len > bytes.size()) {
    throw std::runtime_error(std::string("worker_agent: truncated ") + what);
  }
  std::string s(reinterpret_cast<const char*>(bytes.data() + offset), len);
  offset += len;
  return s;
}

std::string payload_as_string(const IpcFrame& frame) {
  return std::string(reinterpret_cast<const char*>(frame.payload.data()),
                     frame.payload.size());
}

/// A run token becomes a directory name; anything shell- or
/// path-hostile is flattened so a malicious driver cannot escape the
/// work root (is_safe_relpath guards the files *inside* it).
std::string sanitize_token(const std::string& token) {
  std::string out;
  out.reserve(token.size());
  for (const char c : token) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out = "run";
  return out;
}

/// Inner timeout for the frames of an already-initiated exchange. Long
/// enough for a partition blob over a congested link, short enough that
/// a half-connected peer cannot wedge the single-threaded agent forever.
constexpr double kAgentFrameTimeoutS = 60.0;

}  // namespace

// ------------------------------------------------------------- the agent --

struct WorkerAgent::State {
  struct Run {
    fs::path run_dir;
    /// relpath -> FNV-1a of the content last placed there; the answer to
    /// "which manifest entries do you need".
    std::unordered_map<std::string, std::uint64_t> files;
    std::map<std::uint32_t, Subprocess> workers;
  };
  struct Control {
    IpcChannel channel;
    std::string token;
  };
  std::unordered_map<std::string, Run> runs;
  std::vector<Control> controls;
};

WorkerAgent::WorkerAgent(WorkerAgentConfig config)
    : config_(std::move(config)),
      listener_(config_.host, config_.port, config_.max_frame_bytes),
      state_(std::make_unique<State>()) {
  if (config_.work_root.empty()) {
    throw std::invalid_argument("WorkerAgent: work_root must be set");
  }
  fs::create_directories(config_.work_root);
}

WorkerAgent::~WorkerAgent() = default;

std::uint16_t WorkerAgent::port() const noexcept { return listener_.port(); }

namespace {

void send_err(IpcChannel& channel, const std::string& message) {
  std::vector<std::byte> payload;
  payload.resize(message.size());
  std::memcpy(payload.data(), message.data(), message.size());
  channel.send(kErr, payload, kAgentFrameTimeoutS);
}

void send_ok(IpcChannel& channel, const std::string& message = {}) {
  std::vector<std::byte> payload;
  payload.resize(message.size());
  std::memcpy(payload.data(), message.data(), message.size());
  channel.send(kOk, payload, kAgentFrameTimeoutS);
}

}  // namespace

void WorkerAgent::run() {
  State& st = *state_;
  const std::string exe = config_.worker_exe.empty()
                              ? current_executable().string()
                              : config_.worker_exe;

  auto run_for = [&](const std::string& token) -> State::Run& {
    auto [it, inserted] =
        st.runs.try_emplace(token, State::Run{
            config_.work_root / sanitize_token(token), {}, {}});
    if (inserted) fs::create_directories(it->second.run_dir);
    return it->second;
  };

  // A fresh connection's hello, then either a one-shot worker spawn or
  // enrollment as a control connection.
  auto handle_new_connection = [&] {
    IpcChannel channel = listener_.accept(kAgentFrameTimeoutS);
    try {
      const IpcFrame hello = channel.recv(kAgentFrameTimeoutS);
      const std::span<const std::byte> payload(hello.payload);
      std::size_t offset = 0;
      const std::uint32_t version = get_u32(payload, offset, "hello");
      if (version != kProtocolVersion) {
        send_err(channel, "agent speaks protocol version " +
                              std::to_string(kProtocolVersion) + ", driver "
                              "sent " + std::to_string(version));
        return;
      }
      const std::string token = get_string(payload, offset, "hello token");
      if (hello.type == kHelloControl) {
        send_ok(channel);
        st.controls.push_back({std::move(channel), token});
        KNNPC_LOG(Info) << "worker agent: control connection for run '"
                        << token << "'";
        return;
      }
      if (hello.type != kHelloWorker) {
        send_err(channel, "expected a hello frame, got type " +
                              std::to_string(hello.type));
        return;
      }
      const std::uint32_t shard = get_u32(payload, offset, "hello shard");
      State::Run& run = run_for(token);
      // OK must go out before the socket is handed to the child — after
      // the spawn the parent's fds are gone. A spawn failure past this
      // point surfaces to the driver as EOF where READY belongs, which
      // its supervision already treats as a worker death.
      send_ok(channel);
      const auto [read_fd, write_fd] = channel.release();
      const int child_stdout = ::dup(write_fd);
      if (child_stdout < 0) {
        ::close(read_fd);
        KNNPC_LOG(Warn) << "worker agent: dup failed for shard " << shard;
        return;
      }
      try {
        // Replacing a previous incarnation kills it first (Subprocess
        // move-assign) — the driver only respawns what it gave up on.
        run.workers[shard] = Subprocess(
            std::vector<std::string>{
                exe, "--shard-worker",
                "--plan=" + (run.run_dir / "plan.bin").string(),
                "--shard=" + std::to_string(shard)},
            read_fd, child_stdout);
        KNNPC_LOG(Info) << "worker agent: spawned shard " << shard
                        << " for run '" << token << "'";
      } catch (const std::exception& e) {
        KNNPC_LOG(Warn) << "worker agent: spawn failed for shard " << shard
                        << ": " << e.what();
      }
    } catch (const std::exception& e) {
      KNNPC_LOG(Warn) << "worker agent: dropping connection: " << e.what();
    }
  };

  // One control request/reply. Returns false when the connection is done
  // (EOF or a hard transport error) — the caller then kills the run's
  // workers, the remote mirror of PDEATHSIG.
  auto handle_control_frame = [&](State::Control& control) -> bool {
    IpcFrame frame;
    try {
      frame = control.channel.recv(kAgentFrameTimeoutS);
    } catch (const IpcError& e) {
      if (e.kind() != IpcErrorKind::Eof) {
        KNNPC_LOG(Warn) << "worker agent: control connection for run '"
                        << control.token << "' failed: " << e.what();
      }
      return false;
    }
    State::Run& run = run_for(control.token);
    try {
      switch (frame.type) {
        case kSyncManifest: {
          const std::vector<SyncFileEntry> entries =
              parse_manifest(frame.payload);
          std::vector<std::byte> reply;
          std::vector<std::uint32_t> need;
          for (std::uint32_t i = 0; i < entries.size(); ++i) {
            const auto it = run.files.find(entries[i].relpath);
            if (it == run.files.end() ||
                it->second != entries[i].checksum) {
              need.push_back(i);
            }
          }
          put_u32(reply, static_cast<std::uint32_t>(need.size()));
          for (const std::uint32_t i : need) put_u32(reply, i);
          control.channel.send(kNeed, reply, kAgentFrameTimeoutS);
          break;
        }
        case kFilePut: {
          const FileBlob blob = parse_file_blob(frame.payload);
          sync_place_file(run.run_dir, blob.relpath, blob.bytes);
          run.files[blob.relpath] = fnv1a_bytes(blob.bytes);
          send_ok(control.channel);
          break;
        }
        case kFileGet: {
          std::size_t offset = 0;
          const std::string relpath =
              get_string(frame.payload, offset, "FileGet relpath");
          if (!is_safe_relpath(relpath)) {
            throw std::runtime_error("unsafe relpath \"" + relpath + "\"");
          }
          FileBlob blob;
          blob.relpath = relpath;
          const fs::path path = run.run_dir / fs::path(relpath);
          std::error_code ec;
          if (fs::is_regular_file(path, ec)) {
            IoCounters counters;
            blob.bytes = read_file(path, counters);
            blob.exists = true;
          }
          control.channel.send(kFileData, serialize_file_blob(blob),
                               kAgentFrameTimeoutS);
          break;
        }
        case kKillWorker: {
          std::size_t offset = 0;
          const std::uint32_t shard =
              get_u32(frame.payload, offset, "KillWorker shard");
          const auto it = run.workers.find(shard);
          if (it == run.workers.end()) {
            throw std::runtime_error("no worker for shard " +
                                     std::to_string(shard));
          }
          it->second.kill_now();
          const std::string describe = it->second.wait().describe();
          send_ok(control.channel, describe);
          break;
        }
        default:
          throw std::runtime_error("unexpected control frame type " +
                                   std::to_string(frame.type));
      }
    } catch (const std::exception& e) {
      try {
        send_err(control.channel, e.what());
      } catch (...) {
        return false;
      }
    }
    return true;
  };

  KNNPC_LOG(Info) << "worker agent listening on " << config_.host << ":"
                  << listener_.port() << " (work root "
                  << config_.work_root.string() << ")";
  while (!stop_.load(std::memory_order_relaxed)) {
    // handle_new_connection() below can append to st.controls; fds only
    // covers the first `polled` controls, so the dispatch loop must not
    // index past them.
    const std::size_t polled = st.controls.size();
    std::vector<pollfd> fds;
    fds.push_back({listener_.fd(), POLLIN, 0});
    for (const State::Control& c : st.controls) {
      fds.push_back({c.channel.read_fd(), POLLIN, 0});
    }
    const int rc = ::poll(fds.data(), fds.size(), /*ms=*/200);
    if (rc < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("worker agent: poll failed: ") +
                               std::strerror(errno));
    }
    // Reap finished workers every tick so a crashed one never lingers as
    // a zombie between supervision events.
    for (auto& [token, run] : st.runs) {
      for (auto& [shard, proc] : run.workers) {
        if (proc.valid()) (void)proc.poll();
      }
    }
    if (rc <= 0) continue;
    if ((fds[0].revents & POLLIN) != 0) handle_new_connection();
    for (std::size_t i = polled; i-- > 0;) {
      if ((fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (!handle_control_frame(st.controls[i])) {
        const std::string token = st.controls[i].token;
        st.controls.erase(st.controls.begin() +
                          static_cast<std::ptrdiff_t>(i));
        // Last control link for the run gone -> the driver is gone; its
        // workers must not outlive it.
        bool still_linked = false;
        for (const State::Control& c : st.controls) {
          if (c.token == token) still_linked = true;
        }
        if (!still_linked) {
          const auto it = st.runs.find(token);
          if (it != st.runs.end()) {
            KNNPC_LOG(Info) << "worker agent: run '" << token
                            << "' control gone; reaping its workers";
            it->second.workers.clear();  // Subprocess dtor kills + reaps
          }
        }
      }
    }
  }
  // Orderly shutdown: every spawned worker dies with the agent.
  for (auto& [token, run] : st.runs) run.workers.clear();
  st.controls.clear();
}

namespace {

std::sig_atomic_t g_agent_stop = 0;
WorkerAgent* g_agent = nullptr;

void agent_signal_handler(int) {
  g_agent_stop = 1;
  if (g_agent != nullptr) g_agent->stop();
}

}  // namespace

int worker_agent_main(const WorkerAgentConfig& config,
                      const fs::path& port_file) try {
  WorkerAgent agent(config);
  g_agent = &agent;
  std::signal(SIGINT, agent_signal_handler);
  std::signal(SIGTERM, agent_signal_handler);
  if (!port_file.empty()) {
    const std::string text = std::to_string(agent.port()) + "\n";
    std::vector<std::byte> bytes(text.size());
    std::memcpy(bytes.data(), text.data(), text.size());
    IoCounters counters;
    write_file(port_file, bytes, counters);  // atomic: pollers never read
                                             // a half-written port
  }
  std::fprintf(stderr, "knnpc worker agent listening on %s:%u\n",
               config.host.c_str(), agent.port());
  agent.run();
  g_agent = nullptr;
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "knnpc_run --worker-agent: %s\n", e.what());
  return 1;
}

// ------------------------------------------------- driver-side client --

namespace {

IpcChannel connect_and_hello(const std::string& host, std::uint16_t port,
                             std::uint32_t hello_type,
                             const std::vector<std::byte>& hello,
                             double timeout_s) {
  IpcChannel channel = IpcChannel::connect_tcp(host, port, timeout_s);
  channel.send(hello_type, hello, timeout_s);
  const IpcFrame reply = channel.recv(timeout_s);
  if (reply.type != kOk) {
    throw std::runtime_error("worker agent at " + host + ":" +
                             std::to_string(port) + " refused: " +
                             payload_as_string(reply));
  }
  return channel;
}

/// One request, one reply; an ERR answer becomes a runtime_error.
IpcFrame control_round_trip(IpcChannel& control, std::uint32_t type,
                            const std::vector<std::byte>& payload,
                            std::uint32_t expected_reply, double timeout_s) {
  control.send(type, payload, timeout_s);
  IpcFrame reply = control.recv(timeout_s);
  if (reply.type == kErr) {
    throw std::runtime_error("worker agent error: " +
                             payload_as_string(reply));
  }
  if (reply.type != expected_reply) {
    throw std::runtime_error("worker agent: unexpected reply type " +
                             std::to_string(reply.type));
  }
  return reply;
}

}  // namespace

IpcChannel agent_connect_control(const std::string& host, std::uint16_t port,
                                 const std::string& token, double timeout_s) {
  std::vector<std::byte> hello;
  put_u32(hello, kProtocolVersion);
  put_string(hello, token);
  return connect_and_hello(host, port, kHelloControl, hello, timeout_s);
}

IpcChannel agent_connect_worker(const std::string& host, std::uint16_t port,
                                const std::string& token, std::uint32_t shard,
                                double timeout_s) {
  std::vector<std::byte> hello;
  put_u32(hello, kProtocolVersion);
  put_string(hello, token);
  put_u32(hello, shard);
  return connect_and_hello(host, port, kHelloWorker, hello, timeout_s);
}

AgentTransferCounters agent_sync_push(
    IpcChannel& control, const std::vector<SyncFileEntry>& manifest,
    const std::function<std::vector<std::byte>(const std::string&)>& load,
    double timeout_s) {
  AgentTransferCounters counters;
  const IpcFrame need_reply =
      control_round_trip(control, kSyncManifest, serialize_manifest(manifest),
                         kNeed, timeout_s);
  std::size_t offset = 0;
  const std::uint32_t count =
      get_u32(need_reply.payload, offset, "NEED reply");
  std::vector<bool> needed(manifest.size(), false);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t index =
        get_u32(need_reply.payload, offset, "NEED index");
    if (index >= manifest.size()) {
      throw std::runtime_error("worker agent: NEED index out of range");
    }
    needed[index] = true;
  }
  for (std::size_t i = 0; i < manifest.size(); ++i) {
    const SyncFileEntry& entry = manifest[i];
    if (!needed[i]) {
      ++counters.files_skipped;
      counters.bytes_skipped += entry.size;
      continue;
    }
    FileBlob blob;
    blob.relpath = entry.relpath;
    blob.exists = true;
    blob.bytes = load(entry.relpath);
    control_round_trip(control, kFilePut, serialize_file_blob(blob), kOk,
                       timeout_s);
    ++counters.files_tx;
    counters.bytes_tx += blob.bytes.size();
  }
  return counters;
}

FileBlob agent_fetch_file(IpcChannel& control, const std::string& relpath,
                          double timeout_s) {
  std::vector<std::byte> payload;
  put_string(payload, relpath);
  const IpcFrame reply =
      control_round_trip(control, kFileGet, payload, kFileData, timeout_s);
  return parse_file_blob(reply.payload);
}

std::string agent_kill_worker(IpcChannel& control, std::uint32_t shard,
                              double timeout_s) {
  std::vector<std::byte> payload;
  put_u32(payload, shard);
  const IpcFrame reply =
      control_round_trip(control, kKillWorker, payload, kOk, timeout_s);
  return payload_as_string(reply);
}

}  // namespace knnpc
