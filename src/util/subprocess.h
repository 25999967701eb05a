// Minimal child-process plumbing for the persistent shard workers.
//
// The driver (and a worker agent) re-executes its own binary in the hidden
// --shard-worker role (core/shard_driver.h), one long-lived process per
// shard, and needs exactly four primitives: spawn an argv without a shell
// (optionally with stdin/stdout wired to a channel), poll/wait for the
// exit status, kill a wedged child, and tell "exited N" from "died on
// signal S". This wraps that POSIX surface; nothing here knows about
// shards.
#pragma once

#include <sys/types.h>

#include <filesystem>
#include <string>
#include <vector>

namespace knnpc {

/// Observed state of a child process.
struct SubprocessStatus {
  enum class State { Running, Exited, Signaled };

  State state = State::Running;
  int exit_code = 0;  // valid when state == Exited
  int signal = 0;     // valid when state == Signaled

  [[nodiscard]] bool finished() const noexcept {
    return state != State::Running;
  }
  [[nodiscard]] bool success() const noexcept {
    return state == State::Exited && exit_code == 0;
  }
  /// Human-readable diagnosis: "exited 0", "exited with code 3",
  /// "killed by signal 9 (Killed)".
  [[nodiscard]] std::string describe() const;
};

/// One spawned child process.
///
/// Thread-safety: single-owner — poll()/wait()/kill_now() must not be
/// called concurrently on the same instance. Distinct instances are
/// independent (the shard driver supervises S of them from one thread).
///
/// Ownership: the object owns the child for its lifetime; the destructor
/// SIGKILLs and reaps a still-running child so no zombie or runaway
/// worker can outlive the driver.
class Subprocess {
 public:
  Subprocess() = default;

  /// Spawns `argv` directly (argv[0] = executable path, no shell, current
  /// environment inherited). The child becomes its own process-group
  /// leader and carries PR_SET_PDEATHSIG(SIGKILL), so it dies with the
  /// spawning thread instead of leaking as an orphan when the supervisor
  /// is killed. Throws std::runtime_error when the spawn fails (e.g. the
  /// executable does not exist).
  ///
  /// `child_stdin_fd` is dup2()'d onto the child's fd 0 and
  /// `child_stdout_fd` onto fd 1 before exec (-1 leaves that stream
  /// inherited). Both fds are owned by this call and closed in the parent
  /// on every path — pass the child ends of pipes (e.g. IpcChannelPair's)
  /// and keep the parent ends. stderr is always inherited so worker
  /// diagnostics reach the supervisor's log.
  explicit Subprocess(std::vector<std::string> argv, int child_stdin_fd = -1,
                      int child_stdout_fd = -1);

  Subprocess(Subprocess&& other) noexcept;
  Subprocess& operator=(Subprocess&& other) noexcept;
  Subprocess(const Subprocess&) = delete;
  Subprocess& operator=(const Subprocess&) = delete;
  ~Subprocess();

  /// True once a child was spawned (also after it finished).
  [[nodiscard]] bool valid() const noexcept { return pid_ > 0; }
  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::vector<std::string>& argv() const noexcept {
    return argv_;
  }

  /// Non-blocking reap: returns the current status, transitioning out of
  /// Running as soon as the child finished.
  const SubprocessStatus& poll();

  /// Blocking reap (EINTR-safe). Idempotent once finished.
  const SubprocessStatus& wait();

  /// SIGKILLs a still-running child and its whole process group — the
  /// child is spawned as its own group leader, so processes it forked go
  /// down with it (a wedged worker must not survive through a
  /// grandchild holding pipes open). No-op once finished; the status
  /// stays Running until the kill is observed via poll()/wait().
  void kill_now() noexcept;

  [[nodiscard]] const SubprocessStatus& status() const noexcept {
    return status_;
  }

 private:
  void reap(int wstatus) noexcept;

  pid_t pid_ = -1;
  SubprocessStatus status_;
  std::vector<std::string> argv_;
};

/// Absolute path of the running executable (/proc/self/exe). Throws
/// std::runtime_error if the link cannot be resolved.
std::filesystem::path current_executable();

}  // namespace knnpc
