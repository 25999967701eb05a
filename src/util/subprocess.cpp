#include "util/subprocess.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

namespace knnpc {

std::string SubprocessStatus::describe() const {
  switch (state) {
    case State::Running:
      return "still running";
    case State::Exited:
      return exit_code == 0 ? "exited 0"
                            : "exited with code " + std::to_string(exit_code);
    case State::Signaled: {
      const char* name = strsignal(signal);
      return "killed by signal " + std::to_string(signal) + " (" +
             (name != nullptr ? name : "?") + ")";
    }
  }
  return "unknown";
}

Subprocess::Subprocess(std::vector<std::string> argv, int child_stdin_fd,
                       int child_stdout_fd)
    : argv_(std::move(argv)) {
  // The child fds are owned by this constructor: close them in the parent
  // on every exit path (the child's dup2 copies survive the close).
  struct FdGuard {
    int fds[2];
    ~FdGuard() {
      for (const int fd : fds) {
        if (fd >= 0) ::close(fd);
      }
    }
  } guard{{child_stdin_fd, child_stdout_fd}};
  if (argv_.empty()) {
    throw std::invalid_argument("Subprocess: empty argv");
  }
  std::vector<char*> cargv;
  cargv.reserve(argv_.size() + 1);
  for (std::string& arg : argv_) cargv.push_back(arg.data());
  cargv.push_back(nullptr);
  // Hand-rolled fork+exec rather than posix_spawn: the child must run
  // prctl(PR_SET_PDEATHSIG) on its own side so a worker cannot outlive a
  // crashed driver, and that has no spawn-attribute equivalent. Between
  // fork and exec the child calls only async-signal-safe functions (the
  // driver holds live thread pools). Exec failures (missing binary) come
  // back through a CLOEXEC pipe so they throw here instead of surfacing
  // as a mysteriously-exiting child.
  int err_pipe[2];
  if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("Subprocess: pipe2 failed: " +
                             std::string(std::strerror(errno)));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    const int err = errno;
    ::close(err_pipe[0]);
    ::close(err_pipe[1]);
    throw std::runtime_error("Subprocess: fork failed: " +
                             std::string(std::strerror(err)));
  }
  if (pid == 0) {
    // Child. Own process group so kill_now() takes down anything it
    // forks; die with the spawning thread so a dead driver leaves no
    // orphaned workers behind (PDEATHSIG is per forking *thread* — the
    // driver spawns from its supervising thread, which lives as long as
    // the run).
    ::close(err_pipe[0]);
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);  // parent died before prctl
    // Stdio wiring: dup2 clears O_CLOEXEC on the fd-0/1 copies, so pipe
    // ends created CLOEXEC (never leaked to unrelated children) still
    // survive the exec here. If a pipe end itself landed on fd 0-2 (the
    // parent ran with a std stream closed), lift it above 2 first:
    // dup2(fd, fd) would be a no-op that leaves O_CLOEXEC set, and the
    // stdin dup2 could clobber a stdout fd sitting at 0/1. F_DUPFD_CLOEXEC
    // keeps the lifted copy from leaking past exec (async-signal-safe).
    int stdin_src = child_stdin_fd;
    int stdout_src = child_stdout_fd;
    if (stdin_src >= 0 && stdin_src <= 2) {
      stdin_src = ::fcntl(stdin_src, F_DUPFD_CLOEXEC, 3);
      if (stdin_src < 0) _exit(127);
    }
    if (stdout_src >= 0 && stdout_src <= 2) {
      stdout_src = ::fcntl(stdout_src, F_DUPFD_CLOEXEC, 3);
      if (stdout_src < 0) _exit(127);
    }
    if (stdin_src >= 0 && ::dup2(stdin_src, STDIN_FILENO) < 0) {
      _exit(127);
    }
    if (stdout_src >= 0 && ::dup2(stdout_src, STDOUT_FILENO) < 0) {
      _exit(127);
    }
    ::execv(cargv[0], cargv.data());
    const int err = errno;
    [[maybe_unused]] const ssize_t written =
        ::write(err_pipe[1], &err, sizeof(err));
    _exit(127);
  }
  // Parent: mirror the setpgid so the group exists before any kill_now()
  // (ignore the benign races: child already exec'd or already exited).
  ::setpgid(pid, pid);
  ::close(err_pipe[1]);
  int exec_errno = 0;
  ssize_t got = -1;
  do {
    got = ::read(err_pipe[0], &exec_errno, sizeof(exec_errno));
  } while (got < 0 && errno == EINTR);
  ::close(err_pipe[0]);
  if (got == sizeof(exec_errno)) {
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);  // reap the exec-failed child
    throw std::runtime_error("Subprocess: cannot spawn " + argv_[0] + ": " +
                             std::strerror(exec_errno));
  }
  pid_ = pid;
}

Subprocess::Subprocess(Subprocess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)), status_(other.status_),
      argv_(std::move(other.argv_)) {}

Subprocess& Subprocess::operator=(Subprocess&& other) noexcept {
  if (this != &other) {
    if (pid_ > 0 && !status_.finished()) {
      kill_now();
      wait();
    }
    pid_ = std::exchange(other.pid_, -1);
    status_ = other.status_;
    argv_ = std::move(other.argv_);
  }
  return *this;
}

Subprocess::~Subprocess() {
  if (pid_ > 0 && !status_.finished()) {
    kill_now();
    wait();
  }
}

void Subprocess::reap(int wstatus) noexcept {
  if (WIFEXITED(wstatus)) {
    status_.state = SubprocessStatus::State::Exited;
    status_.exit_code = WEXITSTATUS(wstatus);
  } else if (WIFSIGNALED(wstatus)) {
    status_.state = SubprocessStatus::State::Signaled;
    status_.signal = WTERMSIG(wstatus);
  }
}

const SubprocessStatus& Subprocess::poll() {
  if (pid_ <= 0 || status_.finished()) return status_;
  int wstatus = 0;
  const pid_t r = ::waitpid(pid_, &wstatus, WNOHANG);
  if (r == pid_) reap(wstatus);
  return status_;
}

const SubprocessStatus& Subprocess::wait() {
  if (pid_ <= 0 || status_.finished()) return status_;
  int wstatus = 0;
  pid_t r = -1;
  do {
    r = ::waitpid(pid_, &wstatus, 0);
  } while (r < 0 && errno == EINTR);
  if (r == pid_) reap(wstatus);
  return status_;
}

void Subprocess::kill_now() noexcept {
  if (pid_ > 0 && !status_.finished()) {
    // The child leads its own process group (see the constructor), so
    // the group kill reaps any processes it forked along with it.
    ::kill(-pid_, SIGKILL);
    ::kill(pid_, SIGKILL);  // belt-and-braces if the group is already gone
  }
}

std::filesystem::path current_executable() {
  char buffer[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (len <= 0) {
    throw std::runtime_error("current_executable: cannot readlink "
                             "/proc/self/exe");
  }
  buffer[len] = '\0';
  return std::filesystem::path(buffer);
}

}  // namespace knnpc
