// Tests for util/subprocess: spawn/poll/wait/kill semantics, exit-code vs
// signal reporting, and current_executable.
#include <gtest/gtest.h>

#include <sys/types.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <thread>

#include "util/subprocess.h"
#include "util/timer.h"

namespace knnpc {
namespace {

Subprocess shell(const std::string& script) {
  return Subprocess({"/bin/sh", "-c", script});
}

TEST(SubprocessTest, CleanExitReportsCodeZero) {
  Subprocess p = shell("exit 0");
  const SubprocessStatus& status = p.wait();
  EXPECT_EQ(status.state, SubprocessStatus::State::Exited);
  EXPECT_EQ(status.exit_code, 0);
  EXPECT_TRUE(status.success());
  EXPECT_EQ(status.describe(), "exited 0");
}

TEST(SubprocessTest, NonZeroExitCodeIsReported) {
  Subprocess p = shell("exit 7");
  const SubprocessStatus& status = p.wait();
  EXPECT_EQ(status.state, SubprocessStatus::State::Exited);
  EXPECT_EQ(status.exit_code, 7);
  EXPECT_FALSE(status.success());
  EXPECT_EQ(status.describe(), "exited with code 7");
}

TEST(SubprocessTest, SignalDeathIsDistinguishedFromExit) {
  Subprocess p = shell("kill -9 $$");
  const SubprocessStatus& status = p.wait();
  EXPECT_EQ(status.state, SubprocessStatus::State::Signaled);
  EXPECT_EQ(status.signal, SIGKILL);
  EXPECT_FALSE(status.success());
  EXPECT_NE(status.describe().find("killed by signal 9"), std::string::npos);
}

TEST(SubprocessTest, MissingExecutableThrowsOnSpawn) {
  EXPECT_THROW(Subprocess({"/nonexistent/definitely-missing-binary"}),
               std::runtime_error);
}

TEST(SubprocessTest, WaitIsIdempotentAfterFinish) {
  Subprocess p = shell("exit 3");
  EXPECT_EQ(p.wait().exit_code, 3);
  EXPECT_EQ(p.wait().exit_code, 3);
  EXPECT_EQ(p.poll().exit_code, 3);
}

TEST(SubprocessTest, PollSeesRunningThenKillNowTakesItDown) {
  Subprocess p = shell("sleep 30");
  // Freshly spawned long sleeper: almost certainly still running, and
  // poll() must not block either way.
  (void)p.poll();
  p.kill_now();
  const SubprocessStatus& status = p.wait();
  EXPECT_EQ(status.state, SubprocessStatus::State::Signaled);
  EXPECT_EQ(status.signal, SIGKILL);
}

TEST(SubprocessTest, DestructorReapsARunningChildWithoutHanging) {
  Timer timer;
  {
    Subprocess p = shell("sleep 60");
    EXPECT_TRUE(p.valid());
  }
  // If the destructor waited for the sleep instead of killing it, this
  // test would blow the suite timeout; sanity-check it was quick.
  EXPECT_LT(timer.elapsed_seconds(), 10.0);
}

TEST(SubprocessTest, KillNowTakesDownTheWholeProcessGroup) {
  // The shell forks a grandchild; killing only the shell would leave
  // `sleep 60` orphaned (holding any inherited pipes open — exactly the
  // wedged-worker leak the shard driver must not suffer). kill_now()
  // nukes the process group instead.
  Subprocess p = shell("sleep 60 & wait");
  const pid_t pgid = p.pid();  // child is its own group leader
  p.kill_now();
  EXPECT_EQ(p.wait().state, SubprocessStatus::State::Signaled);
  // The group is gone once every member (grandchild included) died.
  Timer timer;
  while (::kill(-pgid, 0) == 0 && timer.elapsed_seconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_NE(::kill(-pgid, 0), 0);
  EXPECT_EQ(errno, ESRCH);
}

TEST(SubprocessTest, MoveTransfersOwnership) {
  Subprocess p = shell("exit 5");
  Subprocess q = std::move(p);
  EXPECT_FALSE(p.valid());  // NOLINT(bugprone-use-after-move): spec'd
  EXPECT_EQ(q.wait().exit_code, 5);
}

// -------------------------------------------------- current_executable --

TEST(CurrentExecutableTest, ResolvesToAnExistingFile) {
  const std::filesystem::path exe = current_executable();
  EXPECT_TRUE(std::filesystem::exists(exe));
  EXPECT_TRUE(exe.is_absolute());
  EXPECT_NE(exe.filename().string().find("subprocess_test"),
            std::string::npos);
}

}  // namespace
}  // namespace knnpc
