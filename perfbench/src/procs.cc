#include "procs.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "http_client.h"
#include "util.h"

namespace perfbench {

namespace {

// Both tools print "... listening on 127.0.0.1:<port> ..." once serving.
constexpr char kListening[] = "listening on 127.0.0.1:";

}  // namespace

bool ServerProcess::Start(const std::vector<std::string>& argv,
                          double timeout_s, std::string* error) {
  const Clock::time_point start = Clock::now();
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return false;
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(pipe_fds[1], STDERR_FILENO);
    const int devnull = ::open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      ::dup2(devnull, STDIN_FILENO);
      ::dup2(devnull, STDOUT_FILENO);
    }
    ::close(pipe_fds[0]);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  stderr_fd_ = pipe_fds[0];

  // Read stderr until the listening line names the port.
  std::string text;
  while (port_ == 0) {
    const double left = timeout_s - SecondsSince(start);
    if (left <= 0) {
      *error = "timed out waiting for " + argv[0] + " to listen";
      Stop();
      return false;
    }
    pollfd pfd{stderr_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(stderr_fd_, buf, sizeof(buf));
    if (n <= 0) {
      *error = argv[0] + " exited before listening: " + text;
      Stop();
      return false;
    }
    text.append(buf, static_cast<size_t>(n));
    const size_t at = text.find(kListening);
    if (at != std::string::npos &&
        text.find_first_not_of("0123456789", at + sizeof(kListening) - 1) !=
            std::string::npos) {
      port_ = static_cast<uint16_t>(
          std::atoi(text.c_str() + at + sizeof(kListening) - 1));
    }
  }
  HttpClient client(port_, 1000);
  while (true) {
    if (client.Get("/healthz").status == 200) return true;
    if (SecondsSince(start) > timeout_s) {
      *error = "timed out waiting for /healthz on port " +
               std::to_string(port_);
      Stop();
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    for (int i = 0; i < 500 && !exited; ++i) {  // up to 5 s to drain
      exited = ::waitpid(pid_, &status, WNOHANG) == pid_;
      if (!exited) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stderr_fd_ >= 0) ::close(stderr_fd_);
  stderr_fd_ = -1;
  port_ = 0;
}

double ServerProcess::PeakRssMb() const {
  return pid_ > 0 ? ProcStatusMb(std::to_string(pid_), "VmHWM") : 0.0;
}

}  // namespace perfbench
