#include "hssta/campaign/process.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "hssta/util/error.hpp"

namespace hssta::campaign {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) ::close(fd);
  fd = -1;
}

}  // namespace

Subprocess::Subprocess(const std::vector<std::string>& argv) {
  HSSTA_REQUIRE(!argv.empty(), "subprocess needs a command");
  // Close-on-exec: a later sibling worker must not inherit this child's
  // stdin write end, or the child would never see EOF when the
  // coordinator closes it. dup2 clears the flag on the child's 0 and 1.
  int to_child[2], from_child[2];
  if (::pipe2(to_child, O_CLOEXEC) != 0)
    throw Error(std::string("pipe failed: ") + std::strerror(errno));
  if (::pipe2(from_child, O_CLOEXEC) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    throw Error(std::string("pipe failed: ") + std::strerror(errno));
  }

  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    throw Error(std::string("fork failed: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // Child: stdin/stdout onto the pipes, stderr inherited.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    std::vector<char*> args;
    args.reserve(argv.size() + 1);
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    // exec failed: the parent sees EOF + exit 127 (the shell convention).
    _exit(127);
  }

  // Parent.
  ::close(to_child[0]);
  ::close(from_child[1]);
  in_fd_ = to_child[1];
  out_fd_ = from_child[0];
}

Subprocess::~Subprocess() {
  close_fd(in_fd_);
  close_fd(out_fd_);
  if (pid_ > 0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
}

bool Subprocess::write_line(const std::string& line) {
  if (in_fd_ < 0) return false;
  std::string out = line;
  out += '\n';
  size_t off = 0;
  while (off < out.size()) {
    // MSG_NOSIGNAL is socket-only; mask SIGPIPE per write via send-like
    // semantics is unavailable on pipes, so rely on the process-wide
    // SIG_IGN the coordinator installs (see run_campaign) and treat EPIPE
    // as a dead worker.
    const ssize_t n = ::write(in_fd_, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      close_fd(in_fd_);
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Subprocess::read_available(std::vector<std::string>& lines) {
  // One read per poll wakeup (the fd is blocking; the caller polls before
  // calling, so exactly one read never stalls).
  char buf[4096];
  ssize_t n;
  while ((n = ::read(out_fd_, buf, sizeof buf)) < 0 && errno == EINTR) {
  }
  const bool open = n > 0;
  if (open) buffer_.append(buf, static_cast<size_t>(n));
  for (size_t pos; (pos = buffer_.find('\n')) != std::string::npos;) {
    lines.push_back(buffer_.substr(0, pos));
    buffer_.erase(0, pos + 1);
  }
  if (!open && !buffer_.empty()) {
    // EOF with an unterminated tail: surface it as a final line.
    lines.push_back(buffer_);
    buffer_.clear();
  }
  return open;
}

void Subprocess::close_stdin() { close_fd(in_fd_); }

int Subprocess::wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  return status;
}

}  // namespace hssta::campaign
