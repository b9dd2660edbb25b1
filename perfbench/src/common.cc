#include "common.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "durability/framed_io.h"

namespace fw {
namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
  if (rank >= values.size()) rank = values.size() - 1;
  return values[rank];
}

double Max(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

bool OpCount::Check(const Status& status) {
  ++attempted;
  if (status.ok()) return true;
  if (failed++ == 0) first_error = status.ToString();
  return false;
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  ::mkdir(path_.c_str(), 0755);
}

ScratchDir::~ScratchDir() { RemoveTree(path_); }

std::string ScratchDir::Child(const std::string& stem) {
  return path_ + "/" + stem + "-" + std::to_string(next_++);
}

void RemoveTree(const std::string& dir) {
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      const std::string path = dir + "/" + name;
      struct stat info;
      if (::stat(path.c_str(), &info) == 0 && S_ISDIR(info.st_mode)) {
        RemoveTree(path);
      } else {
        (void)durability::RemoveFile(path);
      }
    }
  }
  ::rmdir(dir.c_str());
}

uint64_t FileBytes(const std::string& dir, const std::string& prefix) {
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  if (!names.ok()) return 0;
  uint64_t bytes = 0;
  for (const std::string& name : *names) {
    if (name.rfind(prefix, 0) != 0) continue;
    struct stat info;
    if (::stat((dir + "/" + name).c_str(), &info) == 0) {
      bytes += static_cast<uint64_t>(info.st_size);
    }
  }
  return bytes;
}

bool CaptureDir(const std::string& dir, DirImage* image) {
  Result<std::vector<std::string>> names = durability::ListDir(dir);
  if (!names.ok()) return false;
  image->names = *names;
  image->contents.assign(image->names.size(), std::string());
  for (size_t i = 0; i < image->names.size(); ++i) {
    if (!durability::ReadFileBytes(dir + "/" + image->names[i],
                                   &image->contents[i])
             .ok()) {
      return false;
    }
  }
  return true;
}

bool RestoreDir(const std::string& dir, const DirImage& image) {
  RemoveTree(dir);
  if (::mkdir(dir.c_str(), 0755) != 0) return false;
  for (size_t i = 0; i < image.names.size(); ++i) {
    const std::string path = dir + "/" + image.names[i];
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) return false;
    const std::string& bytes = image.contents[i];
    size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n <= 0) {
        ::close(fd);
        return false;
      }
      done += static_cast<size_t>(n);
    }
    // Durable before Recover runs, as after a real crash: otherwise the
    // recovery's own fsyncs would also flush the restored files.
    if (::fsync(fd) != 0) {
      ::close(fd);
      return false;
    }
    if (::close(fd) != 0) return false;
  }
  return durability::SyncDir(dir).ok();
}

namespace {

uint64_t StatusKiB(const char* field) {
  std::FILE* file = std::fopen("/proc/self/status", "r");
  if (file == nullptr) return 0;
  char line[256];
  uint64_t kib = 0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kib = std::strtoull(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(file);
  return kib;
}

}  // namespace

uint64_t ResidentKiB() { return StatusKiB("VmRSS"); }
uint64_t PeakResidentKiB() { return StatusKiB("VmHWM"); }

bool ResetPeakResident() {
  const int fd = ::open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = ::write(fd, "5", 1) == 1;
  ::close(fd);
  return ok;
}

double StealMillisPerSecond(int millis) {
  constexpr uint64_t kGapNs = 20'000;
  const uint64_t start = MonotonicNanos();
  const uint64_t stop = start + static_cast<uint64_t>(millis) * 1'000'000;
  uint64_t prev = start;
  uint64_t lost = 0;
  for (;;) {
    const uint64_t now = MonotonicNanos();
    if (now - prev > kGapNs) lost += now - prev;
    prev = now;
    if (now >= stop) break;
  }
  const double seconds = static_cast<double>(prev - start) * 1e-9;
  return static_cast<double>(lost) * 1e-6 / seconds;
}

HostSpeed::HostSpeed(std::string scratch_file)
    : path_(std::move(scratch_file)), table_(1 << 11, 0) {}

bool HostSpeed::Probe() {
  static const char kRecord[33] = {};
  const int fd = ::open(path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return false;
  bool ok = true;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  const uint64_t start = MonotonicNanos();
  for (int i = 0; i < 200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table_[x & 0x7FF];
    slot = std::max(slot, x >> 20);
  }
  for (int i = 0; i < 2'048 && ok; ++i) {
    ok = ::write(fd, kRecord, sizeof(kRecord)) ==
         static_cast<ssize_t>(sizeof(kRecord));
  }
  const double ns = static_cast<double>(MonotonicNanos() - start);
  ok = ::close(fd) == 0 && ok;
  ::unlink(path_.c_str());
  if (!ok) return false;
  fastest_ns_ = probes_++ == 0 ? ns : std::min(fastest_ns_, ns);
  return true;
}

std::string Format(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (*end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

}  // namespace perfbench
}  // namespace fw
