#include "durability/framed_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "durability/codec.h"
#include "durability/crc32c.h"

namespace fw {
namespace durability {

namespace {

/// Largest single growth of a writer's reserved space.
constexpr uint64_t kMaxGrowthStep = uint64_t{1} << 20;

std::string ErrnoText(const char* what, const std::string& path) {
  return std::string(what) + " " + path + ": " + std::strerror(errno);
}

uint64_t PageSize() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

FramedFileWriter::~FramedFileWriter() { Close(); }

Status FramedFileWriter::Open(const std::string& path) {
  FW_CHECK(fd_ < 0);  // One file per writer.
  // O_RDWR: a shared writable mapping needs a readable descriptor.
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return Status::Internal(ErrnoText("open", path));
  fd_ = fd;
  bytes_ = 0;
  reserved_ = 0;
  path_ = path;
  return Status::OK();
}

Status FramedFileWriter::Reserve(uint64_t end) {
  const uint64_t page = PageSize();
  const uint64_t step = std::clamp(reserved_, page, kMaxGrowthStep);
  const uint64_t target = (std::max(end, reserved_ + step) + page - 1) /
                          page * page;
  // On failure the file shrinks back to reserved_ bytes and the old
  // mapping stays, so the writer's state is unchanged.
  auto fail = [this](const char* what, int error) {
    (void)::ftruncate(fd_, static_cast<off_t>(reserved_));
    return Status::Internal(std::string(what) + " " + path_ + ": " +
                            std::strerror(error));
  };
  // posix_fallocate (not ftruncate) so every page the mapping exposes is
  // backed by allocated blocks: a store can never hit a full disk.
  const int rc =
      ::posix_fallocate(fd_, static_cast<off_t>(reserved_),
                        static_cast<off_t>(target - reserved_));
  if (rc != 0) return fail("fallocate", rc);
  // The new window starts at the page holding the write cursor: a
  // mapping holds at most one page of written frames, so a remap costs
  // the same however long the file grows.
  const uint64_t offset = bytes_ - bytes_ % page;
  void* map = ::mmap(nullptr, target - offset, PROT_READ | PROT_WRITE,
                     MAP_SHARED, fd_, static_cast<off_t>(offset));
  // MAP_FAILED expands to a C-style cast inside <sys/mman.h>.
  if (map == MAP_FAILED) {  // NOLINT(cppcoreguidelines-pro-type-cstyle-cast)
    return fail("mmap", errno);
  }
  if (map_ != nullptr) (void)::munmap(map_, reserved_ - map_offset_);
  map_ = static_cast<char*>(map);
  map_offset_ = offset;
  reserved_ = target;
  return Status::OK();
}

Status FramedFileWriter::BeginFrame(size_t payload_size, char** frame) {
  if (fd_ < 0) return Status::Internal("framed writer is closed");
  if (payload_size + 1 > kMaxFrameLength) {
    return Status::InvalidArgument("frame payload too large: " +
                                   std::to_string(payload_size) + " bytes");
  }
  const uint64_t end = bytes_ + kFrameHeaderBytes + payload_size;
  if (end > reserved_) FW_RETURN_IF_ERROR(Reserve(end));
  *frame = map_ + (bytes_ - map_offset_);
  return Status::OK();
}

void FramedFileWriter::EndFrame(char* frame, uint8_t type,
                                size_t payload_size) {
  frame[8] = static_cast<char>(type);
  StoreU32(frame + 4, Crc32c(0, frame + 8, payload_size + 1));
  // The length goes in last (no store moves above the Crc32c call, which
  // reads the frame): a kill before it leaves the zero tail, a kill
  // between it and the CRC store a checksum mismatch — both end the log
  // just before this frame.
  StoreU32(frame, static_cast<uint32_t>(payload_size + 1));
  bytes_ += kFrameHeaderBytes + payload_size;
}

Status FramedFileWriter::Append(uint8_t type, std::string_view payload) {
  return AppendInPlace(type, payload.size(), [payload](char* out) {
    if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
  });
}

Status FramedFileWriter::Sync() {
  if (fd_ < 0) return Status::Internal("framed writer is closed");
  if (::fsync(fd_) != 0) return Status::Internal(ErrnoText("fsync", path_));
  return Status::OK();
}

Status FramedFileWriter::Trim() {
  if (map_ != nullptr) (void)::munmap(map_, reserved_ - map_offset_);
  map_ = nullptr;
  if (reserved_ == bytes_) return Status::OK();
  if (::ftruncate(fd_, static_cast<off_t>(bytes_)) != 0) {
    return Status::Internal(ErrnoText("ftruncate", path_));
  }
  reserved_ = bytes_;
  return Status::OK();
}

Status FramedFileWriter::Close() {
  if (fd_ < 0) return Status::OK();
  Status status = Trim();
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0 && status.ok()) {
    status = Status::Internal(ErrnoText("close", path_));
  }
  return status;
}

Status FramedFileWriter::Seal() {
  FW_RETURN_IF_ERROR(Trim());
  FW_RETURN_IF_ERROR(Sync());
  return Close();
}

FramedBuffer::Outcome FramedBuffer::Next(Frame* frame) {
  const size_t remaining = bytes_.size() - pos_;
  if (remaining == 0) return Outcome::kEnd;
  if (remaining < kFrameHeaderBytes) {
    torn_detail_ = "truncated frame header (" + std::to_string(remaining) +
                   " trailing bytes)";
    return Outcome::kTorn;
  }
  ByteReader reader(std::string_view(bytes_).substr(pos_));
  uint32_t length = 0;
  uint32_t crc = 0;
  reader.U32(&length);
  reader.U32(&crc);
  if (length == 0 || length > kMaxFrameLength) {
    torn_detail_ = "implausible frame length " + std::to_string(length);
    return Outcome::kTorn;
  }
  if (reader.remaining() < length) {
    torn_detail_ = "truncated frame body: need " + std::to_string(length) +
                   " bytes, have " + std::to_string(reader.remaining());
    return Outcome::kTorn;
  }
  const char* body = bytes_.data() + pos_ + 8;
  if (Crc32c(0, body, length) != crc) {
    torn_detail_ = "frame checksum mismatch";
    return Outcome::kTorn;
  }
  frame->type = static_cast<uint8_t>(*body);
  frame->payload.assign(body + 1, length - 1);
  pos_ += 8 + length;
  ++frames_;
  return Outcome::kFrame;
}

Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) return Status::OK();
  return Status::Internal(ErrnoText("mkdir", dir));
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(ErrnoText("open", path));
  out->clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::Internal(ErrnoText("read", path));
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return Status::OK();
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return Status::Internal(ErrnoText("open", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::Internal(ErrnoText("fsync", dir));
  return Status::OK();
}

Status AtomicPublish(const std::string& tmp_path,
                     const std::string& final_path, const std::string& dir) {
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Internal(ErrnoText("rename", final_path));
  }
  return SyncDir(dir);
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::Internal(ErrnoText("unlink", path));
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return Status::Internal(ErrnoText("opendir", dir));
  std::vector<std::string> names;
  for (;;) {
    errno = 0;
    const dirent* entry = ::readdir(handle);
    if (entry == nullptr) {
      if (errno != 0) {
        const Status status = Status::Internal(ErrnoText("readdir", dir));
        ::closedir(handle);
        return status;
      }
      break;
    }
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    names.push_back(name);
  }
  ::closedir(handle);
  return names;
}

}  // namespace durability
}  // namespace fw
