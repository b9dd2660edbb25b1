#ifndef FW_DURABILITY_FRAMED_IO_H_
#define FW_DURABILITY_FRAMED_IO_H_

// The one file-I/O layer of the durability subsystem (DESIGN.md §16).
// Every byte the library persists rides a CRC32C-checked frame:
//
//   [u32 length][u32 crc][u8 type][payload ...]      (little-endian)
//
// where length = 1 + payload size (the type byte counts) and crc is
// CRC-32C over the type byte and payload. A reader can therefore detect
// a torn or bit-flipped tail record exactly, which is what makes
// kill-anywhere recovery possible. fw_lint bans raw fopen/ofstream
// persistence outside src/durability/ so no checkpoint bytes can bypass
// this framing.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fw {
namespace durability {

/// Upper bound on a frame's length field. A corrupt length parses as
/// torn instead of driving a multi-gigabyte allocation.
inline constexpr uint32_t kMaxFrameLength = 1u << 30;

/// u32 length + u32 crc + type byte.
inline constexpr size_t kFrameHeaderBytes = 9;

/// Appends frames to one file (created/truncated by Open) through a
/// MAP_SHARED mapping of it (DESIGN.md §16). An append reserves file
/// space with posix_fallocate — growing geometrically from one page, in
/// steps of at most 1 MiB, remapping on growth — and builds the frame at
/// its final address in the mapping: an acknowledged frame sits in the
/// page cache without a syscall, so a process kill loses nothing. Space
/// is always reserved before it is stored to, so a full disk or
/// RLIMIT_FSIZE fails the append with a Status instead of raising
/// SIGBUS.
///
/// While the file is open — and in a file a kill left behind — the
/// reserved space past the last frame reads as zeros; FramedBuffer ends
/// there ("implausible frame length 0"), which the changelog reader
/// treats like any torn tail. A kill in the middle of an append leaves
/// the frame's length field zero (it is stored last) or, failing that,
/// a CRC mismatch — a torn tail either way. Close() trims the file to
/// its frames; Seal() also fsyncs it, the step before a file is
/// published. Sync() forces the frames to stable storage and keeps the
/// mapping.
/// Single-threaded, like everything the session owns.
class FramedFileWriter {
 public:
  FramedFileWriter() = default;
  ~FramedFileWriter();

  FramedFileWriter(const FramedFileWriter&) = delete;
  FramedFileWriter& operator=(const FramedFileWriter&) = delete;

  Status Open(const std::string& path);
  /// Appends one frame whose payload `encode(char* out)` writes in
  /// place: exactly `payload_size` bytes at `out`, which points into the
  /// mapping. The payload is checksummed where it landed and the header
  /// is stored after it. `encode` must not fail; it runs only once the
  /// space is reserved.
  template <typename Encode>
  Status AppendInPlace(uint8_t type, size_t payload_size, Encode&& encode);
  /// AppendInPlace with a copy of `payload` as the encoder.
  Status Append(uint8_t type, std::string_view payload);
  Status Sync();
  /// Unmaps, trims the file to its frames and closes it, without
  /// syncing; idempotent.
  Status Close();
  /// Close() plus an fsync of the trimmed file: afterwards the file on
  /// stable storage is exactly its frames.
  Status Seal();

  bool is_open() const { return fd_ >= 0; }
  uint64_t bytes_written() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  /// Checks the writer is open and the frame fits, and reserves space
  /// for it; `*frame` is where the frame starts in the mapping.
  Status BeginFrame(size_t payload_size, char** frame);
  /// Checksums the type byte and payload already at `frame` and stores
  /// the header, length last; the frame then counts as written.
  void EndFrame(char* frame, uint8_t type, size_t payload_size);
  /// Reserves and maps file space for at least `end` bytes.
  Status Reserve(uint64_t end);
  /// Unmaps and truncates the file to bytes_ (drops the zero tail).
  Status Trim();

  int fd_ = -1;
  uint64_t bytes_ = 0;     // Frame bytes appended.
  uint64_t reserved_ = 0;  // File size: frames plus the zero tail.
  /// The mapping covers file offsets [map_offset_, reserved_).
  char* map_ = nullptr;
  uint64_t map_offset_ = 0;
  std::string path_;
};

template <typename Encode>
Status FramedFileWriter::AppendInPlace(uint8_t type, size_t payload_size,
                                       Encode&& encode) {
  char* frame = nullptr;
  FW_RETURN_IF_ERROR(BeginFrame(payload_size, &frame));
  encode(frame + kFrameHeaderBytes);
  EndFrame(frame, type, payload_size);
  return Status::OK();
}

struct Frame {
  uint8_t type = 0;
  std::string payload;
};

/// Parses frames out of an in-memory file image (durability files are
/// bounded by the snapshot cadence, so whole-file reads are fine).
class FramedBuffer {
 public:
  enum class Outcome {
    kFrame,  // *frame holds the next frame.
    kEnd,    // Clean end: the buffer ended exactly on a frame boundary.
    kTorn,   // Trailing bytes that are not a whole CRC-valid frame.
  };

  explicit FramedBuffer(std::string bytes) : bytes_(std::move(bytes)) {}

  Outcome Next(Frame* frame);

  /// Why the tail failed (after kTorn): truncated header, short payload,
  /// or CRC mismatch.
  const std::string& torn_detail() const { return torn_detail_; }
  /// Frames successfully returned so far.
  uint64_t frames_read() const { return frames_; }

 private:
  std::string bytes_;
  size_t pos_ = 0;
  uint64_t frames_ = 0;
  std::string torn_detail_;
};

// Small POSIX helpers shared by the WAL and snapshot stores. All return
// descriptive Status on failure (with errno text), never abort.
Status EnsureDir(const std::string& dir);
Status ReadFileBytes(const std::string& path, std::string* out);
Status SyncDir(const std::string& dir);
/// rename(tmp, final) + fsync of the containing directory — the atomic
/// publish step snapshots use.
Status AtomicPublish(const std::string& tmp_path,
                     const std::string& final_path, const std::string& dir);
Status RemoveFile(const std::string& path);
/// Regular-file names in `dir` (no ordering guarantee).
Result<std::vector<std::string>> ListDir(const std::string& dir);

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_FRAMED_IO_H_
