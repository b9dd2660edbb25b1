#ifndef FW_DURABILITY_CODEC_H_
#define FW_DURABILITY_CODEC_H_

// Little-endian binary payload codec for the durability file formats
// (DESIGN.md §16). Deliberately tiny: fixed-width integers, IEEE-754
// doubles as bit patterns, and length-prefixed strings — nothing
// locale- or host-order dependent, so payloads verify and decode
// identically on every machine.

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace fw {
namespace durability {

/// Stores `v` little-endian at `out` and returns the byte after it —
/// the in-place form of ByteWriter, for encoders that write straight into
/// a mapped frame (compilers merge the byte stores into one store).
inline char* StoreU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
  return out + 4;
}

inline char* StoreU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
  return out + 8;
}

/// Appends fields to an owned byte buffer.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void U32(uint32_t v) {
    char bytes[4];
    StoreU32(bytes, v);
    buf_.append(bytes, sizeof(bytes));
  }

  void U64(uint64_t v) {
    char bytes[8];
    StoreU64(bytes, v);
    buf_.append(bytes, sizeof(bytes));
  }

  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }

  /// Doubles persist as their bit patterns — exact round-trip, no
  /// formatting involved.
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a byte buffer. Every getter returns false
/// (and latches `ok() == false`) on underrun instead of reading past the
/// end, so decoding corrupt payloads degrades to a Status, never UB.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool U32(uint32_t* v) {
    if (!Need(4)) return false;
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++]))
             << (8 * i);
    }
    *v = out;
    return true;
  }

  bool U64(uint64_t* v) {
    if (!Need(8)) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++]))
             << (8 * i);
    }
    *v = out;
    return true;
  }

  bool I64(int64_t* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    *v = static_cast<int64_t>(bits);
    return true;
  }

  bool F64(double* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }

  bool Str(std::string* s) {
    uint32_t len = 0;
    if (!U32(&len) || !Need(len)) return false;
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return ok_ && pos_ == data_.size(); }
  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace durability
}  // namespace fw

#endif  // FW_DURABILITY_CODEC_H_
