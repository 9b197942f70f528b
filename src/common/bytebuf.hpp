// Byte-buffer serialization used by the RPC layer (the stand-in for the
// paper's CORBA and LDAP wire protocols) and by the ncx file format.
//
// Encoding is little-endian fixed-width integers, IEEE doubles, and
// length-prefixed strings.  Readers are bounds-checked and report
// protocol_error instead of reading past the end.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace esg::common {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append(&v, sizeof v); }
  void u32(std::uint32_t v) { append(&v, sizeof v); }
  void u64(std::uint64_t v) { append(&v, sizeof v); }
  void i32(std::int32_t v) { append(&v, sizeof v); }
  void i64(std::int64_t v) { append(&v, sizeof v); }
  void f64(double v) { append(&v, sizeof v); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    append(s.data(), s.size());
  }

  void raw(const void* data, std::size_t n) { append(data, n); }

  void str_vec(const std::vector<std::string>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& s : v) str(s);
  }

  void f64_vec(const std::vector<double>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (double d : v) f64(d);
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(const std::vector<std::uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  Result<std::uint8_t> u8() { return read_pod<std::uint8_t>(); }
  Result<std::uint16_t> u16() { return read_pod<std::uint16_t>(); }
  Result<std::uint32_t> u32() { return read_pod<std::uint32_t>(); }
  Result<std::uint64_t> u64() { return read_pod<std::uint64_t>(); }
  Result<std::int32_t> i32() { return read_pod<std::int32_t>(); }
  Result<std::int64_t> i64() { return read_pod<std::int64_t>(); }
  Result<double> f64() { return read_pod<double>(); }

  Result<bool> boolean() {
    auto v = u8();
    if (!v) return v.error();
    return *v != 0;
  }

  Result<std::string> str() {
    auto n = u32();
    if (!n) return n.error();
    if (remaining() < *n) return truncated();
    std::string out(reinterpret_cast<const char*>(data_ + pos_), *n);
    pos_ += *n;
    return out;
  }

  /// Read an element count, rejecting one the remaining bytes cannot hold
  /// when each element takes at least `min_bytes` (>= 1) on the wire, so a
  /// caller may reserve(count) without trusting the peer.
  Result<std::uint32_t> count(std::size_t min_bytes) {
    auto n = u32();
    if (!n) return n.error();
    if (*n > remaining() / min_bytes) {
      return Error{Errc::protocol_error, "element count exceeds payload"};
    }
    return n;
  }

  Result<std::vector<std::string>> str_vec() {
    auto n = count(sizeof(std::uint32_t));
    if (!n) return n.error();
    std::vector<std::string> out;
    out.reserve(*n);
    for (std::uint32_t i = 0; i < *n; ++i) {
      auto s = str();
      if (!s) return s.error();
      out.push_back(std::move(*s));
    }
    return out;
  }

  Result<std::vector<double>> f64_vec() {
    auto n = count(sizeof(double));
    if (!n) return n.error();
    std::vector<double> out;
    out.reserve(*n);
    for (std::uint32_t i = 0; i < *n; ++i) {
      auto d = f64();
      if (!d) return d.error();
      out.push_back(*d);
    }
    return out;
  }

  Status skip(std::size_t n) {
    if (remaining() < n) return truncated();
    pos_ += n;
    return ok_status();
  }

  std::size_t remaining() const { return size_ - pos_; }
  std::size_t position() const { return pos_; }
  bool at_end() const { return pos_ == size_; }

 private:
  template <typename T>
  Result<T> read_pod() {
    if (remaining() < sizeof(T)) return Error{Errc::protocol_error,
                                              "buffer truncated"};
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  static Error truncated() {
    return Error{Errc::protocol_error, "buffer truncated"};
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a 64-bit hash — used for content tags and the toy-PKI signature.
/// Passing one call's result as the next call's `seed` hashes the two
/// inputs as if concatenated.
std::uint64_t fnv1a64(const void* data, std::size_t n,
                      std::uint64_t seed = kFnv1a64Basis);
std::uint64_t fnv1a64(std::string_view s);

}  // namespace esg::common
