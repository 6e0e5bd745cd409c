// wire — byte-level serialization used by the Plasma IPC protocol and the
// RPC framework.
//
// The real system serializes store↔client messages with FlatBuffers and
// store↔store messages with Protocol Buffers (via gRPC). Neither is
// available offline, so this module provides the same capability from
// scratch: a little-endian `Writer`/`Reader` pair with fixed-width
// integers, LEB128 varints, zigzag-encoded signed varints, length-prefixed
// strings/bytes, and repeated fields.
//
// Like a schema format, every wire message declares its fields once, in
// wire order, with one static function:
//
//   static void Fields(auto& m, auto& v) {
//     v(m.ids, wire::Varint(m.timeout_ms), m.pinned, m.fallback);
//   }
//
// `wire::Encode(w, msg)` calls it with a const `m` and a visitor that
// writes each field; `wire::Decode<T>(r)` calls it with a mutable `m` and
// a visitor that reads each field back, stopping at the first error. A
// field's C++ type picks its codec (see the `Put`/`Get` overloads below);
// `wire::Varint` marks the u64 fields that travel as varints. Decoding
// ignores trailing bytes, so appending a field stays compatible.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"

namespace mdos::wire {

// Growable output buffer. All multi-byte integers little-endian.
class Writer {
 public:
  Writer() = default;
  explicit Writer(size_t reserve) { buf_.reserve(reserve); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutFixed(&v, sizeof(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutFixed(&v, sizeof(v)); }
  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  // Unsigned LEB128 varint.
  void PutVarint(uint64_t v);
  // Zigzag-encoded signed varint.
  void PutVarintSigned(int64_t v);

  // Length-prefixed (varint) byte string.
  void PutBytes(std::string_view data);
  void PutString(std::string_view s) { PutBytes(s); }

  // Raw bytes, no length prefix.
  void PutRaw(const void* data, size_t size);

  void PutObjectId(const ObjectId& id) {
    PutRaw(id.data(), ObjectId::kSize);
  }

  // Repeated-field helper: varint count, then Encode each element.
  template <typename Container, typename Fn>
  void PutRepeated(const Container& items, Fn&& encode_one) {
    PutVarint(items.size());
    for (const auto& item : items) encode_one(*this, item);
  }

  const uint8_t* data() const { return buf_.data(); }
  size_t size() const { return buf_.size(); }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(buf_.data()), buf_.size()};
  }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  // Buffer-reuse surface for encode-hot paths (one scratch Writer per
  // connection/channel): Reset discards content but keeps capacity, so a
  // steady-state encoder stops allocating; Adopt takes over a recycled
  // buffer (e.g. from TxQueue::AcquireBuffer) — cleared, capacity kept.
  void Reset() { buf_.clear(); }
  void Adopt(std::vector<uint8_t> buf) {
    buf_ = std::move(buf);
    buf_.clear();
  }

 private:
  // resize + memcpy rather than insert(end, b, b+n): same codegen, but
  // the insert form trips GCC 12's -Wstringop-overflow false positive
  // when inlined into callers (breaking -Werror builds).
  void PutFixed(const void* p, size_t n) {
    const size_t old_size = buf_.size();
    buf_.resize(old_size + n);
    std::memcpy(buf_.data() + old_size, p, n);
  }

  std::vector<uint8_t> buf_;
};

// Bounds-checked reader over a non-owned byte span. All getters return a
// Result so malformed frames surface as ProtocolError, never UB.
class Reader {
 public:
  Reader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit Reader(std::string_view data)
      : Reader(data.data(), data.size()) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetDouble();
  Result<bool> GetBool();
  Result<uint64_t> GetVarint();
  Result<int64_t> GetVarintSigned();
  // Length-prefixed byte string; the view aliases the underlying buffer.
  Result<std::string_view> GetBytes();
  Result<std::string> GetString();
  Result<ObjectId> GetObjectId();

  // A repeated field's varint count. Sanity bound: no message in the
  // protocol carries more than 2^24 repeated elements; larger counts
  // indicate a corrupt frame.
  Result<uint64_t> GetCount() {
    MDOS_ASSIGN_OR_RETURN(uint64_t count, GetVarint());
    if (count > (1u << 24)) {
      return Status::ProtocolError("repeated field count too large");
    }
    return count;
  }
  // Capacity to reserve for `count` elements: at most what the remaining
  // bytes could possibly decode (every element consumes >= 1 byte). A
  // hostile count passing GetCount's bound may still name up to 2^24
  // elements; reserving that up front would hand a 16-byte message a
  // multi-hundred-MB allocation. Genuine messages lose nothing: count <=
  // remaining() for any well-formed encoding, so this is exactly `count`.
  size_t ReserveFor(uint64_t count) const {
    return static_cast<size_t>(count < remaining() ? count : remaining());
  }

  // Repeated-field helper mirrored from Writer::PutRepeated.
  template <typename T, typename Fn>
  Result<std::vector<T>> GetRepeated(Fn&& decode_one) {
    MDOS_ASSIGN_OR_RETURN(uint64_t count, GetCount());
    std::vector<T> items;
    items.reserve(ReserveFor(count));
    for (uint64_t i = 0; i < count; ++i) {
      auto item = decode_one(*this);
      if (!item.ok()) return item.status();
      items.push_back(std::move(item).value());
    }
    return items;
  }

  size_t remaining() const { return size_ - pos_; }
  [[nodiscard]] bool AtEnd() const { return pos_ == size_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) {
    if (size_ - pos_ < n) {
      return Status::ProtocolError("wire: truncated message");
    }
    return Status::OK();
  }

  template <typename T>
  Result<T> GetFixed() {
    MDOS_RETURN_IF_ERROR(Need(sizeof(T)));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---- message codecs ---------------------------------------------------------

// Marks a u64 field that travels as a LEB128 varint rather than 8 fixed
// bytes: `v(wire::Varint(m.timeout_ms))`.
template <typename T>
struct Varint {
  explicit Varint(T& v) : value(v) {}
  T& value;
};

// A struct is a wire message when it declares its fields with `Fields`.
struct FieldProbe {
  void operator()(auto&&...) const {}
};
template <typename T>
concept HasFields = requires(T& m, FieldProbe& v) { T::Fields(m, v); };

// One-byte enums travel as a u8 and decode only up to their largest wire
// value, `WireMax(E)`, found by argument-dependent lookup next to the
// enum.
template <typename E>
concept WireEnum = std::is_enum_v<E> &&
                   std::is_same_v<std::underlying_type_t<E>, uint8_t> &&
                   requires(E e) { { WireMax(e) } -> std::same_as<E>; };

inline void Put(Writer& w, bool v) { w.PutBool(v); }
inline void Put(Writer& w, uint8_t v) { w.PutU8(v); }
inline void Put(Writer& w, uint32_t v) { w.PutU32(v); }
inline void Put(Writer& w, uint64_t v) { w.PutU64(v); }
inline void Put(Writer& w, int64_t v) { w.PutI64(v); }
inline void Put(Writer& w, Varint<const uint64_t> v) { w.PutVarint(v.value); }
inline void Put(Writer& w, const ObjectId& id) { w.PutObjectId(id); }
// Strings and byte vectors are one length-prefixed byte string.
inline void Put(Writer& w, std::string_view s) { w.PutBytes(s); }
inline void Put(Writer& w, const std::vector<uint8_t>& bytes) {
  w.PutBytes(std::string_view(reinterpret_cast<const char*>(bytes.data()),
                              bytes.size()));
}
template <WireEnum E>
void Put(Writer& w, E e) {
  w.PutU8(static_cast<uint8_t>(e));
}
// A Status travels as (u8 code, string message).
inline void Put(Writer& w, const Status& s) {
  Put(w, s.code());
  Put(w, s.message());
}
// Repeated field: varint count, then each element.
template <typename T>
void Put(Writer& w, const std::vector<T>& items) {
  w.PutVarint(items.size());
  for (const T& item : items) Put(w, item);
}
template <HasFields T>
void Put(Writer& w, const T& m) {
  auto put = [&w](const auto&... field) { (Put(w, field), ...); };
  T::Fields(m, put);
}

// Field decoders: each reads one field into its second argument, or
// returns false with the reason in `error`.
template <typename T, typename V>
bool Take(Result<T> got, V& v, Status& error) {
  if (!got.ok()) {
    error = got.status();
    return false;
  }
  v = std::move(got).value();
  return true;
}
inline bool Get(Reader& r, bool& v, Status& error) {
  return Take(r.GetBool(), v, error);
}
inline bool Get(Reader& r, uint8_t& v, Status& error) {
  return Take(r.GetU8(), v, error);
}
inline bool Get(Reader& r, uint32_t& v, Status& error) {
  return Take(r.GetU32(), v, error);
}
inline bool Get(Reader& r, uint64_t& v, Status& error) {
  return Take(r.GetU64(), v, error);
}
inline bool Get(Reader& r, int64_t& v, Status& error) {
  return Take(r.GetI64(), v, error);
}
inline bool Get(Reader& r, Varint<uint64_t> v, Status& error) {
  return Take(r.GetVarint(), v.value, error);
}
inline bool Get(Reader& r, ObjectId& id, Status& error) {
  return Take(r.GetObjectId(), id, error);
}
inline bool Get(Reader& r, std::string& s, Status& error) {
  return Take(r.GetString(), s, error);
}
// Aliases the reader's buffer: the decoded message must not outlive it.
inline bool Get(Reader& r, std::string_view& s, Status& error) {
  return Take(r.GetBytes(), s, error);
}
inline bool Get(Reader& r, std::vector<uint8_t>& bytes, Status& error) {
  std::string_view view;
  if (!Get(r, view, error)) return false;
  bytes.assign(view.begin(), view.end());
  return true;
}
template <WireEnum E>
bool Get(Reader& r, E& e, Status& error) {
  uint8_t raw = 0;
  if (!Get(r, raw, error)) return false;
  if (raw > static_cast<uint8_t>(WireMax(E{}))) {
    error = Status::ProtocolError("wire: enum value out of range");
    return false;
  }
  e = static_cast<E>(raw);
  return true;
}
inline bool Get(Reader& r, Status& s, Status& error) {
  StatusCode code{};
  std::string message;
  if (!Get(r, code, error) || !Get(r, message, error)) return false;
  s = Status(code, std::move(message));
  return true;
}
// Decodes in place; Reader::GetCount and ReserveFor bound the count.
template <typename T>
bool Get(Reader& r, std::vector<T>& items, Status& error) {
  uint64_t count = 0;
  if (!Take(r.GetCount(), count, error)) return false;
  items.clear();
  items.reserve(r.ReserveFor(count));
  for (uint64_t i = 0; i < count; ++i) {
    if (!Get(r, items.emplace_back(), error)) return false;
  }
  return true;
}
template <HasFields T>
bool Get(Reader& r, T& m, Status& error) {
  bool ok = true;
  auto get = [&r, &error, &ok](auto&&... field) {
    ok = (... && Get(r, field, error));
  };
  T::Fields(m, get);
  return ok;
}

// Appends `m`'s fields to `w`, in `Fields` order.
template <HasFields T>
void Encode(Writer& w, const T& m) {
  Put(w, m);
}

// Reads a `T` from `r`: ProtocolError on a truncated body or an
// out-of-range bool, enum or repeated count. Bytes after the last field
// are left unread.
template <HasFields T>
Result<T> Decode(Reader& r) {
  T m{};
  Status error;
  if (!Get(r, m, error)) return error;
  return m;
}

// Request-tag header preceding every framed protocol message.
//
// The Plasma IPC protocol (and any other frame-multiplexed protocol built
// on this module) prefixes each message body with this header so replies
// can be matched to requests and therefore complete out of order — the
// foundation of the pipelined client API. `request_id` 0 is reserved for
// untagged traffic (server pushes such as notifications).
struct MessageHeader {
  uint64_t request_id = 0;
  // Remaining end-to-end budget (ms) when the message was sent; 0 = no
  // deadline. Servers compare it against locally observed queueing time
  // and shed expired work (see docs/protocol.md).
  uint64_t deadline_ms = 0;

  static void Fields(auto& m, auto& v) {
    v(m.request_id, Varint(m.deadline_ms));
  }
};

}  // namespace mdos::wire
