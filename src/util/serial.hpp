// Bidirectional binary archive for agent-state migration.
//
// The paper relies on Java object serialization to carry an agent's data and
// in-flight message buffer across hosts. This is the C++ equivalent: user
// types implement a single `persist(Archive&)` method that both saves and
// restores, so the two directions can never drift apart.
//
//   struct Counter {
//     std::uint64_t count = 0;
//     std::string label;
//     void persist(naplet::util::Archive& ar) {
//       ar.field(count);
//       ar.field(label);
//     }
//   };
//
// Every wire message and session blob in naplet++ is described this way;
// the golden tests (tests/wire) pin the bytes each persist() produces.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/bytes.hpp"
#include "util/status.hpp"

namespace naplet::util {

/// One object that either writes fields to a buffer or reads them back,
/// chosen at construction. On read, any underflow or type mismatch latches
/// an error status; callers check status() once at the end.
class Archive {
 public:
  /// Writing archive.
  Archive() : writer_(&owned_writer_) {}
  /// Reading archive over an encoded buffer.
  explicit Archive(ByteSpan data) : reader_(data) {}

  [[nodiscard]] bool is_writing() const noexcept { return writer_ != nullptr; }
  [[nodiscard]] bool is_reading() const noexcept { return writer_ == nullptr; }

  void field(bool& v);
  void field(std::uint8_t& v);
  void field(std::uint16_t& v);
  void field(std::uint32_t& v);
  void field(std::uint64_t& v);
  void field(std::int64_t& v);
  void field(double& v);
  void field(std::string& v);
  void field(Bytes& v);

  /// An enum travels as its underlying integer; range checks are the
  /// caller's (a persist() that reads one validates it).
  template <typename E>
    requires std::is_enum_v<E>
  void field(E& v) {
    auto raw = static_cast<std::underlying_type_t<E>>(v);
    field(raw);
    if (is_reading()) v = static_cast<E>(raw);
  }

  template <typename A, typename B>
  void field(std::pair<A, B>& p) {
    field(p.first);
    field(p.second);
  }

  /// Sequences: a u32 count, then the elements.
  template <typename T>
  void field(std::vector<T>& v) {
    items(v, [this](T& e) { field(e); });
  }
  template <typename T>
  void field(std::deque<T>& v) {
    items(v, [this](T& e) { field(e); });
  }

  /// A u32 count, then each element through `each`. A reading archive
  /// rejects a count larger than the bytes left (every element takes at
  /// least one byte) and grows the container as elements decode, so a
  /// corrupt count never allocates.
  template <typename C, typename Fn>
  void items(C& c, Fn&& each) {
    auto n = static_cast<std::uint32_t>(c.size());
    if (!count(n)) return;
    if (is_writing()) {
      for (auto& e : c) each(e);
      return;
    }
    c.clear();
    for (std::uint32_t i = 0; i < n && ok(); ++i) each(c.emplace_back());
  }

  /// A u32 count, then key/value pairs; a repeated key keeps the last value.
  template <typename K, typename V>
  void field(std::map<K, V>& m) {
    auto n = static_cast<std::uint32_t>(m.size());
    if (!count(n)) return;
    if (is_writing()) {
      for (auto& [k, val] : m) {
        K key = k;  // map keys are const; serialize a copy
        field(key);
        field(val);
      }
      return;
    }
    m.clear();
    for (std::uint32_t i = 0; i < n && ok(); ++i) {
      K key{};
      V val{};
      field(key);
      field(val);
      if (ok()) m.insert_or_assign(std::move(key), std::move(val));
    }
  }

  /// Nested user type with a persist(Archive&) method.
  template <typename T>
    requires requires(T t, Archive& a) { t.persist(a); }
  void field(T& v) {
    v.persist(*this);
  }

  /// `v` as a length-prefixed blob (a u32 byte count, then its encoding),
  /// which must decode exactly.
  template <typename T>
  void nested(T& v) {
    if (is_writing()) {
      const std::size_t at = writer_->size();
      writer_->u32(0);
      field(v);
      writer_->patch_u32(at,
                         static_cast<std::uint32_t>(writer_->size() - at - 4));
      return;
    }
    Bytes blob;
    field(blob);
    if (!ok()) return;
    Archive inner{ByteSpan(blob.data(), blob.size())};
    inner.field(v);
    latch(inner.finish());
  }

  /// Writing archives only: append `v`. A writing archive never modifies
  /// the fields it visits.
  template <typename T>
  void write(const T& v) {
    field(const_cast<T&>(v));  // NOLINT(cppcoreguidelines-pro-type-const-cast)
  }

  /// Latch a decode error (the first one wins).
  void fail(std::string msg);

  [[nodiscard]] bool ok() const noexcept { return status_.ok(); }
  [[nodiscard]] const Status& status() const noexcept { return status_; }

  /// Reading archives: the latched status, or an error if input is left.
  [[nodiscard]] Status finish() const;

  /// Finished encoded bytes (writing archives only).
  [[nodiscard]] Bytes take_bytes() &&;
  [[nodiscard]] const Bytes& bytes() const;

  /// Encode any field()-able value to bytes.
  template <typename T>
  static Bytes encode(const T& obj) {
    Archive ar;
    ar.write(obj);
    return std::move(ar).take_bytes();
  }

  /// Encode a signed type's persist_body(): the bytes its MAC covers.
  template <typename T>
  static Bytes encode_body(const T& obj) {
    Archive ar;
    const_cast<T&>(obj).persist_body(ar);  // NOLINT: writing reads only
    return std::move(ar).take_bytes();
  }

  /// Decode bytes into a field()-able value; trailing input is an error.
  template <typename T>
  static Status decode(ByteSpan data, T& obj) {
    Archive ar(data);
    ar.field(obj);
    return ar.finish();
  }

  template <typename T>
  static StatusOr<T> decode(ByteSpan data) {
    T obj{};
    NAPLET_RETURN_IF_ERROR(decode(data, obj));
    return obj;
  }

 private:
  /// Writes `n`, or reads it and checks it against the bytes left.
  bool count(std::uint32_t& n);
  void latch(Status status);

  BytesWriter owned_writer_;
  BytesWriter* writer_ = nullptr;
  std::optional<BytesReader> reader_;
  Status status_;
};

}  // namespace naplet::util
