#include "util/serial.hpp"

namespace naplet::util {

namespace {
// Reads via a StatusOr-returning accessor, latching errors into `status`.
template <typename T, typename Fn>
void read_into(T& out, Fn&& accessor, Status& status) {
  if (!status.ok()) return;
  auto r = accessor();
  if (!r.ok()) {
    status = r.status();
    return;
  }
  out = std::move(*r);
}
}  // namespace

void Archive::fail(std::string msg) { latch(ProtocolError(std::move(msg))); }

void Archive::field(bool& v) {
  if (is_writing()) {
    writer_->boolean(v);
  } else {
    read_into(v, [&] { return reader_->boolean(); }, status_);
  }
}

void Archive::field(std::uint8_t& v) {
  if (is_writing()) {
    writer_->u8(v);
  } else {
    read_into(v, [&] { return reader_->u8(); }, status_);
  }
}

void Archive::field(std::uint16_t& v) {
  if (is_writing()) {
    writer_->u16(v);
  } else {
    read_into(v, [&] { return reader_->u16(); }, status_);
  }
}

void Archive::field(std::uint32_t& v) {
  if (is_writing()) {
    writer_->u32(v);
  } else {
    read_into(v, [&] { return reader_->u32(); }, status_);
  }
}

void Archive::field(std::uint64_t& v) {
  if (is_writing()) {
    writer_->u64(v);
  } else {
    read_into(v, [&] { return reader_->u64(); }, status_);
  }
}

void Archive::field(std::int64_t& v) {
  if (is_writing()) {
    writer_->i64(v);
  } else {
    read_into(v, [&] { return reader_->i64(); }, status_);
  }
}

void Archive::field(double& v) {
  if (is_writing()) {
    writer_->f64(v);
  } else {
    read_into(v, [&] { return reader_->f64(); }, status_);
  }
}

void Archive::field(std::string& v) {
  if (is_writing()) {
    writer_->str(v);
  } else {
    read_into(v, [&] { return reader_->str(); }, status_);
  }
}

void Archive::field(Bytes& v) {
  if (is_writing()) {
    writer_->bytes(v);
  } else {
    read_into(v, [&] { return reader_->bytes(); }, status_);
  }
}

bool Archive::count(std::uint32_t& n) {
  field(n);
  if (is_writing()) return true;
  if (!ok()) return false;
  if (n > reader_->remaining()) {
    fail("element count " + std::to_string(n) + " exceeds the " +
         std::to_string(reader_->remaining()) + " bytes left");
    return false;
  }
  return true;
}

void Archive::latch(Status status) {
  if (status_.ok()) status_ = std::move(status);
}

Status Archive::finish() const {
  if (status_.ok() && reader_ && reader_->remaining() != 0) {
    return ProtocolError("trailing bytes after decode");
  }
  return status_;
}

Bytes Archive::take_bytes() && {
  return std::move(owned_writer_).take();
}

const Bytes& Archive::bytes() const { return owned_writer_.data(); }

}  // namespace naplet::util
