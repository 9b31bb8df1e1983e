#include "core/redirector.hpp"

#include <algorithm>
#include <utility>

#include "fault/fault.hpp"
#include "net/frame.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace naplet::nsock {

namespace {

std::int64_t now_us() { return util::RealClock::instance().now_us(); }

// How long a worker waits on one stream before moving on: the wait for its
// first bytes (after which it goes back to the tail of the queue), and the
// granularity at which a worker reading a frame notices stop().
constexpr std::int64_t kReadSliceUs = 20000;

}  // namespace

Redirector::Redirector(net::Network& network, std::uint16_t port,
                       HandoffHandler handler)
    : network_(network), port_(port), handler_(std::move(handler)) {}

Redirector::~Redirector() { stop(); }

util::Status Redirector::start() {
  auto listener = network_.listen(port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(*listener);
  for (int i = 0; i < kHandoffWorkers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  return util::OkStatus();
}

void Redirector::stop() {
  if (stopped_.exchange(true)) return;
  if (listener_) listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  // Workers close whatever is still queued instead of serving it.
  accepted_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

net::Endpoint Redirector::endpoint() const {
  return listener_ ? listener_->local_endpoint() : net::Endpoint{};
}

void Redirector::accept_loop() {
  while (!stopped_.load()) {
    auto accepted = listener_->accept(std::chrono::milliseconds(200));
    if (!accepted.ok()) {
      if (accepted.status().code() == util::StatusCode::kTimeout) continue;
      break;  // listener closed
    }
    Accepted item{std::shared_ptr<net::Stream>(std::move(*accepted)),
                  now_us() + kFirstFrameDeadline.count()};
    if (auto stream = item.stream; !accepted_.push(std::move(item))) {
      stream->close();  // stopping
    }
  }
}

void Redirector::worker_loop() {
  while (auto item = accepted_.pop()) {
    if (stopped_.load()) {
      item->stream->close();
      continue;
    }
    if (auto frame = first_frame(*item)) serve(item->stream, *frame);
  }
}

void Redirector::reject_bad(net::Stream& stream) {
  bad_handoffs_.fetch_add(1);
  stream.close();
}

std::optional<util::Bytes> Redirector::first_frame(Accepted& item) {
  net::Stream& stream = *item.stream;
  std::uint8_t header[4];
  const std::int64_t left = item.deadline_us - now_us();
  auto got = stream.read_some_for(
      header, sizeof header,
      util::us(std::clamp<std::int64_t>(left, 1, kReadSliceUs)));
  if (!got.ok() && got.status().code() == util::StatusCode::kTimeout &&
      !stopped_.load() && now_us() < item.deadline_us) {
    // Nothing written yet: give the worker to the next stream in line.
    if (auto stream_ref = item.stream; !accepted_.push(std::move(item))) {
      stream_ref->close();  // stopping
    }
    return std::nullopt;
  }
  // EOF, a read error, or the deadline passed with nothing written.
  if (!got.ok() || *got == 0) {
    reject_bad(stream);
    return std::nullopt;
  }
  if (!read_until(stream, header + *got, sizeof header - *got,
                  item.deadline_us)
           .ok()) {
    reject_bad(stream);
    return std::nullopt;
  }
  std::uint32_t len = 0;
  for (std::uint8_t b : header) len = len << 8 | b;
  if (len > net::kMaxFrameSize) {
    reject_bad(stream);
    return std::nullopt;
  }
  util::Bytes frame(len);
  if (!read_until(stream, frame.data(), len, item.deadline_us).ok()) {
    reject_bad(stream);
    return std::nullopt;
  }
  return frame;
}

util::Status Redirector::read_until(net::Stream& stream, std::uint8_t* out,
                                    std::size_t n, std::int64_t deadline_us) {
  std::size_t got = 0;
  while (got < n) {
    const std::int64_t left = deadline_us - now_us();
    if (left <= 0 || stopped_.load()) {
      return util::Timeout("handoff frame incomplete");
    }
    auto r = stream.read_some_for(out + got, n - got,
                                  util::us(std::min(left, kReadSliceUs)));
    if (!r.ok()) {
      if (r.status().code() == util::StatusCode::kTimeout) continue;
      return r.status();
    }
    if (*r == 0) return util::IoError("stream closed mid-frame");
    got += *r;
  }
  return util::OkStatus();
}

void Redirector::serve(const std::shared_ptr<net::Stream>& stream,
                       const util::Bytes& frame) {
  auto msg = HandoffMsg::decode(util::ByteSpan(frame.data(), frame.size()));
  if (!msg.ok()) {
    NAPLET_LOG(kWarn, "redirector")
        << "bad handoff frame: " << msg.status().to_string();
    reject_bad(*stream);
    return;
  }
  if (fault::armed()) {
    const fault::Decision d = fault::hit("redirector.handoff.accept");
    if (d.action == fault::Action::kKill ||
        d.action == fault::Action::kDrop ||
        d.action == fault::Action::kError) {
      // The worker dies mid-handoff: the request was read off the wire
      // but no reply will ever come. The peer's resume retry loop must
      // absorb this.
      stream->close();
      return;
    }
  }
  // Past the fault gate: this handoff WILL reach the controller. (The sink
  // drops untraced messages — ATTACH carries no trace id.)
  {
    obs::SpanEvent ev;
    ev.trace_id = msg->trace_id;
    ev.kind = obs::SpanKind::kHandoffAccept;
    ev.conn_id = msg->conn_id;
    ev.host = host_label_;
    ev.detail = std::string(to_string(msg->type));
    obs::TraceSink::instance().record(std::move(ev));
  }
  handler_(stream, std::move(*msg));
}

}  // namespace naplet::nsock
