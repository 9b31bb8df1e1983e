// A queue behind a ReliableChannel's delivery callback, for tests that read
// inbound messages one at a time. Declare it before the channel it feeds,
// so it outlives the channel's receiver thread.
#pragma once

#include <optional>

#include "net/rudp.hpp"
#include "util/sync.hpp"

namespace naplet::net {

class RudpInbox {
 public:
  [[nodiscard]] ReliableChannel::Deliver sink() {
    return [this](ReliableChannel::Message msg) {
      queue_.push(std::move(msg));
    };
  }

  /// The next inbound message; nullopt on timeout.
  std::optional<ReliableChannel::Message> recv(util::Duration timeout) {
    return queue_.pop_for(timeout);
  }

 private:
  util::BlockingQueue<ReliableChannel::Message> queue_;
};

}  // namespace naplet::net
