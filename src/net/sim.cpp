#include "net/sim.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <limits>
#include <set>
#include <vector>

#include "util/log.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace naplet::net {

namespace {

std::int64_t now_us() { return util::RealClock::instance().now_us(); }

/// One direction of a simulated stream: a chunk queue where each chunk
/// carries a delivery time. Delivery times are monotone per pipe, which
/// preserves byte ordering (TCP semantics).
class Pipe {
 public:
  void push(std::int64_t deliver_us, util::ByteSpan data,
            std::uint64_t bytes_per_second = 0) {
    push_gather(deliver_us, std::span<const util::ByteSpan>(&data, 1),
                bytes_per_second);
  }

  /// Gather enqueue: the concatenation of `parts` becomes ONE chunk (one
  /// lock round-trip, one allocation, one wakeup) — the sim-backend analog
  /// of writev. The single copy into the chunk is the transport itself.
  void push_gather(std::int64_t deliver_us,
                   std::span<const util::ByteSpan> parts,
                   std::uint64_t bytes_per_second = 0) {
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    util::Bytes chunk;
    chunk.reserve(total);
    for (const auto& part : parts) {
      chunk.insert(chunk.end(), part.begin(), part.end());
    }
    bool was_empty;
    {
      util::MutexLock lock(mu_);
      if (closed_) return;
      deliver_us = std::max(deliver_us, last_deliver_us_);
      if (bytes_per_second > 0) {
        // Serialization delay: this chunk finishes arriving size/bandwidth
        // after the previous one, capping sustained throughput.
        deliver_us += static_cast<std::int64_t>(
            total * 1'000'000 / bytes_per_second);
      }
      last_deliver_us_ = deliver_us;
      was_empty = chunks_.empty();
      chunks_.emplace_back(deliver_us, std::move(chunk));
    }
    // Delivery times are monotone, so a push onto a non-empty queue never
    // unblocks a reader earlier than it would wake anyway: an untimed
    // waiter implies the queue was empty, and a timed waiter self-wakes at
    // the front chunk's delivery time. Skipping the wakeup keeps a sender
    // that is ahead of its reader off the futex entirely.
    if (was_empty) cv_.notify_all();
  }

  // Read up to `max` bytes that have "arrived". Blocks until data is
  // deliverable, the pipe closes (returns 0), or the deadline passes.
  util::StatusOr<std::size_t> read(std::uint8_t* out, std::size_t max,
                                   std::optional<std::int64_t> deadline_us) {
    util::MutexLock lock(mu_);
    for (;;) {
      const std::int64_t now = now_us();
      if (!chunks_.empty() && chunks_.front().first <= now) break;
      if (chunks_.empty() && closed_) return std::size_t{0};

      std::int64_t wake = deadline_us.value_or(
          std::numeric_limits<std::int64_t>::max());
      if (!chunks_.empty()) wake = std::min(wake, chunks_.front().first);
      if (deadline_us && now >= *deadline_us) return util::Timeout("sim read");

      if (wake == std::numeric_limits<std::int64_t>::max()) {
        cv_.wait(mu_);
      } else {
        cv_.wait_for(mu_, std::chrono::microseconds(
                              std::max<std::int64_t>(1, wake - now)));
      }
    }

    std::size_t copied = 0;
    const std::int64_t now = now_us();
    while (copied < max && !chunks_.empty() && chunks_.front().first <= now) {
      const util::Bytes& data = chunks_.front().second;
      const std::size_t take = std::min(max - copied, data.size() - offset_);
      std::copy_n(data.data() + offset_, take, out + copied);
      copied += take;
      offset_ += take;
      if (offset_ == data.size()) {
        chunks_.pop_front();
        offset_ = 0;
      }
    }
    return copied;
  }

  /// All bytes already delivered (arrival time <= now), without blocking.
  util::Bytes drain_now() {
    util::MutexLock lock(mu_);
    util::Bytes out;
    const std::int64_t now = now_us();
    while (!chunks_.empty() && chunks_.front().first <= now) {
      const util::Bytes& data = chunks_.front().second;
      out.insert(out.end(), data.begin() + static_cast<std::ptrdiff_t>(offset_),
                 data.end());
      chunks_.pop_front();
      offset_ = 0;
    }
    return out;
  }

  void close() {
    {
      util::MutexLock lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    util::MutexLock lock(mu_);
    return closed_;
  }

 private:
  mutable util::Mutex mu_{util::LockRank::kSimPipe, "sim.pipe"};
  util::CondVar cv_;
  std::deque<std::pair<std::int64_t, util::Bytes>> chunks_
      NAPLET_GUARDED_BY(mu_);
  std::size_t offset_ NAPLET_GUARDED_BY(mu_) = 0;
  std::int64_t last_deliver_us_ NAPLET_GUARDED_BY(mu_) = 0;
  bool closed_ NAPLET_GUARDED_BY(mu_) = false;
};

struct LatencySampler {
  LinkConfig config;
  util::Rng* rng;
  util::Mutex* rng_mu;

  std::int64_t sample_us() {
    std::int64_t d = config.latency.count();
    if (config.jitter.count() > 0) {
      util::MutexLock lock(*rng_mu);
      d += static_cast<std::int64_t>(
          rng->next_below(static_cast<std::uint64_t>(config.jitter.count())));
    }
    return d;
  }
};

class SimStream;
using SimStreamWeak = std::weak_ptr<SimStream>;

class SimStream final : public Stream,
                        public std::enable_shared_from_this<SimStream> {
 public:
  SimStream(std::shared_ptr<Pipe> read_pipe, std::shared_ptr<Pipe> write_pipe,
            Endpoint local, Endpoint remote, LatencySampler sampler)
      : read_pipe_(std::move(read_pipe)),
        write_pipe_(std::move(write_pipe)),
        local_(std::move(local)),
        remote_(std::move(remote)),
        sampler_(sampler) {}

  ~SimStream() override { close(); }

  util::StatusOr<std::size_t> read_some(std::uint8_t* out,
                                        std::size_t max) override {
    return read_pipe_->read(out, max, std::nullopt);
  }

  util::StatusOr<std::size_t> read_some_for(std::uint8_t* out, std::size_t max,
                                            util::Duration timeout) override {
    return read_pipe_->read(out, max, now_us() + timeout.count());
  }

  util::Status write_all(util::ByteSpan data) override {
    if (write_pipe_->closed()) return util::Cancelled("sim stream closed");
    write_pipe_->push(now_us() + sampler_.sample_us(), data,
                      sampler_.config.bytes_per_second);
    return util::OkStatus();
  }

  util::Status write_all_vectored(
      std::span<const util::ByteSpan> parts) override {
    if (write_pipe_->closed()) return util::Cancelled("sim stream closed");
    write_pipe_->push_gather(now_us() + sampler_.sample_us(), parts,
                             sampler_.config.bytes_per_second);
    return util::OkStatus();
  }

  util::StatusOr<util::Bytes> drain_pending() override {
    return read_pipe_->drain_now();
  }

  void close() override {
    read_pipe_->close();
    write_pipe_->close();
  }

  [[nodiscard]] Endpoint local_endpoint() const override { return local_; }
  [[nodiscard]] Endpoint remote_endpoint() const override { return remote_; }

 private:
  std::shared_ptr<Pipe> read_pipe_;
  std::shared_ptr<Pipe> write_pipe_;
  Endpoint local_;
  Endpoint remote_;
  LatencySampler sampler_;
};

/// Shared-ownership wrapper so SimNet can sever a stream the application
/// still holds: the app owns a StreamPtr facade; the fabric keeps a weak_ptr.
class StreamFacade final : public Stream {
 public:
  explicit StreamFacade(std::shared_ptr<SimStream> impl)
      : impl_(std::move(impl)) {}
  ~StreamFacade() override { impl_->close(); }

  util::StatusOr<std::size_t> read_some(std::uint8_t* out,
                                        std::size_t max) override {
    return impl_->read_some(out, max);
  }
  util::StatusOr<std::size_t> read_some_for(std::uint8_t* out, std::size_t max,
                                            util::Duration timeout) override {
    return impl_->read_some_for(out, max, timeout);
  }
  util::Status write_all(util::ByteSpan data) override {
    return impl_->write_all(data);
  }
  util::Status write_all_vectored(
      std::span<const util::ByteSpan> parts) override {
    return impl_->write_all_vectored(parts);
  }
  util::StatusOr<util::Bytes> drain_pending() override {
    return impl_->drain_pending();
  }
  void close() override { impl_->close(); }
  [[nodiscard]] Endpoint local_endpoint() const override {
    return impl_->local_endpoint();
  }
  [[nodiscard]] Endpoint remote_endpoint() const override {
    return impl_->remote_endpoint();
  }

 private:
  std::shared_ptr<SimStream> impl_;
};

struct PendingConn {
  std::shared_ptr<SimStream> server_side;
  Endpoint client_endpoint;
};

class SimListener;
class SimDatagram;

}  // namespace

struct SimNet::Impl {
  // The fabric lock; rng_mu nests strictly inside it (SimDatagram::send_to).
  util::Mutex mu{util::LockRank::kSimFabric, "sim.fabric"};
  util::Mutex rng_mu{util::LockRank::kSimPipe, "sim.rng"};
  util::Rng rng NAPLET_GUARDED_BY(rng_mu);
  LinkConfig default_link NAPLET_GUARDED_BY(mu);
  std::map<std::pair<std::string, std::string>, LinkConfig> links
      NAPLET_GUARDED_BY(mu);
  std::set<std::pair<std::string, std::string>> partitions
      NAPLET_GUARDED_BY(mu);  // normalized pairs
  std::map<std::string, std::shared_ptr<SimNode>> nodes NAPLET_GUARDED_BY(mu);

  // Listener registry: (node, port) -> accept queue.
  struct ListenerEntry {
    util::BlockingQueue<PendingConn>* queue = nullptr;
  };
  std::map<std::pair<std::string, std::uint16_t>, ListenerEntry> listeners
      NAPLET_GUARDED_BY(mu);

  // Datagram registry: (node, port) -> shared inbox state. Shared-owned so
  // a sender that resolved an entry can finish its enqueue and wakeup even
  // if the receiving datagram is concurrently closed and destroyed (the
  // crash-restart teardown in Realm::remove_node does exactly this).
  struct DgramState {
    util::Mutex mu{util::LockRank::kSimPipe, "sim.dgram"};
    util::CondVar cv;
    std::multimap<std::int64_t, Datagram::Packet> inbox NAPLET_GUARDED_BY(mu);
    bool closed NAPLET_GUARDED_BY(mu) = false;
  };
  std::map<std::pair<std::string, std::uint16_t>, std::shared_ptr<DgramState>>
      dgrams NAPLET_GUARDED_BY(mu);

  // Established streams per normalized node pair (for sever_streams).
  // Entries of closed-and-destroyed streams are swept only once the list
  // has doubled since its last sweep, so a connect costs amortised O(1)
  // however many streams stay open between the pair.
  struct StreamList {
    std::vector<SimStreamWeak> weak;
    std::size_t live_after_sweep = 0;
  };
  std::map<std::pair<std::string, std::string>, StreamList> streams
      NAPLET_GUARDED_BY(mu);

  std::uint16_t next_port NAPLET_GUARDED_BY(mu) = 40000;
  std::uint64_t dropped NAPLET_GUARDED_BY(mu) = 0;
  std::uint64_t partition_events NAPLET_GUARDED_BY(mu) = 0;
  std::uint64_t severed NAPLET_GUARDED_BY(mu) = 0;

  explicit Impl(std::uint64_t seed) : rng(seed) {}

  static std::pair<std::string, std::string> norm(const std::string& a,
                                                  const std::string& b) {
    return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  LinkConfig link_for(const std::string& from, const std::string& to)
      NAPLET_REQUIRES(mu) {
    auto it = links.find({from, to});
    return it != links.end() ? it->second : default_link;
  }

  bool partitioned(const std::string& a, const std::string& b)
      NAPLET_REQUIRES(mu) {
    return partitions.contains(norm(a, b));
  }

  std::uint16_t alloc_port() NAPLET_REQUIRES(mu) { return next_port++; }
};

namespace {

class SimListener final : public Listener {
 public:
  SimListener(SimNet::Impl* impl, std::string node, std::uint16_t port)
      : impl_(impl), node_(std::move(node)), port_(port) {}

  ~SimListener() override { close(); }

  util::StatusOr<StreamPtr> accept(
      std::optional<util::Duration> timeout) override {
    std::optional<PendingConn> conn;
    if (timeout) {
      conn = queue_.pop_for(*timeout);
      if (!conn && !queue_.closed()) return util::Timeout("sim accept");
    } else {
      conn = queue_.pop();
    }
    if (!conn) return util::Cancelled("sim listener closed");
    return StreamPtr(std::make_unique<StreamFacade>(conn->server_side));
  }

  [[nodiscard]] Endpoint local_endpoint() const override {
    return Endpoint{node_, port_};
  }

  void close() override {
    bool expected = false;
    if (!closed_.compare_exchange_strong(expected, true)) return;
    queue_.close();
    util::MutexLock lock(impl_->mu);
    impl_->listeners.erase({node_, port_});
  }

  util::BlockingQueue<PendingConn>& queue() { return queue_; }

 private:
  SimNet::Impl* impl_;
  std::string node_;
  std::uint16_t port_;
  util::BlockingQueue<PendingConn> queue_;
  std::atomic<bool> closed_{false};
};

class SimDatagram final : public Datagram {
 public:
  SimDatagram(SimNet::Impl* impl, std::string node, std::uint16_t port)
      : impl_(impl), node_(std::move(node)), port_(port) {}

  ~SimDatagram() override { close(); }

  util::Status send_to(const Endpoint& dest, util::ByteSpan data) override {
    std::shared_ptr<SimNet::Impl::DgramState> peer;
    std::int64_t deliver;
    {
      util::MutexLock lock(impl_->mu);
      if (impl_->partitioned(node_, dest.host)) {
        ++impl_->dropped;
        return util::OkStatus();  // silent drop, like real UDP
      }
      auto it = impl_->dgrams.find({dest.host, dest.port});
      if (it == impl_->dgrams.end()) return util::OkStatus();  // no receiver
      peer = it->second;

      LinkConfig link = impl_->link_for(node_, dest.host);
      {
        util::MutexLock rng_lock(impl_->rng_mu);
        if (link.datagram_loss > 0.0 &&
            impl_->rng.bernoulli(link.datagram_loss)) {
          ++impl_->dropped;
          return util::OkStatus();
        }
        deliver = now_us() + link.latency.count();
        if (link.jitter.count() > 0) {
          deliver += static_cast<std::int64_t>(impl_->rng.next_below(
              static_cast<std::uint64_t>(link.jitter.count())));
        }
      }
    }
    {
      util::MutexLock lock(peer->mu);
      if (peer->closed) return util::OkStatus();
      peer->inbox.emplace(
          deliver, Packet{Endpoint{node_, port_},
                          util::Bytes(data.begin(), data.end())});
    }
    peer->cv.notify_all();  // `peer` keeps the state alive past any close()
    return util::OkStatus();
  }

  util::StatusOr<Packet> recv_for(util::Duration timeout) override {
    util::MutexLock lock(state_->mu);
    const std::int64_t deadline = now_us() + timeout.count();
    for (;;) {
      const std::int64_t now = now_us();
      if (state_->closed) return util::Cancelled("sim datagram closed");
      if (!state_->inbox.empty() && state_->inbox.begin()->first <= now) {
        Packet pkt = std::move(state_->inbox.begin()->second);
        state_->inbox.erase(state_->inbox.begin());
        return pkt;
      }
      if (now >= deadline) return util::Timeout("sim recv");
      std::int64_t wake = deadline;
      if (!state_->inbox.empty()) {
        wake = std::min(wake, state_->inbox.begin()->first);
      }
      state_->cv.wait_for(state_->mu,
                          std::chrono::microseconds(
                              std::max<std::int64_t>(1, wake - now)));
    }
  }

  [[nodiscard]] Endpoint local_endpoint() const override {
    return Endpoint{node_, port_};
  }

  void close() override {
    {
      util::MutexLock lock(state_->mu);
      if (state_->closed) return;
      state_->closed = true;
    }
    state_->cv.notify_all();
    util::MutexLock lock(impl_->mu);
    // Erase only our own registration: a restarted node may have re-bound
    // the port with a fresh datagram by the time the old one is destroyed.
    auto it = impl_->dgrams.find({node_, port_});
    if (it != impl_->dgrams.end() && it->second == state_) {
      impl_->dgrams.erase(it);
    }
  }

  void register_self() {
    util::MutexLock lock(impl_->mu);
    impl_->dgrams[{node_, port_}] = state_;
  }

 private:
  SimNet::Impl* impl_;
  std::string node_;
  std::uint16_t port_;
  std::shared_ptr<SimNet::Impl::DgramState> state_ =
      std::make_shared<SimNet::Impl::DgramState>();
};

}  // namespace

SimNet::SimNet(std::uint64_t seed) : impl_(std::make_unique<Impl>(seed)) {}
SimNet::~SimNet() = default;

std::shared_ptr<SimNode> SimNet::add_node(const std::string& name) {
  util::MutexLock lock(impl_->mu);
  auto it = impl_->nodes.find(name);
  if (it != impl_->nodes.end()) return it->second;
  auto node = std::shared_ptr<SimNode>(new SimNode(name, this));
  impl_->nodes[name] = node;
  return node;
}

void SimNet::set_link(const std::string& from, const std::string& to,
                      LinkConfig config) {
  util::MutexLock lock(impl_->mu);
  impl_->links[{from, to}] = config;
}

void SimNet::set_default_link(LinkConfig config) {
  util::MutexLock lock(impl_->mu);
  impl_->default_link = config;
}

void SimNet::set_partition(const std::string& a, const std::string& b,
                           bool on) {
  util::MutexLock lock(impl_->mu);
  if (on) {
    if (impl_->partitions.insert(Impl::norm(a, b)).second) {
      ++impl_->partition_events;
    }
  } else {
    impl_->partitions.erase(Impl::norm(a, b));
  }
}

void SimNet::sever_streams(const std::string& a, const std::string& b) {
  std::vector<SimStreamWeak> victims;
  {
    util::MutexLock lock(impl_->mu);
    auto it = impl_->streams.find(Impl::norm(a, b));
    if (it == impl_->streams.end()) return;
    victims = std::move(it->second.weak);
    impl_->streams.erase(it);
  }
  std::uint64_t closed = 0;
  for (auto& weak : victims) {
    if (auto stream = weak.lock()) {
      stream->close();
      ++closed;
    }
  }
  if (closed > 0) {
    util::MutexLock lock(impl_->mu);
    impl_->severed += closed;
  }
}

std::uint64_t SimNet::datagrams_dropped() const {
  util::MutexLock lock(impl_->mu);
  return impl_->dropped;
}

NetworkCounters SimNet::counters() const {
  util::MutexLock lock(impl_->mu);
  NetworkCounters out;
  out.datagrams_dropped = impl_->dropped;
  out.partition_events = impl_->partition_events;
  out.partitions_active = impl_->partitions.size();
  out.streams_severed = impl_->severed;
  return out;
}

NetworkCounters SimNode::counters() const { return net_->counters(); }

util::StatusOr<ListenerPtr> SimNode::listen(std::uint16_t port) {
  auto* impl = net_->impl_.get();
  util::MutexLock lock(impl->mu);
  if (port == 0) port = impl->alloc_port();
  if (impl->listeners.contains({name_, port})) {
    return util::AlreadyExists("sim port in use: " + name_ + ":" +
                               std::to_string(port));
  }
  auto listener = std::make_unique<SimListener>(impl, name_, port);
  impl->listeners[{name_, port}] = SimNet::Impl::ListenerEntry{&listener->queue()};
  return ListenerPtr(std::move(listener));
}

util::StatusOr<StreamPtr> SimNode::connect(const Endpoint& dest,
                                           util::Duration /*timeout*/) {
  auto* impl = net_->impl_.get();
  LatencySampler to_dest{};
  LatencySampler to_src{};
  util::BlockingQueue<PendingConn>* accept_queue = nullptr;
  std::uint16_t client_port;
  {
    util::MutexLock lock(impl->mu);
    if (impl->partitioned(name_, dest.host)) {
      return util::Unavailable("sim partition: " + name_ + " <-> " + dest.host);
    }
    auto it = impl->listeners.find({dest.host, dest.port});
    if (it == impl->listeners.end()) {
      return util::Unavailable("sim connection refused: " + dest.to_string());
    }
    accept_queue = it->second.queue;
    to_dest = LatencySampler{impl->link_for(name_, dest.host), &impl->rng,
                             &impl->rng_mu};
    to_src = LatencySampler{impl->link_for(dest.host, name_), &impl->rng,
                            &impl->rng_mu};
    client_port = impl->alloc_port();
  }

  // Two unidirectional pipes form the duplex stream.
  auto c2s = std::make_shared<Pipe>();
  auto s2c = std::make_shared<Pipe>();

  const Endpoint client_ep{name_, client_port};
  auto client_side = std::make_shared<SimStream>(s2c, c2s, client_ep, dest,
                                                 to_dest);
  auto server_side = std::make_shared<SimStream>(c2s, s2c, dest, client_ep,
                                                 to_src);

  {
    util::MutexLock lock(impl->mu);
    auto& list = impl->streams[SimNet::Impl::norm(name_, dest.host)];
    list.weak.emplace_back(client_side);
    list.weak.emplace_back(server_side);
    if (list.weak.size() >= 2 * std::max<std::size_t>(list.live_after_sweep,
                                                      32)) {
      std::erase_if(list.weak,
                    [](const SimStreamWeak& w) { return w.expired(); });
      list.live_after_sweep = list.weak.size();
    }
  }

  if (!accept_queue->push(PendingConn{server_side, client_ep})) {
    return util::Unavailable("sim listener closed: " + dest.to_string());
  }
  return StreamPtr(std::make_unique<StreamFacade>(client_side));
}

util::StatusOr<DatagramPtr> SimNode::bind_datagram(std::uint16_t port) {
  auto* impl = net_->impl_.get();
  {
    util::MutexLock lock(impl->mu);
    if (port == 0) port = impl->alloc_port();
    if (impl->dgrams.contains({name_, port})) {
      return util::AlreadyExists("sim udp port in use: " + name_ + ":" +
                                 std::to_string(port));
    }
  }
  auto sock = std::make_unique<SimDatagram>(impl, name_, port);
  sock->register_self();
  return DatagramPtr(std::move(sock));
}

}  // namespace naplet::net
