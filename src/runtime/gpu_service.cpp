#include "runtime/gpu_service.hpp"

#include <exception>
#include <utility>

#include "net/wire.hpp"
#include "obs/sink.hpp"

namespace rt::runtime {

Json GpuServiceStats::to_json() const {
  Json::Object out;
  out["connections"] = Json(static_cast<std::int64_t>(connections));
  out["requests"] = Json(static_cast<std::int64_t>(requests));
  out["replies"] = Json(static_cast<std::int64_t>(replies));
  out["drops"] = Json(static_cast<std::int64_t>(drops));
  out["wire_errors"] = Json(static_cast<std::int64_t>(wire_errors));
  return Json(std::move(out));
}

GpuService::GpuService(net::EventLoop& loop,
                       std::unique_ptr<server::ResponseModel> model,
                       std::uint64_t seed, const net::SocketAddress& listen,
                       GpuServiceOptions options)
    : loop_(loop),
      model_(std::move(model)),
      rng_(seed),
      options_(options),
      acceptor_(loop, listen) {
  if (options_.sink != nullptr) {
    auto& reg = options_.sink->registry();
    requests_counter_ = &reg.counter("gpu.requests");
    drops_counter_ = &reg.counter("gpu.drops");
    service_ns_ = &reg.histogram("gpu.service_ns");
  }
  acceptor_.set_accept_handler(
      [this](int fd, const net::SocketAddress&) { on_accept(fd); });
}

void GpuService::on_accept(int fd) {
  ++stats_.connections;
  net::WireOptions wire;
  wire.max_frame_bytes = options_.max_frame_bytes;
  auto connection =
      std::make_shared<net::Connection>(loop_, fd, wire, options_.sink);
  // Handlers look the connection up by id instead of capturing the
  // shared_ptr: the connection owns its handlers, and a self-reference
  // would leak the object past close. Not by fd: a close frees the fd at
  // once but erases the entry only in the deferred close handler, so an
  // accept in between can reuse the number.
  const std::uint64_t id = ++last_connection_id_;
  connection->set_message_handler([this, id](std::string_view payload) {
    auto it = connections_.find(id);
    if (it == connections_.end()) return;
    on_message(it->second, payload);
  });
  connection->set_close_handler(
      [this, id](const std::string&) { connections_.erase(id); });
  connections_.emplace(id, std::move(connection));
}

void GpuService::on_message(const std::shared_ptr<net::Connection>& connection,
                            std::string_view payload) {
  net::OffloadRequest request;
  Duration response;
  try {
    request = net::decode_request(payload);
    server::Request sample_request;
    sample_request.send_time = TimePoint(request.send_protocol_ns);
    sample_request.compute_time = Duration(request.compute_ns);
    sample_request.payload_bytes = static_cast<std::size_t>(request.payload_bytes);
    sample_request.stream_id = request.task;
    response = model_->sample(sample_request, rng_);
  } catch (const std::exception&) {
    // An undecodable frame, or a request the model cannot sample (a task
    // it has no stream for): the peer does not speak this service's
    // protocol, so drop it and keep serving the others.
    ++stats_.wire_errors;
    connection->close("wire error");
    return;
  }
  ++stats_.requests;
  obs::inc(requests_counter_);

  if (response == server::kNoResponse) {
    ++stats_.drops;
    obs::inc(drops_counter_);
    return;  // the client's compensation timer is on its own
  }
  ++stats_.replies;
  obs::observe(service_ns_, response.ns());

  net::OffloadResponse reply;
  reply.id = request.id;
  reply.service_protocol_ns = response.ns();
  std::string frame = net::encode(reply);

  // Anchor the hold on the client's monotonic send stamp so uplink
  // delivery jitter cancels out (see header).
  const TimePoint reply_wall =
      TimePoint(request.send_wall_ns) + response.scaled(options_.time_scale);
  if (reply_wall <= loop_.now()) {
    connection->send(frame);
    return;
  }
  std::weak_ptr<net::Connection> weak = connection;
  loop_.add_timer(reply_wall, [weak, frame = std::move(frame)]() {
    if (auto conn = weak.lock(); conn != nullptr && !conn->closed()) {
      conn->send(frame);
    }
  });
}

LoopbackGpuServer::LoopbackGpuServer(
    std::unique_ptr<server::ResponseModel> model, std::uint64_t seed,
    GpuServiceOptions options, const net::SocketAddress& listen) {
  // The service (and with it the listening socket) is constructed on the
  // caller's thread so address() is valid on return; only then does the
  // loop thread start. All subsequent service state is touched solely by
  // the loop thread until stop() joins it.
  service_ = std::make_unique<GpuService>(loop_, std::move(model), seed,
                                          listen, options);
  address_ = service_->address();
  thread_ = std::thread([this]() { loop_.run(); });
}

LoopbackGpuServer::~LoopbackGpuServer() { stop(); }

GpuServiceStats LoopbackGpuServer::stop() {
  if (!stopped_) {
    stopped_ = true;
    loop_.stop();
    thread_.join();
    final_stats_ = service_->stats();
    service_.reset();
  }
  return final_stats_;
}

}  // namespace rt::runtime
