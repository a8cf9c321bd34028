#include "server/routing.hpp"

#include <stdexcept>

namespace rt::server {

RoutingResponse::RoutingResponse(std::vector<std::unique_ptr<ResponseModel>> routes,
                                 std::vector<std::size_t> route_of_stream)
    : routes_(std::move(routes)), route_of_stream_(std::move(route_of_stream)) {
  if (routes_.empty()) {
    throw std::invalid_argument("RoutingResponse: no routes");
  }
  if (route_of_stream_.empty()) {
    throw std::invalid_argument("RoutingResponse: empty stream mapping");
  }
  for (const auto& r : routes_) {
    if (r == nullptr) throw std::invalid_argument("RoutingResponse: null route");
  }
  for (const std::size_t idx : route_of_stream_) {
    if (idx >= routes_.size()) {
      throw std::invalid_argument("RoutingResponse: mapping entry out of range");
    }
  }
}

std::size_t RoutingResponse::route_for(std::size_t stream) const {
  if (stream >= route_of_stream_.size()) {
    throw std::out_of_range("RoutingResponse: unknown stream");
  }
  return route_of_stream_[stream];
}

Duration RoutingResponse::sample(const Request& req, Rng& rng) {
  return routes_[route_for(req.stream_id)]->sample(req, rng);
}

void RoutingResponse::sample_n(const Request& req, std::span<Rng> rngs,
                               std::span<Duration> out) {
  // One request routes to exactly one component, so the whole batch does.
  routes_[route_for(req.stream_id)]->sample_n(req, rngs, out);
}

bool RoutingResponse::is_stateless() const {
  for (const auto& r : routes_) {
    if (!r->is_stateless()) return false;
  }
  return true;
}

void RoutingResponse::reset() {
  for (auto& r : routes_) r->reset();
}

std::unique_ptr<ResponseModel> RoutingResponse::clone() const {
  std::vector<std::unique_ptr<ResponseModel>> routes;
  routes.reserve(routes_.size());
  for (const auto& r : routes_) routes.push_back(r->clone());
  return std::make_unique<RoutingResponse>(std::move(routes), route_of_stream_);
}

}  // namespace rt::server
