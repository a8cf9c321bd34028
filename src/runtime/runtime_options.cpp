#include "runtime/runtime_options.hpp"

namespace rt::runtime {

void RuntimeOptions::apply_spec_section(const Json& section) {
  if (section.is_null()) return;
  time_scale = section.at("time_scale").as_number();
  max_frame_bytes =
      static_cast<std::size_t>(section.at("max_frame_bytes").as_number());
  connect_timeout =
      Duration::from_ms(section.at("connect_timeout_ms").as_number());
}

void GpuServiceOptions::apply_spec_section(const Json& section) {
  if (section.is_null()) return;
  time_scale = section.at("time_scale").as_number();
  max_frame_bytes =
      static_cast<std::size_t>(section.at("max_frame_bytes").as_number());
}

net::SocketAddress listen_address_from_spec(const Json& section) {
  if (section.is_null()) return net::SocketAddress{};
  return net::SocketAddress::parse(section.at("listen").as_string());
}

}  // namespace rt::runtime
