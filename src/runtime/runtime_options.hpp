#pragma once
// Options for the real execution tier (OffloadRuntime / GpuService),
// including the bridge from a normalized $.runtime spec section.
//
// Time dilation: `time_scale` is wall seconds per protocol second
// (wall = protocol * time_scale). A spec with a 10 s horizon and
// time_scale 0.2 finishes in 2 s of wall clock; every protocol-facing
// duration (periods, response times, compensation windows) is scaled the
// same way, so the protocol's arithmetic is unchanged -- only the units
// the hardware sees shrink. See docs/RUNTIME.md for the math and for how
// the differential oracle accounts for the jitter this introduces.

#include <cstddef>

#include "net/socket.hpp"
#include "util/json.hpp"
#include "util/time.hpp"

namespace rt::obs {
class Sink;
}  // namespace rt::obs

namespace rt::runtime {

struct RuntimeOptions {
  /// gpu_serverd address to connect to.
  net::SocketAddress server;
  /// Wall seconds per protocol second; > 0.
  double time_scale = 1.0;
  std::size_t max_frame_bytes = std::size_t{1} << 20;
  /// Wall-clock budget for the initial connect.
  Duration connect_timeout = Duration::seconds(5);
  /// Overrides config.trace_capacity when nonzero.
  std::size_t trace_capacity = 0;

  /// Fills scale/frame/timeout from a normalized $.runtime
  /// section (spec::normalize_runtime output); `section` may be null, in
  /// which case the defaults stand. The listen address in the section is
  /// the *daemon's*; the connect target stays whatever the caller set.
  void apply_spec_section(const Json& section);
};

/// Daemon-side counterpart.
struct GpuServiceOptions {
  double time_scale = 1.0;
  std::size_t max_frame_bytes = std::size_t{1} << 20;
  obs::Sink* sink = nullptr;

  void apply_spec_section(const Json& section);
};

/// The daemon listen address from a normalized $.runtime section
/// ("127.0.0.1:0" when the section is null).
net::SocketAddress listen_address_from_spec(const Json& section);

}  // namespace rt::runtime
