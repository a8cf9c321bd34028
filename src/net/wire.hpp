#pragma once
// RPC payload codec for the offload protocol (docs/RUNTIME.md).
//
// Payloads ride inside Connection's length-prefixed frames; every field
// is little-endian and fixed-width, so encode/decode are straight-line
// byte copies with no varints or alignment games.
//
//   request  := u8 kind=1 | u64 id | u32 task | u32 level
//             | i64 send_protocol_ns | i64 send_wall_ns | i64 compute_ns
//             | u64 payload_bytes | u32 pad_bytes | pad_bytes * u8
//   response := u8 kind=2 | u64 id | i64 service_protocol_ns
//
// `send_protocol_ns` is the client's protocol-time send instant: the
// daemon feeds it to the ResponseModel/FaultInjector stack as
// Request::send_time, so stateful models and absolute fault windows see
// the same timeline the simulator would. `send_wall_ns` is the client's
// CLOCK_MONOTONIC instant; on loopback both ends share that clock, so
// the daemon anchors the reply hold on it and uplink queueing jitter
// cancels out of the service time. `pad_bytes` of padding model the
// uplink payload on the wire itself (bounded by max_frame_bytes).

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace rt::net {

enum class MessageKind : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
};

struct OffloadRequest {
  std::uint64_t id = 0;
  std::uint32_t task = 0;
  std::uint32_t level = 0;
  std::int64_t send_protocol_ns = 0;
  std::int64_t send_wall_ns = 0;
  std::int64_t compute_ns = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t pad_bytes = 0;
};

struct OffloadResponse {
  std::uint64_t id = 0;
  std::int64_t service_protocol_ns = 0;
};

class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::string encode(const OffloadRequest& request);
std::string encode(const OffloadResponse& response);

/// Throw WireError on truncation, trailing garbage, or a kind mismatch.
OffloadRequest decode_request(std::string_view payload);
OffloadResponse decode_response(std::string_view payload);

}  // namespace rt::net
