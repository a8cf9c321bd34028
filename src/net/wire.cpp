#include "net/wire.hpp"

namespace rt::net {

namespace {

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }

  std::uint32_t u32() {
    const auto* p = reinterpret_cast<const unsigned char*>(take(4).data());
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::uint64_t u64() {
    const auto* p = reinterpret_cast<const unsigned char*>(take(8).data());
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  void skip(std::size_t n) { (void)take(n); }

  void expect_end() const {
    if (offset_ != data_.size()) {
      throw WireError("trailing bytes in wire message");
    }
  }

 private:
  std::string_view take(std::size_t n) {
    if (data_.size() - offset_ < n) {
      throw WireError("truncated wire message");
    }
    const std::string_view v = data_.substr(offset_, n);
    offset_ += n;
    return v;
  }

  std::string_view data_;
  std::size_t offset_ = 0;
};

}  // namespace

std::string encode(const OffloadRequest& request) {
  std::string out;
  out.reserve(1 + 8 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + request.pad_bytes);
  put_u8(out, static_cast<std::uint8_t>(MessageKind::kRequest));
  put_u64(out, request.id);
  put_u32(out, request.task);
  put_u32(out, request.level);
  put_i64(out, request.send_protocol_ns);
  put_i64(out, request.send_wall_ns);
  put_i64(out, request.compute_ns);
  put_u64(out, request.payload_bytes);
  put_u32(out, request.pad_bytes);
  out.append(request.pad_bytes, '\0');
  return out;
}

std::string encode(const OffloadResponse& response) {
  std::string out;
  out.reserve(1 + 8 + 8);
  put_u8(out, static_cast<std::uint8_t>(MessageKind::kResponse));
  put_u64(out, response.id);
  put_i64(out, response.service_protocol_ns);
  return out;
}

OffloadRequest decode_request(std::string_view payload) {
  Reader reader(payload);
  if (reader.u8() != static_cast<std::uint8_t>(MessageKind::kRequest)) {
    throw WireError("not a request message");
  }
  OffloadRequest request;
  request.id = reader.u64();
  request.task = reader.u32();
  request.level = reader.u32();
  request.send_protocol_ns = reader.i64();
  request.send_wall_ns = reader.i64();
  request.compute_ns = reader.i64();
  request.payload_bytes = reader.u64();
  request.pad_bytes = reader.u32();
  reader.skip(request.pad_bytes);
  reader.expect_end();
  return request;
}

OffloadResponse decode_response(std::string_view payload) {
  Reader reader(payload);
  if (reader.u8() != static_cast<std::uint8_t>(MessageKind::kResponse)) {
    throw WireError("not a response message");
  }
  OffloadResponse response;
  response.id = reader.u64();
  response.service_protocol_ns = reader.i64();
  reader.expect_end();
  return response;
}

}  // namespace rt::net
