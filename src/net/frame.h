// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Length-prefixed framing for the TCP serving tier. A frame is a u32
// little-endian payload length followed by exactly that many payload bytes;
// the payload is one of the golden-pinned wire messages (core/messages.h)
// byte-for-byte, so nothing about the in-process serializations changes
// when they cross a socket.
//
// The decoder is incremental: feed it whatever a nonblocking read returned
// (a frame split across ten reads, or ten frames in one read, both work) and
// pop complete frames as they close. A declared length beyond the configured
// maximum poisons the stream *at header-parse time* — before any payload
// buffer is allocated — which is the up-front guard a hostile length prefix
// must hit (ByteReader's own bounds check only fires after the payload has
// been accepted as a message).

#ifndef SAE_NET_FRAME_H_
#define SAE_NET_FRAME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace sae::net {

/// Frame header: u32 LE payload length.
inline constexpr size_t kFrameHeaderBytes = 4;

/// Default ceiling on a single frame's payload. Generous enough for a full
/// dataset shipment at bench scale, small enough that a lying length field
/// can never commit the peer to a multi-gigabyte allocation.
inline constexpr size_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// One response frame's payload: immutable and shared, so a buffer the SP
/// also holds in its answer cache goes onto the socket without a copy.
using SharedPayload = std::shared_ptr<const std::vector<uint8_t>>;

/// Wraps an owned payload for the response queue.
inline SharedPayload Share(std::vector<uint8_t> payload) {
  return std::make_shared<const std::vector<uint8_t>>(std::move(payload));
}

/// Appends one frame (header + payload) to `out`.
void AppendFrame(std::vector<uint8_t>* out, const uint8_t* payload,
                 size_t len);

/// One frame as a fresh buffer.
std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload);

/// Incremental frame parser for one connection's byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Consumes `len` stream bytes. Returns false once the stream is poisoned
  /// (oversized declared length); the connection should be dropped — every
  /// later Feed/Next keeps failing, nothing gets buffered.
  bool Feed(const uint8_t* data, size_t len);

  /// Moves the next complete frame payload into `*frame`; false when no
  /// complete frame is buffered (or the stream is poisoned).
  bool Next(std::vector<uint8_t>* frame);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }

  /// Stream bytes consumed by the frame currently in flight (its header +
  /// partial payload; popped frames excluded). Bounded by max_payload +
  /// header even under hostile input.
  size_t buffered() const {
    return header_len_ + (in_payload_ ? kFrameHeaderBytes : 0) +
           payload_.size();
  }

 private:
  size_t max_payload_;
  bool failed_ = false;
  std::string error_;

  // Header accumulator (partial reads may split even the 4-byte prefix).
  uint8_t header_[kFrameHeaderBytes] = {0, 0, 0, 0};
  size_t header_len_ = 0;

  // Payload accumulator; sized only after the declared length passes the
  // max_payload_ guard.
  bool in_payload_ = false;
  size_t payload_target_ = 0;
  std::vector<uint8_t> payload_;

  // Frames that closed but have not been popped yet.
  std::vector<std::vector<uint8_t>> ready_;
};

}  // namespace sae::net

#endif  // SAE_NET_FRAME_H_
