// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the length-prefixed frame codec (net/frame.h).

#include "net/frame.h"

#include <cstring>

#include "util/codec.h"

namespace sae::net {

void AppendFrame(std::vector<uint8_t>* out, const uint8_t* payload,
                 size_t len) {
  // Size once, then copy: GCC proves these bounds, not vector::insert's.
  size_t at = out->size();
  out->resize(at + kFrameHeaderBytes + len);
  uint8_t* frame = out->data() + at;
  EncodeU32(frame, uint32_t(len));
  if (len != 0) std::memcpy(frame + kFrameHeaderBytes, payload, len);
}

std::vector<uint8_t> EncodeFrame(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(&out, payload.data(), payload.size());
  return out;
}

bool FrameDecoder::Feed(const uint8_t* data, size_t len) {
  if (failed_) return false;
  size_t pos = 0;
  // An empty payload closes with its header, before any further byte.
  while (pos < len || (in_payload_ && payload_target_ == 0)) {
    if (!in_payload_) {
      // Accumulate the 4-byte header, then validate the declared length
      // BEFORE reserving a single payload byte.
      size_t take = kFrameHeaderBytes - header_len_;
      if (take > len - pos) take = len - pos;
      std::memcpy(header_ + header_len_, data + pos, take);
      header_len_ += take;
      pos += take;
      if (header_len_ < kFrameHeaderBytes) return true;  // header still open
      uint32_t declared = DecodeU32(header_);
      if (declared > max_payload_) {
        failed_ = true;
        error_ = "frame length " + std::to_string(declared) +
                 " exceeds max payload " + std::to_string(max_payload_);
        return false;
      }
      header_len_ = 0;
      in_payload_ = true;
      payload_target_ = declared;
      payload_.clear();
      payload_.reserve(declared);
      continue;
    }
    size_t take = payload_target_ - payload_.size();
    if (take > len - pos) take = len - pos;
    payload_.insert(payload_.end(), data + pos, data + pos + take);
    pos += take;
    if (payload_.size() == payload_target_) {
      ready_.push_back(std::move(payload_));
      payload_ = {};
      in_payload_ = false;
      payload_target_ = 0;
    }
  }
  return true;
}

bool FrameDecoder::Next(std::vector<uint8_t>* frame) {
  if (ready_.empty()) return false;
  *frame = std::move(ready_.front());
  ready_.erase(ready_.begin());
  return true;
}

}  // namespace sae::net
