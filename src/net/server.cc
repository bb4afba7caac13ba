// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the party servers (net/server.h): tag-dispatched handlers over
// the pinned wire messages plus the epoch control op.

#include "net/server.h"

#include <cstring>

#include "core/messages.h"
#include "mbtree/vo.h"

namespace sae::net {

using storage::Record;
using storage::RecordCodec;

namespace {

// Pinned message tags (core/messages.cc keeps these private; the values are
// part of the golden-pinned encodings, so they are as stable as wire bytes
// can be).
constexpr uint8_t kTagRecords = 0x01;
constexpr uint8_t kTagSignature = 0x04;
constexpr uint8_t kTagDelete = 0x05;
constexpr uint8_t kTagEpochNotice = 0x06;
constexpr uint8_t kTagQueryRequest = 0x09;

// The frames of a served answer alias the SP's shared buffer: the socket
// sends the very bytes the answer cache holds.
SharedPayload AnswerFrame(const std::shared_ptr<const core::CachedAnswer>& a) {
  return SharedPayload(a, &a->answer_msg);
}
SharedPayload ProofFrame(const std::shared_ptr<const core::CachedAnswer>& a) {
  return SharedPayload(a, &a->proof_msg);
}

// The query case both SPs share: the served answer frame, then under TOM
// (`with_proof`) the VO frame — exactly the in-process sends.
void ServeQueryFrames(const core::ServiceProvider& sp,
                      const std::vector<uint8_t>& request, bool with_proof,
                      std::vector<SharedPayload>* responses) {
  auto req = core::DeserializeQueryRequest(request);
  if (!req.ok()) {
    responses->push_back(Share(ErrorFrame(req.status())));
    return;
  }
  auto served = sp.ServeQuery(req.value());
  if (!served.ok()) {
    responses->push_back(Share(ErrorFrame(served.status())));
    return;
  }
  responses->push_back(AnswerFrame(served.value()));
  if (with_proof) responses->push_back(ProofFrame(served.value()));
}

}  // namespace

std::vector<uint8_t> ControlFrame(uint8_t tag) { return {tag}; }

std::vector<uint8_t> ErrorFrame(const Status& status) {
  const std::string& msg = status.message();
  std::vector<uint8_t> payload(1 + msg.size());
  payload[0] = kCtlError;
  if (!msg.empty()) std::memcpy(payload.data() + 1, msg.data(), msg.size());
  return payload;
}

std::string DecodeErrorFrame(const std::vector<uint8_t>& payload) {
  if (payload.empty() || payload[0] != kCtlError) return "";
  return std::string(payload.begin() + 1, payload.end());
}

// --- SAE service provider -------------------------------------------------------

SpServer::SpServer(core::ServiceProvider* sp, FrameServerOptions options)
    : sp_(sp),
      server_(options, [this](std::vector<uint8_t> request,
                              std::vector<SharedPayload>* responses) {
        Handle(std::move(request), responses);
      }) {}

void SpServer::Handle(std::vector<uint8_t> request,
                      std::vector<SharedPayload>* responses) {
  const RecordCodec& codec = sp_->table().codec();
  if (request.empty()) {
    responses->push_back(Share(ErrorFrame(Status::Corruption("empty frame"))));
    return;
  }
  switch (request[0]) {
    case kTagQueryRequest:
      ServeQueryFrames(*sp_, request, /*with_proof=*/false, responses);
      return;
    case kTagRecords: {
      auto records = core::DeserializeRecords(request, codec);
      if (!records.ok()) {
        responses->push_back(Share(ErrorFrame(records.status())));
        return;
      }
      Status st;
      if (!loaded_) {
        st = sp_->LoadDataset(records.value());
        loaded_ = st.ok();
      } else {
        for (const Record& record : records.value()) {
          st = sp_->InsertRecord(record);
          if (!st.ok()) break;
        }
      }
      responses->push_back(
          Share(st.ok() ? ControlFrame(kCtlAck) : ErrorFrame(st)));
      return;
    }
    case kTagEpochNotice: {
      auto epoch = core::DeserializeEpochNotice(request);
      if (!epoch.ok()) {
        responses->push_back(Share(ErrorFrame(epoch.status())));
        return;
      }
      sp_->SetEpoch(epoch.value());
      responses->push_back(Share(ControlFrame(kCtlAck)));
      return;
    }
    case kTagDelete: {
      auto del = core::DeserializeDelete(request);
      if (!del.ok()) {
        responses->push_back(Share(ErrorFrame(del.status())));
        return;
      }
      Status st = sp_->DeleteRecord(del.value().first);
      responses->push_back(
          Share(st.ok() ? ControlFrame(kCtlAck) : ErrorFrame(st)));
      return;
    }
    case kCtlGetEpoch:
      responses->push_back(Share(core::SerializeEpochNotice(sp_->epoch())));
      return;
    default:
      responses->push_back(
          Share(ErrorFrame(Status::Corruption("unknown message tag"))));
  }
}

// --- SAE trusted entity ---------------------------------------------------------

TeServer::TeServer(core::TrustedEntity* te, FrameServerOptions options)
    : te_(te),
      server_(options, [this](std::vector<uint8_t> request,
                              std::vector<SharedPayload>* responses) {
        Handle(std::move(request), responses);
      }) {}

void TeServer::Handle(std::vector<uint8_t> request,
                      std::vector<SharedPayload>* responses) {
  if (request.empty()) {
    responses->push_back(Share(ErrorFrame(Status::Corruption("empty frame"))));
    return;
  }
  switch (request[0]) {
    case kTagQueryRequest: {
      auto req = core::DeserializeQueryRequest(request);
      if (!req.ok()) {
        responses->push_back(Share(ErrorFrame(req.status())));
        return;
      }
      auto vt = te_->GenerateVt(req.value());
      if (!vt.ok()) {
        responses->push_back(Share(ErrorFrame(vt.status())));
        return;
      }
      responses->push_back(Share(core::SerializeVt(vt.value())));
      return;
    }
    case kTagRecords: {
      auto records = core::DeserializeRecords(request, te_->codec());
      if (!records.ok()) {
        responses->push_back(Share(ErrorFrame(records.status())));
        return;
      }
      Status st;
      if (!loaded_) {
        st = te_->LoadDataset(records.value());
        loaded_ = st.ok();
      } else {
        for (const Record& record : records.value()) {
          st = te_->InsertRecord(record);
          if (!st.ok()) break;
        }
      }
      responses->push_back(
          Share(st.ok() ? ControlFrame(kCtlAck) : ErrorFrame(st)));
      return;
    }
    case kTagEpochNotice: {
      auto epoch = core::DeserializeEpochNotice(request);
      if (!epoch.ok()) {
        responses->push_back(Share(ErrorFrame(epoch.status())));
        return;
      }
      te_->SetEpoch(epoch.value());
      responses->push_back(Share(ControlFrame(kCtlAck)));
      return;
    }
    case kTagDelete: {
      auto del = core::DeserializeDelete(request);
      if (!del.ok()) {
        responses->push_back(Share(ErrorFrame(del.status())));
        return;
      }
      Status st =
          te_->DeleteRecord(del.value().second, del.value().first);
      responses->push_back(
          Share(st.ok() ? ControlFrame(kCtlAck) : ErrorFrame(st)));
      return;
    }
    case kCtlGetEpoch:
      responses->push_back(Share(core::SerializeEpochNotice(te_->epoch())));
      return;
    default:
      responses->push_back(
          Share(ErrorFrame(Status::Corruption("unknown message tag"))));
  }
}

// --- TOM service provider -------------------------------------------------------

TomSpServer::TomSpServer(core::TomServiceProvider* sp,
                         FrameServerOptions options)
    : sp_(sp),
      server_(options, [this](std::vector<uint8_t> request,
                              std::vector<SharedPayload>* responses) {
        Handle(std::move(request), responses);
      }) {}

void TomSpServer::Handle(std::vector<uint8_t> request,
                         std::vector<SharedPayload>* responses) {
  const RecordCodec& codec = sp_->table().codec();
  if (request.empty()) {
    responses->push_back(Share(ErrorFrame(Status::Corruption("empty frame"))));
    return;
  }
  switch (request[0]) {
    case kTagQueryRequest:
      ServeQueryFrames(*sp_, request, /*with_proof=*/true, responses);
      return;
    case kTagRecords: {
      // The TOM load/update protocol pairs data with the DO's signature:
      // records (or a delete) are buffered until the Signature frame
      // commits them with its epoch.
      auto records = core::DeserializeRecords(request, codec);
      if (!records.ok()) {
        responses->push_back(Share(ErrorFrame(records.status())));
        return;
      }
      pending_records_ = std::move(records).ValueOrDie();
      has_pending_records_ = true;
      responses->push_back(Share(ControlFrame(kCtlAck)));
      return;
    }
    case kTagDelete: {
      auto del = core::DeserializeDelete(request);
      if (!del.ok()) {
        responses->push_back(Share(ErrorFrame(del.status())));
        return;
      }
      pending_delete_ = del.value().first;
      has_pending_delete_ = true;
      responses->push_back(Share(ControlFrame(kCtlAck)));
      return;
    }
    case kTagSignature: {
      auto sig = core::DeserializeSignature(request);
      if (!sig.ok()) {
        responses->push_back(Share(ErrorFrame(sig.status())));
        return;
      }
      auto [signature, epoch] = std::move(sig).ValueOrDie();
      Status st;
      if (has_pending_records_ && !loaded_) {
        st = sp_->LoadDataset(pending_records_, std::move(signature), epoch);
        loaded_ = st.ok();
      } else if (has_pending_records_) {
        for (const Record& record : pending_records_) {
          st = sp_->ApplyInsert(record, signature, epoch);
          if (!st.ok()) break;
        }
      } else if (has_pending_delete_) {
        st = sp_->ApplyDelete(pending_delete_, std::move(signature), epoch);
      } else {
        sp_->SetSignature(std::move(signature), epoch);
      }
      pending_records_.clear();
      has_pending_records_ = false;
      has_pending_delete_ = false;
      responses->push_back(
          Share(st.ok() ? ControlFrame(kCtlAck) : ErrorFrame(st)));
      return;
    }
    case kCtlGetEpoch:
      responses->push_back(Share(core::SerializeEpochNotice(sp_->epoch())));
      return;
    default:
      responses->push_back(
          Share(ErrorFrame(Status::Corruption("unknown message tag"))));
  }
}

// --- data owner epoch endpoint --------------------------------------------------

OwnerServer::OwnerServer(std::function<uint64_t()> epoch_fn,
                         FrameServerOptions options)
    : epoch_fn_(std::move(epoch_fn)),
      server_(options, [this](std::vector<uint8_t> request,
                              std::vector<SharedPayload>* responses) {
        Handle(std::move(request), responses);
      }) {}

void OwnerServer::Handle(std::vector<uint8_t> request,
                         std::vector<SharedPayload>* responses) {
  if (request.empty()) {
    responses->push_back(Share(ErrorFrame(Status::Corruption("empty frame"))));
    return;
  }
  switch (request[0]) {
    case kCtlGetEpoch:
      responses->push_back(Share(core::SerializeEpochNotice(epoch_fn_())));
      return;
    default:
      responses->push_back(
          Share(ErrorFrame(Status::Corruption("unknown message tag"))));
  }
}

}  // namespace sae::net
