// Copyright (c) saedb authors. Licensed under the MIT license.
//
// Implements the party servers (net/server.h): one shared dispatch around
// each party's handler for its pinned wire messages.

#include "net/server.h"

#include <cstring>
#include <optional>

#include "core/messages.h"
#include "util/macros.h"

namespace sae::net {

using storage::Key;
using storage::Record;
using storage::RecordCodec;
using storage::RecordId;

namespace {

// Pinned message tags (core/messages.cc keeps these private; the values are
// part of the golden-pinned encodings, so they are as stable as wire bytes
// can be).
constexpr uint8_t kTagRecords = 0x01;
constexpr uint8_t kTagSignature = 0x04;
constexpr uint8_t kTagDelete = 0x05;
constexpr uint8_t kTagEpochNotice = 0x06;
constexpr uint8_t kTagQueryRequest = 0x09;

using Responses = std::vector<SharedPayload>;

/// A party's own tags: answers `request` (non-empty) into `out`, or returns
/// false when the party does not speak its tag.
using PartyHandler =
    std::function<bool(const std::vector<uint8_t>& request, Responses* out)>;

void Reply(const Status& st, Responses* out) {
  out->push_back(Share(st.ok() ? ControlFrame(kCtlAck) : ErrorFrame(st)));
}

// The dispatch every party endpoint shares: the empty frame, the epoch
// control op and the unknown-tag default around the party's own tags.
FrameHandler PartyDispatch(std::function<uint64_t()> epoch,
                           PartyHandler party) {
  return [epoch = std::move(epoch), party = std::move(party)](
             std::vector<uint8_t> request, Responses* out) {
    if (request.empty()) {
      out->push_back(Share(ErrorFrame(Status::Corruption("empty frame"))));
    } else if (request[0] == kCtlGetEpoch) {
      out->push_back(Share(core::SerializeEpochNotice(epoch())));
    } else if (!party(request, out)) {
      out->push_back(
          Share(ErrorFrame(Status::Corruption("unknown message tag"))));
    }
  };
}

// The query case both SPs share: the served answer frame, then under TOM
// (`with_proof`) the VO frame — exactly the in-process sends. The frames
// alias the SP's shared buffer: the socket sends the very bytes the answer
// cache holds.
void ServeQueryFrames(const core::ServiceProvider& sp,
                      const std::vector<uint8_t>& request, bool with_proof,
                      Responses* out) {
  auto req = core::DeserializeQueryRequest(request);
  auto served = req.ok() ? sp.ServeQuery(req.value())
                         : Result<std::shared_ptr<const core::CachedAnswer>>(
                               req.status());
  if (!served.ok()) {
    out->push_back(Share(ErrorFrame(served.status())));
    return;
  }
  const std::shared_ptr<const core::CachedAnswer>& answer = served.value();
  out->push_back(SharedPayload(answer, &answer->answer_msg));
  if (with_proof) out->push_back(SharedPayload(answer, &answer->proof_msg));
}

Status DeleteFrom(core::ServiceProvider* sp, RecordId id, Key /*key*/) {
  return sp->DeleteRecord(id);
}
Status DeleteFrom(core::TrustedEntity* te, RecordId id, Key key) {
  return te->DeleteRecord(key, id);
}

// The DO -> party update frames both SAE parties take: the first Records
// frame is the dataset and later ones are inserts, EpochNotice sets the
// epoch, Delete removes one record.
template <typename Party>
Status ApplySaeUpdate(Party* party, const RecordCodec& codec, bool* loaded,
                      const std::vector<uint8_t>& request) {
  if (request[0] == kTagEpochNotice) {
    SAE_ASSIGN_OR_RETURN(uint64_t epoch,
                         core::DeserializeEpochNotice(request));
    party->SetEpoch(epoch);
    return Status::OK();
  }
  if (request[0] == kTagDelete) {
    SAE_ASSIGN_OR_RETURN(auto del, core::DeserializeDelete(request));
    return DeleteFrom(party, del.first, del.second);
  }
  SAE_ASSIGN_OR_RETURN(std::vector<Record> records,
                       core::DeserializeRecords(request, codec));
  if (*loaded) {
    for (const Record& record : records) {
      SAE_RETURN_NOT_OK(party->InsertRecord(record));
    }
    return Status::OK();
  }
  SAE_RETURN_NOT_OK(party->LoadDataset(records));
  *loaded = true;
  return Status::OK();
}

// An SAE party's handler: `serve` answers queries, and the update frames
// go to ApplySaeUpdate. `codec` is the party's own.
template <typename Party, typename Serve>
FrameHandler SaeHandler(Party* party, const RecordCodec* codec, Serve serve) {
  return PartyDispatch(
      [party] { return party->epoch(); },
      [party, codec, serve, loaded = false](
          const std::vector<uint8_t>& request, Responses* out) mutable {
        const uint8_t tag = request[0];
        if (tag == kTagQueryRequest) {
          serve(request, out);
        } else if (tag == kTagRecords || tag == kTagEpochNotice ||
                   tag == kTagDelete) {
          Reply(ApplySaeUpdate(party, *codec, &loaded, request), out);
        } else {
          return false;
        }
        return true;
      });
}

// The TOM SP's own tags. Its load/update protocol buffers a Records or
// Delete frame until the DO's Signature frame commits it with its epoch; a
// Signature frame on its own installs a re-signed root.
class TomSpHandler {
 public:
  explicit TomSpHandler(core::TomServiceProvider* sp) : sp_(sp) {}

  bool operator()(const std::vector<uint8_t>& request, Responses* out) {
    switch (request[0]) {
      case kTagQueryRequest:
        ServeQueryFrames(*sp_, request, /*with_proof=*/true, out);
        return true;
      case kTagRecords:
      case kTagDelete:
        Reply(Stage(request), out);
        return true;
      case kTagSignature:
        Reply(Commit(request), out);
        return true;
      default:
        return false;
    }
  }

 private:
  Status Stage(const std::vector<uint8_t>& request) {
    if (request[0] == kTagRecords) {
      SAE_ASSIGN_OR_RETURN(records_, core::DeserializeRecords(
                                         request, sp_->table().codec()));
      return Status::OK();
    }
    SAE_ASSIGN_OR_RETURN(auto del, core::DeserializeDelete(request));
    delete_ = del.first;
    return Status::OK();
  }

  Status Commit(const std::vector<uint8_t>& request) {
    SAE_ASSIGN_OR_RETURN(auto sig, core::DeserializeSignature(request));
    auto [signature, epoch] = std::move(sig);
    Status st;
    if (records_.has_value() && !loaded_) {
      st = sp_->LoadDataset(*records_, std::move(signature), epoch);
      loaded_ = st.ok();
    } else if (records_.has_value()) {
      for (const Record& record : *records_) {
        st = sp_->ApplyInsert(record, signature, epoch);
        if (!st.ok()) break;
      }
    } else if (delete_.has_value()) {
      st = sp_->ApplyDelete(*delete_, std::move(signature), epoch);
    } else {
      sp_->SetSignature(std::move(signature), epoch);
    }
    records_.reset();
    delete_.reset();
    return st;
  }

  core::TomServiceProvider* sp_;
  bool loaded_ = false;
  std::optional<std::vector<Record>> records_;
  std::optional<RecordId> delete_;
};

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

SpServer::SpServer(core::ServiceProvider* sp, FrameServerOptions options)
    : FrameServer(options,
                  SaeHandler(sp, &sp->table().codec(),
                             [sp](const std::vector<uint8_t>& request,
                                  Responses* out) {
                               ServeQueryFrames(*sp, request,
                                                /*with_proof=*/false, out);
                             })) {}

TeServer::TeServer(core::TrustedEntity* te, FrameServerOptions options)
    : FrameServer(
          options,
          SaeHandler(te, &te->codec(), [te](const std::vector<uint8_t>& request,
                                            Responses* out) {
            auto req = core::DeserializeQueryRequest(request);
            auto vt = req.ok() ? te->GenerateVt(req.value())
                               : Result<core::VerificationToken>(req.status());
            out->push_back(Share(vt.ok() ? core::SerializeVt(vt.value())
                                         : ErrorFrame(vt.status())));
          })) {}

TomSpServer::TomSpServer(core::TomServiceProvider* sp,
                         FrameServerOptions options)
    : FrameServer(options, PartyDispatch([sp] { return sp->epoch(); },
                                         TomSpHandler(sp))) {}

OwnerServer::OwnerServer(std::function<uint64_t()> epoch_fn,
                         FrameServerOptions options)
    : FrameServer(options,
                  PartyDispatch(std::move(epoch_fn),
                                [](const std::vector<uint8_t>&, Responses*) {
                                  return false;
                                })) {}

}  // namespace sae::net
