#include "src/serve/wire.h"

namespace pad {
namespace {

size_t ResponsePayloadBytes(const WireResponse& response) {
  return kResponseHeaderBytes + response.ads.size() * kResponseAdBytes;
}

void WriteRequest(const WireRequest& request, ByteWriter& out) {
  out.U8(kWireVersion)
      .U8(kFrameRequest)
      .U64(request.client_id)
      .U32(request.slot_count)
      .F64(request.deadline_s);
}

void WriteResponse(const WireResponse& response, ByteWriter& out) {
  out.U8(kWireVersion)
      .U8(kFrameResponse)
      .U8(static_cast<uint8_t>(response.status))
      .U8(static_cast<uint8_t>(response.decision))
      .U32(static_cast<uint32_t>(response.ads.size()));
  for (const WireAd& ad : response.ads) {
    out.I64(ad.campaign_id).F64(ad.price_usd);
  }
}

Status CheckHeader(std::span<const uint8_t> payload, uint8_t expected_type) {
  if (payload.size() < 2) {
    return Status::InvalidArgument("payload shorter than the two-byte header");
  }
  if (payload[0] != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " +
                                   std::to_string(static_cast<int>(payload[0])));
  }
  if (payload[1] != expected_type) {
    return Status::InvalidArgument("unexpected frame type " +
                                   std::to_string(static_cast<int>(payload[1])));
  }
  return Status::Ok();
}

}  // namespace

std::string EncodeRequestPayload(const WireRequest& request) {
  std::string out;
  out.reserve(kRequestPayloadBytes);
  ByteWriter writer(&out);
  WriteRequest(request, writer);
  return out;
}

std::string EncodeResponsePayload(const WireResponse& response) {
  std::string out;
  out.reserve(ResponsePayloadBytes(response));
  ByteWriter writer(&out);
  WriteResponse(response, writer);
  return out;
}

// The frame encoders write the length prefix (known from the message shape)
// and then the payload straight into `out`: no temporary payload string.
void AppendRequestFrame(const WireRequest& request, std::string* out) {
  ByteWriter writer(out);
  writer.U32(static_cast<uint32_t>(kRequestPayloadBytes));
  WriteRequest(request, writer);
}

void AppendResponseFrame(const WireResponse& response, std::string* out) {
  ByteWriter writer(out);
  writer.U32(static_cast<uint32_t>(ResponsePayloadBytes(response)));
  WriteResponse(response, writer);
}

StatusOr<WireRequest> DecodeRequestPayload(std::span<const uint8_t> payload) {
  PAD_RETURN_IF_ERROR(CheckHeader(payload, kFrameRequest));
  if (payload.size() != kRequestPayloadBytes) {
    return Status::InvalidArgument("request payload is " + std::to_string(payload.size()) +
                                   " bytes, expected " + std::to_string(kRequestPayloadBytes));
  }
  ByteReader in(payload.subspan(2));
  WireRequest request;
  request.client_id = in.U64();
  request.slot_count = in.U32();
  request.deadline_s = in.F64();
  return request;
}

StatusOr<WireResponse> DecodeResponsePayload(std::span<const uint8_t> payload) {
  PAD_RETURN_IF_ERROR(CheckHeader(payload, kFrameResponse));
  if (payload.size() < kResponseHeaderBytes) {
    return Status::InvalidArgument("response payload truncated at " +
                                   std::to_string(payload.size()) + " bytes");
  }
  ByteReader in(payload.subspan(2));
  const uint8_t status = in.U8();
  if (status > static_cast<uint8_t>(ResponseStatus::kUnknownClient)) {
    return Status::InvalidArgument("unknown response status " + std::to_string(status));
  }
  const uint8_t decision = in.U8();
  if (decision > static_cast<uint8_t>(DecisionKind::kRealtime)) {
    return Status::InvalidArgument("unknown decision kind " + std::to_string(decision));
  }
  const uint32_t ad_count = in.U32();
  const size_t expected = kResponseHeaderBytes + static_cast<size_t>(ad_count) * kResponseAdBytes;
  if (payload.size() != expected) {
    return Status::InvalidArgument("response declares " + std::to_string(ad_count) +
                                   " ads but carries " + std::to_string(payload.size()) +
                                   " bytes, expected " + std::to_string(expected));
  }
  WireResponse response;
  response.status = static_cast<ResponseStatus>(status);
  response.decision = static_cast<DecisionKind>(decision);
  response.ads.resize(ad_count);
  for (WireAd& ad : response.ads) {
    ad.campaign_id = in.I64();
    ad.price_usd = in.F64();
  }
  return response;
}

}  // namespace pad
