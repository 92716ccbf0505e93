#include "orb/message.hpp"

namespace clc::orb {

namespace {
constexpr std::uint8_t kMagic[4] = {'C', 'L', 'C', 'P'};
constexpr std::uint8_t kVersion = 1;

void write_frame_header(CdrWriter& w, MessageType type) {
  for (std::uint8_t m : kMagic) w.write_octet(m);
  w.write_octet(kVersion);
  w.write_octet(static_cast<std::uint8_t>(type));
  w.begin_encapsulation();
}

/// Worst-case encoded size of a service-context block (count + per-entry
/// id/length words, padding included), for pre-sizing frame buffers.
std::size_t contexts_size_hint(const std::vector<ServiceContext>& contexts) {
  if (contexts.empty()) return 0;
  std::size_t n = 8;
  for (const auto& c : contexts) n += 12 + c.data.size();
  return n;
}

// Service contexts trail the regular fields: count, then id + data per
// entry. Writers omit the block entirely when there are no contexts, which
// keeps new frames byte-identical to pre-context ones.
void write_service_contexts(CdrWriter& w,
                            const std::vector<ServiceContext>& contexts) {
  if (contexts.empty()) return;
  w.write_ulong(static_cast<std::uint32_t>(contexts.size()));
  for (const auto& c : contexts) {
    w.write_ulong(c.id);
    w.write_bytes(c.data);
  }
}

Result<std::vector<ServiceContext>> read_service_contexts(CdrReader& r) {
  std::vector<ServiceContext> contexts;
  if (r.exhausted()) return contexts;  // frame from a pre-context encoder
  auto count = r.read_ulong();
  if (!count) return count.error();
  // Each entry needs at least an id word and a length word: a larger count
  // is corrupt, and must not size the reserve below.
  if (*count > r.remaining() / 8)
    return Error{Errc::corrupt_data, "service context count exceeds frame"};
  contexts.reserve(*count);
  for (std::uint32_t i = 0; i < *count; ++i) {
    auto id = r.read_ulong();
    if (!id) return id.error();
    auto data = r.read_bytes();
    if (!data) return data.error();
    contexts.push_back(ServiceContext{*id, std::move(*data)});
  }
  return contexts;
}
}  // namespace

Result<MessageType> decode_frame_header(CdrReader& r) {
  for (std::uint8_t expect : kMagic) {
    auto b = r.read_octet();
    if (!b) return b.error();
    if (*b != expect) return Error{Errc::corrupt_data, "bad message magic"};
  }
  auto version = r.read_octet();
  if (!version) return version.error();
  if (*version != kVersion)
    return Error{Errc::unsupported,
                 "protocol version " + std::to_string(*version)};
  auto type = r.read_octet();
  if (!type) return type.error();
  if (*type > static_cast<std::uint8_t>(MessageType::pong))
    return Error{Errc::corrupt_data, "bad message type"};
  if (auto enc = r.begin_encapsulation(); !enc.ok()) {
    // Control frames have no encapsulation; tolerate EOF for those.
    const auto t = static_cast<MessageType>(*type);
    if (t == MessageType::ping || t == MessageType::pong) return t;
    return enc.error();
  }
  return static_cast<MessageType>(*type);
}

Bytes encode_control(MessageType type) {
  CdrWriter w;
  for (std::uint8_t m : kMagic) w.write_octet(m);
  w.write_octet(kVersion);
  w.write_octet(static_cast<std::uint8_t>(type));
  return w.take();
}

Bytes RequestMessage::encode() const {
  CdrWriter w;
  // Header + fixed fields + strings (length word, NUL, padding) + args
  // blob + contexts: generous enough that encoding never reallocates.
  w.reserve(64 + interface_name.size() + operation.size() + args.size() +
            contexts_size_hint(service_contexts));
  write_frame_header(w, MessageType::request);
  w.write_ulonglong(request_id.value);
  w.write_ulonglong(object_key.hi);
  w.write_ulonglong(object_key.lo);
  w.write_string(interface_name);
  w.write_string(operation);
  w.write_boolean(response_expected);
  w.write_bytes(args);
  write_service_contexts(w, service_contexts);
  return w.take();
}

Result<RequestMessage> RequestMessage::decode(CdrReader& r) {
  RequestMessage m;
  auto id = r.read_ulonglong();
  if (!id) return id.error();
  m.request_id = RequestId{*id};
  auto hi = r.read_ulonglong();
  if (!hi) return hi.error();
  auto lo = r.read_ulonglong();
  if (!lo) return lo.error();
  m.object_key = Uuid{*hi, *lo};
  auto iface = r.read_string();
  if (!iface) return iface.error();
  m.interface_name = std::move(*iface);
  auto op = r.read_string();
  if (!op) return op.error();
  m.operation = std::move(*op);
  auto expected = r.read_boolean();
  if (!expected) return expected.error();
  m.response_expected = *expected;
  auto args = r.read_bytes();
  if (!args) return args.error();
  m.args = std::move(*args);
  auto contexts = read_service_contexts(r);
  if (!contexts) return contexts.error();
  m.service_contexts = std::move(*contexts);
  return m;
}

Bytes ReplyMessage::encode() const {
  CdrWriter w;
  w.reserve(48 + exception_id.size() + payload.size() +
            contexts_size_hint(service_contexts));
  write_frame_header(w, MessageType::reply);
  w.write_ulonglong(request_id.value);
  w.write_octet(static_cast<std::uint8_t>(status));
  w.write_string(exception_id);
  w.write_bytes(payload);
  write_service_contexts(w, service_contexts);
  return w.take();
}

Result<ReplyMessage> ReplyMessage::decode(CdrReader& r) {
  ReplyMessage m;
  auto id = r.read_ulonglong();
  if (!id) return id.error();
  m.request_id = RequestId{*id};
  auto status = r.read_octet();
  if (!status) return status.error();
  if (*status > static_cast<std::uint8_t>(ReplyStatus::busy))
    return Error{Errc::corrupt_data, "bad reply status"};
  m.status = static_cast<ReplyStatus>(*status);
  auto ex = r.read_string();
  if (!ex) return ex.error();
  m.exception_id = std::move(*ex);
  auto payload = r.read_bytes();
  if (!payload) return payload.error();
  m.payload = std::move(*payload);
  auto contexts = read_service_contexts(r);
  if (!contexts) return contexts.error();
  m.service_contexts = std::move(*contexts);
  return m;
}

Bytes ZoneContext::encode() const {
  CdrWriter w;
  w.begin_encapsulation();
  w.write_ulong(zone);
  w.write_ulonglong(zone_epoch);
  return w.take();
}

std::optional<ZoneContext> ZoneContext::decode(BytesView data) {
  CdrReader r(data);
  if (auto enc = r.begin_encapsulation(); !enc.ok()) return std::nullopt;
  auto zone = r.read_ulong();
  auto epoch = r.read_ulonglong();
  if (!zone || !epoch) return std::nullopt;
  ZoneContext ctx;
  ctx.zone = *zone;
  ctx.zone_epoch = *epoch;
  return ctx;
}

void ZoneContext::attach(std::vector<ServiceContext>& contexts) const {
  for (auto& c : contexts) {
    if (c.id == kZoneContextId) {
      c.data = encode();
      return;
    }
  }
  contexts.push_back({kZoneContextId, encode()});
}

std::optional<ZoneContext> ZoneContext::find(
    const std::vector<ServiceContext>& contexts) {
  for (const auto& c : contexts)
    if (c.id == kZoneContextId) return decode(c.data);
  return std::nullopt;
}

Bytes CreditContext::encode() const {
  CdrWriter w;
  w.begin_encapsulation();
  w.write_ulong(window);
  w.write_ulonglong(queue_delay_us);
  return w.take();
}

std::optional<CreditContext> CreditContext::decode(BytesView data) {
  CdrReader r(data);
  if (auto enc = r.begin_encapsulation(); !enc.ok()) return std::nullopt;
  auto window = r.read_ulong();
  auto delay = r.read_ulonglong();
  if (!window || !delay) return std::nullopt;
  CreditContext ctx;
  ctx.window = *window;
  ctx.queue_delay_us = *delay;
  return ctx;
}

void CreditContext::attach(std::vector<ServiceContext>& contexts) const {
  for (auto& c : contexts) {
    if (c.id == kCreditContextId) {
      c.data = encode();
      return;
    }
  }
  contexts.push_back({kCreditContextId, encode()});
}

std::optional<CreditContext> CreditContext::find(
    const std::vector<ServiceContext>& contexts) {
  for (const auto& c : contexts)
    if (c.id == kCreditContextId) return decode(c.data);
  return std::nullopt;
}

}  // namespace clc::orb
