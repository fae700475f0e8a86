#include "tsu/proto/codec.hpp"

#include "tsu/proto/bytes.hpp"

namespace tsu::proto {

namespace {

constexpr std::size_t kHeaderSize = 8;
constexpr std::size_t kMaxFrame = 1u << 16;

// Big-endian u16 at `at` (the header's length field sits at offset 2).
std::size_t read_u16(std::span<const std::byte> frame, std::size_t at) {
  return static_cast<std::size_t>(static_cast<std::uint8_t>(frame[at])) << 8 |
         static_cast<std::size_t>(static_cast<std::uint8_t>(frame[at + 1]));
}

MsgType type_of(std::span<const std::byte> frame) {
  TSU_ASSERT_MSG(frame.size() >= kHeaderSize, "frame smaller than header");
  return static_cast<MsgType>(frame[1]);
}

// Match wire format: presence bitmap + present fields.
enum MatchBits : std::uint8_t {
  kHasFlow = 1u << 0,
  kHasSrc = 1u << 1,
  kHasDst = 1u << 2,
  kHasInPort = 1u << 3,
};

void encode_match(Writer& w, const flow::Match& match) {
  std::uint8_t bits = 0;
  if (match.flow.has_value()) bits |= kHasFlow;
  if (match.src_host.has_value()) bits |= kHasSrc;
  if (match.dst_host.has_value()) bits |= kHasDst;
  if (match.in_port.has_value()) bits |= kHasInPort;
  w.u8(bits);
  if (match.flow.has_value()) w.u64(*match.flow);
  if (match.src_host.has_value()) w.u32(*match.src_host);
  if (match.dst_host.has_value()) w.u32(*match.dst_host);
  if (match.in_port.has_value()) w.u32(*match.in_port);
}

Result<flow::Match> decode_match(Reader& r) {
  flow::Match match;
  const Result<std::uint8_t> bits = r.u8();
  if (!bits.ok()) return bits.error();
  if ((bits.value() & kHasFlow) != 0) {
    const Result<std::uint64_t> v = r.u64();
    if (!v.ok()) return v.error();
    match.flow = v.value();
  }
  if ((bits.value() & kHasSrc) != 0) {
    const Result<std::uint32_t> v = r.u32();
    if (!v.ok()) return v.error();
    match.src_host = v.value();
  }
  if ((bits.value() & kHasDst) != 0) {
    const Result<std::uint32_t> v = r.u32();
    if (!v.ok()) return v.error();
    match.dst_host = v.value();
  }
  if ((bits.value() & kHasInPort) != 0) {
    const Result<std::uint32_t> v = r.u32();
    if (!v.ok()) return v.error();
    match.in_port = v.value();
  }
  return match;
}

void encode_action(Writer& w, const flow::Action& action) {
  w.u8(static_cast<std::uint8_t>(action.kind));
  w.u32(action.port);
}

Result<flow::Action> decode_action(Reader& r) {
  const Result<std::uint8_t> kind = r.u8();
  if (!kind.ok()) return kind.error();
  if (kind.value() > static_cast<std::uint8_t>(flow::ActionKind::kDrop))
    return make_error(Errc::kParseError, "unknown action kind");
  const Result<std::uint32_t> port = r.u32();
  if (!port.ok()) return port.error();
  return flow::Action{static_cast<flow::ActionKind>(kind.value()),
                      port.value()};
}

// Appends one complete self-delimiting frame (header + body) to `w` at its
// current position. Batch elements recurse through this with the SAME
// writer, so a nested frame is laid down in place instead of round-tripping
// through a per-element temporary vector.
void encode_frame(Writer& w, const Message& message);

struct BodyEncoder {
  Writer& w;

  void operator()(const Hello&) const {}
  void operator()(const Error& e) const {
    w.u16(e.code);
    w.u16(static_cast<std::uint16_t>(e.text.size()));
    w.bytes(std::as_bytes(std::span(e.text.data(), e.text.size())));
  }
  void operator()(const Echo& e) const { w.bytes(e.payload); }
  void operator()(const FeaturesRequest&) const {}
  void operator()(const FeaturesReply& f) const {
    w.u64(f.datapath);
    w.u32(f.n_tables);
  }
  void operator()(const FlowMod& mod) const {
    w.u8(static_cast<std::uint8_t>(mod.command));
    w.u8(mod.table);
    w.u16(mod.priority);
    w.u64(mod.cookie);
    encode_match(w, mod.match);
    encode_action(w, mod.action);
  }
  void operator()(const PacketOut& p) const {
    w.u64(p.packet.flow);
    w.u32(p.packet.src_host);
    w.u32(p.packet.dst_host);
    w.u32(p.packet.in_port);
    w.u32(static_cast<std::uint32_t>(p.packet.ttl));
    w.u32(p.out_port);
  }
  void operator()(const BarrierRequest&) const {}
  void operator()(const BarrierReply&) const {}
  void operator()(const Batch& batch) const {
    TSU_ASSERT_MSG(batch.messages.size() <= 0xffff, "batch too large");
    w.u16(static_cast<std::uint16_t>(batch.messages.size()));
    // Each element is a full self-delimiting frame, encoded in place.
    for (const Message& m : batch.messages) {
      TSU_ASSERT_MSG(m.type() != MsgType::kBatch, "batch inside batch");
      encode_frame(w, m);
    }
  }
};

void encode_frame(Writer& w, const Message& message) {
  const std::size_t start = w.size();
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(message.type()));
  const std::size_t length_offset = w.size();
  w.u16(0);  // patched below
  w.u32(message.xid);
  std::visit(BodyEncoder{w}, message.body);
  const std::size_t frame_size = w.size() - start;
  TSU_ASSERT_MSG(frame_size <= kMaxFrame, "frame exceeds 64 KiB");
  w.patch_u16(length_offset, static_cast<std::uint16_t>(frame_size));
}

// `depth` guards batch nesting: a kBatch body at depth > 0 is rejected
// BEFORE its elements are decoded, so adversarial deeply-nested batch
// frames cannot recurse the decoder more than two levels.
Result<Message> decode_impl(std::span<const std::byte> data, int depth);
Result<DecodeStreamResult> decode_stream_impl(std::span<const std::byte> data,
                                              int depth);

Result<Body> decode_body(MsgType type, Reader& r, std::size_t body_size,
                         int depth) {
  switch (type) {
    case MsgType::kHello: return Body{Hello{}};
    case MsgType::kError: {
      const Result<std::uint16_t> code = r.u16();
      if (!code.ok()) return code.error();
      const Result<std::uint16_t> len = r.u16();
      if (!len.ok()) return len.error();
      const Result<std::span<const std::byte>> raw = r.bytes(len.value());
      if (!raw.ok()) return raw.error();
      std::string text(raw.value().size(), '\0');
      for (std::size_t i = 0; i < raw.value().size(); ++i)
        text[i] = static_cast<char>(raw.value()[i]);
      return Body{Error{code.value(), std::move(text)}};
    }
    case MsgType::kEchoRequest:
    case MsgType::kEchoReply: {
      // Echo's Message owns its payload past the frame buffer: copy.
      Result<std::vector<std::byte>> payload = r.bytes_copy(body_size);
      if (!payload.ok()) return payload.error();
      return Body{Echo{type == MsgType::kEchoReply,
                       std::move(payload).value()}};
    }
    case MsgType::kFeaturesRequest: return Body{FeaturesRequest{}};
    case MsgType::kFeaturesReply: {
      const Result<std::uint64_t> dp = r.u64();
      if (!dp.ok()) return dp.error();
      const Result<std::uint32_t> tables = r.u32();
      if (!tables.ok()) return tables.error();
      return Body{FeaturesReply{dp.value(), tables.value()}};
    }
    case MsgType::kFlowMod: {
      const Result<std::uint8_t> command = r.u8();
      if (!command.ok()) return command.error();
      if (command.value() != 0 && command.value() != 1 &&
          command.value() != 3 && command.value() != 4)
        return make_error(Errc::kParseError, "unknown FlowMod command");
      const Result<std::uint8_t> table = r.u8();
      if (!table.ok()) return table.error();
      const Result<std::uint16_t> priority = r.u16();
      if (!priority.ok()) return priority.error();
      const Result<std::uint64_t> cookie = r.u64();
      if (!cookie.ok()) return cookie.error();
      Result<flow::Match> match = decode_match(r);
      if (!match.ok()) return match.error();
      Result<flow::Action> action = decode_action(r);
      if (!action.ok()) return action.error();
      FlowMod mod;
      mod.command = static_cast<FlowModCommand>(command.value());
      mod.table = table.value();
      mod.priority = priority.value();
      mod.cookie = cookie.value();
      mod.match = std::move(match).value();
      mod.action = action.value();
      return Body{std::move(mod)};
    }
    case MsgType::kPacketOut: {
      PacketOut p;
      const Result<std::uint64_t> flow_id = r.u64();
      if (!flow_id.ok()) return flow_id.error();
      p.packet.flow = flow_id.value();
      const Result<std::uint32_t> src = r.u32();
      if (!src.ok()) return src.error();
      p.packet.src_host = src.value();
      const Result<std::uint32_t> dst = r.u32();
      if (!dst.ok()) return dst.error();
      p.packet.dst_host = dst.value();
      const Result<std::uint32_t> in_port = r.u32();
      if (!in_port.ok()) return in_port.error();
      p.packet.in_port = in_port.value();
      const Result<std::uint32_t> ttl = r.u32();
      if (!ttl.ok()) return ttl.error();
      p.packet.ttl = static_cast<int>(ttl.value());
      const Result<std::uint32_t> out_port = r.u32();
      if (!out_port.ok()) return out_port.error();
      p.out_port = out_port.value();
      return Body{std::move(p)};
    }
    case MsgType::kBarrierRequest: return Body{BarrierRequest{}};
    case MsgType::kBarrierReply: return Body{BarrierReply{}};
    case MsgType::kBatch: {
      if (depth > 0)
        return make_error(Errc::kParseError, "batch inside batch");
      const Result<std::uint16_t> count = r.u16();
      if (!count.ok()) return count.error();
      // Zero-copy: the element frames decode straight out of the batch
      // body's view; nothing retains the span past this call.
      const Result<std::span<const std::byte>> raw = r.bytes(r.remaining());
      if (!raw.ok()) return raw.error();
      // Elements are ordinary self-delimiting frames: reuse the streaming
      // decoder, then insist the declared count consumed the body exactly.
      Result<DecodeStreamResult> elements =
          decode_stream_impl(raw.value(), depth + 1);
      if (!elements.ok()) return elements.error();
      if (elements.value().consumed != raw.value().size() ||
          elements.value().messages.size() != count.value())
        return make_error(Errc::kParseError, "batch framing mismatch");
      return Body{Batch{std::move(elements).value().messages}};
    }
  }
  return make_error(Errc::kParseError, "unknown message type");
}

Result<Message> decode_impl(std::span<const std::byte> data, int depth) {
  Reader r(data);
  const Result<std::uint8_t> version = r.u8();
  if (!version.ok()) return version.error();
  if (version.value() != kProtocolVersion)
    return make_error(Errc::kParseError, "unsupported protocol version");
  const Result<std::uint8_t> type_raw = r.u8();
  if (!type_raw.ok()) return type_raw.error();
  switch (type_raw.value()) {
    case 0: case 1: case 2: case 3: case 5: case 6: case 13: case 14:
    case 20: case 21: case 22:
      break;
    default:
      return make_error(Errc::kParseError, "unknown message type");
  }
  const MsgType type = static_cast<MsgType>(type_raw.value());
  const Result<std::uint16_t> length = r.u16();
  if (!length.ok()) return length.error();
  if (length.value() < kHeaderSize)
    return make_error(Errc::kParseError, "length smaller than header");
  if (length.value() > data.size())
    return make_error(Errc::kOutOfRange, "frame truncated");
  const Result<std::uint32_t> xid = r.u32();
  if (!xid.ok()) return xid.error();

  const std::size_t body_size = length.value() - kHeaderSize;
  // Restrict the reader to the declared frame so a body cannot read into a
  // following frame.
  Reader body_reader(data.subspan(kHeaderSize, body_size));
  Result<Body> body = decode_body(type, body_reader, body_size, depth);
  if (!body.ok()) return body.error();
  if (body_reader.remaining() != 0)
    return make_error(Errc::kParseError, "trailing bytes in frame body");

  Message message;
  message.xid = xid.value();
  message.body = std::move(body).value();
  if (message.type() != type)
    return make_error(Errc::kParseError, "body/type mismatch");
  return message;
}

Result<DecodeStreamResult> decode_stream_impl(std::span<const std::byte> data,
                                              int depth) {
  DecodeStreamResult result;
  while (data.size() - result.consumed >= kHeaderSize) {
    const std::span<const std::byte> rest = data.subspan(result.consumed);
    const std::size_t declared = read_u16(rest, 2);
    if (declared > rest.size()) break;  // incomplete frame; stop cleanly
    Result<Message> message = decode_impl(rest.subspan(0, declared), depth);
    if (!message.ok()) return message.error();
    result.messages.push_back(std::move(message).value());
    result.consumed += declared;
  }
  return result;
}

}  // namespace

std::vector<std::byte> encode(const Message& message) {
  Writer w;
  encode_frame(w, message);
  return std::move(w).take();
}

void encode_into(const Message& message, std::vector<std::byte>& out) {
  out.clear();
  encode_append(message, out);
}

void encode_append(const Message& message, std::vector<std::byte>& out) {
  Writer w(out);
  encode_frame(w, message);
}

void encode_batch_into(std::uint32_t xid, std::size_t count,
                       std::span<const std::byte> elements,
                       std::vector<std::byte>& out) {
  // Same bytes BodyEncoder lays down for a Batch: header, u16 count, then
  // each element frame in place.
  TSU_ASSERT_MSG(count <= 0xffff, "batch too large");
  const std::size_t frame_size = kHeaderSize + 2 + elements.size();
  TSU_ASSERT_MSG(frame_size <= 0xffff, "frame exceeds the u16 length field");
  out.clear();
  Writer w(out);
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(MsgType::kBatch));
  w.u16(static_cast<std::uint16_t>(frame_size));
  w.u32(xid);
  w.u16(static_cast<std::uint16_t>(count));
  w.bytes(elements);
}

void patch_xid(std::span<std::byte> frame, std::uint32_t xid) noexcept {
  TSU_ASSERT_MSG(frame.size() >= kHeaderSize, "frame smaller than header");
  frame[4] = static_cast<std::byte>((xid >> 24) & 0xff);
  frame[5] = static_cast<std::byte>((xid >> 16) & 0xff);
  frame[6] = static_cast<std::byte>((xid >> 8) & 0xff);
  frame[7] = static_cast<std::byte>(xid & 0xff);
}

std::size_t frame_messages(std::span<const std::byte> frame) noexcept {
  if (type_of(frame) != MsgType::kBatch) return 1;
  TSU_ASSERT_MSG(frame.size() >= kHeaderSize + 2, "batch without a count");
  return read_u16(frame, kHeaderSize);
}

bool frame_carries_barrier(std::span<const std::byte> frame) noexcept {
  // A plain frame is its own one element; a Batch's start after the count.
  std::size_t at = type_of(frame) == MsgType::kBatch ? kHeaderSize + 2 : 0;
  for (std::size_t i = frame_messages(frame); i > 0; --i) {
    TSU_ASSERT_MSG(at + kHeaderSize <= frame.size(), "frame truncated");
    if (static_cast<MsgType>(frame[at + 1]) == MsgType::kBarrierRequest)
      return true;
    at += read_u16(frame, at + 2);
  }
  return false;
}

Result<Message> decode(std::span<const std::byte> data) {
  return decode_impl(data, 0);
}

Result<DecodeStreamResult> decode_stream(std::span<const std::byte> data) {
  return decode_stream_impl(data, 0);
}

}  // namespace tsu::proto
