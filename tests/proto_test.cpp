#include <gtest/gtest.h>

#include <vector>

#include "tsu/proto/bytes.hpp"
#include "tsu/proto/codec.hpp"
#include "tsu/proto/messages.hpp"
#include "tsu/util/rng.hpp"

namespace tsu::proto {
namespace {

Message round_trip(const Message& message) {
  const std::vector<std::byte> wire = encode(message);
  Result<Message> decoded = decode(wire);
  EXPECT_TRUE(decoded.ok())
      << (decoded.ok() ? "" : decoded.error().to_string());
  return decoded.ok() ? std::move(decoded).value() : Message{};
}

// ------------------------------------------------------------------ bytes --

TEST(BytesTest, WriterBigEndian) {
  Writer w;
  w.u16(0x0102);
  w.u32(0x03040506);
  const auto& data = w.data();
  ASSERT_EQ(data.size(), 6u);
  EXPECT_EQ(static_cast<unsigned>(data[0]), 0x01u);
  EXPECT_EQ(static_cast<unsigned>(data[1]), 0x02u);
  EXPECT_EQ(static_cast<unsigned>(data[5]), 0x06u);
}

TEST(BytesTest, ReaderRoundTrip) {
  Writer w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  Reader r(w.data());
  EXPECT_EQ(r.u8().value(), 0xab);
  EXPECT_EQ(r.u16().value(), 0x1234);
  EXPECT_EQ(r.u32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.u64().value(), 0x0123456789abcdefULL);
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, ReaderUnderflowErrors) {
  Writer w;
  w.u8(1);
  Reader r(w.data());
  EXPECT_TRUE(r.u8().ok());
  EXPECT_FALSE(r.u16().ok());
  EXPECT_FALSE(r.u8().ok());
}

TEST(BytesTest, SkipAndBytes) {
  Writer w;
  w.u32(0x01020304);
  Reader r(w.data());
  EXPECT_TRUE(r.skip(2).ok());
  const auto rest = r.bytes(2);
  ASSERT_TRUE(rest.ok());
  EXPECT_EQ(static_cast<unsigned>(rest.value()[0]), 3u);
  EXPECT_FALSE(r.skip(1).ok());
}

TEST(BytesTest, PatchU16) {
  Writer w;
  w.u16(0);
  w.u8(9);
  w.patch_u16(0, 0xbeef);
  Reader r(w.data());
  EXPECT_EQ(r.u16().value(), 0xbeef);
}

// ------------------------------------------------------------ round trips --

TEST(CodecTest, HelloRoundTrip) {
  const Message m = round_trip(make_hello(7));
  EXPECT_EQ(m.type(), MsgType::kHello);
  EXPECT_EQ(m.xid, 7u);
}

TEST(CodecTest, BarrierRoundTrip) {
  EXPECT_EQ(round_trip(make_barrier_request(9)).type(),
            MsgType::kBarrierRequest);
  EXPECT_EQ(round_trip(make_barrier_reply(10)).type(),
            MsgType::kBarrierReply);
}

TEST(CodecTest, EchoPayloadPreserved) {
  std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
  const Message m = round_trip(make_echo_request(3, payload));
  EXPECT_EQ(m.type(), MsgType::kEchoRequest);
  EXPECT_EQ(std::get<Echo>(m.body).payload, payload);
  const Message reply = round_trip(make_echo_reply(4, payload));
  EXPECT_EQ(reply.type(), MsgType::kEchoReply);
}

TEST(CodecTest, ErrorTextPreserved) {
  const Message m = round_trip(make_error(5, 12, "table full"));
  const auto& err = std::get<Error>(m.body);
  EXPECT_EQ(err.code, 12);
  EXPECT_EQ(err.text, "table full");
}

TEST(CodecTest, FeaturesReplyRoundTrip) {
  Message m;
  m.xid = 2;
  m.body = FeaturesReply{0xaabbccddeeff0011ULL, 4};
  const Message decoded = round_trip(m);
  const auto& reply = std::get<FeaturesReply>(decoded.body);
  EXPECT_EQ(reply.datapath, 0xaabbccddeeff0011ULL);
  EXPECT_EQ(reply.n_tables, 4u);
}

TEST(CodecTest, FlowModAllCommands) {
  for (const FlowModCommand command :
       {FlowModCommand::kAdd, FlowModCommand::kModify, FlowModCommand::kDelete,
        FlowModCommand::kDeleteStrict}) {
    FlowMod mod;
    mod.command = command;
    mod.table = 3;
    mod.priority = 321;
    mod.cookie = 0x1122334455667788ULL;
    mod.match.flow = 99;
    mod.action = flow::Action::forward(5);
    const Message m = round_trip(make_flow_mod(11, mod));
    const auto& decoded = std::get<FlowMod>(m.body);
    EXPECT_EQ(decoded.command, command);
    EXPECT_EQ(decoded.table, 3);
    EXPECT_EQ(decoded.priority, 321);
    EXPECT_EQ(decoded.cookie, mod.cookie);
    EXPECT_EQ(decoded.match, mod.match);
    EXPECT_EQ(decoded.action, mod.action);
  }
}

TEST(CodecTest, FlowModMatchFieldCombinations) {
  for (int bits = 0; bits < 16; ++bits) {
    FlowMod mod;
    if (bits & 1) mod.match.flow = 1;
    if (bits & 2) mod.match.src_host = 2;
    if (bits & 4) mod.match.dst_host = 3;
    if (bits & 8) mod.match.in_port = 4;
    mod.action = flow::Action::deliver();
    const Message m = round_trip(make_flow_mod(1, mod));
    EXPECT_EQ(std::get<FlowMod>(m.body).match, mod.match) << "bits=" << bits;
  }
}

TEST(CodecTest, PacketOutRoundTrip) {
  Message m;
  m.xid = 77;
  PacketOut p;
  p.packet.flow = 3;
  p.packet.src_host = 1;
  p.packet.dst_host = 12;
  p.packet.in_port = 2;
  p.packet.ttl = 63;
  p.out_port = 4;
  m.body = p;
  const Message decoded = round_trip(m);
  const auto& out = std::get<PacketOut>(decoded.body);
  EXPECT_EQ(out.packet.flow, 3u);
  EXPECT_EQ(out.packet.ttl, 63);
  EXPECT_EQ(out.out_port, 4u);
}

// ---------------------------------------------------------------- framing --

TEST(CodecTest, LengthFieldMatchesFrameSize) {
  const std::vector<std::byte> wire = encode(make_barrier_request(1));
  const std::size_t declared =
      static_cast<std::size_t>(static_cast<std::uint8_t>(wire[2])) << 8 |
      static_cast<std::size_t>(static_cast<std::uint8_t>(wire[3]));
  EXPECT_EQ(declared, wire.size());
}

TEST(CodecTest, TruncatedFrameRejected) {
  std::vector<std::byte> wire = encode(make_error(5, 1, "text"));
  wire.resize(wire.size() - 3);
  EXPECT_FALSE(decode(wire).ok());
}

TEST(CodecTest, BadVersionRejected) {
  std::vector<std::byte> wire = encode(make_hello(1));
  wire[0] = std::byte{0x99};
  EXPECT_FALSE(decode(wire).ok());
}

TEST(CodecTest, UnknownTypeRejected) {
  std::vector<std::byte> wire = encode(make_hello(1));
  wire[1] = std::byte{0x7f};
  EXPECT_FALSE(decode(wire).ok());
}

TEST(CodecTest, HeaderShorterThanMinimumRejected) {
  const std::vector<std::byte> tiny(4, std::byte{0});
  EXPECT_FALSE(decode(tiny).ok());
}

TEST(CodecTest, TrailingBodyBytesRejected) {
  std::vector<std::byte> wire = encode(make_barrier_request(1));
  // Grow the frame and fix the declared length: extra body bytes must be
  // flagged because BarrierRequest has an empty body.
  wire.push_back(std::byte{0});
  wire[2] = std::byte{0};
  wire[3] = std::byte{static_cast<unsigned char>(wire.size())};
  EXPECT_FALSE(decode(wire).ok());
}

TEST(CodecTest, FuzzRandomBytesNeverCrash) {
  Rng rng(0xf22);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng.uniform_u64(0, 64);
    std::vector<std::byte> junk(len);
    for (auto& b : junk) b = static_cast<std::byte>(rng.uniform_u64(0, 255));
    (void)decode(junk);  // must not crash; errors are fine
  }
}

TEST(CodecTest, FuzzTruncationsOfValidFramesNeverCrash) {
  FlowMod mod;
  mod.match.flow = 1;
  mod.match.src_host = 2;
  mod.action = flow::Action::forward(3);
  const std::vector<std::byte> wire = encode(make_flow_mod(5, mod));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<std::byte> truncated(wire.begin(),
                                     wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode(truncated).ok());
  }
}

TEST(CodecStreamTest, DecodesBackToBackFrames) {
  std::vector<std::byte> wire = encode(make_hello(1));
  const std::vector<std::byte> second = encode(make_barrier_request(2));
  wire.insert(wire.end(), second.begin(), second.end());
  const Result<DecodeStreamResult> result = decode_stream(wire);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().messages.size(), 2u);
  EXPECT_EQ(result.value().consumed, wire.size());
  EXPECT_EQ(result.value().messages[1].type(), MsgType::kBarrierRequest);
}

TEST(CodecStreamTest, StopsAtIncompleteTail) {
  std::vector<std::byte> wire = encode(make_hello(1));
  const std::size_t full = wire.size();
  const std::vector<std::byte> second = encode(make_barrier_request(2));
  wire.insert(wire.end(), second.begin(), second.end() - 2);  // cut tail
  const Result<DecodeStreamResult> result = decode_stream(wire);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().messages.size(), 1u);
  EXPECT_EQ(result.value().consumed, full);
}

TEST(CodecStreamTest, FuzzedLengthFieldsNeverCrashOrOverread) {
  // Exhaustive 16-bit sweep over the middle frame's length field of a
  // three-frame stream: truncated (< header), lying-short (cuts into the
  // real body), lying-long (claims bytes of the following frames) and
  // oversized (past the buffer) declarations. Whatever the value, the
  // decoder must either fail cleanly or stop at the "incomplete" tail -
  // never crash, never consume past the buffer. The span-backed Reader
  // makes any overread a real out-of-bounds, so this sweep is the codec's
  // bounds-check regression test.
  std::vector<std::byte> wire = encode(make_hello(1));
  const std::size_t second_at = wire.size();
  FlowMod mod;
  mod.match.flow = 7;
  mod.action = flow::Action::forward(2);
  const std::vector<std::byte> second = encode(make_flow_mod(9, mod));
  wire.insert(wire.end(), second.begin(), second.end());
  const std::vector<std::byte> third = encode(make_barrier_request(3));
  wire.insert(wire.end(), third.begin(), third.end());

  std::size_t parsed_ok = 0;
  for (unsigned declared = 0; declared <= 0xffff; ++declared) {
    std::vector<std::byte> fuzzed = wire;
    fuzzed[second_at + 2] = static_cast<std::byte>(declared >> 8);
    fuzzed[second_at + 3] = static_cast<std::byte>(declared & 0xff);
    const Result<DecodeStreamResult> result = decode_stream(fuzzed);
    if (!result.ok()) continue;
    ++parsed_ok;
    ASSERT_LE(result.value().consumed, fuzzed.size());
    // The untouched first frame always parses.
    ASSERT_GE(result.value().messages.size(), 1u);
    EXPECT_EQ(result.value().messages[0].type(), MsgType::kHello);
  }
  // The true length (and every "tail incomplete" stop) parses; most
  // corruptions do not. Both regimes must actually occur.
  EXPECT_GT(parsed_ok, 0u);
  EXPECT_LT(parsed_ok, 0x10000u);
}

TEST(CodecStreamTest, TruncationSweepNeverCrashes) {
  // Cut a three-frame stream at every byte boundary: each prefix must
  // yield the fully contained frames and cleanly report the rest as
  // incomplete.
  std::vector<std::byte> wire = encode(make_hello(1));
  const std::size_t first_len = wire.size();
  const std::vector<std::byte> second = encode(make_echo_request(
      2, std::vector<std::byte>(13, std::byte{0xab})));
  wire.insert(wire.end(), second.begin(), second.end());
  const std::size_t two_len = wire.size();
  const std::vector<std::byte> third = encode(make_barrier_request(3));
  wire.insert(wire.end(), third.begin(), third.end());

  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    const Result<DecodeStreamResult> result = decode_stream(
        std::span<const std::byte>(wire.data(), cut));
    ASSERT_TRUE(result.ok()) << "cut=" << cut;
    const std::size_t expect =
        cut >= wire.size() ? 3u : cut >= two_len ? 2u : cut >= first_len ? 1u
                                                                        : 0u;
    EXPECT_EQ(result.value().messages.size(), expect) << "cut=" << cut;
    EXPECT_LE(result.value().consumed, cut) << "cut=" << cut;
  }
}

TEST(CodecTest, EncodeIntoMatchesEncodeAndReusesCapacity) {
  FlowMod mod;
  mod.match.flow = 5;
  mod.match.src_host = 1;
  mod.action = flow::Action::forward(4);
  std::vector<Message> group;
  group.push_back(make_flow_mod(10, mod));
  group.push_back(make_barrier_request(11));
  const Message samples[] = {
      make_hello(1),
      make_flow_mod(2, mod),
      make_echo_request(3, std::vector<std::byte>(32, std::byte{0x5a})),
      make_batch(4, std::move(group)),
  };
  std::vector<std::byte> scratch;
  for (const Message& message : samples) {
    encode_into(message, scratch);
    EXPECT_EQ(scratch, encode(message)) << message.to_string();
  }
  // The caller-owned scratch is reused, not reallocated: encoding a
  // smaller frame into warmed capacity must keep the same storage.
  encode_into(samples[3], scratch);  // largest of the set
  const std::size_t warm_capacity = scratch.capacity();
  const std::byte* warm_data = scratch.data();
  encode_into(samples[0], scratch);  // smallest
  EXPECT_EQ(scratch.capacity(), warm_capacity);
  EXPECT_EQ(scratch.data(), warm_data);
  EXPECT_EQ(scratch, encode(samples[0]));
}

// ------------------------------------------------------------------ batch --

// Every body shape, plus FlowMods across all 16 match-presence
// combinations, with the one BarrierRequest last.
std::vector<Message> every_body_shape() {
  std::vector<Message> messages;
  messages.push_back(make_hello(1));
  messages.push_back(make_barrier_reply(3));
  messages.push_back(make_error(4, 7, "try again"));
  messages.push_back(make_echo_request(5, {std::byte{1}, std::byte{2}}));
  messages.push_back(make_echo_reply(6));
  {
    Message features;
    features.xid = 7;
    features.body = FeaturesReply{42, 3};
    messages.push_back(features);
  }
  {
    Message out;
    out.xid = 8;
    out.body = PacketOut{flow::Packet{9, 1, 2, 3, 64}, 5};
    messages.push_back(out);
  }
  for (int bits = 0; bits < 16; ++bits) {
    FlowMod mod;
    if ((bits & 1) != 0) mod.match.flow = 12;
    if ((bits & 2) != 0) mod.match.src_host = 3;
    if ((bits & 4) != 0) mod.match.dst_host = 4;
    if ((bits & 8) != 0) mod.match.in_port = 5;
    mod.action = flow::Action::forward(9);
    messages.push_back(make_flow_mod(100 + bits, mod));
  }
  messages.push_back(make_barrier_request(2));
  return messages;
}

TEST(CodecBatchTest, BatchOfEncodedFramesMatchesEncodedBatch) {
  // The controller's outbox appends element frames to one buffer and
  // writes the Batch frame around them; that must be the frame encode()
  // gives the decoded messages. Every prefix of the list is checked, so
  // the barrier walk sees batches with and without its last element.
  const std::vector<Message> messages = every_body_shape();
  std::vector<std::byte> elements;
  std::vector<std::byte> frame;
  for (std::size_t n = 0; n <= messages.size(); ++n) {
    const std::vector<Message> prefix(messages.begin(),
                                      messages.begin() + n);
    encode_batch_into(999, n, elements, frame);
    EXPECT_EQ(frame, encode(make_batch(999, prefix))) << n << " elements";
    EXPECT_EQ(frame_messages(frame), n);
    EXPECT_EQ(frame_carries_barrier(frame), n == messages.size());
    if (n == messages.size()) break;
    const Message& next = messages[n];
    const std::vector<std::byte> single = encode(next);
    EXPECT_EQ(frame_messages(single), 1u) << next.to_string();
    EXPECT_EQ(frame_carries_barrier(single),
              next.type() == MsgType::kBarrierRequest)
        << next.to_string();
    encode_append(next, elements);
  }
}

TEST(CodecBatchTest, RoundTripsCoalescedMessages) {
  FlowMod mod;
  mod.command = FlowModCommand::kModify;
  mod.priority = 70;
  mod.match.flow = 9;
  mod.action = flow::Action::forward(4);
  std::vector<Message> group;
  group.push_back(make_flow_mod(10, mod));
  group.push_back(make_flow_mod(11, mod));
  group.push_back(make_barrier_request(12));
  const Message decoded = round_trip(make_batch(99, std::move(group)));
  ASSERT_EQ(decoded.type(), MsgType::kBatch);
  EXPECT_EQ(decoded.xid, 99u);
  const Batch& batch = std::get<Batch>(decoded.body);
  ASSERT_EQ(batch.messages.size(), 3u);
  EXPECT_EQ(batch.messages[0].type(), MsgType::kFlowMod);
  EXPECT_EQ(batch.messages[0].xid, 10u);
  EXPECT_EQ(std::get<FlowMod>(batch.messages[1].body).match.flow, 9u);
  EXPECT_EQ(batch.messages[2].type(), MsgType::kBarrierRequest);
  EXPECT_EQ(batch.messages[2].xid, 12u);
}

TEST(CodecBatchTest, EmptyBatchRoundTrips) {
  const Message decoded = round_trip(make_batch(1, {}));
  EXPECT_TRUE(std::get<Batch>(decoded.body).messages.empty());
}

TEST(CodecBatchTest, RejectsNestedBatchOnDecode) {
  // Hand-craft a batch frame whose single element is itself a batch (the
  // encoder refuses to produce one, so splice bytes together manually).
  const std::vector<std::byte> inner = encode(make_batch(2, {}));
  Writer w;
  w.u8(kProtocolVersion);
  w.u8(22);   // kBatch
  w.u16(static_cast<std::uint16_t>(8 + 2 + inner.size()));
  w.u32(1);   // xid
  w.u16(1);   // count
  w.bytes(inner);
  const Result<Message> decoded = decode(std::move(w).take());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().message.find("batch inside batch"),
            std::string::npos);
}

TEST(CodecBatchTest, RejectsTruncatedElementAndTrailingBytes) {
  const std::vector<std::byte> wire =
      encode(make_batch(1, {make_barrier_request(2)}));
  // Chop the last byte of the contained frame: element truncated.
  std::vector<std::byte> cut(wire.begin(), wire.end() - 1);
  cut[2] = std::byte{0};
  cut[3] = static_cast<std::byte>(cut.size());
  EXPECT_FALSE(decode(cut).ok());
  // Declare one message but append two: trailing bytes.
  std::vector<std::byte> extra = wire;
  const std::vector<std::byte> spare = encode(make_barrier_request(3));
  extra.insert(extra.end(), spare.begin(), spare.end());
  const std::size_t total = extra.size();
  extra[2] = static_cast<std::byte>(total >> 8);
  extra[3] = static_cast<std::byte>(total & 0xff);
  EXPECT_FALSE(decode(extra).ok());
}

TEST(MessagesTest, TypeNamesAndToString) {
  EXPECT_STREQ(to_string(MsgType::kFlowMod), "FLOW_MOD");
  EXPECT_STREQ(to_string(FlowModCommand::kModify), "MODIFY");
  FlowMod mod;
  mod.match.flow = 8;
  mod.action = flow::Action::forward(2);
  const std::string text = make_flow_mod(3, mod).to_string();
  EXPECT_NE(text.find("FLOW_MOD"), std::string::npos);
  EXPECT_NE(text.find("flow=8"), std::string::npos);
}

}  // namespace
}  // namespace tsu::proto
