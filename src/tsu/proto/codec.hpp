// Binary encoding of control-channel messages.
//
// Frame layout (big-endian):
//   u8  version        (kProtocolVersion)
//   u8  type           (MsgType)
//   u16 length         (whole frame, header included)
//   u32 xid
//   ... type-specific body ...
// Decoding is fully bounds-checked; malformed frames yield Errors, never
// undefined behaviour (fuzz-style tests feed random bytes through decode()).
#pragma once

#include <span>
#include <vector>

#include "tsu/proto/messages.hpp"
#include "tsu/util/status.hpp"

namespace tsu::proto {

std::vector<std::byte> encode(const Message& message);

// Zero-allocation variant: writes the encoded frame into `out` (cleared
// first). Re-using one scratch vector across calls amortizes the buffer to
// its high-water capacity - the channel's frame pool is built on this.
void encode_into(const Message& message, std::vector<std::byte>& out);
// encode_into without the clear: appends the frame to `out`.
void encode_append(const Message& message, std::vector<std::byte>& out);

// Writes into `out` (cleared first) a Batch frame around `count` element
// frames laid back to back in `elements`: equal to encode(make_batch(xid,
// m)) for the messages m the elements decode to, with no re-encoding.
void encode_batch_into(std::uint32_t xid, std::size_t count,
                       std::span<const std::byte> elements,
                       std::vector<std::byte>& out);

// Patches the xid field (header bytes [4,8), big-endian) of an
// already-encoded frame in place - the xid analogue of the length
// patch_u16 the Batch encoder uses. Pre-compiled plan frames are encoded
// once with xid 0 and patched per send, so the cached bytes stay immutable
// and the wire bytes stay identical to a fresh encode with that xid.
void patch_xid(std::span<std::byte> frame, std::uint32_t xid) noexcept;

// Header readers for a frame this codec wrote (they assert, so not for
// untrusted bytes): the messages it carries (a Batch's element count,
// otherwise 1), and whether it is or holds a BarrierRequest.
std::size_t frame_messages(std::span<const std::byte> frame) noexcept;
bool frame_carries_barrier(std::span<const std::byte> frame) noexcept;

// Decodes exactly one frame from the start of `data`.
Result<Message> decode(std::span<const std::byte> data);

// Streaming helper: decodes every complete frame in `data` (frames are
// self-delimiting via the length field); returns the byte count consumed.
struct DecodeStreamResult {
  std::vector<Message> messages;
  std::size_t consumed = 0;
};
Result<DecodeStreamResult> decode_stream(std::span<const std::byte> data);

}  // namespace tsu::proto
