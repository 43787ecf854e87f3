// Byte-identity tests for the control-frame codec: CRC-32 known answers,
// golden frames pinned byte for byte, encode_control agreeing with the
// generic Packet encoder for every message type, and CRC-valid frames whose
// count fields claim more entries than the frame holds.  An optimisation of
// the codec must leave every frame on the wire unchanged; these tests are
// what says so.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "util/sha256.hpp"
#include "wire/messages.hpp"

namespace rofl::wire::msg {
namespace {

std::string hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

const NodeId kSrc(0x0123456789abcdefull, 0xfedcba9876543210ull);
const NodeId kDst(0x1111222233334444ull, 0x5555666677778888ull);
constexpr std::uint64_t kTrace = 0x0badc0ffee15900dull;

/// The section 6.3 JoinRequest: 256 compact fingers, a 1638-byte frame.
/// Every field is a fixed formula so the golden bytes depend on nothing but
/// the codec.
JoinRequest golden_join_request() {
  JoinRequest m;
  m.nonce = 0x0102030405060708ull;
  m.gateway = 0x0a0b0c0d;
  m.host_class = 2;
  m.strategy = 1;
  for (std::size_t i = 0; i < m.public_key.size(); ++i) {
    m.public_key[i] = static_cast<std::uint8_t>(7 * i + 3);
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    m.fingers.push_back(CompactFinger{0x9e3779b9u * (i + 1),
                                      static_cast<std::uint16_t>(257 * i)});
  }
  return m;
}

/// One fixed instance of every ControlMessage alternative.
std::vector<ControlMessage> every_type() {
  const NodeId a(0xa1a2a3a4a5a6a7a8ull, 0xa9aaabacadaeafb0ull);
  const NodeId b(0xb1b2b3b4b5b6b7b8ull, 0xb9babbbcbdbebfc0ull);
  JoinReply reply;
  reply.predecessor = a;
  reply.predecessor_host = 17;
  reply.successors = {FingerField{a, 3}, FingerField{b, 4}};
  reply.migrated_ephemerals = {b};
  return {golden_join_request(),
          reply,
          Locate{a, 2},
          PointerInstall{a, b, 9, 1},
          Teardown{a, 3},
          Repair{a, b, 11, 2},
          Keepalive{0x8877665544332211ull},
          Lsa{5, 6, 7, 8, 9},
          RingMerge{a, 12, 13, 14, 2},
          LabelInstall{a, 21, 22, 23, 1},
          LabelTeardown{b, 31, 2}};
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(as_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
}

TEST(Crc32, EveryLengthMatchesBitwiseReference) {
  // The bitwise definition (reflected 0xEDB88320, init and xorout all ones)
  // against the table-driven one, across every tail length the 8-byte
  // stride can leave.
  const auto reference = [](std::span<const std::uint8_t> data) {
    std::uint32_t crc = 0xFFFFFFFFu;
    for (const std::uint8_t byte : data) {
      crc ^= byte;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
    }
    return ~crc;
  };
  std::vector<std::uint8_t> buf(67);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; off + len <= buf.size(); ++len) {
      const auto s = std::span<const std::uint8_t>(buf).subspan(off, len);
      ASSERT_EQ(crc32(s), reference(s)) << "offset " << off << " len " << len;
    }
  }
}

TEST(GoldenFrames, Locate) {
  const auto frame = encode_control(Locate{kDst, 2}, kSrc, kDst, kTrace);
  EXPECT_EQ(hex(frame),
            "01084000"                          // version type ttl flags
            "11112222333344445555666677778888"  // destination
            "0123456789abcdeffedcba9876543210"  // source
            "0badc0ffee15900d"                  // trace id
            "0000" "0000"                       // as_path, fingers
            "0011"                              // payload length 17
            "11112222333344445555666677778888"  // Locate.target
            "02"                                // Locate.purpose
            "cd960b02");                        // CRC-32
}

TEST(GoldenFrames, JoinRequest256Fingers) {
  const auto frame =
      encode_control(golden_join_request(), kSrc, kDst, kTrace);
  ASSERT_EQ(frame.size(), 1638u);
  EXPECT_EQ(hex(std::span(frame).first(80)),
            "01024000"                          // version type ttl flags
            "11112222333344445555666677778888"  // destination
            "0123456789abcdeffedcba9876543210"  // source
            "0badc0ffee15900d"                  // trace id
            "0000" "0000"                       // as_path, fingers
            "0630"                              // payload length 1584
            "0102030405060708"                  // JoinRequest.nonce
            "0a0b0c0d" "02" "01"                // gateway, class, strategy
            "030a11181f262d343b424950575e656c");  // first 16 key bytes
  EXPECT_EQ(hex(std::span(frame).last(8)), "b900ffff89904e6f");
  EXPECT_EQ(Sha256::to_hex(Sha256::hash(frame)),
            "37f26a36796ddfa85e8d26eb0feef288"
            "1b6b049d73b614407ebd7792b205ab3c");
}

TEST(GoldenFrames, EncodeControlMatchesPacketEncode) {
  // The control encoder writes the frame in one pass; the generic Packet
  // encoder builds the same header around an opaque payload.  They must
  // agree byte for byte on every type.
  for (const ControlMessage& m : every_type()) {
    const auto frame = encode_control(m, kSrc, kDst, kTrace);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(frame.size(), control_wire_size(m));
    const auto pkt = Packet::decode(frame);
    ASSERT_TRUE(pkt.has_value());
    Packet p;
    p.type = type_of(m);
    p.source = kSrc;
    p.destination = kDst;
    p.trace_id = kTrace;
    p.payload = pkt->payload;
    EXPECT_EQ(p.encode(), frame) << "type " << static_cast<int>(p.type);
  }
}

// -- hostile counts -----------------------------------------------------------
// A count field is read off the wire before the entries it counts.  Each
// test below takes a valid frame, inflates one count so it claims more
// entries than the frame holds, and re-seals the CRC so the frame passes the
// integrity check: the count itself must then be what gets it rejected.

constexpr std::size_t kPayloadAt = kFrameOverhead - 4;  // after the length

void put_u16(std::vector<std::uint8_t>& frame, std::size_t at,
             std::uint16_t v) {
  frame[at] = static_cast<std::uint8_t>(v >> 8);
  frame[at + 1] = static_cast<std::uint8_t>(v);
}

void reseal(std::vector<std::uint8_t>& frame) {
  const std::size_t body = frame.size() - 4;
  const std::uint32_t crc = crc32(std::span(frame).first(body));
  for (std::size_t i = 0; i < 4; ++i) {
    frame[body + i] = static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }
}

/// Frames with the count at `at` (entries of `entry_bytes` each) raised to
/// one more entry than the frame has room for, and to 0xFFFF.
std::vector<std::vector<std::uint8_t>> inflated(
    const std::vector<std::uint8_t>& frame, std::size_t at,
    std::size_t entry_bytes) {
  const std::size_t room = (frame.size() - 4 - (at + 2)) / entry_bytes;
  std::vector<std::vector<std::uint8_t>> out;
  for (const std::size_t n : {room + 1, std::size_t{0xFFFF}}) {
    auto f = frame;
    put_u16(f, at, static_cast<std::uint16_t>(n));
    reseal(f);
    out.push_back(std::move(f));
  }
  return out;
}

TEST(HostileCounts, HeaderCountsRejected) {
  const auto frame = encode_control(Locate{kDst, 0}, kSrc, kDst, kTrace);
  ASSERT_TRUE(Packet::decode(frame).has_value());
  // as_path count sits right after the 44 fixed header bytes, the header
  // finger count after it (the as_path is empty).
  for (const auto& [at, entry] :
       {std::pair<std::size_t, std::size_t>{44, 4}, {46, 20}}) {
    for (const auto& f : inflated(frame, at, entry)) {
      EXPECT_FALSE(Packet::decode(f).has_value()) << "count at " << at;
      EXPECT_FALSE(decode_control(f).has_value()) << "count at " << at;
    }
  }
}

TEST(HostileCounts, PayloadCountsRejected) {
  JoinRequest jr = golden_join_request();
  jr.fingers.resize(3);
  JoinReply reply;
  reply.successors = {FingerField{kSrc, 1}, FingerField{kDst, 2}};
  reply.migrated_ephemerals = {kSrc};
  struct Case {
    const char* field;
    ControlMessage msg;
    std::size_t at;  ///< count offset within the payload
    std::size_t entry_bytes;
  };
  const Case cases[] = {
      {"JoinRequest.fingers", jr, 46, 6},
      {"JoinReply.successors", reply, 20, 20},
      {"JoinReply.migrated_ephemerals", reply, 22 + 2 * 20, 16},
  };
  for (const Case& c : cases) {
    const auto frame = encode_control(c.msg, kSrc, kDst, kTrace);
    ASSERT_TRUE(decode_control(frame).has_value()) << c.field;
    for (const auto& f : inflated(frame, kPayloadAt + c.at, c.entry_bytes)) {
      // The header is intact and CRC-valid; the payload parser must refuse.
      const auto pkt = Packet::decode(f);
      ASSERT_TRUE(pkt.has_value()) << c.field;
      EXPECT_FALSE(decode_payload(pkt->type, pkt->payload).has_value())
          << c.field;
      EXPECT_FALSE(decode_control(f).has_value()) << c.field;
    }
  }
}

}  // namespace
}  // namespace rofl::wire::msg
