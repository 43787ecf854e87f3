#include "wire/packet.hpp"

#include <array>
#include <cassert>
#include <cstring>

namespace rofl::wire {
namespace {

constexpr std::uint8_t kFlagPeering = 0x01;
constexpr std::uint8_t kFlagCapability = 0x02;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320.  Table 0 is
/// the classic byte-at-a-time table; table k advances a byte's contribution
/// by k further zero bytes, so one step folds in 8 input bytes with 8
/// independent lookups instead of 64 dependent shift/xor rounds.
constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Little-endian load: the reflected CRC consumes each 8-byte block
/// lowest-addressed byte first.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Fixed header bytes ahead of the as_path: version, type, ttl, flags,
/// destination, source, trace id.
constexpr std::size_t kFixedHeader = 4 + 16 + 16 + 8;
constexpr std::size_t kCapabilityBytes =
    16 + 8 + std::tuple_size_v<Sha256::Digest>;
constexpr std::size_t kFingerBytes = 16 + 4;

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFFu];
  return ~crc;
}

void write_node_id(ByteWriter& w, const NodeId& id) {
  w.u64(id.hi());
  w.u64(id.lo());
}

std::optional<NodeId> read_node_id(ByteReader& r) {
  const auto raw = r.bytes(16);
  if (!raw.has_value()) return std::nullopt;
  return load_node_id(raw->data());
}

void write_header(ByteWriter& w, const Packet& p) {
  w.u8(p.version);
  w.u8(static_cast<std::uint8_t>(p.type));
  w.u8(p.ttl);
  std::uint8_t flags = 0;
  if (p.crossed_peering) flags |= kFlagPeering;
  if (p.capability.has_value()) flags |= kFlagCapability;
  w.u8(flags);
  write_node_id(w, p.destination);
  write_node_id(w, p.source);
  w.u64(p.trace_id);
  w.u16(static_cast<std::uint16_t>(p.as_path.size()));
  for (const std::uint32_t as : p.as_path) w.u32(as);
  if (p.capability.has_value()) {
    write_node_id(w, p.capability->source);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(p.capability->expiry_ms));
    std::memcpy(&bits, &p.capability->expiry_ms, sizeof(bits));
    w.u64(bits);
    w.bytes(std::span<const std::uint8_t>(p.capability->token.data(),
                                          p.capability->token.size()));
  }
  w.u16(static_cast<std::uint16_t>(p.fingers.size()));
  for (const FingerField& f : p.fingers) {
    write_node_id(w, f.target);
    w.u32(f.home_as);
  }
}

std::vector<std::uint8_t> Packet::encode() const {
  // Counts and lengths ride u16 fields; anything larger cannot be encoded
  // without corrupting the packet, so encoding refuses (empty result)
  // instead of clamping.
  if (payload.size() > 0xFFFF || as_path.size() > 0xFFFF ||
      fingers.size() > 0xFFFF) {
    return {};
  }
  ByteWriter w(wire_size());
  write_header(w, *this);
  const bool payload_ok =
      w.lp_bytes(std::span<const std::uint8_t>(payload.data(), payload.size()));
  assert(payload_ok && w.ok());  // sizes were range-checked above
  (void)payload_ok;
  // Integrity trailer over everything above.  A link that flips any bit of
  // the packet -- header, fields, or payload -- fails decode instead of
  // delivering silently corrupted state.
  w.u32(crc32(w.data()));
  return w.take();
}

std::optional<Packet> Packet::decode(std::span<const std::uint8_t> data) {
  // Verify and strip the CRC trailer first: a corrupted buffer must never be
  // parsed into fields at all.
  if (data.size() < 4) return std::nullopt;
  const std::span<const std::uint8_t> body = data.first(data.size() - 4);
  if (crc32(body) != load_be<std::uint32_t>(data.data() + body.size())) {
    return std::nullopt;
  }

  ByteReader r(body);
  const auto fixed = r.bytes(kFixedHeader);
  if (!fixed.has_value()) return std::nullopt;
  const std::uint8_t* h = fixed->data();
  const std::uint8_t version = h[0];
  const std::uint8_t type = h[1];
  const std::uint8_t flags = h[3];
  if (version != kVersion || type < 1 || type > kMaxPacketType) {
    return std::nullopt;
  }
  Packet p;
  p.version = version;
  p.type = static_cast<PacketType>(type);
  p.ttl = h[2];
  p.crossed_peering = (flags & kFlagPeering) != 0;
  p.destination = load_node_id(h + 4);
  p.source = load_node_id(h + 20);
  p.trace_id = load_be<std::uint64_t>(h + 36);

  // Each count is bounded by the bytes actually present before anything is
  // sized from it: a short frame claiming 65535 entries is rejected here,
  // not after a megabyte-sized reservation.
  const auto path_len = r.u16();
  if (!path_len.has_value()) return std::nullopt;
  const auto path = r.bytes(std::size_t{*path_len} * 4);
  if (!path.has_value()) return std::nullopt;
  p.as_path.resize(*path_len);
  for (std::size_t i = 0; i < p.as_path.size(); ++i) {
    p.as_path[i] = load_be<std::uint32_t>(path->data() + 4 * i);
  }

  if ((flags & kFlagCapability) != 0) {
    const auto raw = r.bytes(kCapabilityBytes);
    if (!raw.has_value()) return std::nullopt;
    CapabilityField cap;
    cap.source = load_node_id(raw->data());
    const std::uint64_t bits = load_be<std::uint64_t>(raw->data() + 16);
    std::memcpy(&cap.expiry_ms, &bits, sizeof(bits));
    std::memcpy(cap.token.data(), raw->data() + 24, cap.token.size());
    p.capability = cap;
  }

  const auto finger_count = r.u16();
  if (!finger_count.has_value()) return std::nullopt;
  const auto fingers = r.bytes(std::size_t{*finger_count} * kFingerBytes);
  if (!fingers.has_value()) return std::nullopt;
  p.fingers.resize(*finger_count);
  for (std::size_t i = 0; i < p.fingers.size(); ++i) {
    const std::uint8_t* f = fingers->data() + kFingerBytes * i;
    p.fingers[i] = FingerField{load_node_id(f), load_be<std::uint32_t>(f + 16)};
  }

  const auto payload = r.lp_bytes();
  if (!payload.has_value()) return std::nullopt;
  p.payload.assign(payload->begin(), payload->end());
  if (!r.exhausted()) return std::nullopt;  // trailing garbage
  return p;
}

std::size_t Packet::wire_size() const {
  std::size_t n = kFixedHeader + 2 + 4 * as_path.size();
  if (capability.has_value()) n += kCapabilityBytes;
  n += 2 + kFingerBytes * fingers.size();
  n += 2 + payload.size();
  n += 4;  // CRC-32 trailer
  return n;
}

std::size_t Packet::fragments(std::size_t mtu) const {
  // Guard the framing boundary: with mtu <= kFrameOverhead the effective
  // payload per fragment is zero or negative, and the old arithmetic
  // (unsigned) turned that into nonsense counts.  Such an MTU cannot carry
  // this packet at all, so report 0 fragments and let callers treat it as a
  // refusal.
  if (mtu <= kFrameOverhead) return 0;
  return fragment_count(wire_size(), mtu);
}

}  // namespace rofl::wire
