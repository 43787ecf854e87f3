// wire_codec -- per-type control-plane codec benchmarks.
//
// One encode and one decode benchmark per ControlMessage alternative, so a
// regression in any single codec shows on its own row, plus the CRC-32
// they all pay for on its own.  The section-6.3 byte accounting (1638-byte
// single-homed JoinRequest at 256 fingers) is pinned by
// tests/test_wire_messages.cpp, not here.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "util/identity.hpp"
#include "wire/messages.hpp"

namespace rofl {
namespace {

NodeId id_from(std::uint64_t hi, std::uint64_t lo) { return NodeId(hi, lo); }

wire::msg::JoinRequest make_join_request(std::size_t fingers) {
  Rng rng(61);
  wire::msg::JoinRequest jr;
  jr.nonce = rng.next_u64();
  jr.gateway = 12;
  jr.host_class = 1;
  jr.strategy = 0;
  jr.fingers.reserve(fingers);
  for (std::size_t i = 0; i < fingers; ++i) {
    jr.fingers.push_back({static_cast<std::uint32_t>(rng.next_u64()),
                          static_cast<std::uint16_t>(rng.next_u64())});
  }
  return jr;
}

wire::msg::JoinReply make_join_reply() {
  Rng rng(67);
  wire::msg::JoinReply jr;
  jr.predecessor = id_from(rng.next_u64(), rng.next_u64());
  jr.predecessor_host = 5;
  for (int i = 0; i < 8; ++i) {
    wire::FingerField f;
    f.target = id_from(rng.next_u64(), rng.next_u64());
    jr.successors.push_back(f);
  }
  jr.migrated_ephemerals.push_back(id_from(rng.next_u64(), rng.next_u64()));
  return jr;
}

/// The benchmarked message mix, indexed by benchmark Arg: one entry per
/// ControlMessage alternative.  Index 0 is the section-6.3 JoinRequest
/// (256 fingers, 1638-byte frame).
std::vector<std::pair<std::string, wire::msg::ControlMessage>> message_mix() {
  Rng rng(71);
  const NodeId a = id_from(rng.next_u64(), rng.next_u64());
  const NodeId b = id_from(rng.next_u64(), rng.next_u64());
  std::vector<std::pair<std::string, wire::msg::ControlMessage>> mix;
  mix.emplace_back("join_request_256f", make_join_request(256));
  mix.emplace_back("join_reply", make_join_reply());
  mix.emplace_back("locate", wire::msg::Locate{a, 0});
  mix.emplace_back("pointer_install", wire::msg::PointerInstall{a, b, 3, 0});
  mix.emplace_back("teardown", wire::msg::Teardown{a, 1});
  mix.emplace_back("repair", wire::msg::Repair{a, b, 4, 2});
  mix.emplace_back("keepalive", wire::msg::Keepalive{42});
  mix.emplace_back("lsa", wire::msg::Lsa{9, 17, 0, 9, 11});
  mix.emplace_back("ring_merge", wire::msg::RingMerge{a, 2, 6, 1, 0});
  mix.emplace_back("label_install", wire::msg::LabelInstall{a, 21, 22, 5, 0});
  mix.emplace_back("label_teardown", wire::msg::LabelTeardown{b, 21, 1});
  return mix;
}

constexpr int kMixSize = std::variant_size_v<wire::msg::ControlMessage>;

const std::pair<std::string, wire::msg::ControlMessage>& mix_entry(
    std::int64_t i) {
  static const auto mix = message_mix();
  return mix[static_cast<std::size_t>(i)];
}

void type_label(benchmark::State& state) {
  state.SetLabel(mix_entry(state.range(0)).first);
}

void BM_WireEncode(benchmark::State& state) {
  const auto& [name, m] = mix_entry(state.range(0));
  const NodeId src(1, 2), dst(3, 4);
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    const auto frame = wire::msg::encode_control(m, src, dst);
    bytes += frame.size();
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  type_label(state);
}
BENCHMARK(BM_WireEncode)->DenseRange(0, kMixSize - 1);

void BM_WireDecode(benchmark::State& state) {
  const auto& [name, m] = mix_entry(state.range(0));
  const auto frame = wire::msg::encode_control(m, NodeId(1, 2), NodeId(3, 4));
  std::uint64_t bytes = 0;
  for (auto _ : state) {
    auto decoded = wire::msg::decode_control(frame);
    bytes += frame.size();
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  type_label(state);
}
BENCHMARK(BM_WireDecode)->DenseRange(0, kMixSize - 1);

/// The CRC-32 alone, the bottom rung of the codec ladder: a 64-byte buffer
/// and the 1634-byte body the 256-finger JoinRequest's trailer covers.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::crc32(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(1634);

}  // namespace
}  // namespace rofl

BENCHMARK_MAIN();
