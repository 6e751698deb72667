// Packet substrate: concrete packet representation used to exercise both
// the original NF programs (via the DSL runtime) and the synthesized
// NFactor models (via the model interpreter).
//
// The representation is a parsed header view (Ethernet / IPv4 / TCP|UDP)
// plus an opaque payload. Wire-format encode/decode with real byte order
// and checksums lives in codec functions so traces can round-trip through
// a byte buffer, as they would on a NIC.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace nfactor::netsim {

/// TCP flag bits (RFC 793 order within the flags octet).
enum TcpFlag : std::uint8_t {
  kFin = 0x01,
  kSyn = 0x02,
  kRst = 0x04,
  kPsh = 0x08,
  kAck = 0x10,
  kUrg = 0x20,
};

/// IANA protocol numbers used by the substrate.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

using MacAddr = std::array<std::uint8_t, 6>;

/// A parsed packet. Member names mirror the DSL's packet fields
/// (pkt.ip_src, pkt.dport, ...); kPacketFields below maps one onto the
/// other.
struct Packet {
  MacAddr eth_src{};
  MacAddr eth_dst{};
  std::uint16_t eth_type = 0x0800;  // IPv4 by default

  std::uint32_t ip_src = 0;
  std::uint32_t ip_dst = 0;
  std::uint8_t ip_proto = static_cast<std::uint8_t>(IpProto::kTcp);
  std::uint8_t ip_ttl = 64;
  std::uint16_t ip_id = 0;
  std::uint8_t ip_tos = 0;

  // Transport. For TCP packets the udp_* view is unused and vice versa;
  // sport/dport are shared so the DSL sees one pair of port fields.
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint32_t tcp_seq = 0;
  std::uint32_t tcp_ack = 0;
  std::uint8_t tcp_flags = 0;
  std::uint16_t tcp_win = 65535;

  std::vector<std::uint8_t> payload;

  /// Ingress port index assigned by the harness (not a wire field).
  int in_port = 0;

  bool is_tcp() const { return ip_proto == static_cast<std::uint8_t>(IpProto::kTcp); }
  bool is_udp() const { return ip_proto == static_cast<std::uint8_t>(IpProto::kUdp); }
  bool has_flag(TcpFlag f) const { return (tcp_flags & f) != 0; }

  /// Total length of the IPv4 datagram (header + transport + payload).
  std::size_t ip_total_length() const;

  bool operator==(const Packet&) const = default;
};

// ---------------------------------------------------------------------------
// Packet fields: the one table of header fields a program reads as
// pkt.<name>. Sema's checks, the runtime's reads and writes, the symbolic
// executor's fresh packets, the solver's width bounds, the dataplane's
// field ids and raw loads, and the verifier's probes all come from it
// (docs/DSL.md, "Packet fields").
// ---------------------------------------------------------------------------

/// A field's id: its row in kPacketFields. Compiled code resolves field
/// names to ids once, so executing it never compares strings.
enum class FieldId : std::uint8_t {
  kEthSrc, kEthDst, kEthType,
  kIpSrc, kIpDst, kIpProto, kIpTtl, kIpId, kIpTos,
  kSport, kDport,
  kTcpFlags, kTcpSeq, kTcpAck, kTcpWin,
  kLen, kInPort,
};

struct FieldSpec {
  std::string_view name;   ///< the DSL name: pkt.<name>
  FieldId id;
  std::int64_t max;        ///< values lie in [0, max]
  bool writable;           ///< programs may assign pkt.<name>
  std::uint16_t off = 0;   ///< byte offset of the member in Packet
  std::uint8_t width = 0;  ///< unsigned load width at `off` (1, 2 or 4);
                           ///< 0 = computed: the MACs, len and in_port
};

static_assert(std::is_standard_layout_v<Packet>,
              "raw field loads take offsetof(Packet, member)");

// Offset and width of a Packet member that a raw load reads as is.
#define NFACTOR_RAW_FIELD(member)                          \
  static_cast<std::uint16_t>(offsetof(Packet, member)),    \
      static_cast<std::uint8_t>(sizeof(Packet::member))

inline constexpr std::array<FieldSpec, 17> kPacketFields = {{
    {"eth_src", FieldId::kEthSrc, 0xFFFFFFFFFFFF, true},
    {"eth_dst", FieldId::kEthDst, 0xFFFFFFFFFFFF, true},
    {"eth_type", FieldId::kEthType, 0xFFFF, true, NFACTOR_RAW_FIELD(eth_type)},
    {"ip_src", FieldId::kIpSrc, 0xFFFFFFFF, true, NFACTOR_RAW_FIELD(ip_src)},
    {"ip_dst", FieldId::kIpDst, 0xFFFFFFFF, true, NFACTOR_RAW_FIELD(ip_dst)},
    {"ip_proto", FieldId::kIpProto, 0xFF, true, NFACTOR_RAW_FIELD(ip_proto)},
    {"ip_ttl", FieldId::kIpTtl, 0xFF, true, NFACTOR_RAW_FIELD(ip_ttl)},
    {"ip_id", FieldId::kIpId, 0xFFFF, true, NFACTOR_RAW_FIELD(ip_id)},
    {"ip_tos", FieldId::kIpTos, 0xFF, true, NFACTOR_RAW_FIELD(ip_tos)},
    {"sport", FieldId::kSport, 0xFFFF, true, NFACTOR_RAW_FIELD(sport)},
    {"dport", FieldId::kDport, 0xFFFF, true, NFACTOR_RAW_FIELD(dport)},
    {"tcp_flags", FieldId::kTcpFlags, 0xFF, true, NFACTOR_RAW_FIELD(tcp_flags)},
    {"tcp_seq", FieldId::kTcpSeq, 0xFFFFFFFF, true, NFACTOR_RAW_FIELD(tcp_seq)},
    {"tcp_ack", FieldId::kTcpAck, 0xFFFFFFFF, true, NFACTOR_RAW_FIELD(tcp_ack)},
    {"tcp_win", FieldId::kTcpWin, 0xFFFF, true, NFACTOR_RAW_FIELD(tcp_win)},
    // Payload bytes.
    {"len", FieldId::kLen, 0xFFFF, false},
    // The harness's ingress port: not a wire field; the trace format
    // carries it as a u16.
    {"in_port", FieldId::kInPort, 0xFFFF, false},
}};

#undef NFACTOR_RAW_FIELD

static_assert(
    [] {
      for (std::size_t i = 0; i < kPacketFields.size(); ++i) {
        if (static_cast<std::size_t>(kPacketFields[i].id) != i) return false;
      }
      return true;
    }(),
    "a field's id is its row");

inline const FieldSpec& packet_field(FieldId id) {
  return kPacketFields[static_cast<std::size_t>(id)];
}

/// The row named `name`, or nullptr when the DSL has no such field.
const FieldSpec* find_packet_field(std::string_view name);

/// A MAC address as the 48-bit big-endian integer pkt.eth_* reads.
inline std::int64_t mac_to_int(const MacAddr& m) {
  std::int64_t out = 0;
  for (const std::uint8_t b : m) out = out << 8 | b;
  return out;
}

/// What pkt.<field> reads on `p`.
inline std::int64_t read_field(const Packet& p, FieldId id) {
  switch (id) {
    case FieldId::kEthSrc: return mac_to_int(p.eth_src);
    case FieldId::kEthDst: return mac_to_int(p.eth_dst);
    case FieldId::kLen: return static_cast<std::int64_t>(p.payload.size());
    case FieldId::kInPort: return p.in_port;
    default: break;
  }
  const FieldSpec& f = packet_field(id);
  const auto* at = reinterpret_cast<const unsigned char*>(&p) + f.off;
  switch (f.width) {
    case 1: return *at;
    case 2: {
      std::uint16_t v = 0;
      std::memcpy(&v, at, sizeof(v));
      return v;
    }
    default: {
      std::uint32_t v = 0;
      std::memcpy(&v, at, sizeof(v));
      return v;
    }
  }
}

/// pkt.<field> = v on `p`: the value's low bits, as wide as the field.
/// Throws std::invalid_argument for a read-only field.
void write_field(Packet& p, FieldId id, std::int64_t v);

/// Dotted-quad helpers. `ipv4` accepts "a.b.c.d"; throws std::invalid_argument
/// on malformed input.
std::uint32_t ipv4(const std::string& dotted);
std::string ipv4_to_string(std::uint32_t addr);

/// Human-readable one-line rendering, e.g.
/// "TCP 10.0.0.1:1234 > 3.3.3.3:80 [S] len=0".
std::string to_string(const Packet& p);

/// Wire codec. Encode always recomputes IPv4 and TCP/UDP checksums.
std::vector<std::uint8_t> encode(const Packet& p);

/// Decode a wire buffer. Returns std::nullopt when the buffer is truncated,
/// not IPv4, or not TCP/UDP. Checksums are verified when `verify_checksums`.
std::optional<Packet> decode(std::span<const std::uint8_t> wire,
                             bool verify_checksums = true);

}  // namespace nfactor::netsim
