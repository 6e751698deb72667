#include "netsim/packet.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "netsim/checksum.h"

namespace nfactor::netsim {

namespace {

constexpr std::size_t kEthLen = 14;
constexpr std::size_t kIpLen = 20;
constexpr std::size_t kTcpLen = 20;
constexpr std::size_t kUdpLen = 8;

void put16(std::vector<std::uint8_t>& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

void put32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  put16(b, static_cast<std::uint16_t>(v >> 16));
  put16(b, static_cast<std::uint16_t>(v));
}

std::uint16_t get16(std::span<const std::uint8_t> b, std::size_t i) {
  return static_cast<std::uint16_t>(b[i] << 8 | b[i + 1]);
}

std::uint32_t get32(std::span<const std::uint8_t> b, std::size_t i) {
  return static_cast<std::uint32_t>(get16(b, i)) << 16 | get16(b, i + 2);
}

/// The MAC address whose integer (mac_to_int) is `v`'s low 48 bits.
MacAddr int_to_mac(std::int64_t v) {
  MacAddr m{};
  for (auto it = m.rbegin(); it != m.rend(); ++it) {
    *it = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
  return m;
}

}  // namespace

std::size_t Packet::ip_total_length() const {
  const std::size_t transport = is_tcp() ? kTcpLen : kUdpLen;
  return kIpLen + transport + payload.size();
}

const FieldSpec* find_packet_field(std::string_view name) {
  for (const FieldSpec& f : kPacketFields) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

void write_field(Packet& p, FieldId id, std::int64_t v) {
  const FieldSpec& f = packet_field(id);
  if (!f.writable) {
    throw std::invalid_argument("packet field '" + std::string(f.name) +
                                "' is not writable");
  }
  switch (id) {
    case FieldId::kEthSrc: p.eth_src = int_to_mac(v); return;
    case FieldId::kEthDst: p.eth_dst = int_to_mac(v); return;
    default: break;
  }
  auto* at = reinterpret_cast<unsigned char*>(&p) + f.off;
  switch (f.width) {
    case 1: *at = static_cast<std::uint8_t>(v); return;
    case 2: {
      const auto u = static_cast<std::uint16_t>(v);
      std::memcpy(at, &u, sizeof(u));
      return;
    }
    default: {
      const auto u = static_cast<std::uint32_t>(v);
      std::memcpy(at, &u, sizeof(u));
      return;
    }
  }
}

std::uint32_t ipv4(const std::string& dotted) {
  std::uint32_t parts[4];
  char extra = 0;
  if (std::sscanf(dotted.c_str(), "%u.%u.%u.%u%c", &parts[0], &parts[1],
                  &parts[2], &parts[3], &extra) != 4) {
    throw std::invalid_argument("malformed IPv4 literal: " + dotted);
  }
  std::uint32_t out = 0;
  for (std::uint32_t p : parts) {
    if (p > 255) throw std::invalid_argument("IPv4 octet out of range: " + dotted);
    out = out << 8 | p;
  }
  return out;
}

std::string ipv4_to_string(std::uint32_t addr) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", addr >> 24 & 0xFF,
                addr >> 16 & 0xFF, addr >> 8 & 0xFF, addr & 0xFF);
  return buf;
}

std::string to_string(const Packet& p) {
  std::ostringstream os;
  os << (p.is_tcp() ? "TCP " : p.is_udp() ? "UDP " : "IP ");
  os << ipv4_to_string(p.ip_src) << ':' << p.sport << " > "
     << ipv4_to_string(p.ip_dst) << ':' << p.dport;
  if (p.is_tcp()) {
    os << " [";
    if (p.has_flag(kSyn)) os << 'S';
    if (p.has_flag(kFin)) os << 'F';
    if (p.has_flag(kRst)) os << 'R';
    if (p.has_flag(kPsh)) os << 'P';
    if (p.has_flag(kAck)) os << 'A';
    os << ']';
  }
  os << " len=" << p.payload.size();
  return os.str();
}

std::vector<std::uint8_t> encode(const Packet& p) {
  std::vector<std::uint8_t> out;
  out.reserve(kEthLen + p.ip_total_length());

  // Ethernet
  out.insert(out.end(), p.eth_dst.begin(), p.eth_dst.end());
  out.insert(out.end(), p.eth_src.begin(), p.eth_src.end());
  put16(out, p.eth_type);

  // IPv4 header (no options)
  const std::size_t ip_off = out.size();
  out.push_back(0x45);  // version 4, IHL 5
  out.push_back(p.ip_tos);
  put16(out, static_cast<std::uint16_t>(p.ip_total_length()));
  put16(out, p.ip_id);
  put16(out, 0);  // flags/fragment offset
  out.push_back(p.ip_ttl);
  out.push_back(p.ip_proto);
  put16(out, 0);  // checksum placeholder
  put32(out, p.ip_src);
  put32(out, p.ip_dst);
  const std::uint16_t ip_sum =
      internet_checksum({out.data() + ip_off, kIpLen});
  out[ip_off + 10] = static_cast<std::uint8_t>(ip_sum >> 8);
  out[ip_off + 11] = static_cast<std::uint8_t>(ip_sum);

  // Transport
  const std::size_t tp_off = out.size();
  if (p.is_tcp()) {
    put16(out, p.sport);
    put16(out, p.dport);
    put32(out, p.tcp_seq);
    put32(out, p.tcp_ack);
    out.push_back(0x50);  // data offset 5
    out.push_back(p.tcp_flags);
    put16(out, p.tcp_win);
    put16(out, 0);  // checksum placeholder
    put16(out, 0);  // urgent pointer
  } else {
    put16(out, p.sport);
    put16(out, p.dport);
    put16(out, static_cast<std::uint16_t>(kUdpLen + p.payload.size()));
    put16(out, 0);  // checksum placeholder
  }
  out.insert(out.end(), p.payload.begin(), p.payload.end());

  const std::uint16_t tp_sum = transport_checksum(
      p.ip_src, p.ip_dst, p.ip_proto, {out.data() + tp_off, out.size() - tp_off});
  const std::size_t sum_off = p.is_tcp() ? tp_off + 16 : tp_off + 6;
  out[sum_off] = static_cast<std::uint8_t>(tp_sum >> 8);
  out[sum_off + 1] = static_cast<std::uint8_t>(tp_sum);
  return out;
}

std::optional<Packet> decode(std::span<const std::uint8_t> wire,
                             bool verify_checksums) {
  if (wire.size() < kEthLen + kIpLen) return std::nullopt;
  Packet p;
  std::copy_n(wire.begin(), 6, p.eth_dst.begin());
  std::copy_n(wire.begin() + 6, 6, p.eth_src.begin());
  p.eth_type = get16(wire, 12);
  if (p.eth_type != 0x0800) return std::nullopt;

  const auto ip = wire.subspan(kEthLen);
  if ((ip[0] >> 4) != 4) return std::nullopt;
  const std::size_t ihl = static_cast<std::size_t>(ip[0] & 0x0F) * 4;
  if (ihl < kIpLen || ip.size() < ihl) return std::nullopt;
  p.ip_tos = ip[1];
  const std::uint16_t total_len = get16(ip, 2);
  if (total_len < ihl || total_len > ip.size()) return std::nullopt;
  p.ip_id = get16(ip, 4);
  p.ip_ttl = ip[8];
  p.ip_proto = ip[9];
  p.ip_src = get32(ip, 12);
  p.ip_dst = get32(ip, 16);
  if (verify_checksums && internet_checksum(ip.subspan(0, ihl)) != 0) {
    return std::nullopt;
  }

  const auto tp = ip.subspan(ihl, total_len - ihl);
  if (p.is_tcp()) {
    if (tp.size() < kTcpLen) return std::nullopt;
    p.sport = get16(tp, 0);
    p.dport = get16(tp, 2);
    p.tcp_seq = get32(tp, 4);
    p.tcp_ack = get32(tp, 8);
    const std::size_t doff = static_cast<std::size_t>(tp[12] >> 4) * 4;
    if (doff < kTcpLen || tp.size() < doff) return std::nullopt;
    p.tcp_flags = tp[13];
    p.tcp_win = get16(tp, 14);
    p.payload.assign(tp.begin() + doff, tp.end());
  } else if (p.is_udp()) {
    if (tp.size() < kUdpLen) return std::nullopt;
    p.sport = get16(tp, 0);
    p.dport = get16(tp, 2);
    const std::uint16_t ulen = get16(tp, 4);
    if (ulen < kUdpLen || ulen > tp.size()) return std::nullopt;
    p.payload.assign(tp.begin() + kUdpLen, tp.begin() + ulen);
  } else {
    return std::nullopt;
  }
  if (verify_checksums && transport_checksum(p.ip_src, p.ip_dst, p.ip_proto, tp) != 0) {
    return std::nullopt;
  }
  return p;
}

}  // namespace nfactor::netsim
