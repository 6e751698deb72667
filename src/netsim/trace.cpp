#include "netsim/trace.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace nfactor::netsim {

namespace {

constexpr char kMagic[4] = {'N', 'F', 'T', 'R'};

void put_u32(std::ofstream& out, std::uint32_t v) {
  const std::uint8_t b[4] = {
      static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
      static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
  out.write(reinterpret_cast<const char*>(b), 4);
}

void put_u16(std::ofstream& out, std::uint16_t v) {
  const std::uint8_t b[2] = {static_cast<std::uint8_t>(v >> 8),
                             static_cast<std::uint8_t>(v)};
  out.write(reinterpret_cast<const char*>(b), 2);
}

std::uint32_t get_u32(std::ifstream& in) {
  std::uint8_t b[4];
  in.read(reinterpret_cast<char*>(b), 4);
  if (!in) throw std::runtime_error("truncated trace file");
  return static_cast<std::uint32_t>(b[0]) << 24 |
         static_cast<std::uint32_t>(b[1]) << 16 |
         static_cast<std::uint32_t>(b[2]) << 8 | b[3];
}

std::uint16_t get_u16(std::ifstream& in) {
  std::uint8_t b[2];
  in.read(reinterpret_cast<char*>(b), 2);
  if (!in) throw std::runtime_error("truncated trace file");
  return static_cast<std::uint16_t>(b[0] << 8 | b[1]);
}

}  // namespace

void write_trace(const std::string& path, std::span<const Packet> packets) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out.write(kMagic, 4);
  put_u32(out, static_cast<std::uint32_t>(packets.size()));
  for (const Packet& p : packets) {
    const auto wire = encode(p);
    put_u16(out, static_cast<std::uint16_t>(p.in_port));
    put_u32(out, static_cast<std::uint32_t>(wire.size()));
    out.write(reinterpret_cast<const char*>(wire.data()),
              static_cast<std::streamsize>(wire.size()));
  }
  if (!out) throw std::runtime_error("short write to trace file " + path);
}

std::vector<Packet> read_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open trace file " + path);
  char magic[4];
  in.read(magic, 4);
  if (!in || std::memcmp(magic, kMagic, 4) != 0) {
    throw std::runtime_error("not an NFTR trace: " + path);
  }
  const std::uint32_t count = get_u32(in);
  // The header count is untrusted: every frame needs at least its
  // 6-byte header, so reserve no more frames than the rest of the file
  // can hold. A lying count then fails as a truncated trace instead of
  // asking for up to ~340 GB up front.
  constexpr std::uint64_t kFrameHeaderBytes = 6;
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const auto rest = static_cast<std::uint64_t>(in.tellg() - body);
  in.seekg(body);
  std::vector<Packet> out;
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, rest / kFrameHeaderBytes)));
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint16_t in_port = get_u16(in);
    const std::uint32_t len = get_u32(in);
    if (len > (1u << 20)) throw std::runtime_error("oversized trace frame");
    std::vector<std::uint8_t> wire(len);
    in.read(reinterpret_cast<char*>(wire.data()),
            static_cast<std::streamsize>(len));
    if (!in) throw std::runtime_error("truncated trace frame");
    auto pkt = decode(wire);
    if (!pkt) {
      throw std::runtime_error("undecodable frame " + std::to_string(i) +
                               " in " + path);
    }
    pkt->in_port = in_port;
    out.push_back(std::move(*pkt));
  }
  return out;
}

}  // namespace nfactor::netsim
