#include "netsim/trace.h"

#include <gtest/gtest.h>

#include <fstream>

#include "netsim/packet_gen.h"
#include "runtime/value.h"

namespace nfactor::netsim {
namespace {

std::string tmp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TraceFile, RoundTripsPacketsAndPorts) {
  PacketGen gen(11);
  auto packets = gen.batch(64);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    packets[i].in_port = static_cast<int>(i % 4);
  }
  const std::string path = tmp_path("roundtrip.nftr");
  write_trace(path, packets);
  const auto back = read_trace(path);
  ASSERT_EQ(back.size(), packets.size());
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(back[i], packets[i]) << i;
    EXPECT_EQ(back[i].in_port, packets[i].in_port) << i;
  }
}

TEST(TraceFile, EmptyTraceIsValid) {
  const std::string path = tmp_path("empty.nftr");
  write_trace(path, {});
  EXPECT_TRUE(read_trace(path).empty());
}

TEST(TraceFile, RejectsMissingFile) {
  EXPECT_THROW(read_trace(tmp_path("does_not_exist.nftr")),
               std::runtime_error);
}

TEST(TraceFile, RejectsBadMagic) {
  const std::string path = tmp_path("badmagic.nftr");
  std::ofstream(path, std::ios::binary) << "JUNKJUNKJUNK";
  EXPECT_THROW(read_trace(path), std::runtime_error);
}

TEST(TraceFile, RejectsTruncatedFrame) {
  PacketGen gen(3);
  const auto packets = gen.batch(4);
  const std::string path = tmp_path("trunc.nftr");
  write_trace(path, packets);
  // Chop the tail off.
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << data.substr(0, data.size() - 9);
  EXPECT_THROW(read_trace(path), std::runtime_error);
}

TEST(TraceFile, RejectsHeaderCountBeyondFileSize) {
  // Magic plus a frame count of 0xFFFFFFFF and no frames: the reader
  // must report a truncated trace, not try to reserve ~340 GB.
  const std::string path = tmp_path("hugecount.nftr");
  std::ofstream(path, std::ios::binary) << "NFTR\xFF\xFF\xFF\xFF";
  EXPECT_THROW(read_trace(path), std::runtime_error);
}

TEST(TraceFile, RejectsCorruptedFrameChecksum) {
  PacketGen gen(4);
  const auto packets = gen.batch(2);
  const std::string path = tmp_path("corrupt.nftr");
  write_trace(path, packets);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(-3, std::ios::end);  // flip a payload/transport byte
  char c;
  f.seekg(-3, std::ios::end);
  f.get(c);
  f.seekp(-3, std::ios::end);
  f.put(static_cast<char>(c ^ 0x5A));
  f.close();
  EXPECT_THROW(read_trace(path), std::runtime_error);
}

TEST(EthFields, DslVisibleAsIntegers) {
  Packet p;
  p.eth_src = {0x02, 0x00, 0x00, 0x00, 0x00, 0xAB};
  EXPECT_EQ(runtime::get_packet_field(p, "eth_src"), 0x020000000000LL + 0xAB);
  runtime::set_packet_field(p, "eth_dst", 0x0A0B0C0D0E0FLL);
  EXPECT_EQ(p.eth_dst, (MacAddr{0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F}));
  EXPECT_EQ(runtime::get_packet_field(p, "eth_dst"), 0x0A0B0C0D0E0FLL);
}

}  // namespace
}  // namespace nfactor::netsim
