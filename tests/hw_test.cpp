// Hardware-substrate tests: packet memory pages, bus arbitration (priority,
// grant delay, grant override), trigger decode, reconfiguration memory.
#include <gtest/gtest.h>

#include "hw/bus.hpp"
#include "hw/ctrl_layout.hpp"
#include "hw/memory_map.hpp"
#include "hw/packet_memory.hpp"
#include "hw/reconfig_memory.hpp"

namespace drmp::hw {
namespace {

TEST(MemoryMap, PagesAreDisjointAndInRange) {
  for (std::size_t mi = 0; mi < kNumModes; ++mi) {
    for (u32 p = 0; p < kPagesPerMode; ++p) {
      const u32 base = page_base(mode_from_index(mi), static_cast<Page>(p));
      EXPECT_GE(base, kModePagesBase);
      EXPECT_LE(base + kPageWords, kMemWords);
    }
  }
  // Adjacent pages must not overlap.
  EXPECT_EQ(page_base(Mode::A, Page::Raw), page_base(Mode::A, Page::Ctrl) + kPageWords);
  EXPECT_EQ(page_base(Mode::B, Page::Ctrl),
            page_base(Mode::A, Page::Ctrl) + kPagesPerMode * kPageWords);
}

TEST(MemoryMap, RfuTriggerDecode) {
  EXPECT_TRUE(is_rfu_trigger_addr(rfu_trigger_addr(2)));
  EXPECT_TRUE(is_rfu_trigger_addr(rfu_trigger_addr(15)));
  EXPECT_FALSE(is_rfu_trigger_addr(kModePagesBase));
  EXPECT_FALSE(is_rfu_trigger_addr(kOverrideAddr));
}

TEST(PacketMemory, PageByteRoundTrip) {
  PacketMemory mem;
  Bytes data(1501);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  mem.write_page_bytes(Mode::B, Page::Raw, data);
  EXPECT_EQ(mem.page_byte_len(Mode::B, Page::Raw), 1501u);
  EXPECT_EQ(mem.read_page_bytes(Mode::B, Page::Raw), data);
}

TEST(PacketMemory, PageOverflowThrows) {
  PacketMemory mem;
  Bytes data(kPagePayloadBytes + 1);
  EXPECT_THROW(mem.write_page_bytes(Mode::A, Page::Raw, data), std::length_error);
}

TEST(PacketMemory, DualPortSeesSameData) {
  PacketMemory mem;
  mem.write(0x200, 0xDEADBEEF);
  EXPECT_EQ(mem.cpu_read(0x200), 0xDEADBEEFu);
  mem.cpu_write(0x201, 42);
  EXPECT_EQ(mem.read(0x201), 42u);
}

TEST(ReconfigMemory, BlobStorage) {
  ReconfigMemory rmem;
  EXPECT_FALSE(rmem.has_blob(2, 1));
  EXPECT_EQ(rmem.blob_len(2, 1), 0u);
  rmem.load_blob(2, 1, {1, 2, 3, 4});
  EXPECT_TRUE(rmem.has_blob(2, 1));
  EXPECT_EQ(rmem.blob_len(2, 1), 4u);
  EXPECT_EQ(rmem.blob(2, 1)[2], 3u);
}

// ----------------------------------------------------------------- bus

class BusTest : public ::testing::Test {
 protected:
  PacketMemory mem;
  PacketBus bus{mem};
};

TEST_F(BusTest, PriorityModeAWins) {
  bus.request_for_irc(Mode::B);
  bus.request_for_irc(Mode::A);
  bus.tick();
  EXPECT_TRUE(bus.granted_irc(Mode::A));
  EXPECT_FALSE(bus.granted_irc(Mode::B));
}

TEST_F(BusTest, NonPreemptiveHold) {
  bus.request_for_irc(Mode::C);
  bus.tick();
  EXPECT_TRUE(bus.granted_irc(Mode::C));
  // A higher-priority request arrives mid-transaction; C keeps the bus.
  bus.request_for_irc(Mode::A);
  bus.tick();
  EXPECT_TRUE(bus.granted_irc(Mode::C));
  // On release, A gets it.
  bus.release(Mode::C);
  bus.tick();
  bus.tick();
  EXPECT_TRUE(bus.granted_irc(Mode::A));
}

TEST_F(BusTest, OneAccessPerCycleEnforced) {
  bus.request_for_irc(Mode::A);
  bus.tick();
  ASSERT_TRUE(bus.granted_irc(Mode::A));
  EXPECT_TRUE(bus.can_access());
  bus.write(0x300, 7);
  EXPECT_FALSE(bus.can_access());
  bus.tick();
  EXPECT_TRUE(bus.can_access());
  EXPECT_EQ(bus.read(0x300), 7u);
}

TEST_F(BusTest, WriteToRfuAddressBecomesTrigger) {
  bus.request_for_irc(Mode::A);
  bus.tick();
  bus.write(rfu_trigger_addr(5), 0x1234);
  // Not a memory write.
  EXPECT_EQ(mem.read(rfu_trigger_addr(5)), 0u);
  auto t = bus.triggers().take(5);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(*t, 0x1234u);
  EXPECT_FALSE(bus.triggers().take(5).has_value());
}

TEST_F(BusTest, GrantDelayUntilRfuTriggered) {
  // The IRC requests on behalf of RFU 6 before triggering it: the grant must
  // stay with the IRC until the trigger is observed (Fig. 3.12).
  bus.request_for_irc(Mode::A);
  bus.tick();
  ASSERT_TRUE(bus.granted_irc(Mode::A));
  bus.request_for_rfu(Mode::A, 6);
  bus.tick();
  // No trigger yet -> still IRC.
  EXPECT_TRUE(bus.granted_irc(Mode::A));
  EXPECT_FALSE(bus.granted_rfu(6));
  bus.write(rfu_trigger_addr(6), 0);  // Trigger.
  bus.tick();
  EXPECT_TRUE(bus.granted_rfu(6));
}

TEST_F(BusTest, GrantOverrideMasterSlaveHandshake) {
  // Promote RFU 8 to master, then 8 overrides to slave 4 and back.
  bus.request_for_irc(Mode::A);
  bus.tick();
  bus.write(rfu_trigger_addr(8), 0);
  bus.request_for_rfu(Mode::A, 8);
  bus.tick();
  ASSERT_TRUE(bus.granted_rfu(8));

  bus.write(kOverrideAddr, 4);  // Master 8 delegates to slave 4.
  EXPECT_TRUE(bus.granted_rfu(4));
  bus.tick();
  EXPECT_TRUE(bus.granted_rfu(4));  // Override survives arbitration.
  bus.write(kOverrideAddr, 4);      // Slave returns the bus (writes own id).
  EXPECT_TRUE(bus.granted_rfu(8));
}

TEST_F(BusTest, ModeWaitCyclesAccrueUnderContention) {
  bus.request_for_irc(Mode::A);
  bus.request_for_irc(Mode::B);
  for (int i = 0; i < 10; ++i) bus.tick();
  EXPECT_GT(bus.mode_wait_cycles(Mode::B), 0u);
  EXPECT_EQ(bus.mode_wait_cycles(Mode::A), 0u);
}

TEST(CtrlLayout, StatusAddressesInsideCtrlPage) {
  const u32 base = page_base(Mode::C, Page::Ctrl);
  const u32 a = ctrl_status_addr(Mode::C, CtrlWord::kSeqOut);
  EXPECT_GT(a, base);
  EXPECT_LT(a, base + kPageWords);
  const u32 tmpl = ctrl_hdr_tmpl_addr(Mode::C);
  EXPECT_GT(tmpl, a);
  EXPECT_LT(tmpl + 40, base + kPageWords);  // Room for a header template.
}

}  // namespace
}  // namespace drmp::hw
