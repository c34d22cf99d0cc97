// IRC tests: super-op-code delegation through the TH_R/TH_M statecharts,
// dynamic reconfiguration via the RC, cross-mode queueing (sleep/wake),
// table mutexes, the In-Interface doorbell path, and request queueing.
#include <gtest/gtest.h>

#include "crypto/crc.hpp"
#include "drmp/testbench.hpp"
#include "hw/ctrl_layout.hpp"
#include "irc/irc.hpp"
#include "rfu/rfu_ids.hpp"

namespace drmp {
namespace {

using hw::CtrlWord;
using hw::ctrl_status_addr;
using hw::Page;
using hw::page_base;
using irc::ServiceRequest;
using rfu::Op;

Bytes payload(std::size_t n, u8 seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<u8>(i * 5 + seed);
  return b;
}

class IrcTest : public ::testing::Test {
 protected:
  IrcTest() : tb_() {}

  /// Submits a request directly to the IRC and waits for completion.
  bool run_request(Mode m, std::vector<irc::OpCall> ops, Cycle max_cycles = 8'000'000) {
    ServiceRequest req;
    req.ops = std::move(ops);
    req.from_cpu = false;  // Bypass the CPU: completion routed to nothing.
    bool done = false;
    u32 my_tag = 0;
    auto& eh_irc = tb_.device().irc();
    auto prev = eh_irc.on_complete;
    eh_irc.on_complete = [&](Mode cm, const ServiceRequest& r) {
      if (cm == m && r.tag == my_tag) {
        done = true;
      } else if (prev) {
        prev(cm, r);
      }
    };
    my_tag = eh_irc.submit(m, std::move(req));
    const bool ok = tb_.run_until([&] { return done; }, max_cycles);
    eh_irc.on_complete = prev;
    return ok;
  }

  Testbench tb_;
};

TEST_F(IrcTest, SingleOpRequestCompletes) {
  auto& mem = tb_.device().memory();
  const u32 status = ctrl_status_addr(Mode::A, CtrlWord::kSeqOut);
  ASSERT_TRUE(run_request(Mode::A, {{Op::SeqAssign, {0, status}}}));
  EXPECT_EQ(mem.cpu_read(status), 0u);
  ASSERT_TRUE(run_request(Mode::A, {{Op::SeqAssign, {0, status}}}));
  EXPECT_EQ(mem.cpu_read(status), 1u);
}

TEST_F(IrcTest, ReconfigurationHappensOnFirstUse) {
  auto& crypto = tb_.device().crypto_rfu();
  EXPECT_EQ(crypto.config_state(), 0u);  // Uninitialized.
  auto& mem = tb_.device().memory();
  mem.write_page_bytes(Mode::A, Page::Raw, payload(64));
  ASSERT_TRUE(run_request(Mode::A, {{Op::EncryptRc4,
                                     {page_base(Mode::A, Page::Raw),
                                      page_base(Mode::A, Page::Crypt), 1, 0}}}));
  EXPECT_EQ(crypto.config_state(), rfu::cfg::kCryptoRc4);
  EXPECT_EQ(crypto.reconfig_count(), 1u);
  // Same op again: no further reconfiguration.
  ASSERT_TRUE(run_request(Mode::A, {{Op::EncryptRc4,
                                     {page_base(Mode::A, Page::Raw),
                                      page_base(Mode::A, Page::Crypt), 1, 0}}}));
  EXPECT_EQ(crypto.reconfig_count(), 1u);
}

TEST_F(IrcTest, PacketByPacketReconfigurationAcrossModes) {
  // Mode A (WiFi, RC4) and mode B (WiMAX, DES) alternately use the Crypto
  // RFU: the IRC must reconfigure it packet-by-packet (§1.3).
  auto& mem = tb_.device().memory();
  auto& crypto = tb_.device().crypto_rfu();
  mem.write_page_bytes(Mode::A, Page::Raw, payload(64, 1));
  mem.write_page_bytes(Mode::B, Page::Raw, payload(64, 2));

  ASSERT_TRUE(run_request(Mode::A, {{Op::EncryptRc4,
                                     {page_base(Mode::A, Page::Raw),
                                      page_base(Mode::A, Page::Crypt), 1, 0}}}));
  const u64 rc1 = crypto.reconfig_count();
  EXPECT_EQ(crypto.config_state(), rfu::cfg::kCryptoRc4);

  ASSERT_TRUE(run_request(Mode::B, {{Op::EncryptDes,
                                     {page_base(Mode::B, Page::Raw),
                                      page_base(Mode::B, Page::Crypt), 1, 0}}}));
  EXPECT_EQ(crypto.config_state(), rfu::cfg::kCryptoDes);
  EXPECT_GT(crypto.reconfig_count(), rc1);

  ASSERT_TRUE(run_request(Mode::A, {{Op::DecryptRc4,
                                     {page_base(Mode::A, Page::Crypt),
                                      page_base(Mode::A, Page::Defrag), 1, 0}}}));
  EXPECT_EQ(crypto.config_state(), rfu::cfg::kCryptoRc4);
  // Round-trip correctness across the reconfigurations.
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Defrag), payload(64, 1));
}

TEST_F(IrcTest, MultiOpSuperOpCodeExecutesInOrder) {
  // [SeqAssign, Encrypt, Fragment]: op k+1 must observe op k's effects.
  auto& mem = tb_.device().memory();
  const Bytes msdu = payload(1000);
  mem.write_page_bytes(Mode::A, Page::Raw, msdu);
  const u32 status = ctrl_status_addr(Mode::A, CtrlWord::kSeqOut);
  ASSERT_TRUE(run_request(
      Mode::A,
      {
          {Op::SeqAssign, {0, status}},
          {Op::EncryptRc4,
           {page_base(Mode::A, Page::Raw), page_base(Mode::A, Page::Crypt), 5, 0}},
          {Op::FragmentWifi,
           {page_base(Mode::A, Page::Crypt), page_base(Mode::A, Page::Scratch), 256, 1}},
      }));
  // Fragment 1 of the encrypted payload = bytes [256, 512).
  const Bytes crypt = mem.read_page_bytes(Mode::A, Page::Crypt);
  const Bytes frag = mem.read_page_bytes(Mode::A, Page::Scratch);
  ASSERT_EQ(frag.size(), 256u);
  EXPECT_TRUE(std::equal(frag.begin(), frag.end(), crypt.begin() + 256));
}

TEST_F(IrcTest, CrossModeContentionQueuesAndWakes) {
  // Both modes request the (shared) Seq RFU back-to-back; the lower-priority
  // mode must queue in the rfu_table and be woken.
  auto& irc = tb_.device().irc();
  auto& mem = tb_.device().memory();
  const u32 sa = ctrl_status_addr(Mode::A, CtrlWord::kSeqOut);
  const u32 sb = ctrl_status_addr(Mode::B, CtrlWord::kSeqOut);
  const u32 sc = ctrl_status_addr(Mode::C, CtrlWord::kSeqOut);

  int completions = 0;
  irc.on_complete = [&](Mode, const ServiceRequest&) { ++completions; };
  ServiceRequest ra, rb, rc;
  ra.ops = {{Op::SeqAssign, {0u, sa}}};
  rb.ops = {{Op::SeqAssign, {1u, sb}}};
  rc.ops = {{Op::SeqAssign, {2u, sc}}};
  ra.from_cpu = rb.from_cpu = rc.from_cpu = false;
  irc.submit(Mode::A, std::move(ra));
  irc.submit(Mode::B, std::move(rb));
  irc.submit(Mode::C, std::move(rc));
  ASSERT_TRUE(tb_.run_until([&] { return completions == 3; }, 1'000'000));
  EXPECT_EQ(mem.cpu_read(sa), 0u);
  EXPECT_EQ(mem.cpu_read(sb), 0u);
  EXPECT_EQ(mem.cpu_read(sc), 0u);
}

TEST_F(IrcTest, ThreeModesConcurrentCryptoWithDifferentCiphers) {
  // The stress case: three modes each run their own cipher on the single
  // Crypto RFU concurrently — queueing + reconfiguration + data integrity.
  auto& mem = tb_.device().memory();
  auto& irc = tb_.device().irc();
  const Bytes pa = payload(512, 1), pb = payload(512, 2), pc = payload(512, 3);
  mem.write_page_bytes(Mode::A, Page::Raw, pa);
  mem.write_page_bytes(Mode::B, Page::Raw, pb);
  mem.write_page_bytes(Mode::C, Page::Raw, pc);

  int completions = 0;
  irc.on_complete = [&](Mode, const ServiceRequest&) { ++completions; };
  auto enc_dec = [&](Mode m, Op enc, Op dec) {
    ServiceRequest r;
    r.from_cpu = false;
    r.ops = {
        {enc, {page_base(m, Page::Raw), page_base(m, Page::Crypt), 9, 9}},
        {dec, {page_base(m, Page::Crypt), page_base(m, Page::Defrag), 9, 9}},
    };
    irc.submit(m, std::move(r));
  };
  enc_dec(Mode::A, Op::EncryptRc4, Op::DecryptRc4);
  enc_dec(Mode::B, Op::EncryptDes, Op::DecryptDes);
  enc_dec(Mode::C, Op::EncryptAes, Op::DecryptAes);
  ASSERT_TRUE(tb_.run_until([&] { return completions == 3; }, 20'000'000));
  EXPECT_EQ(mem.read_page_bytes(Mode::A, Page::Defrag), pa);
  EXPECT_EQ(mem.read_page_bytes(Mode::B, Page::Defrag), pb);
  EXPECT_EQ(mem.read_page_bytes(Mode::C, Page::Defrag), pc);
  // The crypto RFU must have ping-ponged between cipher states.
  EXPECT_GE(tb_.device().crypto_rfu().reconfig_count(), 3u);
}

TEST_F(IrcTest, DoorbellPathParsesSuperOpCode) {
  // Exercise the CPU-side path: serialize via write_super_op_code and let
  // the In-Interface parse it.
  auto& mem = tb_.device().memory();
  const u32 status = ctrl_status_addr(Mode::B, CtrlWord::kSeqOut);
  ServiceRequest req;
  req.ops = {{Op::SeqAssign, {1, status}}};
  req.tag = 99;
  req.from_cpu = true;

  u32 done_tag = 0;
  tb_.device().irc().on_complete = [&](Mode, const ServiceRequest& r) {
    done_tag = r.tag;
  };
  irc::write_super_op_code(mem, Mode::B, req);
  ASSERT_TRUE(tb_.run_until([&] { return done_tag == 99; }, 1'000'000));
  EXPECT_EQ(mem.cpu_read(status), 0u);
}

TEST_F(IrcTest, RequestsQueuePerMode) {
  // Two requests for the same mode: the second must wait, then run.
  auto& irc = tb_.device().irc();
  const u32 status = ctrl_status_addr(Mode::A, CtrlWord::kSeqOut);
  int completions = 0;
  irc.on_complete = [&](Mode, const ServiceRequest&) { ++completions; };
  for (int i = 0; i < 2; ++i) {
    ServiceRequest r;
    r.from_cpu = false;
    r.ops = {{Op::SeqAssign, {0u, status}}};
    irc.submit(Mode::A, std::move(r));
  }
  EXPECT_EQ(irc.queued_requests(Mode::A), 2u);
  ASSERT_TRUE(tb_.run_until([&] { return completions == 2; }, 1'000'000));
  EXPECT_EQ(tb_.device().memory().cpu_read(status), 1u);  // Ran twice.
}

TEST_F(IrcTest, RcUpdatesRfuTableState) {
  auto& mem = tb_.device().memory();
  mem.write_page_bytes(Mode::C, Page::Raw, payload(32));
  ASSERT_TRUE(run_request(Mode::C, {{Op::EncryptAes,
                                     {page_base(Mode::C, Page::Raw),
                                      page_base(Mode::C, Page::Crypt), 1, 1}}}));
  const auto& entry = tb_.device().irc().rfu_table().entry(rfu::kCryptoRfu);
  EXPECT_EQ(entry.c_state, rfu::cfg::kCryptoAes);
  EXPECT_FALSE(entry.in_use);
  EXPECT_GE(tb_.device().irc().rc().reconfigs_performed(), 1u);
}

TEST_F(IrcTest, TaskHandlerStateOccupancyRecorded) {
  auto& mem = tb_.device().memory();
  mem.write_page_bytes(Mode::A, Page::Raw, payload(256));
  ASSERT_TRUE(run_request(Mode::A, {{Op::EncryptRc4,
                                     {page_base(Mode::A, Page::Raw),
                                      page_base(Mode::A, Page::Crypt), 1, 0}}}));
  const irc::TaskHandler& th = tb_.device().irc().handler(Mode::A);
  EXPECT_GT(th.thr_occupancy().total(), 0u);
  // The TH_M must have spent cycles outside IDLE.
  const sim::StateOccupancy& thm = th.thm_occupancy();
  Cycle non_idle = thm.total() - thm.cycles_in(static_cast<int>(irc::ThMState::Idle));
  EXPECT_GT(non_idle, 0u);
}

}  // namespace
}  // namespace drmp
