// Known-answer tests for the crypto substrate (CRC-8/16/32, RC4, AES-128,
// DES/3DES) — the published vectors pin the RFU datapaths to the real
// algorithms the standards mandate.
#include <gtest/gtest.h>

#include "crypto/aes128.hpp"
#include "crypto/crc.hpp"
#include "crypto/des.hpp"
#include "crypto/rc4.hpp"

namespace drmp::crypto {
namespace {

Bytes ascii(const char* s) { return Bytes(s, s + std::string(s).size()); }

// ------------------------------------------------------------------- CRC

TEST(Crc32, CheckValue) {
  // Standard CRC-32 check value over "123456789".
  EXPECT_EQ(Crc32::compute(ascii("123456789")), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const Bytes data = ascii("The quick brown fox jumps over the lazy dog");
  Crc32 inc;
  for (u8 b : data) inc.update(b);
  EXPECT_EQ(inc.value(), Crc32::compute(data));
}

TEST(Crc32, ResidueProperty) {
  // Appending the little-endian CRC to the message drives the register to
  // the residue constant — the property the Rx RFU's on-the-fly check uses.
  Bytes data = ascii("residue property");
  const u32 crc = Crc32::compute(data);
  put_le32(data, crc);
  EXPECT_EQ(Crc32::compute(data), 0x2144DF1Cu);
}

TEST(Crc32, EmptyInput) { EXPECT_EQ(Crc32::compute({}), 0x00000000u); }

TEST(Crc16Ccitt, CheckValue) {
  EXPECT_EQ(Crc16Ccitt::compute(ascii("123456789")), 0x29B1u);
}

TEST(Crc16Ccitt, IncrementalMatchesOneShot) {
  const Bytes data = ascii("abcdefgh");
  Crc16Ccitt inc;
  inc.update(std::span<const u8>(data.data(), 3));
  inc.update(std::span<const u8>(data.data() + 3, data.size() - 3));
  EXPECT_EQ(inc.value(), Crc16Ccitt::compute(data));
}

TEST(Crc8, CheckValue) { EXPECT_EQ(Crc8::compute(ascii("123456789")), 0xF4u); }

TEST(Crc8, SingleBitErrorDetected) {
  Bytes gmh = {0x40, 0x00, 0x2E, 0x12, 0x34};
  const u8 hcs = Crc8::compute(gmh);
  gmh[2] ^= 0x01;
  EXPECT_NE(Crc8::compute(gmh), hcs);
}

// ------------------------------------------------------------------- RC4

TEST(Rc4, KeystreamVectorKey) {
  // RFC 6229-style: key "Key" -> keystream EB9F7781B734CA72A719...
  Rc4 rc4(ascii("Key"));
  const u8 expected[10] = {0xEB, 0x9F, 0x77, 0x81, 0xB7, 0x34, 0xCA, 0x72, 0xA7, 0x19};
  for (u8 e : expected) EXPECT_EQ(rc4.next(), e);
}

TEST(Rc4, PlaintextVector) {
  // Key "Key", plaintext "Plaintext" -> BBF316E8D940AF0AD3.
  Rc4 rc4(ascii("Key"));
  Bytes data = ascii("Plaintext");
  rc4.process(data);
  const Bytes expected = {0xBB, 0xF3, 0x16, 0xE8, 0xD9, 0x40, 0xAF, 0x0A, 0xD3};
  EXPECT_EQ(data, expected);
}

TEST(Rc4, RoundTrip) {
  const Bytes key = ascii("WEPKEY1234567");
  Bytes data(333);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7 + 1);
  const Bytes orig = data;
  Rc4(key).process(data);
  EXPECT_NE(data, orig);
  Rc4(key).process(data);
  EXPECT_EQ(data, orig);
}

// ------------------------------------------------------------------- AES

TEST(Aes128, Fips197Vector) {
  const Bytes key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  Bytes block = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const Bytes expected = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                          0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  Aes128 aes(key);
  aes.encrypt_block(block);
  EXPECT_EQ(block, expected);
  aes.decrypt_block(block);
  const Bytes plain = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                       0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  EXPECT_EQ(block, plain);
}

TEST(Aes128, CtrRoundTripArbitraryLength) {
  const Bytes key = ascii("0123456789abcdef");
  const Bytes nonce(16, 0x42);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 100u, 1500u}) {
    Bytes data(len);
    for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<u8>(i);
    const Bytes orig = data;
    Aes128 aes(key);
    aes.ctr_process(nonce, data);
    if (len > 0) {
      EXPECT_NE(data, orig);
    }
    aes.ctr_process(nonce, data);
    EXPECT_EQ(data, orig) << "len=" << len;
  }
}

// ------------------------------------------------------------------- DES

TEST(Des, ClassicVector) {
  // Key 133457799BBCDFF1, plaintext 0123456789ABCDEF -> 85E813540F0AB405.
  const Bytes key = {0x13, 0x34, 0x57, 0x79, 0x9B, 0xBC, 0xDF, 0xF1};
  Bytes block = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
  Des des(key);
  des.encrypt_block(block);
  const Bytes expected = {0x85, 0xE8, 0x13, 0x54, 0x0F, 0x0A, 0xB4, 0x05};
  EXPECT_EQ(block, expected);
  des.decrypt_block(block);
  const Bytes plain = {0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF};
  EXPECT_EQ(block, plain);
}

TEST(Des, CbcRoundTrip) {
  const Bytes key = ascii("8bytekey");
  const Bytes iv = ascii("initvect");
  Bytes data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(255 - i);
  const Bytes orig = data;
  Des des(key);
  des.cbc_encrypt(iv, data);
  EXPECT_NE(data, orig);
  des.cbc_decrypt(iv, data);
  EXPECT_EQ(data, orig);
}

TEST(TripleDes, EncryptDecrypt) {
  Bytes key24(24);
  for (std::size_t i = 0; i < 24; ++i) key24[i] = static_cast<u8>(i + 1);
  TripleDes tdes(key24);
  Bytes block = ascii("KEYXCHNG");
  const Bytes orig = block;
  tdes.encrypt_block(block);
  EXPECT_NE(block, orig);
  tdes.decrypt_block(block);
  EXPECT_EQ(block, orig);
}

TEST(TripleDes, DegeneratesToDesWithEqualKeys) {
  // EDE with K1=K2=K3 equals single DES.
  Bytes key24;
  const Bytes k8 = ascii("samekey!");
  for (int i = 0; i < 3; ++i) key24.insert(key24.end(), k8.begin(), k8.end());
  Bytes a = ascii("ABCDEFGH");
  Bytes b = a;
  TripleDes(key24).encrypt_block(a);
  Des(k8).encrypt_block(b);
  EXPECT_EQ(a, b);
}

// -------------------------------------------------- property-style sweeps

class CrcLinearity : public ::testing::TestWithParam<int> {};

TEST_P(CrcLinearity, AppendZerosShiftsRegister) {
  // CRC(m) fully determines CRC(m || tail) given the tail — incremental
  // updates from a snapshot must agree with a full recompute.
  const int seed = GetParam();
  Bytes msg(200 + seed);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<u8>((i * 31 + seed * 7) & 0xFF);
  }
  Crc32 inc;
  inc.update(std::span<const u8>(msg.data(), 100));
  inc.update(std::span<const u8>(msg.data() + 100, msg.size() - 100));
  EXPECT_EQ(inc.value(), Crc32::compute(msg));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrcLinearity, ::testing::Range(0, 8));

}  // namespace
}  // namespace drmp::crypto
