// SHA-256 against FIPS/NIST vectors, streaming equivalence, and the HMAC
// RFC 4231 vectors — the integrity of every proof in the system rests here.
// Both compression kernels are checked against the scalar reference, and the
// fixed-shape Merkle node hash against the streaming hasher.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "telemetry/profile.h"

namespace grub {
namespace {

namespace kernels = sha256_kernels;

Bytes RandomBytes(Rng& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextU64());
  return out;
}

Hash256 RandomHash(Rng& rng) {
  Hash256 h;
  for (auto& b : h.bytes) b = static_cast<uint8_t>(rng.NextU64());
  return h;
}

// Textbook SHA-256 on one kernel: pad a copy of the whole message, compress
// every block from the initial hash value. Shares no code with Sha256's
// streaming buffer or in-place padding.
Hash256 ReferenceDigest(ByteSpan data, kernels::Compress compress) {
  Bytes padded(data.begin(), data.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(data.size()) * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<uint8_t>(bits >> shift));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Hash256 out;
  for (size_t i = 0; i < 32; ++i) {
    out.bytes[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

Hash256 ScalarDigest(ByteSpan data) {
  return ReferenceDigest(data, kernels::CompressScalar);
}

Hash256 ScalarNode(const Hash256& left, const Hash256& right) {
  const uint8_t prefix = 0x01;
  return ScalarDigest(
      Concat({ByteSpan(&prefix, 1), left.Span(), right.Span()}));
}

bool CpuinfoListsShaNi() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream flags(line);
    std::string flag;
    while (flags >> flag) {
      if (flag == "sha_ni") return true;
    }
    return false;
  }
  return false;
}

TEST(Sha256, EmptyInput) {
  EXPECT_EQ(Sha256::Digest({}).Hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::Digest(ToBytes("abc")).Hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Digest(
          ToBytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .Hex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(h.Finish().Hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ExactBlockBoundary) {
  // 64 bytes = exactly one block; padding spills into a second block.
  Bytes data(64, 'x');
  Sha256 streaming;
  streaming.Update(ByteSpan(data.data(), 32));
  streaming.Update(ByteSpan(data.data() + 32, 32));
  EXPECT_EQ(streaming.Finish(), Sha256::Digest(data));
}

TEST(Sha256, PaddingBranchKnownAnswers) {
  // One message per branch of Finish's in-place padding: the length fits
  // beside the 0x80 (55, 64, 65, 119), or spills into one more block (56,
  // 63, 120). Digests from `openssl dgst -sha256` over n copies of 'y'.
  const std::pair<size_t, const char*> kCases[] = {
      {55, "fb66d40c3bfff05b0d5af8612d0abfbfacc6f5f26c330bc7ad634f1f44bc20ad"},
      {56, "4877e564e5e36e367c7c8d59670774becd3350610b6df4c399c9fa9b66da5813"},
      {63, "a96b8773f21910f6b1fc287629c1533b494d82301420aa3cfe7d8ebbc18ace77"},
      {64, "ffbf30ab94107b2c14d75cfb455ec94f200400ddc5ce304e0c21894090db055f"},
      {65, "c4a2649e068ab18f0b332492f541ae0bf011accef2944241c15d13be3aa3e624"},
      {119, "0ee964660d4956e34132b7b0f5bdc15fd0d365e26186ac9fd97a090d8d5e5508"},
      {120, "93dd18da6780c736e1a176724e4afb13b035014ce414d9c2675599e3124e41fb"},
  };
  for (const auto& [length, hex] : kCases) {
    EXPECT_EQ(Sha256::Digest(Bytes(length, 'y')).Hex(), hex) << length;
  }
}

TEST(Sha256, Digest2MatchesConcatenation) {
  Bytes a = ToBytes("hello "), b = ToBytes("world");
  EXPECT_EQ(Sha256::Digest2(a, b), Sha256::Digest(ToBytes("hello world")));
}

class Sha256StreamingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256StreamingTest, ChunkedEqualsOneShot) {
  const size_t total = 257;
  Bytes data(total);
  for (size_t i = 0; i < total; ++i) data[i] = static_cast<uint8_t>(i * 31);

  const size_t chunk = GetParam();
  Sha256 streaming;
  for (size_t off = 0; off < total; off += chunk) {
    streaming.Update(ByteSpan(data.data() + off, std::min(chunk, total - off)));
  }
  EXPECT_EQ(streaming.Finish(), Sha256::Digest(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha256StreamingTest,
                         ::testing::Values(1, 3, 7, 13, 31, 63, 64, 65, 100,
                                           256, 257));

// RFC 4231 HMAC-SHA256 test vectors.
TEST(HmacSha256, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HmacSha256(key, ToBytes("Hi There")).Hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      HmacSha256(ToBytes("Jefe"), ToBytes("what do ya want for nothing?"))
          .Hex(),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes message(50, 0xdd);
  EXPECT_EQ(HmacSha256(key, message).Hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231LongKey) {
  // Keys longer than the block size are hashed first.
  Bytes key(131, 0xaa);
  EXPECT_EQ(HmacSha256(key, ToBytes("Test Using Larger Than Block-Size Key - "
                                    "Hash Key First"))
                .Hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeySensitivity) {
  Bytes message = ToBytes("same message");
  EXPECT_NE(HmacSha256(ToBytes("key1"), message),
            HmacSha256(ToBytes("key2"), message));
}

TEST(Sha256Kernels, SelectedMatchesCpuid) {
#if defined(__x86_64__) || defined(__i386__)
  const kernels::Compress expected = kernels::CpuHasShaNi()
                                         ? kernels::CompressShaNi
                                         : kernels::CompressScalar;
#else
  const kernels::Compress expected = kernels::CompressScalar;
  EXPECT_FALSE(kernels::CpuHasShaNi());
#endif
  EXPECT_EQ(kernels::Selected(), expected);
  EXPECT_STREQ(kernels::SelectedName(),
               expected == kernels::CompressScalar ? "scalar" : "sha-ni");
}

TEST(Sha256Kernels, ShaNiSelectedWhenCpuinfoListsIt) {
  // A broken CPUID check would leave the process on the scalar kernel with
  // every digest still correct; the flags the OS lists in /proc/cpuinfo are
  // an independent witness.
  if (!CpuinfoListsShaNi()) {
    GTEST_SKIP() << "/proc/cpuinfo lists no sha_ni flag";
  }
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_TRUE(kernels::CpuHasShaNi());
  EXPECT_EQ(kernels::Selected(), kernels::CompressShaNi);
  EXPECT_STREQ(kernels::SelectedName(), "sha-ni");
#endif
}

TEST(Sha256Kernels, ShaNiMatchesScalarOnRandomStates) {
#if defined(__x86_64__) || defined(__i386__)
  if (!kernels::CpuHasShaNi()) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(20261017);
  for (int trial = 0; trial < 2000; ++trial) {
    uint32_t scalar[8], sha_ni[8];
    for (auto& word : scalar) word = static_cast<uint32_t>(rng.NextU64());
    std::memcpy(sha_ni, scalar, sizeof scalar);
    const size_t blocks = 1 + rng.NextBounded(4);
    const Bytes data = RandomBytes(rng, 64 * blocks);
    kernels::CompressScalar(scalar, data.data(), blocks);
    kernels::CompressShaNi(sha_ni, data.data(), blocks);
    ASSERT_EQ(std::memcmp(scalar, sha_ni, sizeof scalar), 0)
        << "trial " << trial << ", " << blocks << " blocks";
  }
#else
  GTEST_SKIP() << "the SHA-NI kernel is built on x86 only";
#endif
}

TEST(Sha256Kernels, EveryLengthMatchesScalarReference) {
  // Lengths 0..300 cover every padding branch several blocks deep; each is
  // hashed one-shot and streamed in chunks that straddle block boundaries.
  Rng rng(301);
  const size_t kChunks[] = {1, 3, 7, 31, 55, 63, 64, 65, 100};
  for (size_t length = 0; length <= 300; ++length) {
    const Bytes data = RandomBytes(rng, length);
    const Hash256 expected = ScalarDigest(data);
#if defined(__x86_64__) || defined(__i386__)
    if (kernels::CpuHasShaNi()) {
      ASSERT_EQ(ReferenceDigest(data, kernels::CompressShaNi), expected)
          << length;
    }
#endif
    ASSERT_EQ(Sha256::Digest(data), expected) << length;
    for (size_t chunk : kChunks) {
      Sha256 streaming;
      for (size_t off = 0; off < length; off += chunk) {
        streaming.Update(
            ByteSpan(data.data() + off, std::min(chunk, length - off)));
      }
      ASSERT_EQ(streaming.Finish(), expected) << length << " by " << chunk;
    }
  }
}

TEST(Sha256Kernels, FixedShapeHashNodeMatchesStreaming) {
  Rng rng(65);
  const uint8_t prefix = 0x01;
  for (int trial = 0; trial < 500; ++trial) {
    const Hash256 left = RandomHash(rng), right = RandomHash(rng);
    Sha256 streaming;
    streaming.Update(ByteSpan(&prefix, 1));
    streaming.Update(left.Span());
    streaming.Update(right.Span());
    const Hash256 expected = streaming.Finish();
    ASSERT_EQ(MerkleTree::HashNode(left, right), expected) << trial;
    ASSERT_EQ(ScalarNode(left, right), expected) << trial;
  }
  const uint8_t leaf_prefix = 0x00;
  for (size_t length : {0, 1, 32, 55, 63, 64, 200}) {
    const Bytes data = RandomBytes(rng, length);
    EXPECT_EQ(MerkleTree::HashLeafData(data),
              ScalarDigest(Concat({ByteSpan(&leaf_prefix, 1), data})))
        << length;
  }
}

TEST(Sha256Kernels, TreeRootMatchesScalarReference) {
  // 37 live leaves pad to 64: six levels of fixed-shape node hashes, with
  // empty padding leaves on the right edge.
  Rng rng(37);
  std::vector<Hash256> leaves(37);
  for (auto& leaf : leaves) leaf = RandomHash(rng);
  std::vector<Hash256> level = leaves;
  level.resize(64, MerkleTree::EmptyLeaf());
  while (level.size() > 1) {
    std::vector<Hash256> above(level.size() / 2);
    for (size_t i = 0; i < above.size(); ++i) {
      above[i] = ScalarNode(level[2 * i], level[2 * i + 1]);
    }
    level = std::move(above);
  }
  EXPECT_EQ(MerkleTree(leaves).Root(), level[0]);
}

TEST(Sha256Kernels, MerkleHashingCountsAsSha256Digest) {
  using telemetry::ProbeSite;
  using telemetry::ProfileRegistry;
  constexpr uint64_t kNodes = 13, kLeaves = 7;
  const Hash256 left = Hash256::FromU64(1), right = Hash256::FromU64(2);
  const Bytes record = ToBytes("record");
  ProfileRegistry::Reset();
  ProfileRegistry::Enable(true);
  for (uint64_t i = 0; i < kNodes; ++i) MerkleTree::HashNode(left, right);
  for (uint64_t i = 0; i < kLeaves; ++i) MerkleTree::HashLeafData(record);
  ProfileRegistry::Enable(false);
  const auto snapshot = ProfileRegistry::Snapshot();
  ProfileRegistry::Reset();
  const auto& probe = snapshot[static_cast<size_t>(ProbeSite::kSha256Digest)];
  EXPECT_STREQ(probe.name, "sha256.digest");
  EXPECT_EQ(probe.count, kNodes + kLeaves);
}

}  // namespace
}  // namespace grub
