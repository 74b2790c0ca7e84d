// ABI codec round-trips and malformed-input rejection.
#include <gtest/gtest.h>

#include "chain/abi.h"

namespace grub::chain {
namespace {

TEST(Abi, ScalarRoundTrip) {
  AbiWriter w;
  w.U64(0).U64(UINT64_MAX).U64(123456789);
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  EXPECT_EQ(r.U64(), 0u);
  EXPECT_EQ(r.U64(), UINT64_MAX);
  EXPECT_EQ(r.U64(), 123456789u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(Abi, HashRoundTrip) {
  Hash256 h = Hash256::FromU64(9999);
  AbiWriter w;
  w.Hash(h);
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  EXPECT_EQ(r.Hash(), h);
}

TEST(Abi, BlobRoundTrip) {
  AbiWriter w;
  w.Blob(ToBytes("payload")).Blob({});
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  EXPECT_EQ(r.Blob(), ToBytes("payload"));
  EXPECT_TRUE(r.Blob().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Abi, HashListRoundTrip) {
  std::vector<Hash256> hashes = {Hash256::FromU64(1), Hash256::FromU64(2),
                                 Hash256::FromU64(3)};
  AbiWriter w;
  w.HashList(hashes);
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  EXPECT_EQ(r.HashList(), hashes);
}

TEST(Abi, MixedFieldsRoundTrip) {
  AbiWriter w;
  w.U64(5).Blob(ToBytes("k")).Hash(Hash256::FromU64(6)).U64(7);
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  EXPECT_EQ(r.U64(), 5u);
  EXPECT_EQ(r.Blob(), ToBytes("k"));
  EXPECT_EQ(r.Hash(), Hash256::FromU64(6));
  EXPECT_EQ(r.U64(), 7u);
}

TEST(Abi, TruncatedU64Throws) {
  Bytes short_data(4, 0);
  AbiReader r(short_data);
  EXPECT_THROW(r.U64(), std::out_of_range);
}

TEST(Abi, TruncatedBlobThrows) {
  AbiWriter w;
  w.Blob(ToBytes("full payload"));
  Bytes encoded = w.Take();
  encoded.resize(encoded.size() - 3);
  AbiReader r(encoded);
  EXPECT_THROW(r.Blob(), std::out_of_range);
}

TEST(Abi, LyingLengthPrefixThrows) {
  AbiWriter w;
  w.U64(1000000);  // claims a megabyte follows
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  EXPECT_THROW(r.Blob(), std::out_of_range);  // reinterpret U64 as length
}

TEST(Abi, TruncatedHashThrows) {
  Bytes short_data(31, 0);
  AbiReader r(short_data);
  EXPECT_THROW(r.Hash(), std::out_of_range);
}

// The bounds check subtracts instead of adding: a blob length near 2^64
// would wrap `pos + len` back under the size and pass an additive check.
TEST(Abi, WrappingBlobLengthThrows) {
  AbiWriter w;
  w.U64(7).U64(UINT64_MAX - 7).U64(0);  // blob length 2^64 - 8 at offset 8
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  EXPECT_EQ(r.U64(), 7u);
  EXPECT_THROW(r.BlobView(), std::out_of_range);
  AbiReader again(encoded);
  (void)again.U64();
  EXPECT_THROW(again.Blob(), std::out_of_range);
}

// A hash count is checked against the bytes left before anything is
// reserved: the count is attacker input and must not size an allocation.
TEST(Abi, InflatedHashCountThrowsBeforeReserving) {
  AbiWriter w;
  w.U64(uint64_t{1} << 36).Hash(Hash256::FromU64(1));
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  EXPECT_THROW(r.HashList(), std::out_of_range);

  AbiWriter exact;
  exact.U64(1).Hash(Hash256::FromU64(1));
  Bytes fits = exact.Take();
  AbiReader ok(fits);
  EXPECT_EQ(ok.HashList(), std::vector<Hash256>{Hash256::FromU64(1)});
  EXPECT_TRUE(ok.AtEnd());
}

TEST(Abi, BlobViewReadsInPlace) {
  AbiWriter w;
  w.Blob(ToBytes("key")).U64(9).Blob({});
  Bytes encoded = w.Take();
  AbiReader r(encoded);
  const ByteSpan key = r.BlobView();
  EXPECT_EQ(key.data(), encoded.data() + 8);  // no copy: a span into calldata
  EXPECT_EQ(Bytes(key.begin(), key.end()), ToBytes("key"));
  EXPECT_EQ(r.U64(), 9u);
  EXPECT_TRUE(r.BlobView().empty());
  EXPECT_TRUE(r.AtEnd());
}

// A writer sized up front holds exactly the encoding, with the same bytes
// as an unsized one.
TEST(Abi, SizedWriterMatchesUnsized) {
  const auto encode = [](AbiWriter w) {
    w.Blob(ToBytes("abc")).U64(0x0102030405060708ULL).Hash(Hash256::FromU64(3));
    return w.Take();
  };
  const Bytes sized = encode(AbiWriter(8 + 3 + 8 + 32));
  EXPECT_EQ(sized, encode(AbiWriter()));
  EXPECT_EQ(sized.size(), sized.capacity());
  EXPECT_EQ(sized[11], 0x08);  // u64 little-endian
  EXPECT_EQ(sized[18], 0x01);
}

}  // namespace
}  // namespace grub::chain
