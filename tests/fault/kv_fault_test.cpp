// KVStore fault points and crash-recovery properties: a damaged WAL tail or
// a partially flushed sstable never corrupts recovery — the synced prefix
// survives, the torn suffix is rejected.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/injector.h"
#include "kvstore/db.h"
#include "kvstore/sstable.h"

namespace grub::kv {
namespace {

namespace fs = std::filesystem;
using fault::FaultInjector;

Bytes Key(size_t i) { return ToBytes("key-" + std::to_string(i)); }
Bytes Val(size_t i) { return ToBytes("value-" + std::to_string(i)); }

class KvFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::temp_directory_path() /
            ("grub_kvfault_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::unique_ptr<KVStore> OpenStore(Options options = {}) {
    auto db = KVStore::Open(options, dir_);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  std::string dir_;
};

TEST_F(KvFaultTest, WalAppendFailRejectsTheWriteAtomically) {
  auto faults = FaultInjector::Parse("kv.wal.append_fail@2", 1).value();
  auto db = OpenStore();
  db->SetFaultInjector(faults.get());

  ASSERT_TRUE(db->Put(Key(0), Val(0)).ok());
  // The failed append must not reach the memtable either — no write that
  // recovery could not reproduce.
  EXPECT_FALSE(db->Put(Key(1), Val(1)).ok());
  EXPECT_FALSE(db->Get(Key(1)).ok());
  ASSERT_TRUE(db->Put(Key(2), Val(2)).ok());

  db.reset();
  auto recovered = OpenStore();
  EXPECT_EQ(recovered->Get(Key(0)).value(), Val(0));
  EXPECT_FALSE(recovered->Get(Key(1)).ok());
  EXPECT_EQ(recovered->Get(Key(2)).value(), Val(2));
}

TEST_F(KvFaultTest, TornWalAppendKeepsOnlyTheIntactPrefixOnRecovery) {
  auto faults = FaultInjector::Parse("kv.wal.torn@3", 1).value();
  auto db = OpenStore();
  db->SetFaultInjector(faults.get());

  ASSERT_TRUE(db->Put(Key(0), Val(0)).ok());
  ASSERT_TRUE(db->Put(Key(1), Val(1)).ok());
  EXPECT_FALSE(db->Put(Key(2), Val(2)).ok());  // crash mid-append

  db.reset();
  auto recovered = OpenStore();
  EXPECT_EQ(recovered->Get(Key(0)).value(), Val(0));
  EXPECT_EQ(recovered->Get(Key(1)).value(), Val(1));
  EXPECT_FALSE(recovered->Get(Key(2)).ok());
  // The log stays appendable after the torn tail is discarded on replay...
  ASSERT_TRUE(recovered->Put(Key(3), Val(3)).ok());
  EXPECT_EQ(recovered->Get(Key(3)).value(), Val(3));
}

TEST_F(KvFaultTest, FailedFsyncSurfacesWithoutApplyingTheWrite) {
  auto faults = FaultInjector::Parse("kv.wal.sync_fail@1", 1).value();
  Options options;
  options.sync_writes = true;
  auto db = OpenStore(options);
  db->SetFaultInjector(faults.get());

  // The append reached the file but durability was NOT confirmed: the store
  // reports the failure and does not apply the write in memory.
  EXPECT_FALSE(db->Put(Key(0), Val(0)).ok());
  EXPECT_FALSE(db->Get(Key(0)).ok());
  // Subsequent writes work again.
  ASSERT_TRUE(db->Put(Key(1), Val(1)).ok());
  EXPECT_EQ(db->Get(Key(1)).value(), Val(1));
}

TEST_F(KvFaultTest, PartialSstableFlushRecoversEverythingFromTheWal) {
  auto faults = FaultInjector::Parse("kv.sstable.partial_flush@1", 1).value();
  auto db = OpenStore();
  db->SetFaultInjector(faults.get());

  for (size_t i = 0; i < 8; ++i) ASSERT_TRUE(db->Put(Key(i), Val(i)).ok());
  // Crash mid-flush: the run file is truncated, the manifest never updated.
  EXPECT_FALSE(db->Flush().ok());
  // The running store still serves from the memtable.
  EXPECT_EQ(db->Get(Key(3)).value(), Val(3));

  db.reset();
  auto recovered = OpenStore();
  EXPECT_EQ(recovered->RunCount(), 0u);  // orphan file is not a run
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(recovered->Get(Key(i)).value(), Val(i)) << i;
  }
  // A later flush succeeds normally.
  ASSERT_TRUE(recovered->Flush().ok());
  EXPECT_EQ(recovered->RunCount(), 1u);
}

TEST_F(KvFaultTest, TruncatedSstableInManifestIsRejectedNotServed) {
  auto db = OpenStore();
  for (size_t i = 0; i < 8; ++i) ASSERT_TRUE(db->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  // Damage the (manifest-listed) run file as a crash that tore a page would.
  std::string run_path;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".sst") run_path = entry.path().string();
  }
  ASSERT_FALSE(run_path.empty());
  fs::resize_file(run_path, fs::file_size(run_path) / 2);

  // Recovery must refuse to serve a half-written table: integrity over
  // availability.
  auto reopened = KVStore::Open({}, dir_);
  EXPECT_FALSE(reopened.ok());
}

TEST_F(KvFaultTest, BitFlippedSstableIsRejectedByLoad) {
  auto db = OpenStore();
  for (size_t i = 0; i < 8; ++i) ASSERT_TRUE(db->Put(Key(i), Val(i)).ok());
  ASSERT_TRUE(db->Flush().ok());
  db.reset();

  std::string run_path;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().extension() == ".sst") run_path = entry.path().string();
  }
  ASSERT_FALSE(run_path.empty());
  {
    std::fstream f(run_path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(fs::file_size(run_path) / 2));
    f.put('\x5a');
  }
  EXPECT_FALSE(SSTable::Load(run_path).ok());
}

// Property: whatever damage a crash inflicts on the WAL tail — truncation at
// an arbitrary byte, or a flipped byte anywhere past the synced prefix —
// recovery yields exactly a PREFIX of the written sequence: every record
// before the damage intact, nothing after it, never a mangled record.
TEST_F(KvFaultTest, CrashDamagePropertyRecoveryIsAlwaysAPrefix) {
  constexpr size_t kRecords = 24;
  constexpr int kTrials = 40;
  Rng rng(20260805);

  for (int trial = 0; trial < kTrials; ++trial) {
    fs::remove_all(dir_);
    {
      auto db = OpenStore();
      for (size_t i = 0; i < kRecords; ++i) {
        ASSERT_TRUE(db->Put(Key(i), Val(i)).ok());
      }
    }
    const std::string wal_path = dir_ + "/wal.log";
    const auto size = fs::file_size(wal_path);
    if (rng.NextBool(0.5)) {
      // Torn tail: keep a random prefix of the file.
      fs::resize_file(wal_path, rng.NextBounded(size));
    } else {
      // Bit rot: flip one random byte in place.
      const auto pos = static_cast<std::streamoff>(rng.NextBounded(size));
      std::fstream f(wal_path,
                     std::ios::binary | std::ios::in | std::ios::out);
      f.seekg(pos);
      char c = 0;
      f.get(c);
      f.seekp(pos);
      f.put(static_cast<char>(c ^ (1u << rng.NextBounded(8))));
    }

    auto recovered = OpenStore();
    // Find the recovery horizon: the first missing record.
    size_t horizon = 0;
    while (horizon < kRecords && recovered->Get(Key(horizon)).ok()) ++horizon;
    for (size_t i = 0; i < kRecords; ++i) {
      auto got = recovered->Get(Key(i));
      if (i < horizon) {
        ASSERT_TRUE(got.ok()) << "trial " << trial << " record " << i;
        // Intact, not just present: the value survived byte-for-byte.
        EXPECT_EQ(got.value(), Val(i)) << "trial " << trial;
      } else {
        EXPECT_FALSE(got.ok())
            << "trial " << trial << ": record " << i
            << " survived past the damage horizon " << horizon;
      }
    }
  }
}

}  // namespace
}  // namespace grub::kv
