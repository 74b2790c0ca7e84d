// Seeded mutation fuzzing of the calldata decoders. The SP is untrusted, so
// every byte the storage manager decodes from a deliver is attacker input,
// and the decoders read it in place. Inputs are the gGet arguments, request
// events and deliver calldata of a small honest run; each is mutated by
// byte flips, truncation, inflated u64 length and count fields, and
// duplicated entries, then fed to AbiReader, DecodeDeliverEntry and, as a
// transaction, StorageManagerContract::HandleDeliver.
//
// Invariants: nothing aborts or trips ASan/UBSan (decoders fail with
// std::out_of_range or a typed Status, nothing else), and every value a
// callback receives is one the DO committed, whether the mutated deliver's
// receipt succeeds or fails (a failed deliver keeps the callbacks of the
// entries before the bad one). The seed budget is fixed, so the sanitizer
// pass runs the same cases as ctest.
#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <stdexcept>

#include "chain/abi.h"
#include "common/rng.h"
#include "grub/codec.h"
#include "grub/system.h"
#include "workload/trace.h"

namespace grub::core {
namespace {

using workload::MakeKey;

constexpr uint64_t kSeeds[] = {1, 2, 3, 4};
constexpr int kMutationsPerInput = 100;
constexpr uint64_t kRecords = 24;

// Values of uneven lengths, so blobs of many sizes ride the calldata.
Bytes ValueOf(uint64_t i) { return Bytes(5 + 7 * i, uint8_t(0x30 + i)); }

// One honest run on a BL1 deployment (every read misses, so every read is a
// verified deliver): point reads of present and absent keys and two range
// scans, served by the SP daemon. Keeps the chain for the mutation phase.
struct HonestRun {
  HonestRun() : system(SystemOptions{}, MakeBL1()) {
    std::vector<std::pair<Bytes, Bytes>> records;
    for (uint64_t i = 0; i < kRecords; ++i) {
      records.emplace_back(MakeKey(i), ValueOf(i));
      committed.emplace(MakeKey(i), ValueOf(i));
    }
    system.Preload(records);

    const size_t history0 = system.Chain().CallHistory().size();
    const uint64_t log0 = system.Chain().NextLogIndex();
    for (uint64_t round = 0; round < 3; ++round) {
      for (uint64_t i = round; i < kRecords; i += 5) {
        system.Consumer().QueueRead(MakeKey(i));
      }
      system.Consumer().QueueRead(MakeKey(100 + round));  // absent
      system.Consumer().QueueRead(MakeKey(round));        // a repeat
      system.Consumer().QueueScan(MakeKey(round * 4), MakeKey(round * 4 + 5));
      RunQueued();
      EXPECT_GT(system.Daemon().PollAndServe(), 0u);
    }
    const auto& history = system.Chain().CallHistory();
    for (size_t i = history0; i < history.size(); ++i) {
      const chain::CallRecord& call = history[i];
      if (call.function == StorageManagerContract::kGGetFn) {
        gget_args.push_back(call.calldata);
      } else if (call.function == StorageManagerContract::kDeliverFn &&
                 !call.internal && call.ok) {
        delivers.push_back(call.calldata);
      }
    }
    for (const auto& event : system.Chain().EventsSince(log0)) {
      if (event.name == StorageManagerContract::kRequestEvent ||
          event.name == StorageManagerContract::kRequestScanEvent) {
        events.push_back(event.data);
      }
    }
  }

  void RunQueued() {
    chain::Transaction tx;
    tx.from = GrubSystem::kUserAccount;
    tx.to = system.ConsumerAddress();
    tx.function = ConsumerContract::kRunFn;
    tx.calldata = ConsumerContract::EncodeRun(0);
    system.Chain().SubmitAndMine(std::move(tx));
  }

  GrubSystem system;
  std::map<Bytes, Bytes> committed;
  std::vector<Bytes> gget_args;
  std::vector<Bytes> events;
  std::vector<Bytes> delivers;
};

// Offsets of the deliver's entries, sized by decoding each one.
std::vector<size_t> EntryOffsets(const Bytes& deliver) {
  chain::AbiReader r(deliver);
  const uint64_t n = r.U64();
  std::vector<size_t> offsets{8};
  for (uint64_t i = 0; i < n; ++i) {
    auto entry = DecodeDeliverEntry(r);
    EXPECT_TRUE(entry.ok());
    offsets.push_back(offsets.back() + DeliverEntryBytes(entry.value()));
  }
  EXPECT_EQ(offsets.back(), deliver.size());
  return offsets;
}

void PutU64(Bytes& data, size_t at, uint64_t v) {
  for (size_t b = 0; b < 8; ++b) {
    data[at + b] = static_cast<uint8_t>(v >> (8 * b));
  }
}

uint64_t GetU64(const Bytes& data, size_t at) {
  uint64_t v = 0;
  for (size_t b = 8; b-- > 0;) v = (v << 8) | data[at + b];
  return v;
}

// Applies one to three mutations. `entries` (deliver only) are the entry
// offsets, with the end of calldata last; empty for other inputs.
Bytes Mutate(const Bytes& input, const std::vector<size_t>& entries, Rng& rng) {
  Bytes out = input;
  const uint64_t rounds = 1 + rng.NextBounded(3);
  for (uint64_t m = 0; m < rounds && !out.empty(); ++m) {
    switch (rng.NextBounded(4)) {
      case 0: {  // byte flips
        const uint64_t flips = 1 + rng.NextBounded(4);
        for (uint64_t f = 0; f < flips; ++f) {
          out[rng.NextBounded(out.size())] ^=
              static_cast<uint8_t>(1 + rng.NextBounded(255));
        }
        break;
      }
      case 1:  // truncation
        out.resize(rng.NextBounded(out.size()));
        break;
      case 2: {  // an inflated u64 length or count field
        // Length and count words are small: six zero high bytes. Keys and
        // values in this run never look like that.
        std::vector<size_t> fields;
        for (size_t at = 0; at + 8 <= out.size(); ++at) {
          if (GetU64(out, at) < (uint64_t{1} << 16)) fields.push_back(at);
        }
        if (fields.empty()) break;
        const size_t at = fields[rng.NextBounded(fields.size())];
        const uint64_t k = rng.NextBounded(64);
        const uint64_t inflated[] = {UINT64_MAX - k,      uint64_t{1} << 63,
                                     uint64_t{1} << 36,  uint64_t{1} << 32,
                                     out.size() - at + k, GetU64(out, at) + 1};
        PutU64(out, at, inflated[rng.NextBounded(std::size(inflated))]);
        break;
      }
      case 3: {  // a duplicated entry, counted or trailing
        if (entries.size() < 2 || out.size() != input.size()) break;
        const size_t i = rng.NextBounded(entries.size() - 1);
        const Bytes copy(input.begin() + static_cast<long>(entries[i]),
                         input.begin() + static_cast<long>(entries[i + 1]));
        out.insert(out.begin() + static_cast<long>(entries[i + 1]),
                   copy.begin(), copy.end());
        if (rng.NextBounded(4) != 0) PutU64(out, 0, GetU64(out, 0) + 1);
        break;
      }
    }
  }
  return out;
}

TEST(CalldataFuzz, ReaderSurvivesMutatedGGetArgsAndRequestEvents) {
  HonestRun run;
  ASSERT_FALSE(run.gget_args.empty());
  ASSERT_FALSE(run.events.empty());
  uint64_t rejected = 0;
  uint64_t decoded = 0;
  for (uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (const auto* inputs : {&run.gget_args, &run.events}) {
      for (const Bytes& input : *inputs) {
        for (int m = 0; m < kMutationsPerInput; ++m) {
          const Bytes mutated = Mutate(input, {}, rng);
          // The shapes the contract and the SP read: a request (key,
          // callback) and a scan request (start, end, callback).
          for (bool scan : {false, true}) {
            chain::AbiReader r(mutated);
            try {
              const ByteSpan key = r.BlobView();
              if (scan) (void)r.BlobView();
              (void)r.U64();
              const ByteSpan callback = r.BlobView();
              EXPECT_LE(key.size() + callback.size(), mutated.size());
              decoded += 1;
            } catch (const std::out_of_range&) {
              rejected += 1;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

TEST(CalldataFuzz, DeliverDecoderFailsCleanlyOnMutatedCalldata) {
  HonestRun run;
  ASSERT_FALSE(run.delivers.empty());
  uint64_t failed = 0;
  uint64_t decoded = 0;
  for (uint64_t seed : kSeeds) {
    Rng rng(seed);
    for (const Bytes& deliver : run.delivers) {
      const std::vector<size_t> entries = EntryOffsets(deliver);
      for (int m = 0; m < kMutationsPerInput; ++m) {
        const Bytes mutated = Mutate(deliver, entries, rng);
        chain::AbiReader r(mutated);
        try {
          const uint64_t n = r.U64();
          for (uint64_t i = 0; i < n; ++i) {
            auto entry = DecodeDeliverEntry(r);
            if (!entry.ok()) {
              failed += 1;
              break;
            }
            decoded += 1;
            // Every decoded entry fits in the calldata it came from.
            EXPECT_LE(DeliverEntryBytes(entry.value()), mutated.size());
          }
        } catch (const std::out_of_range&) {
          failed += 1;
        }
      }
    }
  }
  EXPECT_GT(failed, 0u);
  EXPECT_GT(decoded, 0u);
}

TEST(CalldataFuzz, HandleDeliverPassesOnlyCommittedValuesToCallbacks) {
  uint64_t accepted = 0;
  uint64_t reverted = 0;
  uint64_t callbacks = 0;
  for (uint64_t seed : kSeeds) {
    // A fresh chain per seed: reads that mutated delivers leave unanswered
    // stay pending, so one chain's ledger (and the work it admits) would
    // grow with the budget.
    HonestRun run;
    ASSERT_FALSE(run.delivers.empty());
    chain::Blockchain& chain = run.system.Chain();
    const chain::Address manager = run.system.ManagerAddress();
    Rng rng(seed);
    for (const Bytes& deliver : run.delivers) {
      const std::vector<size_t> entries = EntryOffsets(deliver);
      for (int m = 0; m < kMutationsPerInput; ++m) {
        // Re-issue the point reads the honest deliver answers, so mutated
        // entries pass the pending-request ledger and reach verification.
        chain::AbiReader honest(deliver);
        const uint64_t n = honest.U64();
        for (uint64_t i = 0; i < n; ++i) {
          const DeliverEntry entry = DecodeDeliverEntry(honest).value();
          if (entry.kind == DeliverEntry::Kind::kScan) continue;
          for (uint64_t rep = 0; rep < entry.repeats; ++rep) {
            run.system.Consumer().QueueRead(entry.key);
          }
        }
        run.RunQueued();

        const size_t history0 = chain.CallHistory().size();
        chain::Transaction tx;
        tx.from = GrubSystem::kSpAccount;
        tx.to = manager;
        tx.function = StorageManagerContract::kDeliverFn;
        tx.calldata = Mutate(deliver, entries, rng);
        const chain::Receipt receipt = chain.SubmitAndMine(std::move(tx));
        (receipt.ok() ? accepted : reverted) += 1;

        // Every callback the deliver made, kept even when it reverted
        // later: the value is the committed one, and an absence is real.
        const auto& history = chain.CallHistory();
        for (size_t i = history0 + 1; i < history.size(); ++i) {
          const chain::CallRecord& call = history[i];
          if (!call.internal || call.caller != manager) continue;
          chain::AbiReader r(call.calldata);
          const Bytes key = r.Blob();
          const Bytes value = r.Blob();
          const bool found = r.U64() != 0;
          auto it = run.committed.find(key);
          if (found) {
            ASSERT_NE(it, run.committed.end())
                << "uncommitted key " << ToHex(key);
            ASSERT_EQ(value, it->second) << "forged value for " << ToHex(key);
          } else {
            ASSERT_EQ(it, run.committed.end())
                << "live key " << ToHex(key) << " reported absent";
          }
          callbacks += 1;
        }
      }
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(reverted, 0u);
  EXPECT_GT(callbacks, 0u);
}

}  // namespace
}  // namespace grub::core
