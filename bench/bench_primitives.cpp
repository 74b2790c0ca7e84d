// Microbenchmarks of the substrate primitives (google-benchmark): SHA-256,
// Merkle proofs, the embedded KV store, per-key policy lookups, and
// simulated chain transactions.
// These gate performance regressions in the simulator itself — wall-clock,
// not Gas. The run's context names the SHA-256 kernel the CPU selected
// ("sha256_kernel": "sha-ni" or "scalar"), so every hashing row names its
// source.
#include <benchmark/benchmark.h>

#include "ads/sp.h"
#include "chain/blockchain.h"
#include "common/rng.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"
#include "crypto/sha256_kernels.h"
#include "grub/policy.h"
#include "kvstore/db.h"
#include "workload/trace.h"

namespace {

using namespace grub;

void BM_Sha256(benchmark::State& state) {
  Bytes data(static_cast<size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Digest(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_MerkleBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) leaves[i] = Hash256::FromU64(i);
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MerkleBuild)->Arg(1024)->Arg(65536);

// The fixed-shape 65-byte node hash alone, chained as an audit path is:
// each result feeds the next call.
void BM_MerkleHashNode(benchmark::State& state) {
  Hash256 acc = Hash256::FromU64(1);
  const Hash256 sibling = Hash256::FromU64(2);
  for (auto _ : state) {
    acc = MerkleTree::HashNode(acc, sibling);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MerkleHashNode);

void BM_MerkleProveVerify(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) leaves[i] = Hash256::FromU64(i);
  MerkleTree tree(leaves);
  const Hash256 root = tree.Root();
  size_t i = 0;
  for (auto _ : state) {
    auto proof = tree.ProveLeaf(i % n);
    benchmark::DoNotOptimize(
        MerkleTree::VerifyLeaf(root, leaves[i % n], i % n, tree.Capacity(),
                               proof));
    ++i;
  }
}
BENCHMARK(BM_MerkleProveVerify)->Arg(1024)->Arg(65536);

void BM_MerkleUpdateLeaf(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Hash256> leaves(n);
  for (size_t i = 0; i < n; ++i) leaves[i] = Hash256::FromU64(i);
  MerkleTree tree(leaves);
  size_t i = 0;
  for (auto _ : state) {
    tree.SetLeaf(i % n, Hash256::FromU64(i));
    ++i;
  }
  benchmark::DoNotOptimize(tree.Root());
}
BENCHMARK(BM_MerkleUpdateLeaf)->Arg(65536);

void BM_KVStorePut(benchmark::State& state) {
  auto db = kv::KVStore::Open(kv::Options{}, "").value();
  uint64_t i = 0;
  Bytes value(128, 0x7F);
  for (auto _ : state) {
    (void)db->Put(workload::MakeKey(i % 100000), value);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KVStorePut);

void BM_KVStoreGet(benchmark::State& state) {
  auto db = kv::KVStore::Open(kv::Options{}, "").value();
  Bytes value(128, 0x7F);
  for (uint64_t i = 0; i < 10000; ++i) (void)db->Put(workload::MakeKey(i), value);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(workload::MakeKey(i % 10000)));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KVStoreGet);

void BM_KVStoreScan100(benchmark::State& state) {
  auto db = kv::KVStore::Open(kv::Options{}, "").value();
  Bytes value(128, 0x7F);
  for (uint64_t i = 0; i < 10000; ++i) (void)db->Put(workload::MakeKey(i), value);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        db->Scan(workload::MakeKey(i % 9900), {}, 100));
    ++i;
  }
}
BENCHMARK(BM_KVStoreScan100);

void BM_AdsSpGetProof(benchmark::State& state) {
  ads::AdsSp sp;
  Bytes value(128, 0x11);
  for (uint64_t i = 0; i < 4096; ++i) {
    (void)sp.ApplyPut(
        ads::FeedRecord{workload::MakeKey(i), value, ads::ReplState::kNR});
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sp.Get(workload::MakeKey(i % 4096)));
    ++i;
  }
}
BENCHMARK(BM_AdsSpGetProof);

// The DO's per-read policy step (DoClient::NoteRead): one Observe, which
// returns the key's tier before and after, over a warmed table of `n` keys
// visited in a shuffled order, so each step is a lookup of a key the last
// one did not touch.
void BM_PolicyObserve(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  core::MemorylessPolicy policy(2);
  std::vector<workload::Operation> reads;
  reads.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    reads.push_back(workload::Operation::Read(workload::MakeKey(i)));
    policy.Observe(reads.back());
  }
  Rng rng(n);
  for (size_t i = reads.size() - 1; i > 0; --i) {
    std::swap(reads[i], reads[rng.NextBounded(i + 1)]);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.Observe(reads[i]));
    if (++i == reads.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PolicyObserve)->Arg(65536);

// A contract that burns a fixed storage write (simulated tx throughput).
class TouchContract : public chain::Contract {
 public:
  Status Call(chain::CallContext& ctx, const std::string&,
              ByteSpan) override {
    ctx.Storage().SStore(Word::FromU64(1), Word::FromU64(++counter_));
    return Status::Ok();
  }

 private:
  uint64_t counter_ = 0;
};

void BM_ChainTransaction(benchmark::State& state) {
  chain::Blockchain chain;
  chain::Address addr = chain.Deploy(std::make_unique<TouchContract>());
  for (auto _ : state) {
    chain::Transaction tx;
    tx.from = 1;
    tx.to = addr;
    tx.function = "touch";
    benchmark::DoNotOptimize(chain.SubmitAndMine(std::move(tx)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ChainTransaction);

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("sha256_kernel",
                              sha256_kernels::SelectedName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
