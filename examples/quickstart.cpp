// Quickstart: assemble a GRuB deployment, feed it data, read it back, and
// watch the workload-adaptive replication react — in ~60 lines of API use.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "grub/system.h"
#include "workload/trace.h"

int main() {
  using namespace grub;

  // 1. One GrubSystem = blockchain + storage-manager contract + untrusted
  //    SP (records + Merkle tree) + SP watchdog + DO control plane.
  //    The policy is pluggable; Algorithm 1 (memoryless, K=2) here.
  core::GrubSystem system(core::SystemOptions{},
                          std::make_unique<core::MemorylessPolicy>(2));

  // 2. Preload the feed's key space (an asset catalogue, say).
  system.Preload({
      {ToBytes("ETH/USD"), ToBytes("price:150")},
      {ToBytes("BTC/USD"), ToBytes("price:9000")},
      {ToBytes("XAU/USD"), ToBytes("price:1500")},
  });
  std::printf("preloaded 3 records; ADS root = %s...\n",
              system.Do().Root().Hex().substr(0, 16).c_str());

  // 3. The DO streams updates; they buffer into the current epoch and ship
  //    in ONE update() transaction when the epoch closes.
  system.Write(ToBytes("ETH/USD"), ToBytes("price:152"));
  system.Write(ToBytes("BTC/USD"), ToBytes("price:9050"));
  system.EndEpoch();
  std::printf("epoch closed; total Gas so far = %llu\n",
              static_cast<unsigned long long>(system.TotalGas()));

  // 4. A consumer contract reads through gGet. The record is off-chain
  //    (NR), so the storage manager emits a `request` event and the SP
  //    watchdog answers with a Merkle-proved deliver transaction.
  system.ReadNow(ToBytes("ETH/USD"));
  const auto& received = system.Consumer().received();
  std::printf("read 1 -> \"%s\" (served off-chain, proof-verified)\n",
              ToString(received.back().second).c_str());

  // 5. A second consecutive read flips the memoryless decision to R: the
  //    next deliver materializes an on-chain replica...
  system.ReadNow(ToBytes("ETH/USD"));
  // ...and further reads are cheap on-chain storage loads: no deliver.
  const uint64_t delivers_before = system.Daemon().delivers_sent();
  system.ReadNow(ToBytes("ETH/USD"));
  std::printf("read 3 -> \"%s\" (replica hit: %s)\n",
              ToString(received.back().second).c_str(),
              system.Daemon().delivers_sent() == delivers_before
                  ? "no deliver needed"
                  : "unexpected deliver!");

  // 6. A write resets the decision (Algorithm 1): the replica is evicted in
  //    the next update() and reads fall back to the off-chain path.
  system.Write(ToBytes("ETH/USD"), ToBytes("price:149"));
  system.EndEpoch();
  system.ReadNow(ToBytes("ETH/USD"));
  std::printf("after write -> \"%s\" (fresh value, replica evicted)\n",
              ToString(received.back().second).c_str());

  std::printf("\nGas breakdown: %s\n",
              system.TotalBreakdown().ToString().c_str());
  std::printf("every value above was verified against the DO's Merkle root "
              "on chain.\n");
  return 0;
}
