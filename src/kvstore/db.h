// Embedded key-value store facade (LevelDB stand-in for the SP).
//
// Write path: WAL append -> memtable; memtable flushes to an immutable
// sorted run when it exceeds `Options::memtable_flush_bytes`; runs are
// merge-compacted into one when their count exceeds
// `Options::max_runs_before_compaction`.
//
// Read path: memtable, then runs newest-first. Scans use a MergingIterator
// across all levels with tombstone suppression.
//
// With a path the store persists and recovers across Open() calls; the SP
// opens one as its backing store only when given a db path (ads/sp.h). An
// empty `path` gives a purely in-memory store, which nothing on the
// simulation path opens. The store keeps no counters or timers: no grubctl
// or grub-bench run opens one, so a probe here would only ever read 0.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "fault/injector.h"
#include "kvstore/iterator.h"
#include "kvstore/memtable.h"
#include "kvstore/sstable.h"
#include "kvstore/wal.h"

namespace grub::kv {

struct Options {
  size_t memtable_flush_bytes = 4 << 20;
  size_t max_runs_before_compaction = 4;
  bool sync_writes = false;
};

struct KVPair {
  Bytes key;
  Bytes value;
};

class KVStore {
 public:
  /// Opens a store. Empty `path` = in-memory only. Recovery order: sorted
  /// runs from the manifest, then WAL replay into the memtable.
  static Result<std::unique_ptr<KVStore>> Open(const Options& options,
                                               const std::string& path);

  Status Put(ByteSpan key, ByteSpan value);
  Status Delete(ByteSpan key);

  /// Returns the live value, or kNotFound.
  Result<Bytes> Get(ByteSpan key) const;

  /// All live pairs with start <= key < end (end empty = unbounded), at most
  /// `limit` (0 = unlimited).
  std::vector<KVPair> Scan(ByteSpan start, ByteSpan end, size_t limit) const;

  /// Iterator over live entries only (tombstones hidden).
  std::unique_ptr<Iterator> NewIterator() const;

  /// Forces the memtable into a sorted run (used by tests).
  Status Flush();

  size_t RunCount() const { return runs_.size(); }

  /// Installs the fault injector consulted at the store's fault points:
  /// kv.wal.append_fail, kv.wal.torn, kv.wal.sync_fail (LogWrite) and
  /// kv.sstable.partial_flush (Flush). Null detaches. Points only engage a
  /// persistent store (non-empty path with a live WAL).
  void SetFaultInjector(fault::FaultInjector* faults) { faults_ = faults; }

 private:
  KVStore(Options options, std::string path)
      : options_(std::move(options)), path_(std::move(path)) {}

  Status MaybeFlush();
  Status Compact();
  Status LogWrite(const WalRecord& record);
  std::string RunPath(uint64_t id) const;
  std::string WalPath() const;
  std::string ManifestPath() const;
  Status WriteManifest() const;

  Options options_;
  std::string path_;  // empty = in-memory
  MemTable memtable_;
  std::vector<std::shared_ptr<SSTable>> runs_;  // newest first
  std::vector<uint64_t> run_ids_;               // parallel to runs_
  uint64_t next_run_id_ = 1;
  std::optional<WalWriter> wal_;
  fault::FaultInjector* faults_ = nullptr;  // not owned; may be null
};

/// Wraps a MergingIterator, hiding tombstones — the public scan view.
class LiveIterator : public Iterator {
 public:
  explicit LiveIterator(std::unique_ptr<Iterator> inner)
      : inner_(std::move(inner)) {}

  bool Valid() const override { return inner_->Valid(); }
  void SeekToFirst() override {
    inner_->SeekToFirst();
    SkipTombstones();
  }
  void Seek(ByteSpan target) override {
    inner_->Seek(target);
    SkipTombstones();
  }
  void Next() override {
    inner_->Next();
    SkipTombstones();
  }
  ByteSpan key() const override { return inner_->key(); }
  ByteSpan value() const override { return inner_->value(); }
  bool IsTombstone() const override { return false; }

 private:
  void SkipTombstones() {
    while (inner_->Valid() && inner_->IsTombstone()) inner_->Next();
  }
  std::unique_ptr<Iterator> inner_;
};

}  // namespace grub::kv
