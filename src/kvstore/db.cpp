#include "kvstore/db.h"

#include <filesystem>
#include <fstream>


namespace grub::kv {

namespace fs = std::filesystem;

std::string KVStore::RunPath(uint64_t id) const {
  return path_ + "/run-" + std::to_string(id) + ".sst";
}
std::string KVStore::WalPath() const { return path_ + "/wal.log"; }
std::string KVStore::ManifestPath() const { return path_ + "/MANIFEST"; }

Status KVStore::WriteManifest() const {
  if (path_.empty()) return Status::Ok();
  // Newest-first list of run ids, one per line. Written atomically via rename.
  const std::string tmp = ManifestPath() + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f.is_open()) {
      return Status::Unavailable("KVStore: cannot write manifest");
    }
    for (uint64_t id : run_ids_) f << id << "\n";
    f.flush();
    if (!f) return Status::Unavailable("KVStore: manifest write failed");
  }
  std::error_code ec;
  fs::rename(tmp, ManifestPath(), ec);
  if (ec) return Status::Unavailable("KVStore: manifest rename failed");
  return Status::Ok();
}

Result<std::unique_ptr<KVStore>> KVStore::Open(const Options& options,
                                               const std::string& path) {
  auto db = std::unique_ptr<KVStore>(new KVStore(options, path));
  if (path.empty()) return db;

  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) return Status::Unavailable("KVStore::Open: cannot create " + path);

  // Recover sorted runs from the manifest.
  if (fs::exists(db->ManifestPath())) {
    std::ifstream mf(db->ManifestPath());
    uint64_t id = 0;
    while (mf >> id) {
      auto table = SSTable::Load(db->RunPath(id));
      if (!table.ok()) return table.status();
      db->runs_.push_back(std::make_shared<SSTable>(std::move(table).value()));
      db->run_ids_.push_back(id);
      db->next_run_id_ = std::max(db->next_run_id_, id + 1);
    }
  }

  // Replay the WAL into the memtable.
  auto replayed = ReplayWal(db->WalPath(), [&](const WalRecord& r) {
    if (r.is_delete) {
      db->memtable_.Delete(r.key);
    } else {
      db->memtable_.Put(r.key, r.value);
    }
  });
  if (!replayed.ok()) return replayed.status();

  auto wal = WalWriter::Open(db->WalPath());
  if (!wal.ok()) return wal.status();
  db->wal_ = std::move(wal).value();
  return db;
}

Status KVStore::LogWrite(const WalRecord& record) {
  if (!wal_) return Status::Ok();
  if (GRUB_FAULT_POINT(faults_, "kv.wal.append_fail")) {
    // The write never reaches the file; the memtable must not apply it.
    return Status::Unavailable("fault: WAL append failed");
  }
  if (GRUB_FAULT_POINT(faults_, "kv.wal.torn")) {
    // Crash mid-append: half of the framed record reaches the file. Replay
    // must stop at the torn record and keep only the intact prefix.
    const size_t framed_size = EncodeWalRecord(record).size();
    Status s = wal_->AppendTorn(record, framed_size / 2);
    if (!s.ok()) return s;
    return Status::Unavailable("fault: torn WAL append");
  }
  Status s = wal_->Append(record);
  if (!s.ok()) return s;
  if (options_.sync_writes) {
    if (GRUB_FAULT_POINT(faults_, "kv.wal.sync_fail")) {
      return Status::Unavailable("fault: WAL fsync failed");
    }
    return wal_->Sync();
  }
  return Status::Ok();
}

Status KVStore::Put(ByteSpan key, ByteSpan value) {
  WalRecord record{.is_delete = false,
                   .key = Bytes(key.begin(), key.end()),
                   .value = Bytes(value.begin(), value.end())};
  Status s = LogWrite(record);
  if (!s.ok()) return s;
  memtable_.Put(key, value);
  return MaybeFlush();
}

Status KVStore::Delete(ByteSpan key) {
  WalRecord record{.is_delete = true,
                   .key = Bytes(key.begin(), key.end()),
                   .value = {}};
  Status s = LogWrite(record);
  if (!s.ok()) return s;
  memtable_.Delete(key);
  return MaybeFlush();
}

Result<Bytes> KVStore::Get(ByteSpan key) const {
  if (auto hit = memtable_.Get(key)) {
    if (!hit->has_value()) return Status::NotFound("deleted");
    return **hit;
  }
  for (const auto& run : runs_) {
    if (auto hit = run->Get(key)) {
      if (!hit->has_value()) return Status::NotFound("deleted");
      return **hit;
    }
  }
  return Status::NotFound("no such key");
}

std::vector<KVPair> KVStore::Scan(ByteSpan start, ByteSpan end,
                                  size_t limit) const {
  std::vector<KVPair> out;
  auto it = NewIterator();
  it->Seek(start);
  while (it->Valid()) {
    if (!end.empty() && Compare(it->key(), end) >= 0) break;
    out.push_back(KVPair{Bytes(it->key().begin(), it->key().end()),
                         Bytes(it->value().begin(), it->value().end())});
    if (limit != 0 && out.size() >= limit) break;
    it->Next();
  }
  return out;
}

std::unique_ptr<Iterator> KVStore::NewIterator() const {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(memtable_.NewIterator());
  for (const auto& run : runs_) children.push_back(run->NewIterator());
  return std::make_unique<LiveIterator>(
      std::make_unique<MergingIterator>(std::move(children)));
}

Status KVStore::MaybeFlush() {
  if (memtable_.ApproximateBytes() < options_.memtable_flush_bytes) {
    return Status::Ok();
  }
  return Flush();
}

Status KVStore::Flush() {
  if (memtable_.Empty()) return Status::Ok();

  std::vector<TableEntry> entries;
  entries.reserve(memtable_.EntryCount());
  auto it = memtable_.NewIterator();
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    TableEntry e;
    e.key = Bytes(it->key().begin(), it->key().end());
    if (!it->IsTombstone()) {
      e.value = Bytes(it->value().begin(), it->value().end());
    }
    entries.push_back(std::move(e));
  }
  auto table = SSTable::FromEntries(std::move(entries));
  if (!table.ok()) return table.status();

  const uint64_t id = next_run_id_++;
  auto run = std::make_shared<SSTable>(std::move(table).value());
  if (!path_.empty()) {
    Status s = run->WriteTo(RunPath(id));
    if (!s.ok()) return s;
    if (GRUB_FAULT_POINT(faults_, "kv.sstable.partial_flush")) {
      // Crash mid-flush: the run file is truncated on disk and the manifest
      // never learns about it. The memtable and WAL still hold the data, so
      // recovery replays the WAL and only an orphan file is left behind.
      std::error_code ec;
      const auto full = fs::file_size(RunPath(id), ec);
      if (!ec) fs::resize_file(RunPath(id), full / 2, ec);
      return Status::Unavailable("fault: crash during sstable flush");
    }
  }
  runs_.insert(runs_.begin(), std::move(run));
  run_ids_.insert(run_ids_.begin(), id);
  memtable_ = MemTable();

  if (!path_.empty()) {
    // Manifest now covers the flushed data; the WAL can restart empty.
    Status s = WriteManifest();
    if (!s.ok()) return s;
    wal_.reset();
    std::error_code ec;
    fs::remove(WalPath(), ec);
    auto wal = WalWriter::Open(WalPath());
    if (!wal.ok()) return wal.status();
    wal_ = std::move(wal).value();
  }

  if (runs_.size() > options_.max_runs_before_compaction) return Compact();
  return Status::Ok();
}

Status KVStore::Compact() {
  // Merge all runs into one, dropping tombstones (full compaction).
  std::vector<std::unique_ptr<Iterator>> children;
  for (const auto& run : runs_) children.push_back(run->NewIterator());
  MergingIterator merged(std::move(children));

  std::vector<TableEntry> entries;
  for (merged.SeekToFirst(); merged.Valid(); merged.Next()) {
    if (merged.IsTombstone()) continue;
    TableEntry e;
    e.key = Bytes(merged.key().begin(), merged.key().end());
    e.value = Bytes(merged.value().begin(), merged.value().end());
    entries.push_back(std::move(e));
  }
  auto table = SSTable::FromEntries(std::move(entries));
  if (!table.ok()) return table.status();

  const uint64_t id = next_run_id_++;
  auto run = std::make_shared<SSTable>(std::move(table).value());
  if (!path_.empty()) {
    Status s = run->WriteTo(RunPath(id));
    if (!s.ok()) return s;
  }

  std::vector<uint64_t> old_ids = run_ids_;
  runs_.clear();
  run_ids_.clear();
  runs_.push_back(std::move(run));
  run_ids_.push_back(id);

  if (!path_.empty()) {
    Status s = WriteManifest();
    if (!s.ok()) return s;
    std::error_code ec;
    for (uint64_t old : old_ids) fs::remove(RunPath(old), ec);
  }
  return Status::Ok();
}

}  // namespace grub::kv
