#include "grub/consumer.h"

#include "chain/abi.h"
#include "grub/storage_manager.h"

namespace grub::core {
namespace {

// The queued keys live on the C++ object, not in chain storage, so a reorg
// replay of a `run` transaction would otherwise consume the WRONG queue (the
// next batch, or nothing). The first execution records the consumed batch as
// the transaction's replay payload; a replay decodes it instead.
Bytes EncodeBatch(const std::vector<Bytes>& keys,
                  const std::vector<std::pair<Bytes, Bytes>>& scans) {
  uint64_t size = 8 + 8;  // the two counts
  for (const auto& key : keys) size += 8 + key.size();
  for (const auto& [start, end] : scans) size += 16 + start.size() + end.size();
  chain::AbiWriter w(size);
  w.U64(keys.size());
  for (const auto& key : keys) w.Blob(key);
  w.U64(scans.size());
  for (const auto& [start, end] : scans) {
    w.Blob(start);
    w.Blob(end);
  }
  return w.Take();
}

void DecodeBatch(ByteSpan payload, std::vector<Bytes>& keys,
                 std::vector<std::pair<Bytes, Bytes>>& scans) {
  chain::AbiReader r(payload);
  const uint64_t n_keys = r.U64();
  for (uint64_t i = 0; i < n_keys; ++i) keys.push_back(r.Blob());
  const uint64_t n_scans = r.U64();
  for (uint64_t i = 0; i < n_scans; ++i) {
    Bytes start = r.Blob();
    Bytes end = r.Blob();
    scans.emplace_back(std::move(start), std::move(end));
  }
}

}  // namespace

Bytes ConsumerContract::EncodeRun(uint64_t expected_reads) {
  chain::AbiWriter w;
  w.U64(expected_reads);
  return w.Take();
}

Status ConsumerContract::Call(chain::CallContext& ctx,
                              const std::string& function, ByteSpan args) {
  if (function == kRunFn) {
    std::vector<Bytes> batch;
    std::vector<std::pair<Bytes, Bytes>> scans;
    const bool is_replay = !ctx.ReplayPayload().empty();
    if (is_replay) {
      DecodeBatch(ctx.ReplayPayload(), batch, scans);
    } else {
      batch = std::move(queued_);
      queued_.clear();
      scans = std::move(queued_scans_);
      queued_scans_.clear();
      ctx.RecordReplayPayload(EncodeBatch(batch, scans));
    }
    for (const auto& key : batch) {
      // A reorg replay re-issues a request whose span is already open (or
      // answered); annotate it instead of opening a duplicate.
      if (tracer_ != nullptr) {
        if (is_replay) {
          tracer_->AnnotateRequest(key, /*is_scan=*/false, "reorg.replay",
                                   ctx.BlockNumber());
        } else {
          tracer_->BeginRequest(key, /*is_scan=*/false, Bytes{},
                                ctx.BlockNumber());
        }
      }
      auto result = ctx.InternalCall(
          manager_, StorageManagerContract::kGGetFn,
          StorageManagerContract::EncodeGGet(key, address(), kOnDataFn));
      if (!result.ok()) return result.status();
    }
    for (const auto& [start, end] : scans) {
      if (tracer_ != nullptr) {
        if (is_replay) {
          tracer_->AnnotateRequest(start, /*is_scan=*/true, "reorg.replay",
                                   ctx.BlockNumber());
        } else {
          tracer_->BeginRequest(start, /*is_scan=*/true, end,
                                ctx.BlockNumber());
        }
      }
      auto result = ctx.InternalCall(
          manager_, StorageManagerContract::kGScanFn,
          StorageManagerContract::EncodeGScan(start, end, address(),
                                              kOnDataFn));
      if (!result.ok()) return result.status();
    }
    return Status::Ok();
  }

  if (function == kOnDataFn) {
    // Read in place from this call's calldata; only a delivered value is
    // copied, into the received log.
    chain::AbiReader r(args);
    const ByteSpan key = r.BlobView();
    const ByteSpan value = r.BlobView();
    const bool found = r.U64() != 0;
    if (tracer_ != nullptr) {
      tracer_->CompleteRequest(key, ctx.BlockNumber(), found);
    }
    if (found) {
      values_received_ += 1;
      received_.emplace_back(Bytes(key.begin(), key.end()),
                             Bytes(value.begin(), value.end()));
    } else {
      misses_received_ += 1;
    }
    return Status::Ok();
  }

  return Status::NotFound("Consumer: unknown function " + function);
}

}  // namespace grub::core
