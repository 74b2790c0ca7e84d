#include "apps/pegged_token.h"

#include <cstdio>
#include <cstdlib>

namespace grub::apps {

namespace {

// Callback selector carrying the request id ("onHeader#<id>") — a
// per-request callback registration.
std::string CallbackFor(uint64_t request_id) {
  return std::string(PeggedToken::kOnHeaderFn) + "#" +
         std::to_string(request_id);
}

bool ParseCallback(const std::string& function, uint64_t& request_id) {
  const std::string prefix = std::string(PeggedToken::kOnHeaderFn) + "#";
  if (function.rfind(prefix, 0) != 0) return false;
  request_id = std::strtoull(function.c_str() + prefix.size(), nullptr, 10);
  return true;
}

Word SlotFor(const char* tag, uint64_t request_id, uint64_t extra = 0) {
  Bytes payload = ToBytes(tag);
  Append(payload, U64ToBytes(request_id));
  Append(payload, U64ToBytes(extra));
  return Sha256::Digest(payload);
}

uint64_t ParseHeightKey(ByteSpan key) {
  // HeightKey layout: 'h' + 15 decimal digits.
  std::string s = ToString(key);
  if (s.empty() || s[0] != 'h') return UINT64_MAX;
  return std::strtoull(s.c_str() + 1, nullptr, 10);
}

// Meta word: byte0 = kind, bytes 8..16 = start height, byte 31 = received
// bitmask over the confirmation offsets.
struct Meta {
  PeggedToken::Kind kind = PeggedToken::Kind::kMint;
  uint64_t start_height = 0;
  uint8_t received_mask = 0;

  Word Pack() const {
    Word w{};
    w.bytes[0] = static_cast<uint8_t>(kind);
    uint64_t h = start_height;
    for (int i = 15; i >= 8; --i) {
      w.bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(h & 0xFF);
      h >>= 8;
    }
    w.bytes[31] = received_mask;
    return w;
  }
  static Meta Unpack(const Word& w) {
    Meta m;
    m.kind = static_cast<PeggedToken::Kind>(w.bytes[0]);
    for (size_t i = 8; i < 16; ++i) {
      m.start_height = (m.start_height << 8) | w.bytes[i];
    }
    m.received_mask = w.bytes[31];
    return m;
  }
};

}  // namespace

Word PeggedToken::ProgressSlot(uint64_t request_id) {
  return SlotFor("peg.meta", request_id);
}
Word PeggedToken::RootSlot(uint64_t request_id) {
  return SlotFor("peg.root", request_id);
}
Word PeggedToken::HeaderHashSlot(uint64_t request_id, uint64_t offset) {
  return SlotFor("peg.hash", request_id, offset);
}
Word PeggedToken::HeaderPrevSlot(uint64_t request_id, uint64_t offset) {
  return SlotFor("peg.prev", request_id, offset);
}

Bytes PeggedToken::HeightKey(uint64_t height) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "h%015llu",
                static_cast<unsigned long long>(height));
  return ToBytes(buf);
}

Bytes PeggedToken::EncodeOpen(uint64_t request_id, Kind kind,
                              uint64_t start_height) {
  chain::AbiWriter w;
  w.U64(request_id);
  w.U64(static_cast<uint64_t>(kind));
  w.U64(start_height);
  return w.Take();
}

Bytes PeggedToken::EncodeFinalize(uint64_t request_id, const SpvProof& proof,
                                  chain::Address account, uint64_t amount) {
  chain::AbiWriter w;
  w.U64(request_id);
  w.Hash(proof.txid);
  w.U64(proof.index);
  w.U64(proof.tree_capacity);
  w.HashList(proof.path.siblings);
  w.U64(account);
  w.U64(amount);
  return w.Take();
}

Status PeggedToken::Call(chain::CallContext& ctx, const std::string& function,
                         ByteSpan args) {
  if (function == kOpenFn) return HandleOpen(ctx, args);
  if (function == kFinalizeFn) return HandleFinalize(ctx, args);
  uint64_t request_id = 0;
  if (ParseCallback(function, request_id)) {
    return HandleHeader(ctx, request_id, args);
  }
  return Status::NotFound("PeggedToken: unknown function " + function);
}

Status PeggedToken::HandleOpen(chain::CallContext& ctx, ByteSpan args) {
  chain::AbiReader r(args);
  const uint64_t request_id = r.U64();
  const Kind kind = static_cast<Kind>(r.U64());
  const uint64_t start_height = r.U64();
  if (kind != Kind::kMint && kind != Kind::kBurn) {
    return Status::InvalidArgument("open: bad kind");
  }
  if (config_.confirmations == 0 || config_.confirmations > 8) {
    return Status::FailedPrecondition("open: confirmations must be 1..8");
  }

  ctx.Meter().ChargeHash(1);
  const Word meta_slot = ProgressSlot(request_id);
  if (!ctx.Storage().SLoad(meta_slot).IsZero()) {
    return Status::AlreadyExists("open: request id in use");
  }
  Meta meta{kind, start_height, 0};
  ctx.Storage().SStore(meta_slot, meta.Pack());

  // Header reads: heights h .. h+confirmations-1.
  for (uint64_t i = 0; i < config_.confirmations; ++i) {
    Bytes gget_args = core::StorageManagerContract::EncodeGGet(
        HeightKey(start_height + i), address(), CallbackFor(request_id));
    auto result = ctx.InternalCall(config_.storage_manager,
                                   core::StorageManagerContract::kGGetFn,
                                   std::move(gget_args));
    if (!result.ok()) return result.status();
  }
  return Status::Ok();
}

Status PeggedToken::HandleHeader(chain::CallContext& ctx, uint64_t request_id,
                                 ByteSpan args) {
  chain::AbiReader r(args);
  Bytes key = r.Blob();
  Bytes value = r.Blob();
  const bool found = r.U64() != 0;
  if (!found) return Status::NotFound("onHeader: header missing from feed");

  auto header = BitcoinHeader::Deserialize(value);
  if (!header.ok()) return header.status();

  ctx.Meter().ChargeHash(1);
  const Word meta_slot = ProgressSlot(request_id);
  const Word packed = ctx.Storage().SLoad(meta_slot);
  if (packed.IsZero()) return Status::NotFound("onHeader: unknown request");
  Meta meta = Meta::Unpack(packed);

  const uint64_t height = ParseHeightKey(key);
  if (height < meta.start_height ||
      height >= meta.start_height + config_.confirmations) {
    return Status::InvalidArgument("onHeader: height outside window");
  }
  const uint64_t offset = height - meta.start_height;
  if (meta.received_mask & (1u << offset)) {
    return Status::Ok();  // duplicate delivery: idempotent
  }

  // Block hash: double SHA-256 of the 80-byte header (3 words each).
  ctx.Meter().ChargeHash(3);
  ctx.Meter().ChargeHash(1);
  const Hash256 block_hash = header->BlockHash();

  ctx.Meter().ChargeHash(2);  // slot derivations
  ctx.Storage().SStore(HeaderHashSlot(request_id, offset), block_hash);
  ctx.Storage().SStore(HeaderPrevSlot(request_id, offset),
                       header->prev_block);
  if (offset == 0) {
    ctx.Storage().SStore(RootSlot(request_id), header->merkle_root);
  }

  meta.received_mask |= static_cast<uint8_t>(1u << offset);
  ctx.Storage().SStore(meta_slot, meta.Pack());
  return Status::Ok();
}

Status PeggedToken::HandleFinalize(chain::CallContext& ctx, ByteSpan args) {
  chain::AbiReader r(args);
  const uint64_t request_id = r.U64();
  SpvProof proof;
  proof.txid = r.Hash();
  proof.index = r.U64();
  proof.tree_capacity = r.U64();
  proof.path.siblings = r.HashList();
  const chain::Address account = r.U64();
  const uint64_t amount = r.U64();

  ctx.Meter().ChargeHash(1);
  const Word meta_slot = ProgressSlot(request_id);
  const Word packed = ctx.Storage().SLoad(meta_slot);
  if (packed.IsZero()) return Status::NotFound("finalize: unknown request");
  Meta meta = Meta::Unpack(packed);

  const uint8_t full_mask =
      static_cast<uint8_t>((1u << config_.confirmations) - 1);
  if (meta.received_mask != full_mask) {
    return Status::FailedPrecondition("finalize: not enough confirmations");
  }

  // Chain linkage: header i must point at header i-1.
  for (uint64_t i = 1; i < config_.confirmations; ++i) {
    ctx.Meter().ChargeHash(2);  // slot derivations
    const Word prev = ctx.Storage().SLoad(HeaderPrevSlot(request_id, i));
    const Word expected = ctx.Storage().SLoad(HeaderHashSlot(request_id, i - 1));
    if (prev != expected) {
      linkage_failures_ += 1;
      return Status::IntegrityViolation("finalize: header linkage broken");
    }
  }

  // SPV inclusion against the first header's Merkle root.
  ctx.Meter().ChargeHash(1);
  const Word root = ctx.Storage().SLoad(RootSlot(request_id));
  BitcoinHeader synthetic;
  synthetic.merkle_root = root;
  const bool ok = VerifySpv(synthetic, proof, [&ctx](size_t bytes) {
    ctx.Meter().ChargeHash(WordsForBytes(bytes));
  });
  if (!ok) return Status::IntegrityViolation("finalize: SPV proof invalid");

  if (token_ == chain::kNullAddress) {
    return Status::FailedPrecondition("finalize: token not configured");
  }
  if (meta.kind == Kind::kMint) {
    auto result = ctx.InternalCall(token_, Erc20Token::kMintFn,
                                   Erc20Token::EncodeMint(account, amount));
    if (!result.ok()) return result.status();
    mints_completed_ += 1;
  } else {
    auto result = ctx.InternalCall(token_, Erc20Token::kBurnFn,
                                   Erc20Token::EncodeBurn(account, amount));
    if (!result.ok()) return result.status();
    burns_completed_ += 1;
  }

  // Clear request state (storage refunds ignored, conservative).
  ctx.Storage().SStore(meta_slot, Word{});
  ctx.Storage().SStore(RootSlot(request_id), Word{});
  for (uint64_t i = 0; i < config_.confirmations; ++i) {
    ctx.Storage().SStore(HeaderHashSlot(request_id, i), Word{});
    ctx.Storage().SStore(HeaderPrevSlot(request_id, i), Word{});
  }
  return Status::Ok();
}

}  // namespace grub::apps
