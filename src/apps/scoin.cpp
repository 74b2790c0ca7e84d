#include "apps/scoin.h"

namespace grub::apps {

namespace {

struct Order {
  bool is_issue = false;
  chain::Address account = chain::kNullAddress;
  uint64_t amount = 0;
};

// Packs an order into one storage word:
// byte 0 = flag (1 issue / 2 redeem), bytes 8..16 = account, 16..24 = amount.
Word PackOrder(const Order& order) {
  Word w{};
  w.bytes[0] = order.is_issue ? 1 : 2;
  uint64_t account = order.account;
  for (int i = 15; i >= 8; --i) {
    w.bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(account & 0xFF);
    account >>= 8;
  }
  uint64_t amount = order.amount;
  for (int i = 23; i >= 16; --i) {
    w.bytes[static_cast<size_t>(i)] = static_cast<uint8_t>(amount & 0xFF);
    amount >>= 8;
  }
  return w;
}

Order UnpackOrder(const Word& w) {
  Order order;
  order.is_issue = w.bytes[0] == 1;
  for (size_t i = 8; i < 16; ++i) {
    order.account = (order.account << 8) | w.bytes[i];
  }
  for (size_t i = 16; i < 24; ++i) {
    order.amount = (order.amount << 8) | w.bytes[i];
  }
  return order;
}

// The sync-callback context: set while the gGet internal call is on the
// stack (models EVM memory within one transaction; costs no storage).
thread_local std::optional<Order> g_transient_order;

uint64_t DecodePrice(ByteSpan value) {
  // Price lives in the first 8 bytes (big-endian) of the feed value.
  if (value.size() < 8) return 0;
  return BytesToU64(value.subspan(0, 8));
}

}  // namespace

Word SCoinIssuer::LockedEtherSlot() {
  static const Word slot = Sha256::Digest(ToBytes("scoin.locked"));
  return slot;
}
Word SCoinIssuer::PendingHeadSlot() {
  static const Word slot = Sha256::Digest(ToBytes("scoin.head"));
  return slot;
}
Word SCoinIssuer::PendingTailSlot() {
  static const Word slot = Sha256::Digest(ToBytes("scoin.tail"));
  return slot;
}
Word SCoinIssuer::PendingOrderSlot(uint64_t index) {
  Bytes payload = ToBytes("scoin.order");
  Append(payload, U64ToBytes(index));
  return Sha256::Digest(payload);
}

Bytes SCoinIssuer::EncodeIssue(chain::Address buyer, uint64_t ether_amount) {
  chain::AbiWriter w;
  w.U64(buyer);
  w.U64(ether_amount);
  return w.Take();
}

Bytes SCoinIssuer::EncodeRedeem(chain::Address seller, uint64_t scoin_amount) {
  return EncodeIssue(seller, scoin_amount);
}

Status SCoinIssuer::Call(chain::CallContext& ctx, const std::string& function,
                         ByteSpan args) {
  chain::AbiReader r(args);
  if (function == kIssueFn) {
    const chain::Address buyer = r.U64();
    const uint64_t ether = r.U64();
    return StartOrder(ctx, /*is_issue=*/true, buyer, ether);
  }
  if (function == kRedeemFn) {
    const chain::Address seller = r.U64();
    const uint64_t scoin = r.U64();
    return StartOrder(ctx, /*is_issue=*/false, seller, scoin);
  }
  if (function == kOnPriceFn) {
    return HandlePrice(ctx, args);
  }
  return Status::NotFound("SCoinIssuer: unknown function " + function);
}

Status SCoinIssuer::StartOrder(chain::CallContext& ctx, bool is_issue,
                               chain::Address account, uint64_t amount) {
  if (amount == 0) return Status::InvalidArgument("order: zero amount");

  Order order{is_issue, account, amount};
  g_transient_order = order;
  Bytes gget_args = core::StorageManagerContract::EncodeGGet(
      config_.price_key, address(), kOnPriceFn);
  auto result = ctx.InternalCall(config_.storage_manager,
                                 core::StorageManagerContract::kGGetFn,
                                 std::move(gget_args));
  const bool pending = g_transient_order.has_value();
  g_transient_order.reset();
  if (!result.ok()) return result.status();

  if (pending) {
    // Price not replicated: the deliver transaction will settle the order
    // asynchronously. Persist it in the on-chain queue.
    const uint64_t tail = ctx.Storage().SLoad(PendingTailSlot()).ToU64();
    ctx.Storage().SStore(PendingOrderSlot(tail), PackOrder(order));
    ctx.Storage().SStore(PendingTailSlot(), Word::FromU64(tail + 1));
  }
  return Status::Ok();
}

Status SCoinIssuer::HandlePrice(chain::CallContext& ctx, ByteSpan args) {
  chain::AbiReader r(args);
  Bytes key = r.Blob();
  Bytes value = r.Blob();
  const bool found = r.U64() != 0;
  if (!found) return Status::NotFound("onPrice: price record missing");
  const uint64_t price = DecodePrice(value);
  if (price == 0) return Status::InvalidArgument("onPrice: zero price");
  last_price_seen_ = price;

  if (g_transient_order.has_value()) {
    // Synchronous path: the price was replicated; settle from memory.
    Order order = *g_transient_order;
    g_transient_order.reset();
    return Settle(ctx, order.is_issue, order.account, order.amount, price);
  }

  // Asynchronous path: pop the oldest pending order.
  const uint64_t head = ctx.Storage().SLoad(PendingHeadSlot()).ToU64();
  const uint64_t tail = ctx.Storage().SLoad(PendingTailSlot()).ToU64();
  if (head >= tail) return Status::Ok();  // spurious delivery: nothing queued
  const Word packed = ctx.Storage().SLoad(PendingOrderSlot(head));
  ctx.Storage().SStore(PendingOrderSlot(head), Word{});  // clear the slot
  ctx.Storage().SStore(PendingHeadSlot(), Word::FromU64(head + 1));
  Order order = UnpackOrder(packed);
  return Settle(ctx, order.is_issue, order.account, order.amount, price);
}

Status SCoinIssuer::Settle(chain::CallContext& ctx, bool is_issue,
                           chain::Address account, uint64_t amount,
                           uint64_t price) {
  if (token_ == chain::kNullAddress) {
    return Status::FailedPrecondition("SCoinIssuer: token not configured");
  }

  if (is_issue) {
    // `amount` Ether buys amount*price*100/collateral_pct SCoin; all the
    // Ether is locked as collateral.
    const uint64_t scoin = amount * price * 100 / config_.collateral_pct;
    if (scoin == 0) return Status::InvalidArgument("issue: amount too small");
    const uint64_t locked = ctx.Storage().SLoad(LockedEtherSlot()).ToU64();
    ctx.Storage().SStore(LockedEtherSlot(), Word::FromU64(locked + amount));
    auto result = ctx.InternalCall(token_, Erc20Token::kMintFn,
                                   Erc20Token::EncodeMint(account, scoin));
    if (!result.ok()) return result.status();
    issues_completed_ += 1;
    return Status::Ok();
  }

  // Redeem: burn `amount` SCoin, release the Ether it is pegged to.
  const uint64_t ether_out = amount * config_.collateral_pct / (price * 100);
  const uint64_t locked = ctx.Storage().SLoad(LockedEtherSlot()).ToU64();
  if (ether_out > locked) {
    return Status::FailedPrecondition("redeem: collateral underflow");
  }
  auto result = ctx.InternalCall(token_, Erc20Token::kBurnFn,
                                 Erc20Token::EncodeBurn(account, amount));
  if (!result.ok()) return result.status();
  ctx.Storage().SStore(LockedEtherSlot(), Word::FromU64(locked - ether_out));
  redeems_completed_ += 1;
  return Status::Ok();
}

}  // namespace grub::apps
