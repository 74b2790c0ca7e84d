#include "ads/record.h"

#include "crypto/sha256.h"

namespace grub::ads {

namespace {
void PutU32(uint8_t* out, uint32_t v) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}
}  // namespace

Bytes FeedRecord::Serialize() const {
  Bytes out;
  out.reserve(SerializedBytes());
  SerializeTo(out);
  return out;
}

void FeedRecord::SerializeTo(Bytes& out) const {
  uint8_t head[5];
  head[0] = static_cast<uint8_t>(state);
  PutU32(head + 1, static_cast<uint32_t>(key.size()));
  uint8_t value_len[4];
  PutU32(value_len, static_cast<uint32_t>(value.size()));
  out.insert(out.end(), head, head + sizeof head);
  Append(out, key);
  out.insert(out.end(), value_len, value_len + sizeof value_len);
  Append(out, value);
}

Hash256 FeedRecord::LeafHash() const {
  // prefix | state | key_len, key, val_len, value: the bytes
  // MerkleTree::HashLeafData(Serialize()) hashes, through one probed digest.
  uint8_t head[6];
  head[0] = MerkleTree::kLeafPrefix;
  head[1] = static_cast<uint8_t>(state);
  PutU32(head + 2, static_cast<uint32_t>(key.size()));
  uint8_t value_len[4];
  PutU32(value_len, static_cast<uint32_t>(value.size()));
  return Sha256::DigestParts({head, key, value_len, value});
}

Result<FeedRecord> FeedRecord::Deserialize(ByteSpan data) {
  auto need = [&](size_t pos, size_t n) { return pos + n <= data.size(); };
  auto get_u32 = [&](size_t& pos) {
    uint32_t v = static_cast<uint32_t>(data[pos]) |
                 (static_cast<uint32_t>(data[pos + 1]) << 8) |
                 (static_cast<uint32_t>(data[pos + 2]) << 16) |
                 (static_cast<uint32_t>(data[pos + 3]) << 24);
    pos += 4;
    return v;
  };

  if (data.empty()) return Status::InvalidArgument("FeedRecord: empty");
  FeedRecord record;
  size_t pos = 0;
  const uint8_t state = data[pos++];
  if (state > 1) return Status::InvalidArgument("FeedRecord: bad state byte");
  record.state = static_cast<ReplState>(state);

  if (!need(pos, 4)) return Status::InvalidArgument("FeedRecord: truncated");
  const uint32_t key_len = get_u32(pos);
  if (!need(pos, key_len)) return Status::InvalidArgument("FeedRecord: truncated key");
  record.key.assign(data.begin() + static_cast<long>(pos),
                    data.begin() + static_cast<long>(pos + key_len));
  pos += key_len;

  if (!need(pos, 4)) return Status::InvalidArgument("FeedRecord: truncated");
  const uint32_t val_len = get_u32(pos);
  if (!need(pos, val_len)) return Status::InvalidArgument("FeedRecord: truncated value");
  record.value.assign(data.begin() + static_cast<long>(pos),
                      data.begin() + static_cast<long>(pos + val_len));
  pos += val_len;

  if (pos != data.size()) {
    return Status::InvalidArgument("FeedRecord: trailing bytes");
  }
  return record;
}

}  // namespace grub::ads
