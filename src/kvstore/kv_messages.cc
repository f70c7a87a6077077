#include "kvstore/kv_messages.h"

namespace epx::kv {

void register_kv_messages() {
  auto& codec = net::MessageCodec::instance();
  codec.register_type(MsgType::kKvSignal, KvSignalMsg::decode);
  codec.register_type(MsgType::kSnapshotRequest, SnapshotRequestMsg::decode);
  codec.register_type(MsgType::kSnapshotReply, SnapshotReplyMsg::decode);
}

}  // namespace epx::kv
