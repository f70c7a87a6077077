#include "registry/messages.h"

namespace epx::registry {

void register_registry_messages() {
  auto& codec = net::MessageCodec::instance();
  codec.register_type(MsgType::kRegistrySet, RegistrySetMsg::decode);
  codec.register_type(MsgType::kRegistryGet, RegistryGetMsg::decode);
  codec.register_type(MsgType::kRegistryReply, RegistryReplyMsg::decode);
  codec.register_type(MsgType::kRegistryWatch, RegistryWatchMsg::decode);
  codec.register_type(MsgType::kRegistryEvent, RegistryEventMsg::decode);
  codec.register_type(MsgType::kTelemetrySample, TelemetrySampleMsg::decode);
}

}  // namespace epx::registry
