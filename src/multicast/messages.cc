#include "multicast/messages.h"

namespace epx::multicast {

void register_multicast_messages() {
  net::MessageCodec::instance().register_type(MsgType::kKvReply, ReplyMsg::decode);
}

}  // namespace epx::multicast
