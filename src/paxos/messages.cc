#include "paxos/messages.h"

namespace epx::paxos {

void register_paxos_messages() {
  auto& codec = net::MessageCodec::instance();
  codec.register_type(MsgType::kClientPropose, ClientProposeMsg::decode);
  codec.register_type(MsgType::kProposeReject, ProposeRejectMsg::decode);
  codec.register_type(MsgType::kPhase1a, Phase1aMsg::decode);
  codec.register_type(MsgType::kPhase1b, Phase1bMsg::decode);
  codec.register_type(MsgType::kAccept, AcceptMsg::decode);
  codec.register_type(MsgType::kDecision, DecisionMsg::decode);
  codec.register_type(MsgType::kLearnerJoin, LearnerJoinMsg::decode);
  codec.register_type(MsgType::kLearnerLeave, LearnerLeaveMsg::decode);
  codec.register_type(MsgType::kRecoverRequest, RecoverRequestMsg::decode);
  codec.register_type(MsgType::kRecoverReply, RecoverReplyMsg::decode);
  codec.register_type(MsgType::kTrimRequest, TrimRequestMsg::decode);
  codec.register_type(MsgType::kCoordHeartbeat, CoordHeartbeatMsg::decode);
  codec.register_type(MsgType::kLearnerReport, LearnerReportMsg::decode);
}

}  // namespace epx::paxos
