// Both servers answer a request type they do not serve with a typed
// kNotSupported: the mediator front end every node-scoped RPC, and a
// turbdb_node every mediator-facing one. Neither decodes the body first.

#include <gtest/gtest.h>

#include <vector>

#include "cluster/node_service.h"
#include "cluster/service.h"
#include "core/turbdb.h"
#include "net/protocol.h"

namespace turbdb {
namespace {

using Bytes = std::vector<uint8_t>;

template <class... Requests>
std::vector<Bytes> Payloads() {
  return {net::Encode(Requests{})...};
}

void ExpectNotSupported(const net::Server::Handler& handler,
                        const std::vector<Bytes>& payloads) {
  for (const Bytes& payload : payloads) {
    SCOPED_TRACE("request type " + std::to_string(payload[0]));
    const Bytes response = handler(payload, net::CallContext{});
    // An error frame decodes to its Status through any reply type.
    auto reply = net::Decode<net::Ack<net::PingRequest>>(response);
    EXPECT_EQ(reply.status().code(), StatusCode::kNotSupported)
        << reply.status();
  }
}

TEST(DispatchTest, MediatorRefusesEveryNodeScopedRequest) {
  auto db = TurbDB::Open(TurbDBConfig{});
  ASSERT_TRUE(db.ok()) << db.status();
  const std::vector<Bytes> node_scoped = Payloads<
      net::NodeCreateDatasetRequest, net::NodeIngestRequest,
      net::NodeExecuteRequest, net::NodeFetchAtomsRequest,
      net::NodeDropCacheRequest, net::NodeStatsRequest,
      net::NodeSyncRangeRequest, net::NodeListStoresRequest,
      net::CutoverRequest, net::NodeMerkleRequest, net::NodeScrubRequest,
      net::NodeRepairRangeRequest>();
  ASSERT_EQ(node_scoped.size(), 12u);
  ExpectNotSupported(MediatorHandler(&(*db)->mediator()), node_scoped);
}

TEST(DispatchTest, NodeRefusesEveryMediatorFacingRequest) {
  NodeService service(NodeServiceConfig{});
  const std::vector<Bytes> mediator_facing = Payloads<
      net::ThresholdRequest, net::PdfRequest, net::TopKRequest,
      net::FieldStatsRequest, net::DropCacheRequest, net::CacheStatsRequest,
      net::CacheWarmRequest, net::CachePinRequest, net::CacheUnpinRequest,
      net::FofRequest, net::JoinRequest, net::LeaveRequest,
      net::MembershipGetRequest, net::RebalanceRequest>();
  ASSERT_EQ(mediator_facing.size(), 14u);
  ExpectNotSupported(service.AsHandler(), mediator_facing);
}

}  // namespace
}  // namespace turbdb
