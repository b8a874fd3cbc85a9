#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "cluster/catalog.h"
#include "cluster/remote_node.h"
#include "common/result.h"

namespace turbdb {

/// One page of a SyncRange scan: the request's begin_code is the cursor.
using SyncPageFetch = std::function<Result<net::NodeSyncRangeReply>(
    const net::NodeSyncRangeRequest& request)>;

/// Pages `request`'s range through `fetch`, handing every page's atoms
/// (possibly none) to `consume` in order, until a page is `done`. Pages
/// arrive off the network, so a page that is not done must move
/// next_code past the cursor, with or without atoms (a well-behaved node
/// always does: its next page starts at the first atom beyond this one);
/// one that does not is kInternal, not a loop without end. The first
/// failure of either callback is returned as is.
Status PageSyncRange(net::NodeSyncRangeRequest request,
                     const SyncPageFetch& fetch,
                     const std::function<Status(std::vector<Atom>& atoms)>&
                         consume);

/// Registers every dataset of `catalog` on `node`, with the catalog's
/// base partitioning: a restarted node lost its in-memory catalog.
Status RegisterCatalog(RemoteNode* node, const Catalog& catalog);

struct ResyncReport {
  uint64_t atoms_pushed = 0;
  uint64_t stores_synced = 0;
};

/// Catches a stale replica up from a healthy donor in its group:
/// registers the mediator's catalog on it, then pages each (store, timestep)
/// the donor holds through SyncRange and pushes the atoms with
/// skip-existing ingest — so a member that already recovered part of its
/// data from its own storage dir only receives what it is missing.
/// Verifies the member's per-store atom counts reach the donor's before
/// declaring success.
Result<ResyncReport> ResyncReplica(RemoteNode* stale, RemoteNode* donor,
                                   const Catalog& catalog,
                                   uint64_t page_atoms = 256);

}  // namespace turbdb
