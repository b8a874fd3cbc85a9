#include "replication/sync.h"

#include "common/logging.h"
#include "net/protocol.h"

namespace turbdb {

Status PageSyncRange(net::NodeSyncRangeRequest request,
                     const SyncPageFetch& fetch,
                     const std::function<Status(std::vector<Atom>& atoms)>&
                         consume) {
  while (true) {
    TURBDB_ASSIGN_OR_RETURN(net::NodeSyncRangeReply page, fetch(request));
    if (!page.done && page.next_code <= request.begin_code) {
      return Status::Internal(
          "SyncRange of " + request.dataset + "/" + request.field +
          " step " + std::to_string(request.timestep) +
          " made no progress past code " +
          std::to_string(request.begin_code));
    }
    TURBDB_RETURN_NOT_OK(consume(page.atoms));
    if (page.done) return Status::OK();
    request.begin_code = page.next_code;
  }
}

Status RegisterCatalog(RemoteNode* node, const Catalog& catalog) {
  for (const Catalog::Entry* entry : catalog.Entries()) {
    TURBDB_RETURN_NOT_OK(node->CreateDataset(entry->info,
                                             entry->partitioner.num_nodes(),
                                             entry->partitioner.strategy()));
  }
  return Status::OK();
}

Result<ResyncReport> ResyncReplica(RemoteNode* stale, RemoteNode* donor,
                                   const Catalog& catalog,
                                   uint64_t page_atoms) {
  if (page_atoms == 0) page_atoms = 256;
  ResyncReport report;
  // Registered before atoms arrive, so the node knows its datasets.
  TURBDB_RETURN_NOT_OK(RegisterCatalog(stale, catalog));

  TURBDB_ASSIGN_OR_RETURN(net::NodeListStoresReply stores,
                          donor->ListStores());
  for (const net::NodeStoreInfo& store : stores.stores) {
    auto entry = catalog.Find(store.dataset);
    const int32_t timesteps = entry.ok() ? (*entry)->info.num_timesteps : 1;
    for (int32_t t = 0; t < timesteps; ++t) {
      net::NodeSyncRangeRequest request;
      request.dataset = store.dataset;
      request.field = store.field;
      request.timestep = t;
      request.end_code = 0;  // To the end of the shard.
      request.max_atoms = page_atoms;
      TURBDB_RETURN_NOT_OK(PageSyncRange(
          request,
          [donor](const net::NodeSyncRangeRequest& page) {
            return donor->SyncRange(page);
          },
          [&](std::vector<Atom>& atoms) -> Status {
            if (atoms.empty()) return Status::OK();
            TURBDB_RETURN_NOT_OK(stale->IngestSkippingExisting(
                store.dataset, store.field, atoms));
            report.atoms_pushed += atoms.size();
            return Status::OK();
          }));
    }
    TURBDB_ASSIGN_OR_RETURN(uint64_t have,
                            stale->StoredAtomCount(store.dataset, store.field));
    if (have < store.atoms) {
      return Status::Internal(
          "resync left " + stale->DebugName() + " with " +
          std::to_string(have) + " of " + std::to_string(store.atoms) +
          " atoms of " + store.dataset + "/" + store.field);
    }
    ++report.stores_synced;
  }
  TURBDB_LOG(Info) << "re-synced " << stale->DebugName() << " from "
                   << donor->DebugName() << ": " << report.atoms_pushed
                   << " atoms across " << report.stores_synced << " stores";
  return report;
}

}  // namespace turbdb
