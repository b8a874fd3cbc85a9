// The one SyncRange pager (replication/sync.h) behind replica resync,
// the mediator's range-move copy and sibling repair, driven by a fake
// page fetch: pages arrive in order, and an answer that does not move
// the cursor ends typed instead of looping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "replication/sync.h"

namespace turbdb {
namespace {

Atom AtomAt(uint64_t zindex) {
  Atom atom;
  atom.key.zindex = zindex;
  return atom;
}

TEST(SyncRangePagerTest, ThreePagesArriveInOrder) {
  // The range [10, 40) holds atoms 10..15, 20..25 and 30..35; each page
  // ends where the next atom starts, as CollectRange pages do.
  const std::vector<net::NodeSyncRangeReply> pages = [] {
    std::vector<net::NodeSyncRangeReply> out(3);
    for (size_t p = 0; p < out.size(); ++p) {
      for (uint64_t z = 10 + 10 * p; z < 16 + 10 * p; ++z) {
        out[p].atoms.push_back(AtomAt(z));
      }
      out[p].next_code = 20 + 10 * p;
      out[p].done = p + 1 == out.size();
    }
    return out;
  }();
  net::NodeSyncRangeRequest request;
  request.begin_code = 10;
  request.end_code = 40;
  std::vector<uint64_t> cursors;
  std::vector<uint64_t> consumed;
  Status status = PageSyncRange(
      request,
      [&](const net::NodeSyncRangeRequest& page)
          -> Result<net::NodeSyncRangeReply> {
        EXPECT_EQ(page.end_code, 40u);
        cursors.push_back(page.begin_code);
        return pages[cursors.size() - 1];
      },
      [&](std::vector<Atom>& atoms) -> Status {
        for (const Atom& atom : atoms) consumed.push_back(atom.key.zindex);
        return Status::OK();
      });
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(cursors, (std::vector<uint64_t>{10, 20, 30}));
  ASSERT_EQ(consumed.size(), 18u);
  EXPECT_EQ(consumed.front(), 10u);
  EXPECT_EQ(consumed.back(), 35u);
  EXPECT_TRUE(std::is_sorted(consumed.begin(), consumed.end()));
}

TEST(SyncRangePagerTest, PageThatDoesNotProgressIsInternal) {
  // A peer answering "not done" without moving next_code past the
  // cursor, with or without atoms, would otherwise be paged forever.
  for (const bool with_atoms : {false, true}) {
    SCOPED_TRACE(with_atoms);
    net::NodeSyncRangeRequest request;
    request.begin_code = 64;
    int fetches = 0;
    Status status = PageSyncRange(
        request,
        [&](const net::NodeSyncRangeRequest& page)
            -> Result<net::NodeSyncRangeReply> {
          ++fetches;
          net::NodeSyncRangeReply reply;
          if (with_atoms) reply.atoms.push_back(AtomAt(page.begin_code));
          reply.next_code = page.begin_code;
          reply.done = false;
          return reply;
        },
        [](std::vector<Atom>&) { return Status::OK(); });
    EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
    EXPECT_EQ(fetches, 1);
  }
}

}  // namespace
}  // namespace turbdb
