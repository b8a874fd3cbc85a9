#include "membership/registry.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace turbdb {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

/// Parses the persisted registry file. Format, one directive per line:
///   generation <g>
///   replication <r>        (>= 1)
///   base_shards <n>        (>= 1)
///   node <id> <uuid> <host> <port> <shard> <role> <joined_gen>
///   override <begin> <end> <shard>
/// A role outside NodeRole, and overrides ValidateOverrides refuses, are
/// corruption like any unparsable line: the view would fail every query
/// routed by it.
Result<MembershipView> ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Errno("open", path);
  MembershipView view;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string directive;
    fields >> directive;
    bool ok = true;
    if (directive == "generation") {
      ok = static_cast<bool>(fields >> view.generation);
    } else if (directive == "replication") {
      ok = (fields >> view.replication) && view.replication >= 1;
    } else if (directive == "base_shards") {
      ok = (fields >> view.base_shards) && view.base_shards >= 1;
    } else if (directive == "node") {
      NodeRecord n;
      int role = 0;
      ok = (fields >> n.node_id >> n.uuid >> n.host >> n.port >> n.shard >>
            role >> n.joined_generation) &&
           role >= static_cast<int>(NodeRole::kShard) &&
           role <= static_cast<int>(NodeRole::kDraining);
      n.role = static_cast<NodeRole>(role);
      if (ok) view.nodes.push_back(std::move(n));
    } else if (directive == "override") {
      RangeOverride o;
      ok = static_cast<bool>(fields >> o.begin >> o.end >> o.shard);
      if (ok) view.overrides.push_back(o);
    } else {
      ok = false;
    }
    if (!ok) {
      return Status::Corruption("membership file " + path + " line " +
                                std::to_string(lineno) + ": " + line);
    }
  }
  if (view.base_shards < 1) {
    return Status::Corruption("membership file " + path +
                              " has no base_shards line");
  }
  Status overrides = ValidateOverrides(view.overrides);
  if (!overrides.ok()) {
    return Status::Corruption("membership file " + path + ": " +
                              overrides.message());
  }
  return view;
}

}  // namespace

Result<std::unique_ptr<MembershipRegistry>> MembershipRegistry::Open(
    const std::string& dir, const ClusterTopology& seed) {
  const std::string path = dir.empty() ? "" : dir + "/membership.txt";
  if (!path.empty() && ::access(path.c_str(), F_OK) == 0) {
    TURBDB_ASSIGN_OR_RETURN(MembershipView view, ParseFile(path));
    return std::unique_ptr<MembershipRegistry>(
        new MembershipRegistry(path, std::move(view)));
  }
  MembershipView view;
  view.generation = 1;
  view.replication = seed.replication_factor > 0 ? seed.replication_factor : 1;
  view.base_shards = seed.num_groups();
  for (size_t i = 0; i < seed.nodes.size(); ++i) {
    NodeRecord n;
    n.node_id = static_cast<int>(i);
    n.uuid = "boot-" + std::to_string(i);
    n.host = seed.nodes[i].host;
    n.port = seed.nodes[i].port;
    n.shard = static_cast<int>(i) / view.replication;
    n.role = NodeRole::kShard;
    n.joined_generation = 1;
    view.nodes.push_back(std::move(n));
  }
  std::unique_ptr<MembershipRegistry> registry(
      new MembershipRegistry(path, std::move(view)));
  if (!path.empty()) {
    std::lock_guard<std::mutex> lock(registry->mutex_);
    TURBDB_RETURN_NOT_OK(registry->Persist());
  }
  return registry;
}

MembershipView MembershipRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return view_;
}

uint64_t MembershipRegistry::generation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return view_.generation;
}

Result<NodeRecord> MembershipRegistry::Admit(const std::string& uuid,
                                             const std::string& host,
                                             uint16_t port) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (NodeRecord& existing : view_.nodes) {
    if (existing.uuid != uuid) continue;
    // Idempotent re-admit: a joiner crash, or the second join phase
    // announcing the real port after binding an ephemeral one. The
    // assigned id/shard stick; only the address refreshes.
    if ((!host.empty() && existing.host != host) ||
        (port != 0 && existing.port != port)) {
      if (!host.empty()) existing.host = host;
      if (port != 0) existing.port = port;
      TURBDB_RETURN_NOT_OK(Persist());
    }
    return existing;
  }
  NodeRecord n;
  n.uuid = uuid;
  n.host = host;
  n.port = port;
  int max_id = -1;
  int max_shard = view_.base_shards - 1;
  for (const NodeRecord& r : view_.nodes) {
    max_id = std::max(max_id, r.node_id);
    max_shard = std::max(max_shard, r.shard);
  }
  n.node_id = max_id + 1;
  n.shard = max_shard + 1;
  n.role = NodeRole::kJoining;
  ++view_.generation;
  n.joined_generation = view_.generation;
  view_.nodes.push_back(n);
  TURBDB_RETURN_NOT_OK(Persist());
  return n;
}

Result<NodeRecord> MembershipRegistry::Activate(const std::string& uuid) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (NodeRecord& n : view_.nodes) {
    if (n.uuid == uuid) {
      if (n.role != NodeRole::kShard) {
        n.role = NodeRole::kShard;
        ++view_.generation;
        TURBDB_RETURN_NOT_OK(Persist());
      }
      return n;
    }
  }
  return Status::NotFound("no admitted node with uuid " + uuid);
}

Result<NodeRecord> MembershipRegistry::Decommission(int node_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (NodeRecord& n : view_.nodes) {
    if (n.node_id == node_id) {
      if (n.role != NodeRole::kDraining) {
        n.role = NodeRole::kDraining;
        ++view_.generation;
        TURBDB_RETURN_NOT_OK(Persist());
      }
      return n;
    }
  }
  return Status::NotFound("no node with id " + std::to_string(node_id));
}

Result<uint64_t> MembershipRegistry::ApplyOverride(uint64_t begin,
                                                   uint64_t end, int shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (begin >= end) {
    return Status::InvalidArgument("empty override range");
  }
  view_.ApplyOverride(begin, end, shard);
  ++view_.generation;
  TURBDB_RETURN_NOT_OK(Persist());
  return view_.generation;
}

Status MembershipRegistry::Persist() const {
  if (path_.empty()) return Status::OK();
  std::ostringstream out;
  out << "# turbdb membership registry (rewritten on every change)\n";
  out << "generation " << view_.generation << "\n";
  out << "replication " << view_.replication << "\n";
  out << "base_shards " << view_.base_shards << "\n";
  for (const NodeRecord& n : view_.nodes) {
    out << "node " << n.node_id << " " << n.uuid << " " << n.host << " "
        << n.port << " " << n.shard << " " << static_cast<int>(n.role) << " "
        << n.joined_generation << "\n";
  }
  for (const RangeOverride& o : view_.overrides) {
    out << "override " << o.begin << " " << o.end << " " << o.shard << "\n";
  }
  const std::string text = out.str();
  const std::string tmp = path_ + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("create", tmp);
  const ssize_t written = ::write(fd, text.data(), text.size());
  if (written != static_cast<ssize_t>(text.size()) || ::fsync(fd) != 0) {
    Status status = Errno("write", tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    Status status = Errno("rename", tmp);
    ::unlink(tmp.c_str());
    return status;
  }
  return Status::OK();
}

}  // namespace turbdb
