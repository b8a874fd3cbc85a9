#include "cluster/topology.h"

#include <fstream>
#include <sstream>

#include "net/client.h"
#include "net/socket.h"

namespace turbdb {

namespace {

std::string Trim(const std::string& text) {
  const size_t begin = text.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return "";
  const size_t end = text.find_last_not_of(" \t\r\n");
  return text.substr(begin, end - begin + 1);
}

}  // namespace

net::ClientOptions NodeClientOptions(const RemoteNodeOptions& options) {
  net::ClientOptions client;
  client.connect_timeout_ms = options.connect_timeout_ms;
  client.write_timeout_ms = options.connect_timeout_ms;
  client.read_timeout_ms =
      static_cast<int>(options.subquery_deadline_ms) + 5000;
  client.max_retries = options.max_retries;
  client.backoff_initial_ms = options.backoff_initial_ms;
  client.deadline_ms = options.subquery_deadline_ms;
  return client;
}

bool IsTransportFailure(const Status& status) {
  return status.code() == StatusCode::kUnreachable ||
         status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kUnavailable;
}

std::string ClusterTopology::ToString() const {
  std::string out;
  for (const NodeAddress& node : nodes) {
    if (!out.empty()) out += ",";
    out += node.ToString();
  }
  return out;
}

Result<ClusterTopology> ParseTopology(const std::string& spec) {
  ClusterTopology topology;
  std::stringstream stream(spec);
  std::string entry;
  while (std::getline(stream, entry, ',')) {
    const std::string trimmed = Trim(entry);
    if (trimmed.empty()) continue;
    TURBDB_ASSIGN_OR_RETURN(auto host_port, net::ParseHostPort(trimmed));
    topology.nodes.push_back({host_port.first, host_port.second});
  }
  return topology;
}

Result<ClusterTopology> LoadTopologyFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::IOError("cannot open topology file '" + path + "'");
  }
  ClusterTopology topology;
  std::string line;
  while (std::getline(file, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;
    TURBDB_ASSIGN_OR_RETURN(auto host_port, net::ParseHostPort(trimmed));
    topology.nodes.push_back({host_port.first, host_port.second});
  }
  return topology;
}

}  // namespace turbdb
