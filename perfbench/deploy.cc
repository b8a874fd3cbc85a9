// Deployment bring-up and teardown: in-process clusters, forked
// turbdb_node children (with their process hygiene) and RSS readings.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "cluster/service.h"
#include "net/socket.h"

namespace perfbench {

using turbdb::Result;
using turbdb::Status;

namespace {

/// Pids of live children, readable from the signal handler (lock-free,
/// fixed size: a deployment forks at most a handful of nodes).
constexpr int kMaxChildren = 16;
std::atomic<pid_t> g_children[kMaxChildren];

void RegisterChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t empty = 0;
    if (slot.compare_exchange_strong(empty, pid)) return;
  }
}

void ForgetChild(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

/// Kills and reaps every registered child, then exits. Only
/// async-signal-safe calls.
extern "C" void KillChildrenAndExit(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  ::_exit(128 + sig);
}

Result<pid_t> Spawn(const std::vector<std::string>& args) {
  // Built before fork: the child of a multi-threaded process may only make
  // async-signal-safe calls, so it must not allocate.
  std::vector<char*> argv;
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Internal(std::string("fork failed: ") +
                            std::strerror(errno));
  }
  if (pid == 0) {
    // Die with the benchmark even when it is killed outright, and keep
    // the node's banner off the benchmark's stdout (its last line is the
    // result).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(STDERR_FILENO, STDOUT_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  RegisterChild(pid);
  return pid;
}

/// Waits until node `*pid` has written its bound port to `port_file`. A
/// node that exits instead is reaped and `*pid` set to -1.
Result<uint16_t> WaitForPortFile(pid_t* pid, const std::string& port_file) {
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (Clock::now() < deadline) {
    std::ifstream in(port_file);
    unsigned port = 0;
    if (in >> port && port > 0 && port < 65536) {
      return static_cast<uint16_t>(port);
    }
    int wstatus = 0;
    if (::waitpid(*pid, &wstatus, WNOHANG) == *pid) {
      ForgetChild(*pid);
      *pid = -1;
      return Status::Internal("turbdb_node exited during startup");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Status::Unavailable("turbdb_node wrote no port file " + port_file);
}

}  // namespace

void InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = KillChildrenAndExit;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  // A node that dies mid-reply must not take the benchmark down.
  ::signal(SIGPIPE, SIG_IGN);
}

int LiveChildren() {
  int live = 0;
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0 && ::kill(pid, 0) == 0) ++live;
  }
  return live;
}

Result<std::unique_ptr<NodeProcesses>> NodeProcesses::Launch(
    int num_nodes, int node_workers, const std::string& run_dir) {
  auto procs = std::unique_ptr<NodeProcesses>(new NodeProcesses());
  // Every node needs the full peer list at start, so reserve one
  // ephemeral loopback port per node and release it for the child.
  {
    std::vector<turbdb::net::Socket> listeners;
    for (int i = 0; i < num_nodes; ++i) {
      TURBDB_ASSIGN_OR_RETURN(turbdb::net::Socket listener,
                              turbdb::net::TcpListen("127.0.0.1", 0));
      TURBDB_ASSIGN_OR_RETURN(const uint16_t port,
                              turbdb::net::LocalPort(listener));
      procs->topology_.nodes.push_back(
          turbdb::NodeAddress{"127.0.0.1", port});
      listeners.push_back(std::move(listener));
    }
  }
  const std::string peers = procs->topology_.ToString();
  std::vector<std::string> port_files;
  for (int i = 0; i < num_nodes; ++i) {
    const std::string port_file =
        run_dir + "/node" + std::to_string(i) + ".port";
    ::unlink(port_file.c_str());
    port_files.push_back(port_file);
    const std::vector<std::string> args = {
        PERFBENCH_NODE_BINARY,
        "--node-id", std::to_string(i),
        "--bind", "127.0.0.1",
        "--port", std::to_string(procs->topology_.nodes[i].port),
        "--peers", peers,
        "--port-file", port_file,
        "--node-workers", std::to_string(node_workers),
    };
    TURBDB_ASSIGN_OR_RETURN(const pid_t pid, Spawn(args));
    procs->pids_.push_back(pid);
  }
  for (int i = 0; i < num_nodes; ++i) {
    TURBDB_ASSIGN_OR_RETURN(
        const uint16_t port,
        WaitForPortFile(&procs->pids_[static_cast<size_t>(i)],
                        port_files[static_cast<size_t>(i)]));
    ::unlink(port_files[static_cast<size_t>(i)].c_str());
    if (port != procs->topology_.nodes[static_cast<size_t>(i)].port) {
      return Status::Internal("turbdb_node " + std::to_string(i) +
                              " bound port " + std::to_string(port) +
                              " instead of the reserved one");
    }
  }
  return procs;
}

NodeProcesses::~NodeProcesses() { TerminateAll(); }

void NodeProcesses::TerminateAll() {
  for (pid_t pid : pids_) {
    if (pid > 0) ::kill(pid, SIGTERM);
  }
  const auto deadline = Clock::now() + std::chrono::seconds(3);
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    int wstatus = 0;
    while (::waitpid(pid, &wstatus, WNOHANG) == 0) {
      if (Clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &wstatus, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ForgetChild(pid);
    pid = -1;
  }
}

void Deployment::Shutdown() {
  server.reset();
  db.reset();
  nodes.reset();
}

namespace {

turbdb::TurbDBConfig ClusterConfigFor(const WorkloadConfig& workload) {
  turbdb::TurbDBConfig config;
  config.cluster.num_nodes = workload.shards;
  config.cluster.processes_per_node = workload.processes;
  config.cluster.worker_threads = workload.worker_threads;
  config.cluster.mediator_cache_bytes = workload.mediator_cache_bytes;
  return config;
}

Status CreateAndIngest(turbdb::TurbDB* db, int64_t n) {
  TURBDB_RETURN_NOT_OK(
      db->CreateDataset(turbdb::MakeMhdDataset(kDataset, n, 1)));
  TURBDB_RETURN_NOT_OK(db->IngestSyntheticField(
      kDataset, "velocity", turbdb::DefaultMhdSpec(kDataSeed), 0, 1));
  return db->IngestSyntheticField(
      kDataset, "magnetic", turbdb::DefaultMhdSpec(kDataSeed * 7919 + 13), 0,
      1);
}

}  // namespace

Result<std::unique_ptr<Deployment>> BringUp(const WorkloadConfig& workload,
                                            const std::string& run_dir) {
  auto deployment = std::make_unique<Deployment>();
  deployment->workload = workload;
  const auto start = Clock::now();
  turbdb::TurbDBConfig config = ClusterConfigFor(workload);
  if (workload.forked) {
    TURBDB_ASSIGN_OR_RETURN(
        deployment->nodes,
        NodeProcesses::Launch(workload.shards, workload.node_workers,
                              run_dir));
    config.cluster.topology = deployment->nodes->topology();
  }
  TURBDB_ASSIGN_OR_RETURN(deployment->db, turbdb::TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(CreateAndIngest(deployment->db.get(), workload.n));
  turbdb::net::ServerOptions server_options;
  server_options.port = 0;
  server_options.num_workers = workload.server_workers;
  TURBDB_ASSIGN_OR_RETURN(
      deployment->server,
      turbdb::ServeMediator(&deployment->db->mediator(), server_options));
  deployment->setup_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return deployment;
}

Result<std::unique_ptr<turbdb::TurbDB>> BuildReferenceDb(
    const WorkloadConfig& workload) {
  turbdb::TurbDBConfig config = ClusterConfigFor(workload);
  config.cluster.mediator_cache_bytes = 0;
  TURBDB_ASSIGN_OR_RETURN(std::unique_ptr<turbdb::TurbDB> db,
                          turbdb::TurbDB::Open(config));
  TURBDB_RETURN_NOT_OK(CreateAndIngest(db.get(), workload.n));
  return db;
}

namespace {

std::string ProcPath(pid_t pid, const char* file) {
  return (pid == 0 ? std::string("/proc/self/")
                   : "/proc/" + std::to_string(pid) + "/") +
         file;
}

}  // namespace

Status ResetPeakRss(pid_t pid) {
  // "5" sets the process's VmHWM back to its current resident set.
  std::ofstream out(ProcPath(pid, "clear_refs"));
  out << "5";
  out.close();
  if (!out) return Status::IOError("cannot reset " + ProcPath(pid, "clear_refs"));
  return Status::OK();
}

double PeakRssMiB(pid_t pid) {
  std::ifstream in(ProcPath(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
