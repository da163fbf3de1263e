#include "replication/chaos.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace lion {

namespace {

// Splits on single spaces, skipping repeated whitespace.
std::vector<std::string> Tokenize(const std::string& text) {
  std::vector<std::string> tokens;
  std::istringstream in(text);
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

// "500ms" / "1.5s" / "250us" / "40ns" -> SimTime nanoseconds.
Status ParseDuration(const std::string& text, SimTime* out) {
  size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.')) {
    i++;
  }
  if (i == 0) {
    return Status::InvalidArgument("expected a duration, got \"" + text + "\"");
  }
  std::string num = text.substr(0, i);
  std::string unit = text.substr(i);
  double scale = 0.0;
  if (unit == "s") scale = static_cast<double>(kSecond);
  else if (unit == "ms") scale = static_cast<double>(kMillisecond);
  else if (unit == "us") scale = static_cast<double>(kMicrosecond);
  else if (unit == "ns") scale = 1.0;
  else {
    return Status::InvalidArgument("unknown time unit \"" + unit +
                                   "\" in \"" + text +
                                   "\" (one of: s, ms, us, ns)");
  }
  char* end = nullptr;
  double v = std::strtod(num.c_str(), &end);
  if (end == nullptr || *end != '\0' || v < 0.0) {
    return Status::InvalidArgument("bad duration value \"" + text + "\"");
  }
  *out = static_cast<SimTime>(v * scale);
  return Status::OK();
}

Status ParseInt(const std::string& text, const char* what, int* out) {
  char* end = nullptr;
  long v = std::strtol(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty() || v < 0) {
    return Status::InvalidArgument(std::string("expected a non-negative ") +
                                   what + ", got \"" + text + "\"");
  }
  *out = static_cast<int>(v);
  return Status::OK();
}

// "2,3" -> {2, 3}.
Status ParseNodeList(const std::string& text, std::vector<NodeId>* out) {
  out->clear();
  std::string cur;
  std::istringstream in(text);
  while (std::getline(in, cur, ',')) {
    int n = 0;
    Status s = ParseInt(cur, "node id", &n);
    if (!s.ok()) return s;
    out->push_back(n);
  }
  if (out->empty()) {
    return Status::InvalidArgument("expected a node list, got \"" + text + "\"");
  }
  return Status::OK();
}

std::string TimeLabel(SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%gms",
                static_cast<double>(t) / static_cast<double>(kMillisecond));
  return buf;
}

}  // namespace

Status ChaosEvent::Parse(const std::string& text, ChaosEvent* out) {
  std::vector<std::string> tokens = Tokenize(text);
  if (tokens.size() < 2) {
    return Status::InvalidArgument("\"" + text +
                                   "\": expected \"<time> <kind> [args]\"");
  }
  ChaosEvent ev;
  Status s = ParseDuration(tokens[0], &ev.at);
  if (!s.ok()) return s;

  const std::string& kind = tokens[1];
  auto want_args = [&](size_t n) {
    return tokens.size() == 2 + n
               ? Status::OK()
               : Status::InvalidArgument("\"" + text + "\": " + kind +
                                         " takes " + std::to_string(n) +
                                         " argument(s)");
  };
  if (kind == "crash" || kind == "crash_dirty" || kind == "recover" ||
      kind == "truncate") {
    ev.kind = kind == "crash"         ? ChaosEventKind::kCrash
              : kind == "crash_dirty" ? ChaosEventKind::kCrashDirty
              : kind == "recover"     ? ChaosEventKind::kRecover
                                      : ChaosEventKind::kTruncate;
    s = want_args(1);
    if (!s.ok()) return s;
    int n = 0;
    s = ParseInt(tokens[2], "node id", &n);
    if (!s.ok()) return s;
    ev.node = n;
  } else if (kind == "partition") {
    ev.kind = ChaosEventKind::kPartition;
    s = want_args(1);
    if (!s.ok()) return s;
    s = ParseNodeList(tokens[2], &ev.island);
    if (!s.ok()) return s;
  } else if (kind == "heal") {
    ev.kind = ChaosEventKind::kHeal;
    s = want_args(0);
    if (!s.ok()) return s;
  } else if (kind == "lag_storm") {
    ev.kind = ChaosEventKind::kLagStorm;
    s = want_args(1);
    if (!s.ok()) return s;
    s = ParseDuration(tokens[2], &ev.duration);
    if (!s.ok()) return s;
    if (ev.duration <= 0) {
      return Status::InvalidArgument("\"" + text +
                                     "\": lag_storm duration must be > 0");
    }
  } else if (kind == "migrate") {
    ev.kind = ChaosEventKind::kMigrate;
    s = want_args(2);
    if (!s.ok()) return s;
    int pid = 0, n = 0;
    s = ParseInt(tokens[2], "partition id", &pid);
    if (!s.ok()) return s;
    s = ParseInt(tokens[3], "node id", &n);
    if (!s.ok()) return s;
    ev.partition = pid;
    ev.node = n;
  } else {
    return Status::InvalidArgument(
        "\"" + text + "\": unknown event kind \"" + kind +
        "\" (one of: crash, crash_dirty, recover, truncate, partition, heal, "
        "lag_storm, migrate)");
  }
  *out = ev;
  return Status::OK();
}

std::string ChaosEvent::Describe() const {
  switch (kind) {
    case ChaosEventKind::kCrash:
      return "crash node=" + std::to_string(node);
    case ChaosEventKind::kCrashDirty:
      return "crash_dirty node=" + std::to_string(node);
    case ChaosEventKind::kRecover:
      return "recover node=" + std::to_string(node);
    case ChaosEventKind::kTruncate:
      return "truncate node=" + std::to_string(node);
    case ChaosEventKind::kPartition: {
      std::string nodes;
      for (size_t i = 0; i < island.size(); ++i) {
        if (i > 0) nodes += ",";
        nodes += std::to_string(island[i]);
      }
      return "partition island=" + nodes;
    }
    case ChaosEventKind::kHeal:
      return "heal";
    case ChaosEventKind::kLagStorm:
      return "lag_storm duration=" + TimeLabel(duration);
    case ChaosEventKind::kMigrate:
      return "migrate partition=" + std::to_string(partition) +
             " to node=" + std::to_string(node);
  }
  return "?";
}

ChaosController::ChaosController(Cluster* cluster, const ChaosConfig& config)
    : cluster_(cluster), config_(config), injector_(cluster) {
  for (const std::string& entry : config_.schedule) {
    ChaosEvent ev;
    Status s = ChaosEvent::Parse(entry, &ev);
    // Validate rejects unparseable schedules before a controller exists;
    // a direct user who skipped it just loses the bad entry.
    if (s.ok()) events_.push_back(std::move(ev));
  }
}

Status ChaosController::Validate(const ChaosConfig& config,
                                 const ClusterConfig& cluster,
                                 const std::string& path) {
  int num_nodes = cluster.num_nodes;
  int num_partitions = cluster.total_partitions();
  for (size_t i = 0; i < config.schedule.size(); ++i) {
    std::string at = path + ".schedule[" + std::to_string(i) + "]";
    ChaosEvent ev;
    Status s = ChaosEvent::Parse(config.schedule[i], &ev);
    if (!s.ok()) return Status::InvalidArgument(at + ": " + s.message());
    std::vector<NodeId> nodes = ev.island;
    if (ev.node != kInvalidNode) nodes.push_back(ev.node);
    for (NodeId n : nodes) {
      if (n < 0 || n >= num_nodes) {
        return Status::InvalidArgument(
            at + ": node " + std::to_string(n) + " out of range (num_nodes = " +
            std::to_string(num_nodes) + ")");
      }
    }
    if (ev.kind == ChaosEventKind::kMigrate &&
        (ev.partition < 0 || ev.partition >= num_partitions)) {
      return Status::InvalidArgument(
          at + ": partition " + std::to_string(ev.partition) +
          " out of range (total partitions = " + std::to_string(num_partitions) +
          ")");
    }
  }
  return Status::OK();
}

void ChaosController::Arm() {
  if (armed_) return;
  armed_ = true;
  SimTime now = cluster_->sim()->Now();
  for (const ChaosEvent& ev : events_) {
    SimTime delay = ev.at > now ? ev.at - now : 0;
    // Strong events: a schedule always plays out fully, including under
    // RunUntilIdle drains — that is what makes heals deterministic.
    cluster_->sim()->Schedule(delay, [this, &ev]() { Fire(ev); });
  }
}

void ChaosController::Fire(const ChaosEvent& ev) {
  switch (ev.kind) {
    case ChaosEventKind::kCrash:
      injector_.FailNode(ev.node);
      break;
    case ChaosEventKind::kCrashDirty:
      injector_.FailNodeDirty(ev.node);
      break;
    case ChaosEventKind::kRecover:
      injector_.RecoverNode(ev.node);
      break;
    case ChaosEventKind::kTruncate:
      if (cluster_->recovery_log() != nullptr) {
        cluster_->recovery_log()->SnapshotNode(ev.node);
      }
      break;
    case ChaosEventKind::kPartition:
      cluster_->network().StartPartition(ev.island);
      break;
    case ChaosEventKind::kHeal:
      cluster_->network().HealPartition();
      break;
    case ChaosEventKind::kLagStorm: {
      cluster_->replication().PauseShipping();
      cluster_->sim()->Schedule(ev.duration, [this]() {
        cluster_->replication().ResumeShipping();
        fired_.push_back(Fired{cluster_->sim()->Now(), "lag_storm end"});
      });
      break;
    }
    case ChaosEventKind::kMigrate:
      cluster_->migration().MovePrimary(ev.partition, ev.node, [](bool) {});
      break;
  }
  fired_.push_back(Fired{cluster_->sim()->Now(), ev.Describe()});
}

}  // namespace lion
