// Core scalar types and time units shared across the Lion codebase.
#pragma once

#include <cstdint>

namespace lion {

/// Identifies an executor node in the cluster. Negative values are invalid.
using NodeId = int32_t;

/// Identifies a horizontal data partition. Negative values are invalid.
using PartitionId = int32_t;

/// Globally unique transaction identifier (assigned by the driver).
using TxnId = uint64_t;

/// Flat record key. Workloads map (table, primary key) pairs into this space.
using Key = uint64_t;

/// Monotonic per-record version, bumped on every committed write.
using Version = uint64_t;

/// Log sequence number within a partition's replication log.
using Lsn = uint64_t;

inline constexpr NodeId kInvalidNode = -1;
inline constexpr PartitionId kInvalidPartition = -1;

/// Simulated time in nanoseconds.
using SimTime = int64_t;

inline constexpr SimTime kMicrosecond = 1'000;
inline constexpr SimTime kMillisecond = 1'000'000;
inline constexpr SimTime kSecond = 1'000'000'000;

/// Width of the time-series windows: the network's byte windows and the
/// metrics' commit windows, which a result pairs by index (Fig. 12b).
inline constexpr SimTime kStatsWindow = 100 * kMillisecond;

/// Converts simulated time to fractional seconds (for reporting only).
inline double ToSeconds(SimTime t) { return static_cast<double>(t) / kSecond; }

}  // namespace lion
