/**
 * @file
 * Seeded request streams for the request-path benchmark.
 *
 * Every workload is generated from one 64-bit seed and handed to the
 * program only as QASM text plus the request parameters a daemon
 * caller would send.  The reference each output is checked against
 * (a known optimum, or the unmapped ASAP makespan) is computed here,
 * never by the mapper under test.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace perfbench {

/** One request of a workload stream. */
struct Job
{
    /** Stable, seed-derived name used as the request id. */
    std::string id;
    /** The request body: OpenQASM 2.0 text. */
    std::string qasm;
    /** Request parameters; `circuit` is filled from `qasm` per call. */
    toqm::serve::MapRequest shape;
    /** Gates in the input circuit (for gates_per_s). */
    int gates = 0;
    /** Base of cycles_ratio: the known optimum or the ideal cycles. */
    std::int64_t base = 0;
    /** True when `base` is a proven optimum the output must meet. */
    bool knownOptimum = false;
    /** A QUEKO instance, whose optimum is its construction depth. */
    bool queko = false;
};

/** A generated workload: its stream and the service it runs against. */
struct Workload
{
    std::string name;
    std::vector<Job> jobs;
    toqm::serve::ServiceConfig service;
    /** Devices the stream uses (the ArchCache fill of set-up). */
    std::vector<std::string> archs;
};

/** Names accepted by makeWorkload(), in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name from @p seed.
 * @throws std::invalid_argument for an unknown name.
 */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
