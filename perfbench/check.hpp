/**
 * @file
 * Output check of the request-path benchmark, run outside the timed
 * region: every emitted QASM text is re-imported, its mapping rebuilt
 * from the layout comments, and checked structurally, semantically
 * and (where one is known) against the optimum.
 */

#ifndef PERFBENCH_CHECK_HPP
#define PERFBENCH_CHECK_HPP

#include <cstdint>
#include <optional>
#include <string>

#include "arch/coupling_graph.hpp"
#include "ir/mapped_circuit.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

/**
 * Rebuild a mapping from a mapped-circuit text as written by
 * qasm::writeMappedCircuit: the `// initial layout` and
 * `// final layout` comments plus the physical QASM program.
 * @return nullopt when the text does not have that shape.
 */
std::optional<toqm::ir::MappedCircuit>
rebuildMapping(const std::string &output);

/** Verdict on one response. */
struct CheckResult
{
    /** The output is a structurally valid, equivalent mapping whose
     *  cycles do not beat a known optimum. */
    bool valid = false;
    /** A known optimum exists and the output's cycles exceed it. */
    bool optimumMissed = false;
    /**
     * The miss is one of two documented defects of a QUEKO request
     * that searched the initial mapping.  baselines::exhaustiveReference
     * (the same search space without the optimised search's prunings)
     * either misses the optimum too, by at least as much (the
     * initial-mapping search defect), or returns fewer cycles (the
     * upper-bound pruning defect).  In
     * the second case the service's search, rerun here, must return
     * the emitted cycles with that pruning on and the reference's
     * with it off.
     */
    bool knownDefect = false;
    /** Cycles of the emitted circuit (ASAP makespan of its gates). */
    std::int64_t cycles = 0;
    /** "clifford", "statevector" or "skipped". */
    const char *semantic = "skipped";
    double semanticMs = 0.0;
    std::string message;

    /**
     * Counted in `failed`: the output is invalid, or it misses a known
     * optimum that neither documented defect explains.  A confirmed
     * known-defect miss is a valid mapping; it is counted on its own
     * and shows in cycles_ratio.
     */
    bool failed() const
    {
        return !valid || (optimumMissed && !knownDefect);
    }
};

CheckResult checkResponse(const Job &job,
                          const toqm::serve::MapResponse &response,
                          const toqm::arch::CouplingGraph &graph);

} // namespace perfbench

#endif // PERFBENCH_CHECK_HPP
