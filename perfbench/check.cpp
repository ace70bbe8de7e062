#include "check.hpp"

#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "baselines/exhaustive.hpp"
#include "ir/latency.hpp"
#include "ir/schedule.hpp"
#include "qasm/importer.hpp"
#include "sim/stabilizer.hpp"
#include "sim/statevector.hpp"
#include "sim/verifier.hpp"
#include "toqm/mapper.hpp"

namespace perfbench {

namespace {

using toqm::ir::Circuit;
using toqm::ir::MappedCircuit;

/** Parse "<prefix> q0->Q3 q1->Q1 ..." into {3, 1, ...}. */
std::optional<std::vector<int>> parseLayout(const std::string &line,
                                            const std::string &prefix)
{
    if (line.rfind(prefix, 0) != 0)
        return std::nullopt;
    std::istringstream tokens(line.substr(prefix.size()));
    std::vector<int> layout;
    std::string token;
    while (tokens >> token) {
        int logical = -1, physical = -1;
        char tail = 0;
        if (std::sscanf(token.c_str(), "q%d->Q%d%c", &logical, &physical,
                        &tail) != 2 ||
            logical != static_cast<int>(layout.size()))
            return std::nullopt;
        layout.push_back(physical);
    }
    return layout;
}

/** Every gate is one cliffordEquivalent() can simulate. */
bool isClifford(const Circuit &c)
{
    using toqm::ir::GateKind;
    for (const auto &g : c.gates()) {
        switch (g.kind()) {
          case GateKind::H: case GateKind::X: case GateKind::Y:
          case GateKind::Z: case GateKind::S: case GateKind::Sdg:
          case GateKind::CX: case GateKind::CZ: case GateKind::Swap:
            break;
          default:
            return false;
        }
    }
    return true;
}

/**
 * toqm_map --verify's rule for the state-vector check, plus a cost
 * cap: the simulation runs at full device width, so one trial costs
 * 2^device_qubits amplitude updates per gate, seconds per circuit on
 * the 20-qubit Tokyo.  Outputs above the cap are checked structurally
 * only.
 */
bool statevectorCheckable(const Circuit &logical,
                          const MappedCircuit &mapped, int device_qubits)
{
    using toqm::ir::GateKind;
    constexpr double kMaxAmplitudeUpdates = 1u << 27;
    if (logical.numQubits() > 12 || device_qubits > 20 ||
        std::ldexp(static_cast<double>(mapped.physical.size()),
                   device_qubits) > kMaxAmplitudeUpdates)
        return false;
    for (const auto &g : logical.gates())
        if (g.kind() == GateKind::GT || g.kind() == GateKind::Other ||
            g.isMeasure())
            return false;
    return true;
}

/** Node budget of the reference runs that confirm a known defect. */
constexpr std::uint64_t kReferenceNodes = 2'000'000;

toqm::ir::LatencyModel latencyOf(const Job &job)
{
    return {job.shape.lat1, job.shape.lat2, job.shape.lats};
}

/**
 * Cycles of baselines::exhaustiveReference, which searches the
 * initial mapping too but without the optimised search's prunings
 * (redundancy, cyclic-swap and upper-bound elimination); -1 when it
 * stops at its node budget.
 */
std::int64_t referenceCycles(const Job &job, const Circuit &logical,
                             const toqm::arch::CouplingGraph &graph)
{
    const auto res = toqm::baselines::exhaustiveReference(
        graph, logical, latencyOf(job), /*search_initial_mapping=*/true,
        kReferenceNodes);
    return res.success ? res.cycles : -1;
}

/**
 * Cycles of the optimal search configured as MapService configures it
 * for @p job, with the upper-bound pruning on or off; -1 at the node
 * budget.
 */
std::int64_t searchCycles(const Job &job, const Circuit &logical,
                          const toqm::arch::CouplingGraph &graph,
                          bool upper_bound_pruning)
{
    toqm::core::MapperConfig config;
    config.latency = latencyOf(job);
    config.searchInitialMapping = job.shape.searchInitial;
    config.allowConcurrentSwapAndGate = !job.shape.noMixing;
    config.maxExpandedNodes = kReferenceNodes;
    config.useUpperBoundPruning = upper_bound_pruning;
    const auto res = toqm::core::OptimalMapper(graph, config).map(logical);
    return res.success ? res.cycles : -1;
}

} // namespace

std::optional<MappedCircuit> rebuildMapping(const std::string &output)
{
    std::istringstream lines(output);
    std::string first, second;
    std::getline(lines, first);
    std::getline(lines, second);
    auto initial =
        parseLayout(first, "// initial layout (logical -> physical):");
    auto final_layout =
        parseLayout(second, "// final layout (logical -> physical):");
    if (!initial || !final_layout)
        return std::nullopt;
    MappedCircuit mapped;
    mapped.physical = toqm::qasm::importString(output).circuit;
    mapped.initialLayout = std::move(*initial);
    mapped.finalLayout = std::move(*final_layout);
    return mapped;
}

CheckResult checkResponse(const Job &job,
                          const toqm::serve::MapResponse &response,
                          const toqm::arch::CouplingGraph &graph)
{
    CheckResult result;
    if (response.code != 0) {
        result.message = "code " + std::to_string(response.code) + ": " +
                         response.error;
        return result;
    }
    std::optional<MappedCircuit> mapped;
    try {
        mapped = rebuildMapping(response.output);
    } catch (const std::exception &e) {
        result.message = std::string("emitted QASM does not parse: ") +
                         e.what();
        return result;
    }
    if (!mapped) {
        result.message = "emitted text lacks the layout comments";
        return result;
    }
    // The logical side is what the service saw.  QASM cannot spell a
    // GT gate (the writer emits it as cz), so both sides are already
    // in the writer's cz form.
    const Circuit logical = toqm::qasm::importString(job.qasm).circuit;

    const auto verdict = toqm::sim::verifyMapping(logical, *mapped, graph);
    if (!verdict.ok) {
        result.message = "structural check: " + verdict.message;
        return result;
    }

    const auto t0 = std::chrono::steady_clock::now();
    bool equivalent = true;
    if (isClifford(logical)) {
        result.semantic = "clifford";
        equivalent = toqm::sim::cliffordEquivalent(logical, *mapped);
    } else if (statevectorCheckable(logical, *mapped, graph.numQubits())) {
        result.semantic = "statevector";
        equivalent = toqm::sim::semanticallyEquivalent(logical, *mapped);
    }
    result.semanticMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (!equivalent) {
        result.message = std::string("semantic check (") +
                         result.semantic + ") failed";
        return result;
    }

    const toqm::ir::LatencyModel lat(job.shape.lat1, job.shape.lat2,
                                     job.shape.lats);
    result.cycles = toqm::ir::scheduleAsap(mapped->physical, lat).makespan;
    if (result.cycles != response.cycles) {
        result.message = "emitted circuit takes " +
                         std::to_string(result.cycles) +
                         " cycles, response claims " +
                         std::to_string(response.cycles);
        return result;
    }
    if (job.knownOptimum && result.cycles < job.base) {
        result.message = "beats the known optimum " +
                         std::to_string(job.base);
        return result;
    }
    result.valid = true;
    if (job.knownOptimum && result.cycles > job.base) {
        result.optimumMissed = true;
        result.message = "cycles " + std::to_string(result.cycles) +
                         " above the known optimum " +
                         std::to_string(job.base);
        if (job.shape.searchInitial && job.queko) {
            // Two documented defects; any other miss is unexpected.
            const std::int64_t reference =
                referenceCycles(job, logical, graph);
            if (reference > job.base && reference >= result.cycles) {
                // The search space both share lacks the optimum; the
                // pruned search may still end nearer to it.
                result.knownDefect = true;
                result.message += " (known defect: initial-mapping "
                                  "search; the exhaustive reference "
                                  "returns " +
                                  std::to_string(reference) + ")";
            } else if (reference > 0 && reference < result.cycles &&
                       searchCycles(job, logical, graph, true) ==
                           result.cycles &&
                       searchCycles(job, logical, graph, false) ==
                           reference) {
                // Switching that one pruning off, and nothing else,
                // turns the emitted cycles into the reference's.
                result.knownDefect = true;
                result.message += " (known defect: upper-bound pruning; "
                                  "the exhaustive reference and the "
                                  "search without that pruning return " +
                                  std::to_string(reference) + ")";
            } else {
                result.message += "; the exhaustive reference returns " +
                                  (reference < 0
                                       ? std::string("no result")
                                       : std::to_string(reference));
            }
        }
    }
    return result;
}

} // namespace perfbench
