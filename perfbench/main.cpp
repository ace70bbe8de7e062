/**
 * @file
 * Request-path benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    [--trace-file PATH]
 *
 * Generates the workload from the seed, then sends each request as
 * QASM text through qasm::importString -> serve::MapService::handle in
 * a closed loop with one client.  Whole passes over the request list
 * repeat, each against a fresh MapService, until S seconds have been
 * measured; pass 1 gives the deterministic metrics and every later
 * pass must reproduce it byte for byte.  After the timed loop every
 * emitted circuit is checked (check.hpp).
 *
 * --trace 0 reports the end-to-end metrics with observability off.
 * --trace 1 alternates untraced and traced passes and reports the
 * per-layer metrics: phase spans and search counters come from the
 * library's obs::Observer; the benchmark adds its own spans around the
 * public qasm/serve calls that have no phase span.  Spans of one
 * request carry its id; --trace-file writes them as a Chrome trace.
 *
 * The last line of stdout is one JSON object:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "check.hpp"
#include "obs/json.hpp"
#include "obs/observer.hpp"
#include "parallel/portfolio.hpp"
#include "qasm/importer.hpp"
#include "qasm/writer.hpp"
#include "serve/canonical.hpp"
#include "serve/structured.hpp"
#include "serve/warm.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using toqm::serve::MapRequest;
using toqm::serve::MapResponse;
using toqm::serve::MapService;
using Clock = std::chrono::steady_clock;

/** Set-up repeats before the timed loop; one more follows each pass. */
constexpr int kSetupRepeats = 9;
/** Trace ring per recording thread; far above one request's events. */
constexpr std::size_t kTraceRing = 1u << 12;

double msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

std::uint64_t usBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(to - from)
            .count());
}

double quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string traceFile;
};

Options parseArgs(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") {
            opt.workload = value;
            haveWorkload = true;
        } else if (arg == "--seed") {
            opt.seed = std::stoull(value);
            haveSeed = true;
        } else if (arg == "--seconds") {
            opt.seconds = std::stod(value);
            haveSeconds = opt.seconds > 0.0;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace takes 0 or 1");
            opt.trace = value == "1";
        } else if (arg == "--trace-file") {
            opt.traceFile = value;
        } else {
            throw std::invalid_argument("unknown argument " + arg);
        }
    }
    if (!haveWorkload || !haveSeed || !haveSeconds)
        throw std::invalid_argument(
            "need --workload NAME --seed N --seconds S (S > 0)");
    return opt;
}

/** One served request of a pass. */
struct Served
{
    MapResponse response;
    double ms = 0.0;
};

using Pass = std::vector<Served>;

/** A timed request as kept after its pass. */
struct Timed
{
    double ms = 0.0;
    bool drift = false;
};

/** A span recorded by the benchmark, in microseconds since its pass began. */
struct Span
{
    std::string name;
    std::size_t job = 0;
    std::uint64_t begin = 0, end = 0;
};

/** Per-layer totals of one traced pass. */
struct LayerPass
{
    double requestMs = 0.0;
    /** Request time of requests a cache or structured tier answered. */
    double hitMs = 0.0;
    /** Benchmark spans (inclusive). */
    std::map<std::string, double> spanMs;
    /** Library spans on the request thread, inclusive, keyed by
     *  "<phase>" or "<phase>@<mapper>" for the search phase. */
    std::map<std::string, double> phaseMs;
    /** Self time of library spans and of the handle span. */
    std::map<std::string, double> selfMs;
    std::map<std::string, std::uint64_t> counters;
    double peakPoolMb = 0.0;
    std::map<std::string, std::uint64_t> wins;
    bool keyMismatch = false;
    std::vector<Span> spans;
    /** Library spans with the job they fell into (trace file). */
    struct LibSpan
    {
        std::string name;
        int tid = 0;
        std::uint64_t begin = 0, end = 0;
        std::size_t job = 0;
    };
    std::vector<LibSpan> libSpans;
};

/**
 * The serve cache key's configuration text.  MapService keeps its own
 * copy private; the traced run rebuilds it to time a direct
 * ResultCache::find with the key handle() used, and checks that the
 * probe finds every entry handle() reported as a hit.
 */
std::string configText(const MapRequest &r, bool structured_tier)
{
    return "arch=" + r.arch + ";mapper=" + r.mapper +
           ";lat=" + std::to_string(r.lat1) + "," + std::to_string(r.lat2) +
           "," + std::to_string(r.lats) +
           ";si=" + std::to_string(r.searchInitial ? 1 : 0) +
           ";nm=" + std::to_string(r.noMixing ? 1 : 0) +
           ";mn=" + std::to_string(r.maxNodes) +
           ";dl=" + std::to_string(r.deadlineMs) +
           ";mp=" + std::to_string(r.maxPoolMb) +
           ";pf=" + std::to_string(r.portfolioSize) +
           ";st=" + std::to_string(structured_tier ? 1 : 0) +
           ";obj=cycles;layout=auto";
}

class Bench
{
  public:
    explicit Bench(Options opt) : _opt(std::move(opt)) {}

    int run();

  private:
    void setUp();
    Pass runPass(MapService &service);
    LayerPass runTracedPass(MapService &service, Pass &out);
    void probeServeLayers(std::size_t i, const MapRequest &request,
                          const Served &served, MapService &service,
                          LayerPass &layers, Clock::time_point passStart);
    void collectLibrarySpans(std::size_t job, std::uint64_t epoch,
                             std::uint64_t handle_us, LayerPass &layers);
    void record(Pass pass);
    void checkOutputs();
    void checkTracedCounters(const std::vector<LayerPass> &traced);
    void writeTraceFile(const std::vector<LayerPass> &traced) const;
    std::map<std::string, std::pair<double, std::string>>
    endToEndMetrics() const;
    std::map<std::string, std::pair<double, std::string>>
    perLayerMetrics(const std::vector<LayerPass> &traced,
                    double overhead) const;
    void printShares(const std::vector<LayerPass> &traced) const;

    Options _opt;
    Workload _workload;
    /** Seconds of each set-up repeat and ms of its ArchCache fill. */
    std::vector<double> _setupS, _archMs;
    /** Per job, pass 1's response. */
    std::vector<MapResponse> _outputs;
    /** Per pass, per job: latency and drift from pass 1. */
    std::vector<std::vector<Timed>> _timed;
    double _peakRssMb = 0.0;
    /** Checks of pass 1's responses. */
    std::vector<CheckResult> _checks;
    std::uint64_t _attempted = 0;
    std::uint64_t _failed = 0;
    /** Requests of a pass whose optimum miss is a documented defect. */
    std::uint64_t _knownDefects = 0;
    bool _unexpected = false;
    std::vector<std::string> _problems;
    double _semanticMs = 0.0;
};

/**
 * One set-up: input generation, MapService construction and the
 * ArchCache fill, from a cleared cache.  Host contention comes in
 * bursts of seconds, so the repeats are spread over the run and their
 * median is reported.
 */
void Bench::setUp()
{
    toqm::serve::ArchCache::global().clear();
    const auto t0 = Clock::now();
    Workload w = makeWorkload(_opt.workload, _opt.seed);
    MapService service(w.service);
    double archMs = 0.0;
    for (const std::string &name : w.archs) {
        const auto ta = Clock::now();
        toqm::serve::ArchCache::global().lookup(name);
        archMs += msSince(ta);
    }
    _setupS.push_back(msSince(t0) / 1e3);
    _archMs.push_back(archMs);
    if (_workload.jobs.empty())
        _workload = std::move(w);
}

Pass Bench::runPass(MapService &service)
{
    Pass pass;
    pass.reserve(_workload.jobs.size());
    for (const Job &job : _workload.jobs) {
        MapRequest request = job.shape;
        Served served;
        const auto t0 = Clock::now();
        request.circuit = toqm::qasm::importString(job.qasm).circuit;
        served.response = service.handle(request);
        served.ms = msSince(t0);
        pass.push_back(std::move(served));
    }
    return pass;
}

LayerPass Bench::runTracedPass(MapService &service, Pass &out)
{
    toqm::obs::Observer &o = toqm::obs::Observer::global();
    const toqm::obs::MetricsRegistry &m = o.metrics();
    LayerPass layers;
    const auto passStart = Clock::now();
    auto us = [&](Clock::time_point t) { return usBetween(passStart, t); };
    for (std::size_t i = 0; i < _workload.jobs.size(); ++i) {
        const Job &job = _workload.jobs[i];
        MapRequest request = job.shape;
        // A fresh observer per request: its spans and counters are
        // this request's alone.  One gauge sample per search run is
        // enough; the spans and the end-of-run counters carry the
        // per-layer numbers.
        o.reset();
        o.setSampleInterval(std::uint64_t{1} << 40);
        o.enableMetrics();
        o.enableTrace(kTraceRing);
        const std::uint64_t epoch = us(Clock::now());

        Served served;
        const auto t0 = Clock::now();
        request.circuit = toqm::qasm::importString(job.qasm).circuit;
        const auto t1 = Clock::now();
        served.response = service.handle(request);
        const auto t2 = Clock::now();
        served.ms = std::chrono::duration<double, std::milli>(t2 - t0).count();
        layers.spans.push_back({"request", i, us(t0), us(t2)});
        layers.spans.push_back({"qasm.parse", i, us(t0), us(t1)});
        layers.spans.push_back({"serve.handle", i, us(t1), us(t2)});
        if (served.response.tier != "search")
            layers.hitMs += served.ms;

        const std::string &mapper = job.shape.mapper;
        if (mapper == "optimal") {
            for (const char *name :
                 {"search.optimal.expanded", "search.optimal.generated",
                  "search.optimal.filtered"})
                layers.counters[name] += m.counter(name);
            layers.peakPoolMb =
                std::max(layers.peakPoolMb,
                         m.gauge("search.optimal.peak_pool_bytes") /
                             (1024.0 * 1024.0));
        } else if (mapper == "heuristic") {
            layers.counters["search.heuristic.expanded"] +=
                m.counter("search.heuristic.expanded");
        }
        collectLibrarySpans(i, epoch, us(t2) - us(t1), layers);
        o.reset();

        probeServeLayers(i, request, served, service, layers, passStart);
        out.push_back(std::move(served));
    }

    const toqm::serve::TierCounters tiers = service.tierCounters();
    layers.counters["serve.exact_hits"] = tiers.cacheHits;
    layers.counters["serve.canonical_hits"] = tiers.cacheCanonicalHits;
    layers.counters["serve.structured_hits"] = tiers.structuredHits;
    layers.counters["serve.searches"] = tiers.searches;
    layers.counters["serve.requests"] = tiers.requests;
    layers.counters["serve.verify_rejected"] = tiers.verifyRejected;
    layers.counters["serve.evictions"] = service.cache().stats().evictions;

    for (const Span &span : layers.spans)
        layers.spanMs[span.name] +=
            static_cast<double>(span.end - span.begin) / 1e3;
    layers.requestMs = layers.spanMs["request"];
    return layers;
}

/**
 * Direct calls, after the request and with the observer off, to the
 * public functions handle() runs internally without a phase span: the
 * canonical form, the key hashes, the cache probe, the structured
 * lookup and the renderer; and, for optimal requests, a portfolio
 * race on the same input.  Each gets a span carrying the request.
 */
void Bench::probeServeLayers(std::size_t i, const MapRequest &request,
                             const Served &served, MapService &service,
                             LayerPass &layers, Clock::time_point passStart)
{
    namespace serve = toqm::serve;
    auto timed = [&](const char *name, auto &&call) {
        const auto t = Clock::now();
        call();
        layers.spans.push_back({name, i, usBetween(passStart, t),
                                usBetween(passStart, Clock::now())});
    };
    const auto graph = serve::ArchCache::global().lookup(request.arch);
    const bool structuredTier = service.config().structuredTier;
    const std::string cfg = configText(request, structuredTier);
    const bool canonicalized =
        request.circuit.size() <= serve::kCanonicalGateLimit;

    serve::CanonicalForm form;
    timed("serve.canonicalize", [&] {
        if (canonicalized)
            form = serve::canonicalizeCircuit(request.circuit);
    });

    serve::CanonicalKey exactKey, canonicalKey;
    timed("serve.hash", [&] {
        exactKey = serve::hashText(serve::exactCircuitText(request.circuit) +
                                   "\n" + cfg);
        canonicalKey = canonicalized
                           ? serve::hashText(form.text + "\n" + cfg)
                           : exactKey;
    });

    if (request.cacheable && service.config().cacheBytes > 0) {
        serve::ResultCache::Lookup found;
        timed("serve.cache_find", [&] {
            found = service.cache().find(canonicalKey, exactKey);
        });
        const std::string &tier = served.response.tier;
        if ((tier == "cache" && !(found.hit && found.exact)) ||
            (tier == "cache-canonical" && !found.hit))
            layers.keyMismatch = true;
    }

    if (structuredTier && canonicalized) {
        const toqm::ir::LatencyModel lat(request.lat1, request.lat2,
                                         request.lats);
        timed("serve.structured", [&] {
            serve::structuredLookup(request.circuit, form, *graph, lat,
                                    !request.noMixing);
        });
    }

    if (served.response.code == 0) {
        if (const auto mapped = rebuildMapping(served.response.output))
            timed("qasm.render",
                  [&] { toqm::qasm::writeMappedCircuit(*mapped); });
    }

    if (request.mapper == "optimal") {
        // The parallel layer: MapResponse does not name the winner, so
        // race the same input through the default portfolio directly.
        toqm::core::MapperConfig base;
        base.latency = toqm::ir::LatencyModel(request.lat1, request.lat2,
                                              request.lats);
        base.searchInitialMapping = request.searchInitial;
        base.allowConcurrentSwapAndGate = !request.noMixing;
        base.maxExpandedNodes = request.maxNodes;
        auto config = toqm::parallel::defaultPortfolio(
            base, request.portfolioSize);
        config.guard.maxPoolBytes = request.maxPoolMb << 20;
        toqm::parallel::PortfolioResult result;
        timed("portfolio.direct", [&] {
            result = toqm::parallel::PortfolioMapper(*graph, config)
                         .map(request.circuit);
        });
        if (result.success && result.winner >= 0)
            ++layers.wins[result.outcomes[static_cast<std::size_t>(
                              result.winner)].name];
    }
}

/**
 * Rebuild request @p job's library spans from the observer's Chrome
 * trace and sum their inclusive and self times.  The request thread
 * registers its trace lane first (its first event is the parse span).
 * @p epoch places the observer's clock on the pass clock.
 */
void Bench::collectLibrarySpans(std::size_t job, std::uint64_t epoch,
                                std::uint64_t handle_us, LayerPass &layers)
{
    const auto doc = toqm::obs::json::parse(
        toqm::obs::Observer::global().traceJson());
    if (doc->get("otherData")->get("droppedEvents")->asNumber() > 0)
        _problems.push_back("trace ring dropped events");

    struct Open
    {
        std::string name;
        std::uint64_t begin;
        double childMs;
    };
    constexpr int kRequestTid = 1;
    std::map<int, std::vector<Open>> stacks;
    const std::string &mapper = _workload.jobs[job].shape.mapper;
    double topLevelInHandle = 0.0;
    for (const auto &e : doc->get("traceEvents")->asArray()) {
        const std::string &ph = e->get("ph")->asString();
        if (ph != "B" && ph != "E")
            continue;
        const int tid = static_cast<int>(e->get("tid")->asNumber());
        const auto ts = static_cast<std::uint64_t>(e->get("ts")->asNumber());
        auto &stack = stacks[tid];
        if (ph == "B") {
            stack.push_back({e->get("name")->asString(), ts, 0.0});
            continue;
        }
        if (stack.empty())
            continue;
        const Open open = stack.back();
        stack.pop_back();
        const double ms = static_cast<double>(ts - open.begin) / 1e3;
        if (!stack.empty())
            stack.back().childMs += ms;
        layers.libSpans.push_back(
            {open.name, tid, epoch + open.begin, epoch + ts, job});
        if (tid != kRequestTid)
            continue;
        const std::string key =
            open.name == "search" ? "search@" + mapper : open.name;
        layers.phaseMs[key] += ms;
        layers.selfMs[key] += ms - open.childMs;
        if (stack.empty() && open.name != "parse")
            topLevelInHandle += ms;
    }
    layers.selfMs["serve.handle"] +=
        static_cast<double>(handle_us) / 1e3 - topLevelInHandle;
}

void Bench::record(Pass pass)
{
    std::vector<Timed> row;
    row.reserve(pass.size());
    for (std::size_t i = 0; i < pass.size(); ++i) {
        MapResponse &b = pass[i].response;
        bool drift = false;
        if (i < _outputs.size()) {
            const MapResponse &a = _outputs[i];
            drift = a.code != b.code || a.tier != b.tier ||
                    a.cycles != b.cycles || a.swaps != b.swaps ||
                    a.output != b.output;
            if (drift)
                std::printf("FAILED %s: pass %zu differs from pass 1 "
                            "(code %d/%d, tier %s/%s, cycles %lld/%lld, "
                            "swaps %d/%d)\n",
                            _workload.jobs[i].id.c_str(), _timed.size() + 1,
                            a.code, b.code, a.tier.c_str(), b.tier.c_str(),
                            static_cast<long long>(a.cycles),
                            static_cast<long long>(b.cycles), a.swaps,
                            b.swaps);
        } else {
            _outputs.push_back(std::move(b));
        }
        row.push_back({pass[i].ms, drift});
    }
    _timed.push_back(std::move(row));
}

void Bench::checkOutputs()
{
    for (std::size_t i = 0; i < _outputs.size(); ++i) {
        const Job &job = _workload.jobs[i];
        const auto graph =
            toqm::serve::ArchCache::global().lookup(job.shape.arch);
        CheckResult check = checkResponse(job, _outputs[i], *graph);
        if (check.knownDefect)
            ++_knownDefects;
        if (check.failed())
            _unexpected = true;
        if (check.failed() || check.knownDefect)
            std::printf("%s %s: %s\n",
                        check.knownDefect ? "known-defect" : "FAILED",
                        job.id.c_str(), check.message.c_str());
        _semanticMs += check.semanticMs;
        _checks.push_back(std::move(check));
    }
    for (const auto &row : _timed) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            ++_attempted;
            if (row[i].drift) {
                _unexpected = true;
                ++_failed;
            } else if (_checks[i].failed()) {
                ++_failed;
            }
        }
    }
}

void Bench::checkTracedCounters(const std::vector<LayerPass> &traced)
{
    for (const LayerPass &layers : traced) {
        if (layers.counters != traced.front().counters) {
            _unexpected = true;
            _problems.push_back("search/serve counters drift between "
                                "traced passes");
        }
        if (layers.keyMismatch) {
            _unexpected = true;
            _problems.push_back("direct cache probe missed an entry "
                                "handle() hit: configText is stale");
        }
    }
}

std::map<std::string, std::pair<double, std::string>>
Bench::endToEndMetrics() const
{
    // Every pass repeats the same deterministic work.  A request's
    // time is the lower quartile of its passes: host contention comes
    // in bursts of seconds that slow whole passes by up to half, which
    // a quartile ignores while up to three in four passes are hit, and
    // one request jitters by a third from pass to pass, which makes
    // its single fastest pass a noisy statistic.  The quantiles and
    // the rate are taken over those per-request times.
    std::vector<double> perRequest(_workload.jobs.size(), 0.0);
    double totalMs = 0.0, gates = 0.0;
    for (std::size_t i = 0; i < perRequest.size(); ++i) {
        std::vector<double> passes;
        for (const auto &row : _timed)
            passes.push_back(row[i].ms);
        perRequest[i] = quantile(std::move(passes), 0.25);
        totalMs += perRequest[i];
        gates += _workload.jobs[i].gates;
    }
    double logSum = 0.0;
    int ratios = 0;
    double swaps = 0.0;
    for (std::size_t i = 0; i < _workload.jobs.size(); ++i) {
        const MapResponse &r = _outputs[i];
        swaps += r.swaps;
        if (r.code == 0 && _workload.jobs[i].base > 0) {
            logSum += std::log(static_cast<double>(_checks[i].cycles) /
                               static_cast<double>(_workload.jobs[i].base));
            ++ratios;
        }
    }
    return {
        {"latency_ms_p50", {quantile(perRequest, 0.5), "ms"}},
        {"latency_ms_p90", {quantile(perRequest, 0.9), "ms"}},
        {"gates_per_s", {gates / (totalMs / 1e3), "gates/s"}},
        {"cycles_ratio",
         {ratios > 0 ? std::exp(logSum / ratios) : 0.0, "ratio"}},
        {"swaps_total", {swaps, "count"}},
        {"peak_rss_mb", {_peakRssMb, "MiB"}},
        {"setup_s", {median(_setupS), "s"}},
    };
}

std::map<std::string, std::pair<double, std::string>>
Bench::perLayerMetrics(const std::vector<LayerPass> &traced,
                       double overhead) const
{
    const double n = static_cast<double>(_workload.jobs.size());
    // Times are per request of the pass (layer total / requests), the
    // median over traced passes; counters are exact per pass.
    auto perPass = [&](auto get) {
        std::vector<double> v;
        for (const LayerPass &l : traced)
            v.push_back(get(l));
        return median(v);
    };
    auto perRequest = [&](auto get) { return perPass(get) / n; };
    auto span = [&](const char *name) {
        return perRequest([&](const LayerPass &l) {
            const auto it = l.spanMs.find(name);
            return it == l.spanMs.end() ? 0.0 : it->second;
        });
    };
    auto phase = [&](const char *name) {
        return perRequest([&](const LayerPass &l) {
            const auto it = l.phaseMs.find(name);
            return it == l.phaseMs.end() ? 0.0 : it->second;
        });
    };
    const LayerPass &first = traced.front();
    auto count = [&](const char *name) {
        const auto it = first.counters.find(name);
        return it == first.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };
    auto wins = [&](const char *name) {
        const auto it = first.wins.find(name);
        return it == first.wins.end() ? 0.0
                                      : static_cast<double>(it->second);
    };
    const double generated = count("search.optimal.generated");
    const double searchMsTotal = phase("search@optimal") * n;
    const double requests = count("serve.requests");
    const double hits = count("serve.exact_hits") +
                        count("serve.canonical_hits") +
                        count("serve.structured_hits");
    return {
        {"qasm.parse_ms", {span("qasm.parse"), "ms"}},
        {"qasm.render_ms", {span("qasm.render"), "ms"}},
        {"serve.canonicalize_ms", {span("serve.canonicalize"), "ms"}},
        {"serve.hash_ms", {span("serve.hash"), "ms"}},
        {"serve.cache_find_us", {span("serve.cache_find") * 1e3, "us"}},
        {"serve.structured_ms", {span("serve.structured"), "ms"}},
        {"serve.exact_hits", {count("serve.exact_hits"), "count"}},
        {"serve.canonical_hits", {count("serve.canonical_hits"), "count"}},
        {"serve.structured_hits",
         {count("serve.structured_hits"), "count"}},
        {"serve.searches", {count("serve.searches"), "count"}},
        {"serve.evictions", {count("serve.evictions"), "count"}},
        {"serve.verify_rejected", {count("serve.verify_rejected"), "count"}},
        {"serve.hit_ratio", {requests > 0 ? hits / requests : 0.0, "ratio"}},
        {"serve.hit_time_share",
         {perPass([](const LayerPass &l) {
              return l.requestMs > 0 ? l.hitMs / l.requestMs : 0.0;
          }),
          "ratio"}},
        {"search.optimal_ms", {phase("search@optimal"), "ms"}},
        {"layout.ms", {phase("layout"), "ms"}},
        {"search.expanded", {count("search.optimal.expanded"), "count"}},
        {"search.generated", {generated, "count"}},
        {"search.filtered", {count("search.optimal.filtered"), "count"}},
        {"search.filtered_ratio",
         {generated > 0 ? count("search.optimal.filtered") / generated
                        : 0.0,
          "ratio"}},
        {"search.expanded_per_s",
         {searchMsTotal > 0
              ? count("search.optimal.expanded") / (searchMsTotal / 1e3)
              : 0.0,
          "1/s"}},
        {"search.peak_pool_mb", {first.peakPoolMb, "MiB"}},
        {"heuristic.ms", {phase("search@heuristic"), "ms"}},
        {"heuristic.expanded",
         {count("search.heuristic.expanded"), "count"}},
        {"sabre.ms", {phase("search@sabre"), "ms"}},
        {"zulehner.ms", {phase("search@zulehner"), "ms"}},
        {"portfolio.ms", {span("portfolio.direct"), "ms"}},
        {"portfolio.wins.astar", {wins("astar"), "count"}},
        {"portfolio.wins.astar-nofilter", {wins("astar-nofilter"), "count"}},
        {"portfolio.wins.ida", {wins("ida"), "count"}},
        {"portfolio.wins.heuristic", {wins("heuristic"), "count"}},
        {"verify.ms", {phase("verify"), "ms"}},
        {"sim.semantic_ms", {_semanticMs / n, "ms"}},
        {"schedule.ms", {phase("schedule"), "ms"}},
        {"check.known_defect_misses",
         {static_cast<double>(_knownDefects), "count"}},
        {"arch.build_ms", {median(_archMs), "ms"}},
        {"trace.overhead_ratio", {overhead, "ratio"}},
    };
}

/** Self-time share of each layer in traced request time. */
void Bench::printShares(const std::vector<LayerPass> &traced) const
{
    const LayerPass &l = traced.front();
    std::map<std::string, double> self = l.selfMs;
    self["qasm.parse"] = l.spanMs.count("qasm.parse")
                             ? l.spanMs.at("qasm.parse")
                             : 0.0;
    self.erase("parse"); // inside the benchmark's qasm.parse span
    std::printf("layer_shares {");
    bool first = true;
    for (const auto &[name, ms] : self) {
        if (ms <= 0.0)
            continue;
        std::printf("%s\"%s\":%.4f", first ? "" : ",", name.c_str(),
                    ms / l.requestMs);
        first = false;
    }
    std::printf("}\n");
}

void Bench::writeTraceFile(const std::vector<LayerPass> &traced) const
{
    if (_opt.traceFile.empty())
        return;
    std::ofstream out(_opt.traceFile);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto emit = [&](const std::string &name, int tid, std::uint64_t b,
                    std::uint64_t e, std::size_t job, std::size_t pass) {
        out << (first ? "" : ",") << "{\"name\":\"" << name
            << "\",\"ph\":\"X\",\"pid\":" << pass + 1 << ",\"tid\":" << tid
            << ",\"ts\":" << b << ",\"dur\":" << e - b
            << ",\"args\":{\"request\":\"" << _workload.jobs[job].id
            << "\"}}";
        first = false;
    };
    for (std::size_t p = 0; p < traced.size(); ++p) {
        for (const Span &s : traced[p].spans)
            emit(s.name, 0, s.begin, s.end, s.job, p);
        for (const auto &s : traced[p].libSpans)
            emit(s.name, s.tid, s.begin, s.end, s.job, p);
    }
    out << "]}\n";
}

int Bench::run()
{
    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                _opt.workload.c_str(),
                static_cast<unsigned long long>(_opt.seed), _opt.seconds,
                _opt.trace ? 1 : 0);
    for (int rep = 0; rep < kSetupRepeats; ++rep)
        setUp();
    std::printf("setup: %zu requests per pass, devices:",
                _workload.jobs.size());
    for (const auto &a : _workload.archs)
        std::printf(" %s", a.c_str());
    std::printf("\n");

    std::vector<LayerPass> traced;
    std::vector<double> overheads;
    const auto start = Clock::now();
    do {
        MapService untracedService(_workload.service);
        Pass pass = runPass(untracedService);
        if (_opt.trace) {
            MapService tracedService(_workload.service);
            Pass tracedPass;
            traced.push_back(runTracedPass(tracedService, tracedPass));
            double untracedMs = 0.0;
            for (const Served &s : pass)
                untracedMs += s.ms;
            overheads.push_back(traced.back().requestMs / untracedMs);
            record(std::move(pass));
            record(std::move(tracedPass));
        } else {
            record(std::move(pass));
        }
        setUp();
    } while (msSince(start) < _opt.seconds * 1e3);
    std::printf("setup: %zu repeats, median %.1f ms, min %.1f ms\n",
                _setupS.size(), median(_setupS) * 1e3,
                *std::min_element(_setupS.begin(), _setupS.end()) * 1e3);
    // The mapping work's own peak, before the output check runs.
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    _peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    std::fflush(stdout);

    std::vector<std::pair<double, std::size_t>> slowest;
    for (const auto &row : _timed)
        for (std::size_t i = 0; i < row.size(); ++i)
            slowest.emplace_back(row[i].ms, i);
    std::sort(slowest.rbegin(), slowest.rend());
    std::printf("slowest:");
    for (std::size_t k = 0; k < std::min<std::size_t>(3, slowest.size()); ++k)
        std::printf(" %s %.1fms", _workload.jobs[slowest[k].second].id.c_str(),
                    slowest[k].first);
    std::printf("\n");

    checkOutputs();
    if (_opt.trace)
        checkTracedCounters(traced);
    for (const auto &p : _problems)
        std::printf("FAILED %s\n", p.c_str());

    const auto metrics = _opt.trace
                             ? perLayerMetrics(traced, median(overheads))
                             : endToEndMetrics();
    if (_opt.trace) {
        printShares(traced);
        writeTraceFile(traced);
    }
    std::printf("passes=%zu attempted=%llu failed=%llu fail_ratio=%.6f "
                "known_defect_misses=%llu of %zu requests per pass\n",
                _timed.size(), static_cast<unsigned long long>(_attempted),
                static_cast<unsigned long long>(_failed),
                static_cast<double>(_failed) /
                    static_cast<double>(_attempted),
                static_cast<unsigned long long>(_knownDefects),
                _workload.jobs.size());
    for (const auto &[name, value] : metrics)
        std::printf("  %-32s %14.6g %s\n", name.c_str(), value.first,
                    value.second.c_str());

    std::string json = "{\"correct\": ";
    json += _unexpected ? "false" : "true";
    json += ", \"attempted\": " + std::to_string(_attempted);
    json += ", \"failed\": " + std::to_string(_failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value.first);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + value.second + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

} // namespace

int main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
        if (std::find(workloadNames().begin(), workloadNames().end(),
                      opt.workload) == workloadNames().end())
            throw std::invalid_argument("unknown workload " + opt.workload);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    try {
        return Bench(std::move(opt)).run();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
